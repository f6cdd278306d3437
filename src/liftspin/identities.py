"""The identity registry: both sides of each factorization identity, and the verdicts.

`IDENTITIES` holds one `Identity` per checkable statement: its two sides
(or its check), where in n it applies, whether numeric mode and the second
form g enter, and its suite grid.  `verify()` is the one verdict function;
the CLI and the suites read the same table.

Symbolic mode is the primary check: both sides of every identity in scope
are products of linear terms (1 - root T) with unit-monomial roots, so two
sides are equal as polynomials exactly when their root multisets coincide.
That comparison is exact at every degree that occurs (8 up to 2048) and by
unique factorization it is equivalent to expanding and comparing the
coefficient lists, which stops being tractable around degree 128.

When a symbolic comparison fails, the witness is the T^1 coefficient of
both sides.  Every root is a unit monomial with coefficient +1, so that
coefficient (minus the root sum) already determines the root multiset and
therefore differs whenever the multisets do.

Numeric mode instantiates the same constructions at real eigenvalue data
and compares expanded coefficients within a relative tolerance, after
rescaling T on both sides by the mean q-power of the left side's roots so
that nothing leaves double-precision range.

The spinor identities take three mutation hooks (an alternative beta
function, a shift bump on one factor, and replacement parameters for the
left side) which the negative-control suite uses to confirm that single
perturbations are detected.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from .beta import beta_value
from .errors import GenusTooLarge
from .euler import (
    LocalFactor,
    c1_eigenvalue,
    frobenius_eigenvalue,
    hecke_factor,
    spinor_factor,
    standard_factor,
    sym_power_factor,
    tensor_factor,
)
from .laurent import LaurentPoly
from .qexp import EigenformData, check_deligne_bound, hecke_eigenvalue, numeric_satake
from .satake import SatakeParams, elliptic_satake, ikeda_satake, miyawaki_satake

NUMERIC_TOL = 1e-9

BetaFn = Callable[[int, int, int], int]
ShiftBump = Optional[Tuple[Tuple[int, int], int]]
Sides = Tuple[LocalFactor, LocalFactor]


class NegativeMultiplicity(ValueError):
    """A beta exponent went negative: the factored side is not a polynomial."""


@dataclass
class VerificationReport:
    identity_id: str
    parameters: Dict
    verdict: str
    witness: Optional[Dict] = field(default=None)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json_dict(self) -> dict:
        return {
            "identity": self.identity_id,
            "parameters": dict(self.parameters),
            "verdict": self.verdict,
            "witness": self.witness,
        }


# -- comparison ---------------------------------------------------------------

def compare_symbolic(lhs: LocalFactor, rhs: LocalFactor) -> Tuple[bool, Optional[Dict]]:
    if lhs.root_multiset() == rhs.root_multiset():
        return True, None
    # the T^1 coefficient is minus the sum of the +1-coefficient monomial
    # roots, so it tells any two distinct root multisets apart
    zero = LaurentPoly.zero()
    lv, rv = ((side.truncated_coefficients(1) + [zero])[1] for side in (lhs, rhs))
    assert lv != rv, "root multisets differ but their T^1 coefficients agree"
    return False, {"t_degree": 1, "lhs": lv.to_json_dict(), "rhs": rv.to_json_dict()}


def compare_numeric(lhs: LocalFactor, rhs: LocalFactor,
                    tol: float = NUMERIC_TOL) -> Tuple[bool, Optional[Dict]]:
    lc = lhs.coefficients(cap=None)
    rc = rhs.coefficients(cap=None)
    for d in range(max(len(lc), len(rc))):
        lv = lc[d] if d < len(lc) else 0j
        rv = rc[d] if d < len(rc) else 0j
        if abs(lv - rv) > tol * max(abs(lv), abs(rv), 1.0):
            return False, {"t_degree": d, "lhs": [lv.real, lv.imag],
                           "rhs": [rv.real, rv.imag]}
    return True, None


# -- numeric instantiation helpers --------------------------------------------

def _satake_root(form: EigenformData, p: int) -> complex:
    lam = hecke_eigenvalue(form, p)
    check_deligne_bound(lam, form.weight, p)
    return numeric_satake(lam, form.weight, p)[0]


def satake_values(f: EigenformData, g: Optional[EigenformData],
                  n: int, k: int, p: int) -> Tuple[complex, complex]:
    """(alpha, beta) at p from eigenvalue data; beta is 0j when g is absent.

    Each eigenvalue is checked against Deligne's bound first, so data of
    the wrong weight is rejected instead of yielding off-circle roots."""
    if f.weight != 2 * k:
        raise ValueError(f"f has weight {f.weight}, expected {2 * k}")
    alpha = _satake_root(f, p)
    beta = 0j
    if g is not None:
        if g.weight != k + n:
            raise ValueError(f"g has weight {g.weight}, expected {k + n}")
        beta = _satake_root(g, p)
    return alpha, beta


# -- the beta-weighted product sides ----------------------------------------------

def _shifted_product(label: str, N: int, k: int, factor: Callable[[int], LocalFactor],
                     beta_fn: BetaFn, shift_bump: ShiftBump) -> LocalFactor:
    """prod over m = 0..N and r = -m(2N-m)..m(2N-m) (step 2) of factor(m)
    shifted by q^(m(2k-1)-r), with multiplicity beta(r, m, N)."""
    roots: list = []
    for m in range(N + 1):
        bound = m * (2 * N - m)
        for r in range(-bound, bound + 1, 2):
            e = beta_fn(r, m, N)
            if e < 0:
                raise NegativeMultiplicity(
                    f"beta({r},{m},{N}) = {e} < 0: product side undefined")
            if e == 0:
                continue
            c = m * (2 * k - 1) - r
            if shift_bump is not None and shift_bump[0] == (m, r):
                c += shift_bump[1]
            roots.extend(factor(m).shift(c).roots * e)
    return LocalFactor(label, tuple(roots))


def miyawaki_spinor_lhs(n: int, k: int,
                        params: Optional[SatakeParams] = None) -> LocalFactor:
    params = params if params is not None else miyawaki_satake(n, k)
    return spinor_factor(params, label=f"spin[miyawaki n={n},k={k}]")


def main_theorem_rhs(n: int, k: int, beta_fn: BetaFn = beta_value,
                     shift_bump: ShiftBump = None) -> LocalFactor:
    """Tensor-factor product side: the g x sym_(n-m-1) f factors with
    exponents beta(r, m, n-1); the m = 0 term is the leading unshifted one."""
    return _shifted_product(f"rhs[main n={n},k={k}]", n - 1, k,
                            lambda m: tensor_factor(n - m, k, n), beta_fn, shift_bump)


def ikeda_spinor_sides(n: int, k: int, beta_fn: BetaFn = beta_value,
                       shift_bump: ShiftBump = None,
                       lhs_params: Optional[SatakeParams] = None) -> Sides:
    """Spinor factor of the genus-2n lift and its shifted symmetric powers."""
    params = lhs_params if lhs_params is not None else ikeda_satake(n, k)
    lhs = spinor_factor(params, label=f"spin[ikeda n={n},k={k}]")
    rhs = _shifted_product(f"rhs[ikeda_spinor n={n},k={k}]", n, k,
                           lambda m: sym_power_factor(n - m, k), beta_fn, shift_bump)
    return lhs, rhs


# -- the standard factors ---------------------------------------------------------

def ikeda_standard_sides(n: int, k: int) -> Sides:
    """Standard factor of the genus-2n lift against zeta times shifted f factors."""
    lhs = standard_factor(ikeda_satake(n, k), label=f"st[ikeda n={n},k={k}]")
    roots = [LaurentPoly.one()]
    for i in range(1, 2 * n + 1):
        roots.extend(hecke_factor("f", k, n).shift(-2 * (k + n - i)).roots)
    rhs = LocalFactor(f"rhs[ikeda_standard n={n},k={k}]", tuple(roots))
    return lhs, rhs


def miyawaki_standard_sides(n: int, k: int) -> Sides:
    """Standard factor of the pair lift against that of g times shifted f factors."""
    lhs = standard_factor(miyawaki_satake(n, k), label=f"st[miyawaki n={n},k={k}]")
    roots = list(standard_factor(elliptic_satake(k + n, "b")).roots)
    for i in range(1, 2 * n - 1):
        roots.extend(hecke_factor("f", k, n).shift(-2 * (k + n - 1 - i)).roots)
    rhs = LocalFactor(f"rhs[miyawaki_standard n={n},k={k}]", tuple(roots))
    return lhs, rhs


# -- checks that are not factor equalities ----------------------------------------

def _c1_frobenius_check(n: int, k: int) -> Tuple[bool, Optional[Dict]]:
    """The operator eigenvalue lambda_g(p) C1 against mu0 prod (1 + mu_i)."""
    lhs = c1_eigenvalue(n, k)
    rhs = frobenius_eigenvalue(miyawaki_satake(n, k))
    if lhs == rhs:
        return True, None
    return False, {"lhs": lhs.to_json_dict(), "rhs": rhs.to_json_dict()}


# expected exponent lists of the degree-7 factorization
DEG7_EPS = {-3: 1, -2: 1, -1: 2, 0: 2, 1: 2, 2: 2, 3: 2, 4: 1, 5: 1}
DEG7_EPS_PRIME = {-3: 1, -2: 1, -1: 1, 0: 2, 1: 2, 2: 2, 3: 2, 4: 1, 5: 1, 6: 1}


def _deg7_epsilons_check(n: int, k: Optional[int]) -> Tuple[bool, Optional[Dict]]:
    """Recompute the degree-7 exponent lists from beta values.

    The reindexings are the unique affine ones compatible with the shifts
    s - 2k + i and s - 3k + i: eps_i = beta(2(i-1), 2, 3) and
    eps'_i = beta(2i-3, 3, 3); the m=1 row must be identically 1.
    """
    rows = (("eps", DEG7_EPS, lambda i: beta_value(2 * (i - 1), 2, 3)),
            ("eps_prime", DEG7_EPS_PRIME, lambda i: beta_value(2 * i - 3, 3, 3)),
            ("m=1 row", dict.fromkeys(range(-2, 4), 1), lambda i: beta_value(2 * i - 1, 1, 3)))
    mismatches = []
    for name, expected, computed in rows:
        for i, want in expected.items():
            got = computed(i)
            if got != want:
                mismatches.append({"list": name, "i": i, "computed": got, "expected": want})
    return not mismatches, {"mismatches": mismatches} if mismatches else None


# -- hand-expanded low-degree cases ----------------------------------------------

def example_display_rhs(n: int, k: int) -> LocalFactor:
    """The degree 3/5/7 product sides written out factor by factor."""
    if n == 2:
        factors = [
            hecke_factor("g", k, n).shift(2 * k),
            hecke_factor("g", k, n).shift(2 * k - 2),
            tensor_factor(2, k, n),
        ]
    elif n == 3:
        factors = [tensor_factor(3, k, n)]
        factors += [tensor_factor(2, k, n).shift(2 * (k - i)) for i in range(-1, 3)]
        factors += [hecke_factor("g", k, n).shift(2 * (2 * k - i)) for i in range(-1, 4)]
    elif n == 4:
        factors = [tensor_factor(4, k, n)]
        factors += [tensor_factor(3, k, n).shift(2 * (k - i)) for i in range(-2, 4)]
        for i, eps in DEG7_EPS.items():
            factors += [tensor_factor(2, k, n).shift(2 * (2 * k - i))] * eps
        for i, eps in DEG7_EPS_PRIME.items():
            factors += [hecke_factor("g", k, n).shift(2 * (3 * k - i))] * eps
    else:
        raise ValueError(f"hand-expanded cases exist for n in (2, 3, 4), got {n}")
    roots = tuple(root for fac in factors for root in fac.roots)
    return LocalFactor(f"display[deg{2 * n - 1},k={k}]", roots)


def _example_check(n: int, k: int) -> Tuple[bool, Optional[Dict]]:
    """The hand-expanded product equals both the general product side and
    the spinor factor itself."""
    display = example_display_rhs(n, k)
    ok1, witness1 = compare_symbolic(display, main_theorem_rhs(n, k))
    ok2, witness2 = compare_symbolic(display, miyawaki_spinor_lhs(n, k))
    return ok1 and ok2, witness1 or witness2


# -- the registry -------------------------------------------------------------------

@dataclass(frozen=True)
class Identity:
    """One checkable statement and where it applies.

    `sides(n, k, **hooks)` returns the two factors to compare; statements
    that are not factor equalities give `check(n, k) -> (ok, witness)`
    instead (the examples have both: `sides` for `euler`, `check` for the
    verdict).  `n_range` is (smallest n, symbolic cap or None), and
    `numeric_max_n` the numeric cap, 0 for symbolic only.  A `fixed_n`
    identity is one case whatever n is asked for; one without `uses_k`
    reports k as None.  `grid` lists its (n, k) in `full_symbolic_suite`.
    """
    sides: Optional[Callable[..., Sides]] = None
    check: Optional[Callable[[int, Optional[int]], Tuple[bool, Optional[Dict]]]] = None
    n_range: Tuple[int, Optional[int]] = (1, None)
    numeric_max_n: int = 0
    needs_g: bool = True
    fixed_n: Optional[int] = None
    uses_k: bool = True
    grid: Tuple[Tuple[int, Optional[int]], ...] = ()


# Public side builders are called through their module-level names rather
# than stored as function objects, so anything rebinding those names (a
# tracer, a test double) is honoured.
IDENTITIES: Dict[str, Identity] = {
    "main_theorem": Identity(
        sides=lambda n, k, lhs_params=None, **hooks: (
            miyawaki_spinor_lhs(n, k, lhs_params), main_theorem_rhs(n, k, **hooks)),
        n_range=(2, 6), numeric_max_n=3,
        grid=tuple((n, k) for k in (4, 10, 16) for n in range(2, 7))),
    "ikeda_spinor": Identity(
        sides=lambda n, k, **hooks: ikeda_spinor_sides(n, k, **hooks),
        n_range=(1, 4), needs_g=False,
        grid=tuple((n, k) for k in (4, 10) for n in range(1, 5))),
    "ikeda_standard": Identity(
        sides=lambda n, k: ikeda_standard_sides(n, k),
        n_range=(1, 6), numeric_max_n=6, needs_g=False,
        grid=tuple((n, 10) for n in range(1, 7))),
    "miyawaki_standard": Identity(
        sides=lambda n, k: miyawaki_standard_sides(n, k),
        n_range=(2, 6), grid=tuple((n, 10) for n in range(2, 7))),
    "c1_frobenius": Identity(
        check=_c1_frobenius_check,
        n_range=(2, None), grid=tuple((n, 10) for n in range(2, 7))),
    **{f"example_deg{2 * n - 1}": Identity(
        sides=lambda n, k: (miyawaki_spinor_lhs(n, k), example_display_rhs(n, k)),
        check=_example_check,
        fixed_n=n, grid=((n, 10),)) for n in (2, 3, 4)},
    "beta_epsilon_match": Identity(
        check=_deg7_epsilons_check,
        fixed_n=4, uses_k=False, grid=((4, None),)),
}

IDENTITY_IDS = tuple(IDENTITIES)


def verify(identity_id: str, n: int, k: int, mode: str = "symbolic",
           prime: Optional[int] = None, f: Optional[EigenformData] = None,
           g: Optional[EigenformData] = None, **hooks) -> VerificationReport:
    """Verdict on one identity at (n, k): exact in symbolic mode, within
    NUMERIC_TOL at `prime` from the eigenforms f (and g) in numeric mode.
    The hooks (beta_fn, shift_bump, lhs_params) go to the side builders."""
    identity = IDENTITIES[identity_id]
    if identity.fixed_n is not None:
        n = identity.fixed_n
    if not identity.uses_k:
        k = None
    parameters = {"n": n, "k": k, "mode": mode, "prime": prime}
    if mode not in ("symbolic", "numeric"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "numeric" and not identity.numeric_max_n:
        raise ValueError(f"identity {identity_id!r} supports symbolic mode only")
    low, cap = identity.n_range
    if n < low:
        raise ValueError(f"need n >= {low}, got {n}")
    cap = cap if mode == "symbolic" else identity.numeric_max_n
    if cap is not None and n > cap:
        raise GenusTooLarge(f"{mode} {identity_id} check capped at n = {cap}")
    if mode == "numeric":
        if not identity.needs_g:
            g = None
        elif (k + n) % 2:
            raise ValueError(f"numeric mode needs k+n even, got k={k}, n={n}")
        if prime is None or f is None or (identity.needs_g and g is None):
            needed = "prime, f and g" if identity.needs_g else "prime and f"
            raise ValueError(f"numeric mode needs {needed}")
        alpha, beta = satake_values(f, g, n, k, prime)
    try:
        if identity.check is not None:
            ok, witness = identity.check(n, k, **hooks)
        elif mode == "symbolic":
            ok, witness = compare_symbolic(*identity.sides(n, k, **hooks))
        else:
            lhs, rhs = identity.sides(n, k, **hooks)
            # rescale T by the mean q-power of the roots (for a spinor factor
            # the q-power of mu0) so the coefficients stay near unit size
            center = sum(r.single_term()[0][2] for r in lhs.roots) // lhs.degree
            ok, witness = compare_numeric(
                *(side.shift(-center).instantiate(alpha, beta, prime ** 0.5, prime)
                  for side in (lhs, rhs)))
    except NegativeMultiplicity as exc:
        ok, witness = False, {"reason": str(exc)}
    return VerificationReport(identity_id, parameters, "pass" if ok else "fail", witness)


# -- suites -----------------------------------------------------------------------

def full_symbolic_suite() -> List[VerificationReport]:
    """Every symbolic identity over its parameter grid."""
    return [verify(identity_id, n, k) for identity_id, identity in IDENTITIES.items()
            for n, k in identity.grid]


def negative_control_reports(n: int = 2, k: int = 10) -> List[VerificationReport]:
    """Deliberately corrupted runs; every report here must FAIL with a witness."""
    # (r, m) = (1, 1) is enumerated for every n >= 2, so the bump always lands
    bumped = _bump_beta(1, 1, n - 1, +1)
    reports = [verify("main_theorem", n, k, beta_fn=bumped)]
    reports.append(verify("main_theorem", n, k, shift_bump=((1, 1), +1)))
    params = miyawaki_satake(n, k)
    mus = list(params.mus)
    mus[0] = mus[0] * LaurentPoly.monomial(e_q=1)
    reports.append(verify("main_theorem", n, k, lhs_params=replace(params, mus=tuple(mus))))
    return reports


def _bump_beta(r0: int, m0: int, n0: int, delta: int) -> BetaFn:
    def bumped(r: int, m: int, n: int) -> int:
        base = beta_value(r, m, n)
        if (r, m, n) == (r0, m0, n0):
            return base + delta
        return base
    return bumped
