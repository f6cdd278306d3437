"""The identity registry: both sides of each factorization identity, and the verdicts.

`IDENTITIES` holds one `Identity` per checkable statement: its two sides
(or its check), where in n it applies, whether numeric mode and the second
form g enter, and its suite grid.  `verify()` gives one verdict and
`verify_at_primes()` reports it at each prime; the CLI and the suites read
the same table.

Symbolic mode is the primary check: both sides of every identity in scope
are products of linear terms (1 - root T) whose roots are unit monomials,
stored as exponent triples (see `satake`), so two sides are equal as
polynomials exactly when every root has the same multiplicity on both.
That comparison is exact at every degree that occurs (8 up to 2048) and by
unique factorization it is equivalent to expanding and comparing the
coefficient lists, which stops being tractable around degree 128.  It
reads the root counts each side keeps, packed q-rows (see `euler`), as one
dict comparison, and lists no root.

When a symbolic comparison fails, the witness is the T^1 coefficient of
both sides, which `laurent` writes from the same rows.  Every root has the
implicit coefficient +1, so that coefficient (minus the root sum) already
determines the root multiset and therefore differs whenever the
multisets do.

The eigenvalue constants of `c1_frobenius` are not factors in T but
products m prod (1 + u) of unit monomials, compared just as exactly in the
canonical form of `_factored_form`, at every n up to the CLI cap.

Numeric mode checks the real eigenvalue data at each prime, as numeric
`euler` and `lvalue` check them, and gives the verdict of the same root
count comparison: sides with equal counts are equal polynomials in the
Satake parameters, so they agree at any data, at every degree.

The spinor identities take three mutation hooks (an alternative beta
function, a shift bump on one factor, and replacement parameters for the
left side) which the negative-control suite uses to confirm that single
perturbations are detected.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import laurent
from .beta import beta_value
from .errors import GenusTooLarge
from .euler import (
    LocalFactor,
    spinor_factor,
    standard_factor,
    sym_power_factor,
    tensor_factor,
)
from .qexp import EigenformData, hecke_eigenvalue
from .satake import (
    Monomial,
    SatakeParams,
    check_units,
    elliptic_satake,
    ikeda_satake,
    miyawaki_satake,
    mono_inv,
    mono_mul,
)

BetaFn = Callable[[int, int, int], int]
ShiftBump = Optional[Tuple[Tuple[int, int], int]]
Sides = Tuple[LocalFactor, LocalFactor]
#: monomial times prod (1 + u) over the unit monomials u
Factored = Tuple[Monomial, Sequence[Monomial]]


class NegativeMultiplicity(ValueError):
    """A beta exponent went negative: the factored side is not a polynomial."""


class VerificationReport:
    __slots__ = ("identity_id", "parameters", "verdict", "witness")

    def __init__(self, identity_id: str, parameters: Dict, verdict: str,
                 witness: Optional[Dict] = None):
        self.identity_id, self.parameters = identity_id, parameters
        self.verdict, self.witness = verdict, witness

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


# -- comparison ---------------------------------------------------------------

def compare_symbolic(lhs: LocalFactor, rhs: LocalFactor) -> Tuple[bool, Optional[Dict]]:
    if lhs.rows == rhs.rows:
        return True, None
    # the T^1 coefficient, minus the root sum, tells any two multisets apart
    return False, {"t_degree": 1, "lhs": laurent.Rows((True, lhs.runs())),
                   "rhs": laurent.Rows((True, rhs.runs()))}


def _factored_form(monomial: Monomial,
                   units: Sequence[Monomial]) -> Tuple[Monomial, List[Monomial]]:
    """Canonical form of m prod (1 + u): each unit u below (0, 0, 0) in lex
    order becomes u^-1 and multiplies m, as 1 + u = u (1 + u^-1); then the
    units are sorted.

    Two values are equal as Laurent polynomials exactly when their forms
    are.  Substitute a = x^(N^2), b = x^N, q = x with N above twice every
    exponent in sight: that is injective on the monomials of both forms and
    turns each unit into x^e with e > 0.  As 1 + x^e is the product of the
    cyclotomic Phi_d(x) over d | 2e with d not dividing e, Phi_(2E) for the
    largest e = E divides 1 + x^e only when e = E, so both sides hold the
    same number of units of exponent E.  Cancel them and induct; what is
    left is the monomial.  A unit u = (0, 0, 0) is the constant 2, which
    Gauss's lemma (each 1 + x^e is primitive) counts apart.
    """
    units = list(units)
    for i, unit in enumerate(units):
        if unit < (0, 0, 0):
            monomial, units[i] = mono_mul(monomial, unit), mono_inv(unit)
    return monomial, sorted(units)


def compare_factored(lhs: Factored, rhs: Factored) -> Tuple[bool, Optional[Dict]]:
    """Exact equality of two factored values; the witness is both forms."""
    lf, rf = _factored_form(*lhs), _factored_form(*rhs)
    if lf == rf:
        return True, None
    lv, rv = ({"monomial": laurent.Rows((False, LocalFactor((monomial,)).runs())),
               "units": [laurent.Rows((False, LocalFactor((unit,)).runs())) for unit in units]}
              for monomial, units in (lf, rf))
    return False, {"lhs": lv, "rhs": rv}


# -- the eigenvalue data at a prime -------------------------------------------

def satake_values(f: EigenformData, g: Optional[EigenformData],
                  n: int, k: int, p: int) -> Tuple[int, Optional[int]]:
    """(lambda_f(p), lambda_g(p)) as checked ints, lambda_g None without g:
    the one per-prime read of every numeric path.  hecke_eigenvalue checks
    each value (a prime, Deligne's bound, the Eisenstein congruence), so data
    of the wrong weight is refused.  Numeric `euler` and `lvalue` take roots
    from qexp.numeric_satake, which refuses nothing that passes here: the
    weights are even, and |lambda| <= 2 p^((w-1)/2)."""
    if f.weight != 2 * k:
        raise ValueError(f"f has weight {f.weight}, expected {2 * k}")
    lam_f = hecke_eigenvalue(f, p)
    if g is None:
        return lam_f, None
    if g.weight != k + n:
        raise ValueError(f"g has weight {g.weight}, expected {k + n}")
    return lam_f, hecke_eigenvalue(g, p)


# -- the product sides ---------------------------------------------------------------

def _shifted_product(N: int, k: int, factor: Callable[[int], LocalFactor],
                     beta_fn: BetaFn, shift_bump: ShiftBump) -> LocalFactor:
    """prod over m = 0..N and r = -m(2N-m)..m(2N-m) (step 2) of factor(m)
    shifted by q^(m(2k-1)-r), with multiplicity beta(r, m, N).  Each factor(m)
    is built once, where some multiplicity at m is positive; a shift bump is
    checked where it lands, as factor(m) checks k."""
    parts = []
    for m in range(N + 1):
        bound = m * (2 * N - m)
        row = []
        for r in range(-bound, bound + 1, 2):
            e = beta_fn(r, m, N)
            if e < 0:
                raise NegativeMultiplicity(
                    f"beta({r},{m},{N}) = {e} < 0: product side undefined")
            c = m * (2 * k - 1) - r
            if shift_bump is not None and shift_bump[0] == (m, r):
                c += shift_bump[1]
                check_units(((0, 0, c),), "roots")
            row.append(((0, 0, c), e))
        if any(e for _, e in row):
            base = factor(m)
            parts += [(base, shift, e) for shift, e in row]
    return LocalFactor(parts=parts)


def miyawaki_spinor_lhs(n: int, k: int,
                        params: Optional[SatakeParams] = None) -> LocalFactor:
    params = params if params is not None else miyawaki_satake(n, k)
    return spinor_factor(params)


def main_theorem_rhs(n: int, k: int, beta_fn: BetaFn = beta_value,
                     shift_bump: ShiftBump = None) -> LocalFactor:
    """Tensor-factor product side: the g x sym_(n-m-1) f factors with
    exponents beta(r, m, n-1); the m = 0 term is the leading unshifted one."""
    return _shifted_product(n - 1, k, lambda m: tensor_factor(n - m, k, n),
                            beta_fn, shift_bump)


def ikeda_spinor_sides(n: int, k: int, beta_fn: BetaFn = beta_value,
                       shift_bump: ShiftBump = None,
                       lhs_params: Optional[SatakeParams] = None) -> Sides:
    """Spinor factor of the genus-2n lift and its shifted symmetric powers."""
    params = lhs_params if lhs_params is not None else ikeda_satake(n, k)
    return spinor_factor(params), _shifted_product(
        n, k, lambda m: sym_power_factor(n - m, k), beta_fn, shift_bump)


# -- the standard factors ---------------------------------------------------------

def ikeda_standard_sides(n: int, k: int) -> Sides:
    """Standard factor of the genus-2n lift against zeta times shifted f factors."""
    lhs, f = standard_factor(ikeda_satake(n, k)), sym_power_factor(1, k)
    return lhs, LocalFactor(parts=[(sym_power_factor(0, k), (0, 0, 0), 1)] +
                            [(f, (0, 0, -2 * (k + n - i)), 1) for i in range(1, 2 * n + 1)])


def miyawaki_standard_sides(n: int, k: int) -> Sides:
    """Standard factor of the pair lift against that of g times shifted f factors."""
    lhs, f = standard_factor(miyawaki_satake(n, k)), sym_power_factor(1, k)
    return lhs, LocalFactor(parts=[(standard_factor(elliptic_satake(k + n)), (0, 0, 0), 1)] +
                            [(f, (0, 0, -2 * (k + n - 1 - i)), 1) for i in range(1, 2 * n - 1)])


# -- checks that are not factor equalities ----------------------------------------

def _c1_eigenvalue(n: int, k: int) -> Factored:
    """The T(p)-eigenvalue lambda_g(p) C1 of the genus-(2n-1) pair lift, with
    lambda_g(p) = (b + 1/b) q^(k+n-1) and C1 = p^(-(n-1)(n+2)/2) p^((n-1)(k+n))
    prod over i = 1..n-1 of (1 + a q^(1-2i))(1 + 1/a q^(1-2i)), factored as
    b^-1 q^s (1 + b^2) prod (1 + a q^(1-2i))(1 + 1/a q^(1-2i))."""
    s = (k + n - 1) - (n - 1) * (n + 2) + 2 * (n - 1) * (k + n)
    units = [(0, 2, 0)]
    for i in range(1, n):
        units += ((1, 0, 1 - 2 * i), (-1, 0, 1 - 2 * i))
    return (0, -1, s), units


def _c1_frobenius_check(n: int, k: int) -> Tuple[bool, Optional[Dict]]:
    """The operator eigenvalue lambda_g(p) C1 against mu0 prod (1 + mu_i)."""
    params = miyawaki_satake(n, k)
    return compare_factored(_c1_eigenvalue(n, k), (params.mu0, params.mus))


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

#: the degree 3/5/7 product sides by n, as written out in the paper: rows
#: (m, j, {i: count}), each tensor_factor(m) shifted by q^(2(jk - i)) count times
DISPLAYS = {
    2: ((1, 1, {0: 1, 1: 1}), (2, 0, {0: 1})),
    3: ((3, 0, {0: 1}), (2, 1, dict.fromkeys(range(-1, 3), 1)),
        (1, 2, dict.fromkeys(range(-1, 4), 1))),
    4: ((4, 0, {0: 1}), (3, 1, dict.fromkeys(range(-2, 4), 1)),
        (2, 2, DEG7_EPS), (1, 3, DEG7_EPS_PRIME)),
}


def example_display_rhs(n: int, k: int) -> LocalFactor:
    """The degree 3/5/7 product sides written out factor by factor (`DISPLAYS`)."""
    if n not in DISPLAYS:
        raise ValueError(f"hand-expanded cases exist for n in (2, 3, 4), got {n}")
    parts = []
    for m, j, counts in DISPLAYS[n]:
        factor = tensor_factor(m, k, n)
        parts += [(factor, (0, 0, 2 * (j * k - i)), e) for i, e in counts.items()]
    return LocalFactor(parts=parts)


def _example_check(n: int, k: int) -> Tuple[bool, Optional[Dict]]:
    """The hand-expanded product equals both the general product side and
    the spinor factor itself."""
    display = example_display_rhs(n, k)
    ok1, witness1 = compare_symbolic(display, main_theorem_rhs(n, k))
    ok2, witness2 = compare_symbolic(display, miyawaki_spinor_lhs(n, k))
    return ok1 and ok2, witness1 or witness2


# -- the registry -------------------------------------------------------------------

class Identity(NamedTuple):
    """One checkable statement and where it applies.

    `sides(n, k, **hooks)` returns the two factors to compare; statements
    that are not factor equalities give `check(n, k) -> (ok, witness)`
    instead (the examples have both: `sides` for `euler`, `check` for the
    verdict); numeric mode takes exactly those without a `check`.  `n_range`
    is (smallest n, largest n or None) in both modes.  A `fixed_n` identity
    is one case whatever n is asked for; one without `uses_k` reports k as
    None.  `grid` lists its (n, k) in `full_symbolic_suite`, and `hooks`
    the mutation hooks its `sides` take.
    """
    sides: Optional[Callable[..., Sides]] = None
    check: Optional[Callable[[int, Optional[int]], Tuple[bool, Optional[Dict]]]] = None
    n_range: Tuple[int, Optional[int]] = (1, None)
    needs_g: bool = True
    fixed_n: Optional[int] = None
    uses_k: bool = True
    grid: Tuple[Tuple[int, Optional[int]], ...] = ()
    hooks: Tuple[str, ...] = ()


SPINOR_HOOKS = ("beta_fn", "shift_bump", "lhs_params")

# Public side builders are called through their module-level names rather
# than stored as function objects, so anything rebinding those names (a
# tracer, a test double) is honoured.
IDENTITIES: Dict[str, Identity] = {
    "main_theorem": Identity(
        sides=lambda n, k, lhs_params=None, **hooks: (
            miyawaki_spinor_lhs(n, k, lhs_params), main_theorem_rhs(n, k, **hooks)),
        n_range=(2, 6),
        grid=tuple((n, k) for k in (4, 10, 16) for n in range(2, 7)),
        hooks=SPINOR_HOOKS),
    "ikeda_spinor": Identity(
        sides=lambda n, k, **hooks: ikeda_spinor_sides(n, k, **hooks),
        n_range=(1, 4), needs_g=False,
        grid=tuple((n, k) for k in (4, 10) for n in range(1, 5)),
        hooks=SPINOR_HOOKS),
    "ikeda_standard": Identity(
        sides=lambda n, k: ikeda_standard_sides(n, k),
        n_range=(1, 6), needs_g=False,
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
    """Verdict on one identity at (n, k), exact in both modes; numeric mode
    first checks the eigenforms f (and g) at `prime` (see `verify_at_primes`).
    The hooks (beta_fn, shift_bump, lhs_params) go to the side builders of
    the spinor identities; any other identity refuses them with ValueError."""
    return verify_at_primes(identity_id, n, k, mode, (prime,), f, g, **hooks)[0]


def check_scope(identity_id: str, mode: str, n: int) -> None:
    """ValueError unless `identity_id` has verdicts in `mode` (see `Identity`)
    and n, or its fixed n, is not below its n_range; GenusTooLarge above it."""
    identity = IDENTITIES[identity_id]
    if mode not in ("symbolic", "numeric"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "numeric" and identity.check is not None:
        raise ValueError(f"identity {identity_id!r} supports symbolic mode only")
    if identity.fixed_n is not None:
        n = identity.fixed_n
    low, cap = identity.n_range
    if n < low:
        raise ValueError(f"need n >= {low}, got {n}")
    if cap is not None and n > cap:
        raise GenusTooLarge(f"{mode} {identity_id} check capped at n = {cap}")


def verify_at_primes(identity_id: str, n: int, k: int, mode: str,
                     primes: Sequence[Optional[int]], f: Optional[EigenformData] = None,
                     g: Optional[EigenformData] = None, **hooks) -> List[VerificationReport]:
    """verify() at each of `primes`: one verdict, shared by every prime.

    Numeric mode first reads the eigenvalues of f (and g) at every prime
    through satake_values, the read numeric `euler` and `lvalue` make, so it
    refuses exactly the data they refuse.  It computes no roots: the verdict
    does not depend on them, as sides with equal root counts are equal at
    every substitution."""
    identity = IDENTITIES[identity_id]
    refused = sorted(set(hooks) - set(identity.hooks))
    if refused:
        raise ValueError(f"identity {identity_id!r} takes no hook {', '.join(refused)}; "
                         f"it accepts {', '.join(identity.hooks) or 'none'}")
    if identity.fixed_n is not None:
        n = identity.fixed_n
    if not identity.uses_k:
        k = None
    check_scope(identity_id, mode, n)
    if mode == "numeric":
        if not identity.needs_g:
            g = None
        elif (k + n) % 2:
            raise ValueError(f"numeric mode needs k+n even, got k={k}, n={n}")
        if None in primes or f is None or (identity.needs_g and g is None):
            needed = "prime, f and g" if identity.needs_g else "prime and f"
            raise ValueError(f"numeric mode needs {needed}")
        for prime in primes:
            satake_values(f, g, n, k, prime)
    try:
        if identity.check is not None:
            ok, witness = identity.check(n, k)
        else:
            ok, witness = compare_symbolic(*identity.sides(n, k, **hooks))
    except NegativeMultiplicity as exc:
        ok, witness = False, {"reason": str(exc)}
    return [VerificationReport(identity_id, {"n": n, "k": k, "mode": mode, "prime": prime},
                               "pass" if ok else "fail", witness) for prime in primes]


# -- suites -----------------------------------------------------------------------

def full_symbolic_suite() -> List[VerificationReport]:
    """Every symbolic identity over its parameter grid."""
    return [verify(identity_id, n, k) for identity_id, identity in IDENTITIES.items()
            for n, k in identity.grid]


def negative_control_hooks(n: int, k: int) -> List[Dict]:
    """Three single perturbations of main_theorem at (n, k), as verify() hooks."""
    # (r, m) = (1, 1) is enumerated for every n >= 2, so both bumps always land
    def bumped(r: int, m: int, N: int) -> int:
        return beta_value(r, m, N) + ((r, m, N) == (1, 1, n - 1))

    params = miyawaki_satake(n, k)
    mus = (mono_mul(params.mus[0], (0, 0, 1)),) + params.mus[1:]
    return [{"beta_fn": bumped}, {"shift_bump": ((1, 1), +1)},
            {"lhs_params": SatakeParams(params.genus, params.mu0, mus)}]


def negative_control_reports(n: int = 2, k: int = 10) -> List[VerificationReport]:
    """Deliberately corrupted runs; every report here must FAIL with a witness."""
    return [verify("main_theorem", n, k, **hooks) for hooks in negative_control_hooks(n, k)]
