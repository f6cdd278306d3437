"""Assembly of both sides of each factorization identity, and the verdicts.

Symbolic mode is the primary check: both sides of every identity in scope
are products of linear terms (1 - root T) with unit-monomial roots, so two
sides are equal as polynomials exactly when their root multisets coincide.
That comparison is exact at every degree that occurs (8 up to 2048) and by
unique factorization it is equivalent to expanding and comparing the
coefficient lists, which stops being tractable around degree 128.

When a symbolic comparison fails, the witness is the first differing
T-coefficient, found by truncated expansion; for unit-monomial roots the
degree-1 coefficient already encodes the whole root multiset, so the
witness always shows up immediately.

Numeric mode instantiates the same constructions at real eigenvalue data
and compares expanded coefficients within a relative tolerance, after
rescaling T on both sides by the common central q-power so that nothing
leaves double-precision range.

The builders expose three mutation hooks (an alternative beta function, a
shift bump on one factor, and replacement parameters for the left side)
which the negative-control suite uses to confirm that single perturbations
are detected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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

IDENTITY_IDS = (
    "main_theorem",
    "ikeda_spinor",
    "ikeda_standard",
    "miyawaki_standard",
    "c1_frobenius",
    "example_deg3",
    "example_deg5",
    "example_deg7",
    "beta_epsilon_match",
)

NUMERIC_TOL = 1e-9
MAIN_MAX_N = 6            # genus 11, degree 2048
IKEDA_SPINOR_MAX_N = 4    # degree 256
NUMERIC_MAIN_MAX_N = 3    # keeps partial sums inside double range
STANDARD_MAX_N = 6

BetaFn = Callable[[int, int, int], int]
ShiftBump = Optional[Tuple[Tuple[int, int], int]]


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

def _symbolic_witness(lhs: LocalFactor, rhs: LocalFactor) -> Dict:
    """First differing T-coefficient of two unequal symbolic factors.

    For unit-monomial roots the degree-1 coefficient (minus the root sum)
    already encodes the root multiset, so the first pass almost always
    returns; the deepening loop only exists for defensive completeness and
    never expands beyond where the difference sits.
    """
    zero = LaurentPoly.zero()
    ceiling = min(max(lhs.degree, rhs.degree), 64)
    checked = 0
    top = 1
    while checked < ceiling:
        lc = lhs.truncated_coefficients(top)
        rc = rhs.truncated_coefficients(top)
        for d in range(checked + 1, top + 1):
            lv = lc[d] if d < len(lc) else zero
            rv = rc[d] if d < len(rc) else zero
            if lv != rv:
                return {"t_degree": d, "lhs": lv.to_json_dict(),
                        "rhs": rv.to_json_dict()}
        checked = top
        top = min(top * 4, ceiling)
    raise RuntimeError("root multisets differ but no coefficient does; "
                       "this contradicts unique factorization")


def compare_symbolic(lhs: LocalFactor, rhs: LocalFactor) -> Tuple[bool, Optional[Dict]]:
    if lhs.root_multiset() == rhs.root_multiset():
        return True, None
    return False, _symbolic_witness(lhs, rhs)


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


def _report(identity_id: str, parameters: Dict,
            ok: bool, witness: Optional[Dict]) -> VerificationReport:
    return VerificationReport(identity_id, parameters,
                              "pass" if ok else "fail", witness)


def _structural_failure(identity_id: str, parameters: Dict,
                        reason: str) -> VerificationReport:
    return VerificationReport(identity_id, parameters, "fail", {"reason": reason})


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


def _instantiate(factor: LocalFactor, alpha: complex, beta: complex,
                 p: int) -> LocalFactor:
    return factor.instantiate(alpha, beta, p ** 0.5, p)


# -- the odd-genus pair-lift factorization ---------------------------------------

def miyawaki_spinor_lhs(n: int, k: int,
                        params: Optional[SatakeParams] = None) -> LocalFactor:
    params = params if params is not None else miyawaki_satake(n, k)
    return spinor_factor(params, label=f"spin[miyawaki n={n},k={k}]")


def main_theorem_rhs(n: int, k: int, beta_fn: BetaFn = beta_value,
                     shift_bump: ShiftBump = None) -> LocalFactor:
    """Tensor-factor product side: the leading g x sym_(n-1) f factor times
    the shifted g x sym_(n-m-1) f factors with exponents beta(r, m, n-1)."""
    roots = list(tensor_factor(n, k, n).roots)
    for m in range(1, n):
        bound = m * (2 * n - m - 2)
        for r in range(-bound, bound + 1, 2):
            e = beta_fn(r, m, n - 1)
            if e < 0:
                raise NegativeMultiplicity(
                    f"beta({r},{m},{n - 1}) = {e} < 0: product side undefined")
            if e == 0:
                continue
            c = m * (2 * k - 1) - r
            if shift_bump is not None and shift_bump[0] == (m, r):
                c += shift_bump[1]
            roots.extend(tensor_factor(n - m, k, n).shift(c).roots * e)
    return LocalFactor(f"rhs[main n={n},k={k}]", tuple(roots))


def verify_main_theorem(n: int, k: int, mode: str = "symbolic",
                        prime: Optional[int] = None,
                        f: Optional[EigenformData] = None,
                        g: Optional[EigenformData] = None,
                        beta_fn: BetaFn = beta_value,
                        shift_bump: ShiftBump = None,
                        lhs_params: Optional[SatakeParams] = None,
                        ) -> VerificationReport:
    """Spinor factor of the pair lift against the tensor-factor product."""
    parameters = {"n": n, "k": k, "mode": mode, "prime": prime}
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if mode == "symbolic":
        if n > MAIN_MAX_N:
            raise GenusTooLarge(f"symbolic main_theorem check capped at n = {MAIN_MAX_N}")
        lhs = miyawaki_spinor_lhs(n, k, lhs_params)
        try:
            rhs = main_theorem_rhs(n, k, beta_fn, shift_bump)
        except NegativeMultiplicity as exc:
            return _structural_failure("main_theorem", parameters, str(exc))
        ok, witness = compare_symbolic(lhs, rhs)
        return _report("main_theorem", parameters, ok, witness)
    if mode != "numeric":
        raise ValueError(f"unknown mode {mode!r}")
    if n > NUMERIC_MAIN_MAX_N:
        raise GenusTooLarge(f"numeric main_theorem check capped at n = {NUMERIC_MAIN_MAX_N}")
    if (k + n) % 2:
        raise ValueError(f"numeric mode needs k+n even, got k={k}, n={n}")
    if prime is None or f is None or g is None:
        raise ValueError("numeric mode needs prime, f and g")
    alpha, beta = satake_values(f, g, n, k, prime)
    lhs = miyawaki_spinor_lhs(n, k, lhs_params)
    try:
        rhs = main_theorem_rhs(n, k, beta_fn, shift_bump)
    except NegativeMultiplicity as exc:
        return _structural_failure("main_theorem", parameters, str(exc))
    # rescale T by the common central power so coefficients stay near unit size
    center = (n - 1) * (2 * k - 1) + (k + n - 1)
    lhs_num = _instantiate(lhs.shift(-center), alpha, beta, prime)
    rhs_num = _instantiate(rhs.shift(-center), alpha, beta, prime)
    ok, witness = compare_numeric(lhs_num, rhs_num)
    return _report("main_theorem", parameters, ok, witness)


# -- the genus-2n lift ----------------------------------------------------------

def ikeda_spinor_sides(n: int, k: int, beta_fn: BetaFn = beta_value,
                       shift_bump: ShiftBump = None,
                       lhs_params: Optional[SatakeParams] = None,
                       ) -> Tuple[LocalFactor, LocalFactor]:
    params = lhs_params if lhs_params is not None else ikeda_satake(n, k)
    lhs = spinor_factor(params, label=f"spin[ikeda n={n},k={k}]")
    roots: list = []
    for m in range(0, n + 1):
        bound = m * (2 * n - m)
        for r in range(-bound, bound + 1, 2):
            e = beta_fn(r, m, n)
            if e < 0:
                raise NegativeMultiplicity(
                    f"beta({r},{m},{n}) = {e} < 0: product side undefined")
            if e == 0:
                continue
            c = m * (2 * k - 1) - r
            if shift_bump is not None and shift_bump[0] == (m, r):
                c += shift_bump[1]
            roots.extend(sym_power_factor(n - m, k).shift(c).roots * e)
    rhs = LocalFactor(f"rhs[ikeda_spinor n={n},k={k}]", tuple(roots))
    return lhs, rhs


def verify_ikeda_spinor(n: int, k: int, beta_fn: BetaFn = beta_value,
                        shift_bump: ShiftBump = None,
                        lhs_params: Optional[SatakeParams] = None,
                        ) -> VerificationReport:
    """Spinor factor of the genus-2n lift against the shifted symmetric powers."""
    parameters = {"n": n, "k": k, "mode": "symbolic", "prime": None}
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > IKEDA_SPINOR_MAX_N:
        raise GenusTooLarge(f"symbolic genus-2n spinor check capped at n = {IKEDA_SPINOR_MAX_N}")
    try:
        lhs, rhs = ikeda_spinor_sides(n, k, beta_fn, shift_bump, lhs_params)
    except NegativeMultiplicity as exc:
        return _structural_failure("ikeda_spinor", parameters, str(exc))
    ok, witness = compare_symbolic(lhs, rhs)
    return _report("ikeda_spinor", parameters, ok, witness)


def ikeda_standard_sides(n: int, k: int) -> Tuple[LocalFactor, LocalFactor]:
    lhs = standard_factor(ikeda_satake(n, k), label=f"st[ikeda n={n},k={k}]")
    roots = [LaurentPoly.one()]
    for i in range(1, 2 * n + 1):
        roots.extend(hecke_factor("f", k, n).shift(-2 * (k + n - i)).roots)
    rhs = LocalFactor(f"rhs[ikeda_standard n={n},k={k}]", tuple(roots))
    return lhs, rhs


def verify_ikeda_standard(n: int, k: int, mode: str = "symbolic",
                          prime: Optional[int] = None,
                          f: Optional[EigenformData] = None) -> VerificationReport:
    """Standard factor of the genus-2n lift against zeta times shifted f factors."""
    parameters = {"n": n, "k": k, "mode": mode, "prime": prime}
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > STANDARD_MAX_N:
        raise GenusTooLarge(f"standard-factor checks capped at n = {STANDARD_MAX_N}")
    lhs, rhs = ikeda_standard_sides(n, k)
    if mode == "symbolic":
        ok, witness = compare_symbolic(lhs, rhs)
    elif mode == "numeric":
        if prime is None or f is None:
            raise ValueError("numeric mode needs prime and f")
        alpha, _ = satake_values(f, None, n, k, prime)
        ok, witness = compare_numeric(_instantiate(lhs, alpha, 0j, prime),
                                      _instantiate(rhs, alpha, 0j, prime))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return _report("ikeda_standard", parameters, ok, witness)


def miyawaki_standard_sides(n: int, k: int) -> Tuple[LocalFactor, LocalFactor]:
    lhs = standard_factor(miyawaki_satake(n, k), label=f"st[miyawaki n={n},k={k}]")
    roots = list(standard_factor(elliptic_satake(k + n, "b")).roots)
    for i in range(1, 2 * n - 1):
        roots.extend(hecke_factor("f", k, n).shift(-2 * (k + n - 1 - i)).roots)
    rhs = LocalFactor(f"rhs[miyawaki_standard n={n},k={k}]", tuple(roots))
    return lhs, rhs


def verify_miyawaki_standard(n: int, k: int) -> VerificationReport:
    """Standard factor of the pair lift against that of g times shifted f factors."""
    parameters = {"n": n, "k": k, "mode": "symbolic", "prime": None}
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if n > STANDARD_MAX_N:
        raise GenusTooLarge(f"pair-lift standard check capped at n = {STANDARD_MAX_N}")
    lhs, rhs = miyawaki_standard_sides(n, k)
    ok, witness = compare_symbolic(lhs, rhs)
    return _report("miyawaki_standard", parameters, ok, witness)


# -- eigenvalue consistency -----------------------------------------------------

def verify_c1_frobenius(n: int, k: int) -> VerificationReport:
    """The operator eigenvalue lambda_g(p) C1 against mu0 prod (1 + mu_i)."""
    parameters = {"n": n, "k": k, "mode": "symbolic", "prime": None}
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    lhs = c1_eigenvalue(n, k)
    rhs = frobenius_eigenvalue(miyawaki_satake(n, k))
    ok = lhs == rhs
    witness = None if ok else {"lhs": lhs.to_json_dict(), "rhs": rhs.to_json_dict()}
    return _report("c1_frobenius", parameters, ok, witness)


# -- hand-expanded low-degree cases ----------------------------------------------

# expected exponent lists of the degree-7 factorization
DEG7_EPS = {-3: 1, -2: 1, -1: 2, 0: 2, 1: 2, 2: 2, 3: 2, 4: 1, 5: 1}
DEG7_EPS_PRIME = {-3: 1, -2: 1, -1: 1, 0: 2, 1: 2, 2: 2, 3: 2, 4: 1, 5: 1, 6: 1}


def verify_deg7_epsilons() -> VerificationReport:
    """Recompute the degree-7 exponent lists from beta values.

    The reindexings are the unique affine ones compatible with the shifts
    s - 2k + i and s - 3k + i: eps_i = beta(2(i-1), 2, 3) and
    eps'_i = beta(2i-3, 3, 3); the m=1 row must be identically 1.
    """
    parameters = {"n": 4, "k": None, "mode": "symbolic", "prime": None}
    mismatches = []
    for i, expected in DEG7_EPS.items():
        got = beta_value(2 * (i - 1), 2, 3)
        if got != expected:
            mismatches.append({"list": "eps", "i": i, "computed": got,
                               "expected": expected})
    for i, expected in DEG7_EPS_PRIME.items():
        got = beta_value(2 * i - 3, 3, 3)
        if got != expected:
            mismatches.append({"list": "eps_prime", "i": i, "computed": got,
                               "expected": expected})
    for i in range(-2, 4):
        got = beta_value(2 * i - 1, 1, 3)
        if got != 1:
            mismatches.append({"list": "m=1 row", "i": i, "computed": got,
                               "expected": 1})
    ok = not mismatches
    return _report("beta_epsilon_match", parameters, ok,
                   None if ok else {"mismatches": mismatches})


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
    roots: list = []
    for fac in factors:
        roots.extend(fac.roots)
    return LocalFactor(f"display[deg{2 * n - 1},k={k}]", tuple(roots))


def verify_example_regroup(n: int, k: int) -> VerificationReport:
    """The hand-expanded product equals both the general product side and
    the spinor factor itself."""
    identity_id = f"example_deg{2 * n - 1}"
    parameters = {"n": n, "k": k, "mode": "symbolic", "prime": None}
    display = example_display_rhs(n, k)
    ok1, witness1 = compare_symbolic(display, main_theorem_rhs(n, k))
    ok2, witness2 = compare_symbolic(display, miyawaki_spinor_lhs(n, k))
    ok = ok1 and ok2
    return _report(identity_id, parameters, ok, witness1 or witness2)


# -- suites -----------------------------------------------------------------------

def full_symbolic_suite(k_values: Tuple[int, ...] = (4, 10, 16)) -> List[VerificationReport]:
    """Every symbolic identity over the standard parameter grid."""
    reports = []
    for k in k_values:
        for n in range(2, MAIN_MAX_N + 1):
            reports.append(verify_main_theorem(n, k))
    for k in (4, 10):
        for n in range(1, IKEDA_SPINOR_MAX_N + 1):
            reports.append(verify_ikeda_spinor(n, k))
    for n in range(1, STANDARD_MAX_N + 1):
        reports.append(verify_ikeda_standard(n, 10))
    for n in range(2, STANDARD_MAX_N + 1):
        reports.append(verify_miyawaki_standard(n, 10))
    for n in range(2, STANDARD_MAX_N + 1):
        reports.append(verify_c1_frobenius(n, 10))
    for n in (2, 3, 4):
        reports.append(verify_example_regroup(n, 10))
    reports.append(verify_deg7_epsilons())
    return reports


def negative_control_reports(n: int = 2, k: int = 10) -> List[VerificationReport]:
    """Deliberately corrupted runs; every report here must FAIL with a witness."""
    # (r, m) = (1, 1) is enumerated for every n >= 2, so the bump always lands
    bumped = _bump_beta(1, 1, n - 1, +1)
    reports = [verify_main_theorem(n, k, beta_fn=bumped)]
    reports.append(verify_main_theorem(n, k, shift_bump=((1, 1), +1)))
    params = miyawaki_satake(n, k)
    mus = list(params.mus)
    mus[0] = mus[0] * LaurentPoly.monomial(e_q=1)
    perturbed = SatakeParams(params.genus, params.mu0, tuple(mus),
                             params.similitude_exponent)
    reports.append(verify_main_theorem(n, k, lhs_params=perturbed))
    return reports


def _bump_beta(r0: int, m0: int, n0: int, delta: int) -> BetaFn:
    def bumped(r: int, m: int, n: int) -> int:
        base = beta_value(r, m, n)
        if (r, m, n) == (r0, m0, n0):
            return base + delta
        return base
    return bumped
