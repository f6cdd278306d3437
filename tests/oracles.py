"""Reference implementations the tests compare the package against.

None of this runs on any CLI path.  `LaurentPoly` is a general sparse
Laurent polynomial in a, b, q and T with its own JSON encoder; the package
itself only ever writes sorted term lists (`liftspin.laurent`).  With it
come the eigenvalue constants of the pair lift as expanded polynomials,
which the factored `c1_frobenius` check is tested against, and the literal
subset enumeration, degree audits, similitude exponent, Weyl group action
and the two constructions of the discriminant form that the acceptance
criteria use, and the schoolbook product and the full-row echelonized
Victor Miller basis that the packed q-expansion product and the
Delta E4^a E6^b eigenforms are tested against.  `coefficients`,
`to_json_dict` and `factored_json_dict` decode a LocalFactor into term
tuples and dicts, which the package's streaming writers never build;
`text_lines` writes their `--format text` lines entry by entry, and
`symbolic_witness` the T^1 witness from sorted roots, not from counts.
`shifted` moves a factor by q^c root by root, the reference for the
parts constructor that builds every product side.
`build_parser` is the argparse parser the CLI's flag table replaced, kept
as the reference that `cli.parse_args` is tested against.

A polynomial is a finite map from exponent vectors (e_a, e_b, e_q, e_T) to
nonzero integer coefficients.  a, b and q are Laurent variables; T (for
p^-s) may not carry a negative exponent.  Zero coefficients are never
stored, so equal polynomials have equal term maps, and terms are ordered
lexicographically on (e_T, e_a, e_b, e_q) for printing and encoding.
"""

from __future__ import annotations

import argparse
import json
from fractions import Fraction
from itertools import combinations, groupby
from typing import Iterable, List, Mapping, Sequence, Tuple, Union

from liftspin.beta import symmetric_odd_set, table
from liftspin.cli import EULER_IDENTITIES, VERIFY_IDENTITIES
from liftspin.errors import NonPrime
from liftspin.euler import LocalFactor
from liftspin.laurent import json_dict
from liftspin.qexp import (DEFAULT_PRECISION, QExpansion, dim_cusp_forms, eisenstein,
                           is_prime)
from liftspin.satake import SatakeParams, miyawaki_satake, mono_inv, mono_mul

Exponents = Tuple[int, int, int, int]

VARIABLE_NAMES = ("a", "b", "q", "T")


def _canonical_key(exponents: Exponents) -> Tuple[int, int, int, int]:
    e_a, e_b, e_q, e_T = exponents
    return (e_T, e_a, e_b, e_q)


class LaurentPoly:
    """Immutable sparse Laurent polynomial with integer coefficients.

    All arithmetic returns new canonical instances; values are safe to
    share across threads and to use as dict keys.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Union[Mapping[Exponents, int], Iterable] = ()):
        data: dict = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exponents, coeff in items:
            e = tuple(exponents)
            if len(e) != 4 or not all(isinstance(x, int) for x in e):
                raise ValueError(f"expected an integer 4-vector of exponents, got {exponents!r}")
            if e[3] < 0:
                raise ValueError(
                    f"negative T-exponent in {e!r}: Euler factors are polynomials in T"
                )
            if not isinstance(coeff, int):
                raise TypeError(f"coefficients must be integers, got {coeff!r}")
            c = data.get(e, 0) + coeff
            if c:
                data[e] = c
            elif e in data:
                del data[e]
        self._terms = data

    # -- constructors ---------------------------------------------------

    @classmethod
    def monomial(cls, e_a: int = 0, e_b: int = 0, e_q: int = 0, e_T: int = 0,
                 coeff: int = 1) -> "LaurentPoly":
        return cls((((e_a, e_b, e_q, e_T), coeff),))

    @classmethod
    def constant(cls, value: int) -> "LaurentPoly":
        return cls((((0, 0, 0, 0), value),))

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return _ZERO

    @classmethod
    def one(cls) -> "LaurentPoly":
        return _ONE

    # -- inspection -----------------------------------------------------

    @property
    def terms(self) -> Tuple[Tuple[Exponents, int], ...]:
        """Terms in canonical order, lexicographic on (e_T, e_a, e_b, e_q)."""
        return tuple(sorted(self._terms.items(), key=lambda kv: _canonical_key(kv[0])))

    # -- ring operations ------------------------------------------------

    @staticmethod
    def _coerce(value) -> "LaurentPoly":
        if isinstance(value, LaurentPoly):
            return value
        if isinstance(value, int):
            return LaurentPoly.constant(value) if value else _ZERO
        raise TypeError(f"cannot interpret {value!r} as a LaurentPoly")

    def __add__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if not self._terms:
            return other
        if not other._terms:
            return self
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return _raw(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return _raw({e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "LaurentPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "LaurentPoly":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if not self._terms or not other._terms:
            return _ZERO
        # iterate over the smaller factor for fewer dict rebuilds
        small, large = self._terms, other._terms
        if len(small) > len(large):
            small, large = large, small
        out: dict = {}
        for e1, c1 in small.items():
            for e2, c2 in large.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        return _raw(out)

    __rmul__ = __mul__

    # -- evaluation -----------------------------------------------------

    def eval_complex(self, a: complex, b: complex, q: complex, t: complex) -> complex:
        """Evaluate at complex arguments, Horner in T; the reference that the
        roots of `LocalFactor.instantiate` are tested against bit for bit.

        Raises ZeroDivisionError when a, b or q is zero and occurs with a
        negative exponent.
        """
        by_degree: dict = {}
        for e, c in self._terms.items():
            by_degree.setdefault(e[3], []).append((e, c))
        if not by_degree:
            return 0j
        cache: dict = {}

        def power(base: complex, exponent: int, tag: str) -> complex:
            if exponent == 0:
                return 1.0 + 0j
            key = (tag, exponent)
            value = cache.get(key)
            if value is None:
                value = complex(base) ** exponent
                cache[key] = value
            return value

        acc = 0j
        for d in range(max(by_degree), -1, -1):
            acc *= t
            for e, c in by_degree.get(d, ()):
                acc += c * power(a, e[0], "a") * power(b, e[1], "b") * power(q, e[2], "q")
        return acc

    # -- serialization --------------------------------------------------

    def to_json_dict(self) -> dict:
        """Spec wire format; coefficients go out as decimal strings."""
        return {"terms": [{"e": list(e), "c": str(c)} for e, c in self.terms]}

    # -- dunder plumbing ------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = self._coerce(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for e, c in self.terms:
            factors = [f"{name}^{exp}" if exp != 1 else name
                       for name, exp in zip(VARIABLE_NAMES, e) if exp != 0]
            if not factors:
                body = str(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(c))] + factors)
            parts.append(("- " if c < 0 else "+ ") + body)
        head = ("-" + parts[0][2:]) if parts[0].startswith("- ") else parts[0][2:]
        return " ".join([head] + parts[1:])

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"


def _raw(data: dict) -> LaurentPoly:
    """Wrap an already-canonical term dict without re-validation."""
    poly = LaurentPoly.__new__(LaurentPoly)
    poly._terms = data
    return poly


_ZERO = _raw({})
_ONE = _raw({(0, 0, 0, 0): 1})


def poly(terms, e_T: int = 0) -> LaurentPoly:
    """The LaurentPoly of terms (e_a, e_b, e_q, c) at T-degree e_T, as the
    package writes an expanded coefficient."""
    return LaurentPoly(((e_a, e_b, e_q, e_T), c) for e_a, e_b, e_q, c in terms)


def coefficients(factor) -> Tuple:
    """T^0 (always 1) to T^degree of a LocalFactor as lists of
    (e_a, e_b, e_q, c) in canonical order, decoded from the slots its
    writers walk."""
    return decode(factor._walk())


def decode(walk) -> Tuple:
    """The coefficients of the (negative, qs, rows) a LocalFactor walk gives."""
    return tuple([(e_a, e_b, e_q, -c if negative else c)
                  for e_a, e_b, row in rows for e_q, c in zip(qs, row) if c]
                 for negative, qs, rows in walk)


def to_json_dict(factor, label: str) -> dict:
    """The expanded factor as `euler --format json` writes it."""
    coeffs = [json_dict(terms) for terms in coefficients(factor)]
    return {"label": label, "degree": factor.degree, "coeffs": coeffs}


def factored_json_dict(factor, label: str) -> dict:
    """The root list as `euler --factored --format json` writes it."""
    roots = [json_dict([(*root, 1)]) for root in sorted(factor.roots)]
    return {"label": label, "degree": factor.degree, "roots": roots}


def text_lines(data: dict, key: str) -> str:
    """The --format text lines of a factor's JSON data (`key` "coeffs" or
    "roots"), each entry's json.dumps after its index."""
    lines = [f"label:  {data['label']}", f"degree: {data['degree']}"]
    lines += [f"{key[:-1]} {i}: {json.dumps(entry)}" for i, entry in enumerate(data[key])]
    return "\n".join(lines)


def symbolic_witness(lhs, rhs) -> dict:
    """The T^1 witness of two symbolic factors from their sorted roots: each
    run of equal roots is one term, its coefficient minus the run length."""
    def t1(roots) -> dict:
        return json_dict((*root, -len(list(run))) for root, run in groupby(sorted(roots)))

    return {"t_degree": 1, "lhs": t1(lhs.roots), "rhs": t1(rhs.roots)}


def shifted(factor, c: int) -> LocalFactor:
    """The factor with T replaced by q^c T, one checked root at a time."""
    return LocalFactor([(e_a, e_b, e_q + c) for e_a, e_b, e_q in factor.roots])


def as_poly(factor) -> LaurentPoly:
    """An expanded symbolic LocalFactor as a single polynomial in T."""
    total = LaurentPoly.zero()
    for d, terms in enumerate(coefficients(factor)):
        total = total + poly(terms, d)
    return total


# -- eigenvalue constants of the pair lift, expanded --------------------------

def gp_constant(n: int) -> LaurentPoly:
    """Denominator D of the Fourier-Jacobi normalization constant G = 1/D:
    D = prod over i = 1..n-1 of (1 + a q^(1-2i))(1 + 1/a q^(1-2i)); 1 if n = 1."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    product = LaurentPoly.one()
    for i in range(1, n):
        e = 1 - 2 * i
        product = product * (1 + LaurentPoly.monomial(e_a=1, e_q=e))
        product = product * (1 + LaurentPoly.monomial(e_a=-1, e_q=e))
    return product


def c1_eigenvalue(n: int, k: int) -> LaurentPoly:
    """The full T(p)-eigenvalue of the genus-(2n-1) pair lift:
    lambda_g(p) times the scalar C1 = p^(-(n-1)(n+2)/2) p^((n-1)(k+n)) D(a, q),
    with lambda_g(p) = (b + 1/b) q^(k+n-1)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    lam_g = (LaurentPoly.monomial(e_b=1) + LaurentPoly.monomial(e_b=-1)) \
        * LaurentPoly.monomial(e_q=k + n - 1)
    scale = LaurentPoly.monomial(e_q=-(n - 1) * (n + 2) + 2 * (n - 1) * (k + n))
    return lam_g * scale * gp_constant(n)


def frobenius_eigenvalue(params: SatakeParams) -> LaurentPoly:
    """mu0 prod (1 + mu_i): the T(p)-eigenvalue read off the Satake set."""
    value = LaurentPoly.monomial(*params.mu0)
    for mu in params.mus:
        value = value * (1 + LaurentPoly.monomial(*mu))
    return value


# -- subset sums ---------------------------------------------------------------

def alpha_count_bruteforce(r: int, m: int, n: int) -> int:
    """Literal enumeration over combinations; oracle for alpha_count."""
    if m < 0 or m > 2 * n:
        return 0
    return sum(1 for c in combinations(symmetric_odd_set(n), m) if sum(c) == r)


def degree_audit_ikeda(n: int) -> bool:
    """Check that the beta-weighted symmetric-power degrees add up to 2^(2n).

    Each factor attached to (r, m) has degree n - m + 1, so the total degree
    of the factored side must equal the genus-2n spinor degree.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    total = 0
    tab = table(n)
    for m in range(0, n + 1):
        bound = m * (2 * n - m)
        for r in range(-bound, bound + 1, 2):
            total += tab.beta(r, m) * (n - m + 1)
    return total == 4 ** n


def degree_audit_miyawaki(n: int) -> bool:
    """Check that the tensor-factor degrees add up to 2^(2n-1).

    The leading tensor factor has degree 2n; the (r, m) factor for
    1 <= m <= n-1 has degree 2(n - m) and exponent beta(r, m, n-1).
    """
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    total = 2 * n
    tab = table(n - 1)
    for m in range(1, n):
        bound = m * (2 * n - m - 2)
        for r in range(-bound, bound + 1, 2):
            total += tab.beta(r, m) * 2 * (n - m)
    return total == 2 ** (2 * n - 1)


# -- Weyl group action on Satake parameters --------------------------------------

def _triangle(n: int) -> int:
    return n * (n + 1) // 2


def similitude_exponent(genus: int, k: int, n: int) -> int:
    """e with mu0^2 prod(mus) = q^e for the genus-2n lift of f and the
    genus-(2n-1) lift of (f, g): 2 (genus (k+n) - genus (genus+1)/2)."""
    return 2 * (genus * (k + n) - _triangle(genus))


def similitude_holds(params: SatakeParams, exponent: int) -> bool:
    """mu0^2 prod(mus) == q^exponent, exactly."""
    product = mono_mul(params.mu0, params.mu0)
    for mu in params.mus:
        product = mono_mul(product, mu)
    return product == (0, 0, exponent)


def weyl_sigma(params: SatakeParams, i: int) -> SatakeParams:
    """Generator sigma_i: mu0 -> mu0 mu_i, mu_i -> mu_i^-1, rest fixed."""
    if not 1 <= i <= params.genus:
        raise IndexError(f"sigma index {i} out of range 1..{params.genus}")
    mus = list(params.mus)
    mu0 = mono_mul(params.mu0, mus[i - 1])
    mus[i - 1] = mono_inv(mus[i - 1])
    return SatakeParams(params.genus, mu0, tuple(mus))


def weyl_permute(params: SatakeParams, perm: Sequence[int]) -> SatakeParams:
    """Reorder mu_1..mu_g by a permutation given as the image list of 1..g."""
    if sorted(perm) != list(range(1, params.genus + 1)):
        raise ValueError(f"{perm!r} is not a permutation of 1..{params.genus}")
    mus = tuple(params.mus[j - 1] for j in perm)
    return SatakeParams(params.genus, params.mu0, mus)


def _reduce_b_squared_to_minus_one(mu):
    """Formally set b^2 = -1: a^i b^j q^e becomes (-1)^floor(j/2) a^i b^(j mod 2)
    q^e, returned as (sign, monomial)."""
    quot, rem = divmod(mu[1], 2)
    return (-1 if quot % 2 else 1), (mu[0], rem, mu[2])


def miyawaki_inverse_mu_check(n: int, k: int) -> bool:
    """Consistency of the sign ambiguity when b^2 = -1.

    Applying sigma at the b^2 slot and then reducing b^2 to -1 must land on
    the parameter set with mu0 negated (reduced the same way): the two
    candidate normalizations are Weyl-equivalent, so the choice of mu0 in
    the pair-lift construction is well defined even in this edge case.
    """
    params = miyawaki_satake(n, k)
    flipped = weyl_sigma(params, params.genus)

    def reduced(p: SatakeParams, negate_mu0: bool):
        sign, mu0 = _reduce_b_squared_to_minus_one(p.mu0)
        mus = sorted(map(_reduce_b_squared_to_minus_one, p.mus))
        return (-sign if negate_mu0 else sign, mu0), mus

    return reduced(flipped, negate_mu0=False) == reduced(params, negate_mu0=True)


# -- q-expansion references: products, cusp basis, delta, Hecke ---------------------

def schoolbook(a: QExpansion, b: QExpansion) -> list:
    """Coefficients of a * b truncated to the shorter series, term by term."""
    n = min(len(a.coeffs), len(b.coeffs))
    out = [0] * n
    for i in range(n):
        for j in range(n - i):
            out[i + j] += a.coeffs[i] * b.coeffs[j]
    return out


def victor_miller_full_rows(weight: int, precision: int) -> List[QExpansion]:
    """The echelonized cusp basis of any weight by reduced row echelon form
    of the whole E4^a E6^b monomial rows, reduced as Fraction lists (the
    package builds only the one-dimensional spaces, as Delta E4^a E6^b).
    The Victor Miller basis is integral, so every reduced row must be."""
    e4, e6 = eisenstein(4, precision), eisenstein(6, precision)
    rows = [[Fraction(c) for c in (e4 ** ((weight - 6 * b) // 4) * e6 ** b).coeffs]
            for b in range(weight // 6 + 1) if (weight - 6 * b) % 4 == 0]
    pivot_row = 0
    for col in range(precision + 1):
        src = next((r for r in range(pivot_row, len(rows)) if rows[r][col]), None)
        if src is None:
            continue
        rows[pivot_row], rows[src] = rows[src], rows[pivot_row]
        rows[pivot_row] = [c / rows[pivot_row][col] for c in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        if pivot_row == len(rows):
            break
    assert len(rows) == dim_cusp_forms(weight) + 1
    assert all(c.denominator == 1 for row in rows for c in row), "an integral basis"
    return [QExpansion(weight, [c.numerator for c in row]) for row in rows[1:]]


def delta(precision: int) -> QExpansion:
    """The weight-12 cusp eigenform, built as (E4^3 - E6^2)/1728 by exact
    integer division."""
    if precision < 1:
        raise ValueError("precision must be at least 1")
    e4 = eisenstein(4, precision)
    e6 = eisenstein(6, precision)
    cusp = (e4 ** 3 - e6 ** 2).coeffs
    assert all(c % 1728 == 0 for c in cusp), "E4^3 - E6^2 is 1728 Delta"
    return QExpansion(12, [c // 1728 for c in cusp])


def delta_eta_product(precision: int) -> QExpansion:
    """Independent construction of delta: q times the 24th power of
    prod (1 - q^n), the latter expanded by the pentagonal number theorem."""
    if precision < 1:
        raise ValueError("precision must be at least 1")
    euler = [0] * precision
    euler[0] = 1
    j = 1
    while True:
        placed = False
        for e in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
            if e < precision:
                euler[e] += (-1) ** j
                placed = True
        if not placed:
            break
        j += 1
    p24 = QExpansion(0, euler) ** 24
    return QExpansion(12, (0,) + p24.coeffs[:precision])


def hecke_operator(form: QExpansion, p: int) -> QExpansion:
    """T_p on a level-one form of weight k: b(n) = a(np) + p^(k-1) a(n/p)."""
    if not is_prime(p):
        raise NonPrime(f"{p} is not prime")
    a, pk = form.coeffs, p ** (form.weight - 1)
    return QExpansion(form.weight, [a[n * p] + (0 if n % p else pk * a[n // p])
                                    for n in range(form.precision // p + 1)])


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argparse parser before `cli.COMMANDS` replaced it."""
    parser = argparse.ArgumentParser(
        prog="liftspin",
        description="Local Euler factors of lifted Siegel eigenforms and "
                    "their factorization identities.")
    sub = parser.add_subparsers(dest="command", required=True)

    def shared(p: argparse.ArgumentParser):
        p.add_argument("--n", type=int, default=2)
        p.add_argument("--k", type=int, default=10)
        p.add_argument("--mode", choices=("symbolic", "numeric"), default="symbolic")
        p.add_argument("--prime", type=int)
        p.add_argument("--primes-up-to", type=int)
        p.add_argument("--precision", type=int, default=DEFAULT_PRECISION)
        p.add_argument("--eigenvalues-file", action="append", default=None,
                       metavar="[ROLE=]PATH",
                       help="eigenvalue table '<p> <num>[/<den>]' per line; "
                            "prefix f= or g= when two forms are in play")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--output")

    p = sub.add_parser("eigenvalues", help="Hecke eigenvalues of one eigenform")
    p.add_argument("--weight", type=int, required=True)
    shared(p)

    p = sub.add_parser("euler", help="emit one side of one identity as a factor")
    p.add_argument("--identity", choices=EULER_IDENTITIES, required=True)
    p.add_argument("--side", choices=("lhs", "rhs"), required=True)
    p.add_argument("--factored", action="store_true",
                   help="emit the root list instead of expanded coefficients")
    shared(p)

    p = sub.add_parser("beta-table", help="dump the alpha/beta table for one n")
    shared(p)

    p = sub.add_parser("lvalue", help="truncated Euler product of the main "
                                      "identity (non-rigorous approximation)")
    p.add_argument("--identity", choices=("main_theorem",), default="main_theorem")
    p.add_argument("--side", choices=("lhs", "rhs"), required=True)
    p.add_argument("--s", required=True, help="evaluation point, e.g. 25 or 25+2j")
    shared(p)

    p = sub.add_parser("verify", help="run identity verifications")
    p.add_argument("--identity", choices=VERIFY_IDENTITIES, default=None)
    p.add_argument("--all", action="store_true")
    # either shorthand overrides --mode; giving both is a usage error
    modes = p.add_mutually_exclusive_group()
    for mode in ("symbolic", "numeric"):
        modes.add_argument(f"--{mode}", dest="mode_flag", action="store_const",
                           const=mode, help=f"shorthand for --mode {mode}")
    p.add_argument("--witness", action="store_true",
                   help="include the first differing coefficient on failure")
    p.add_argument("--negative-control", action="store_true",
                   help="self test: corrupted runs must fail with a witness")
    shared(p)

    return parser
