"""Exact q-expansions of level-one modular forms and Hecke eigenvalue data.

Truncated power series in q = e^(2 pi i tau) with exact coefficients:
plain ints wherever a value is integral (E4, E6, their monomials, the
Victor Miller basis, the eigenforms), Fraction only where it is not
(Bernoulli numbers, -2k/B_k for k other than 4 and 6, eigenvalue tables,
steps of the rational linear algebra); floats are refused.

Contents: Eisenstein series from the divisor-sum formula, the discriminant
cusp form both as (E4^3 - E6^2)/1728 and as the eta product (the two
constructions cross-check each other), and the echelonized Victor Miller
basis of cusp forms from monomials in E4 and E6.

Eigenforms are supported at the weights whose cuspidal eigenspace is
rational: in practice the one-dimensional weights 12, 16, 18, 20, 22, 26.
Higher-dimensional spaces are handled generically by splitting the T_2
matrix over the rationals and rejected with IrrationalEigenspace when the
characteristic polynomial does not split (which is what actually happens
at level one from weight 24 on).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import comb, isqrt
from numbers import Rational
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (
    DeligneBoundViolation,
    EmptySpace,
    InputTooLarge,
    InsufficientPrecision,
    IrrationalEigenspace,
    NonPrime,
    UnsupportedWeight,
)

#: weights of the one-dimensional cuspidal eigenspaces on SL2(Z)
SUPPORTED_WEIGHTS = (12, 16, 18, 20, 22, 26)

DEFAULT_PRECISION = 200
#: largest --precision the CLI accepts
MAX_PRECISION = 2000
#: largest --primes-up-to, --prime and eigenvalue-table prime the CLI accepts
MAX_PRIMES_UP_TO = 10 ** 6


# -- primes ---------------------------------------------------------------

def is_prime(n: int) -> bool:
    """Trial division by 2 and the odd numbers up to sqrt(n)."""
    return n == 2 or (n > 2 and n % 2 == 1
                      and all(n % d for d in range(3, isqrt(n) + 1, 2)))


def primes_up_to(bound: int) -> List[int]:
    """Primes p <= bound, by the sieve of Eratosthenes."""
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[:2] = b"\0\0"
    for d in range(2, isqrt(bound) + 1):
        if sieve[d]:
            sieve[d * d::d] = bytes(len(range(d * d, bound + 1, d)))
    return list(compress(range(bound + 1), sieve))


# -- Bernoulli numbers ----------------------------------------------------

_bernoulli_cache: List[Fraction] = [Fraction(1)]


def bernoulli(m: int) -> Fraction:
    """B_m with B_1 = -1/2, via the standard recurrence."""
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    while len(_bernoulli_cache) <= m:
        j = len(_bernoulli_cache)
        acc = sum(comb(j + 1, i) * _bernoulli_cache[i] for i in range(j))
        _bernoulli_cache.append(Fraction(-acc, j + 1))
    return _bernoulli_cache[m]


# -- q-expansions ---------------------------------------------------------

def _exact(c):
    """c as an int when it is integral, else as a Fraction; floats are refused."""
    if type(c) is int:
        return c
    if not isinstance(c, Rational):
        raise TypeError(f"q-expansion coefficients must be rational, got {c!r}")
    return int(c) if c.denominator == 1 else Fraction(c)


class QExpansion:
    """Truncated rational q-expansion of a modular form of a fixed weight.

    coeffs[n] is the coefficient of q^n (an int when integral, else a
    Fraction); precision is the last stored index.
    """

    __slots__ = ("weight", "coeffs")

    def __init__(self, weight: int, coeffs: Sequence):
        self.weight = weight
        self.coeffs = tuple(map(_exact, coeffs))

    @property
    def precision(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int):
        if n < 0 or n > self.precision:
            raise InsufficientPrecision(
                f"coefficient {n} requested but expansion stops at {self.precision}")
        return self.coeffs[n]

    def __eq__(self, other) -> bool:
        if not isinstance(other, QExpansion):
            return NotImplemented
        return self.weight == other.weight and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.weight, self.coeffs))

    def __add__(self, other: "QExpansion") -> "QExpansion":
        if self.weight != other.weight:
            raise ValueError("cannot add expansions of different weights")
        return QExpansion(self.weight, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "QExpansion") -> "QExpansion":
        if self.weight != other.weight:
            raise ValueError("cannot subtract expansions of different weights")
        return QExpansion(self.weight, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        if not isinstance(other, QExpansion):
            s = _exact(other)
            return QExpansion(self.weight, [c * s for c in self.coeffs])
        n = min(len(self.coeffs), len(other.coeffs))
        a, rb = self.coeffs, other.coeffs[n - 1::-1]
        # coefficient m is sum_i a[i] b[m - i]; rb[n-1-m:] is b[m], ..., b[0]
        return QExpansion(self.weight + other.weight,
                          [sum(map(mul, a[:m + 1], rb[n - 1 - m:])) for m in range(n)])

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "QExpansion":
        s = Fraction(scalar)
        return QExpansion(self.weight, [c / s for c in self.coeffs])

    def __pow__(self, exponent: int) -> "QExpansion":
        if exponent < 0:
            raise ValueError("negative powers of q-expansions are not supported")
        result = QExpansion(0, [1] + [0] * self.precision)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            if n > 1:
                base = base * base
            n >>= 1
        return result

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self.coeffs[:6])
        return f"QExpansion(weight={self.weight}, coeffs=[{shown}, ...])"


def eisenstein(weight: int, precision: int) -> QExpansion:
    """Normalized Eisenstein series E_k = 1 - (2k/B_k) sum sigma_(k-1)(n) q^n."""
    if weight < 4 or weight % 2:
        raise UnsupportedWeight(f"Eisenstein series needs even weight >= 4, got {weight}")
    sigma = [0] * (precision + 1)
    for d in range(1, precision + 1):
        dk = d ** (weight - 1)
        for n in range(d, precision + 1, d):
            sigma[n] += dk
    factor = _exact(Fraction(-2 * weight) / bernoulli(weight))
    return QExpansion(weight, [1] + [factor * s for s in sigma[1:]])


def delta(precision: int) -> QExpansion:
    """The weight-12 cusp eigenform, built as (E4^3 - E6^2)/1728."""
    if precision < 1:
        raise ValueError("precision must be at least 1")
    e4 = eisenstein(4, precision)
    e6 = eisenstein(6, precision)
    return (e4 ** 3 - e6 ** 2) / 1728


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


def dim_modular_forms(weight: int) -> int:
    if weight < 0 or weight % 2:
        return 0
    return weight // 12 + (0 if weight % 12 == 2 else 1)


def dim_cusp_forms(weight: int) -> int:
    if weight < 4:
        return 0
    return max(dim_modular_forms(weight) - 1, 0)


def _echelonize(rows: List[list]) -> List[list]:
    """Reduced row echelon form over the rationals, in place; the pivot
    inverse is an exact Fraction (1 / int would be a float)."""
    pivot_row = 0
    ncols = len(rows[0])
    for col in range(ncols):
        if pivot_row == len(rows):
            break
        src = next((r for r in range(pivot_row, len(rows)) if rows[r][col]), None)
        if src is None:
            continue
        rows[pivot_row], rows[src] = rows[src], rows[pivot_row]
        inv = Fraction(1, rows[pivot_row][col])
        rows[pivot_row] = [c * inv for c in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
    return rows


def victor_miller_basis(weight: int, precision: int) -> List[QExpansion]:
    """Echelonized basis of cusp forms: element i has coeffs[j] = delta_ij
    for 1 <= j <= dim, obtained by row-reducing the E4^a E6^b monomials."""
    if weight < 4 or weight % 2:
        raise UnsupportedWeight(f"no cusp forms in weight {weight}")
    d = dim_cusp_forms(weight)
    if d == 0:
        raise EmptySpace(f"S_{weight} is zero-dimensional")
    if precision < d:
        raise ValueError(f"precision {precision} below dimension {d}")
    e4 = eisenstein(4, precision)
    e6 = eisenstein(6, precision)
    rows = []
    for b in range(weight // 6 + 1):
        rem = weight - 6 * b
        if rem >= 0 and rem % 4 == 0:
            rows.append(list((e4 ** (rem // 4) * e6 ** b).coeffs))
    assert len(rows) == d + 1, "monomial count must match dim M_k"
    rows = _echelonize(rows)
    basis = [QExpansion(weight, row) for row in rows[1:]]
    for i, form in enumerate(basis, start=1):
        assert form.coeffs[0] == 0
        assert all(form.coeffs[j] == (1 if j == i else 0) for j in range(1, d + 1))
    return basis


# -- Hecke action and eigenforms -------------------------------------------

def hecke_operator(form: QExpansion, p: int) -> QExpansion:
    """T_p on a level-one form of weight k: b(n) = a(np) + p^(k-1) a(n/p)."""
    if not is_prime(p):
        raise NonPrime(f"{p} is not prime")
    a, pk = form.coeffs, p ** (form.weight - 1)
    return QExpansion(form.weight, [a[n * p] + (0 if n % p else pk * a[n // p])
                                    for n in range(form.precision // p + 1)])


class EigenformData:
    """A normalized Hecke eigenform: weight, exact q-expansion, and a
    write-once cache of eigenvalues (which equal the q-coefficients)."""

    def __init__(self, weight: int, qexp: Optional[QExpansion],
                 eigenvalues: Optional[Dict[int, Fraction]] = None):
        self.weight = weight
        self.qexp = qexp
        self.eigenvalues: Dict[int, Fraction] = dict(eigenvalues or {})

    @classmethod
    def from_eigenvalue_table(cls, weight: int, table: Dict[int, Fraction]) -> "EigenformData":
        """Wrap an externally supplied prime -> eigenvalue table (no q-expansion)."""
        return cls(weight, None, table)

    def __repr__(self) -> str:
        src = "table" if self.qexp is None else f"qexp<= {self.qexp.precision}"
        return f"EigenformData(weight={self.weight}, {src})"


def hecke_eigenvalue(form: EigenformData, p: int):
    """lambda(p) = p-th q-coefficient of the normalized eigenform."""
    if not is_prime(p):
        raise NonPrime(f"{p} is not prime")
    cached = form.eigenvalues.get(p)
    if cached is not None:
        return cached
    if form.qexp is None:
        raise InsufficientPrecision(f"eigenvalue table has no entry for p={p}")
    if p > form.qexp.precision:
        raise InsufficientPrecision(
            f"p={p} exceeds q-expansion precision {form.qexp.precision}")
    return form.eigenvalues.setdefault(p, form.qexp.coeffs[p])


def _rational_roots(poly: List[Fraction]) -> List[Fraction]:
    """Rational roots (with multiplicity) of a monic integer polynomial,
    given as [c_0, ..., c_d] with c_d = 1.  Raises IrrationalEigenspace
    if the polynomial does not split completely over Q."""
    if any(c.denominator != 1 for c in poly):
        raise UnsupportedWeight("Hecke matrix is not integral on this basis")
    coeffs = [int(c) for c in poly]
    roots: List[Fraction] = []
    while len(coeffs) > 1:
        c0 = coeffs[0]
        if c0 == 0:
            root = 0
        else:
            root = None
            for cand in _divisors_signed(abs(c0)):
                if sum(c * cand ** i for i, c in enumerate(coeffs)) == 0:
                    root = cand
                    break
            if root is None:
                raise IrrationalEigenspace(
                    "T_2 characteristic polynomial has an irrational factor")
        roots.append(Fraction(root))
        # synthetic division by (x - root)
        new = [0] * (len(coeffs) - 1)
        carry = coeffs[-1]
        for i in range(len(coeffs) - 2, -1, -1):
            new[i] = carry
            carry = coeffs[i] + carry * root
        assert carry == 0
        coeffs = new
    return roots


def _divisors_signed(n: int) -> List[int]:
    divs = set()
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            divs.update((d, n // d, -d, -(n // d)))
    return sorted(divs, key=abs)


def eigenforms(weight: int, precision: int = DEFAULT_PRECISION) -> List[EigenformData]:
    """All normalized eigenforms of the given weight with rational eigenvalues.

    The T_2 matrix on the Victor Miller basis is split over Q; any
    irrational factor rejects the whole weight.
    """
    basis = victor_miller_basis(weight, precision)
    d = len(basis)
    if d == 1:
        return [EigenformData(weight, basis[0])]
    # matrix of T_2: row i lists the first d coefficients of T_2(basis_i)
    mat = [list(hecke_operator(form, 2).coeffs[1:d + 1]) for form in basis]
    charpoly = _charpoly(mat)
    roots = _rational_roots(charpoly)
    forms = []
    for lam in sorted(set(roots)):
        x = _left_kernel_vector(mat, lam)
        if x[0] == 0:
            raise IrrationalEigenspace(
                f"eigenvector for lambda={lam} is not a normalized eigenform")
        x = [Fraction(xi, x[0]) for xi in x]
        coeffs = [sum(x[i] * basis[i].coeffs[n] for i in range(d))
                  for n in range(precision + 1)]
        forms.append(EigenformData(weight, QExpansion(weight, coeffs)))
    return forms


def eigenform(weight: int, precision: int = DEFAULT_PRECISION) -> EigenformData:
    """The unique normalized eigenform of a one-dimensional cuspidal weight."""
    if dim_cusp_forms(weight) != 1:
        if dim_cusp_forms(weight) == 0:
            raise EmptySpace(f"S_{weight} is zero-dimensional")
        raise UnsupportedWeight(
            f"S_{weight} has dimension {dim_cusp_forms(weight)}; use eigenforms()")
    return eigenforms(weight, precision)[0]


def _charpoly(mat: List[List[Fraction]]) -> List[Fraction]:
    """det(xI - M) coefficients [c_0, ..., c_d] via Faddeev-LeVerrier."""
    d = len(mat)
    coeffs = [0] * d + [1]
    m = [[0] * d for _ in range(d)]
    for k in range(1, d + 1):
        # M_k = M (M_{k-1} + c_{d-k+1} I), with M_0 = 0 so that M_1 = M
        c = coeffs[d - k + 1]
        shifted = [[v + (c if i == j else 0) for j, v in enumerate(row)]
                   for i, row in enumerate(m)]
        m = [[sum(mat[i][l] * shifted[l][j] for l in range(d)) for j in range(d)]
             for i in range(d)]
        coeffs[d - k] = -Fraction(sum(m[i][i] for i in range(d)), k)
    return coeffs


def _left_kernel_vector(mat: List[list], lam) -> List:
    """A nonzero x with x^T (M - lam I) = 0, i.e. kernel of the transpose."""
    d = len(mat)
    rref = _echelonize([[mat[j][i] - (lam if i == j else 0) for j in range(d)]
                        for i in range(d)])
    pivots = {next(c for c, v in enumerate(row) if v): row for row in rref if any(row)}
    free = next(c for c in range(d) if c not in pivots)
    x = [0] * d
    x[free] = 1
    for col, row in pivots.items():
        x[col] = -row[free]
    return x


# -- numeric Satake parameters ---------------------------------------------

def check_deligne_bound(lam, weight: int, p: int) -> None:
    """Reject lam outside Deligne's bound, compared exactly as
    lam^2 <= 4 p^(weight-1) before any float conversion."""
    if Fraction(lam) ** 2 > 4 * p ** (weight - 1):
        raise DeligneBoundViolation(
            f"lambda({p}) = {lam} violates Deligne's bound "
            f"|lambda(p)| <= 2 p^(({weight}-1)/2) for weight {weight}")


def numeric_satake(lam, weight: int, p: int) -> Tuple[complex, complex]:
    """Roots of X^2 - lam p^(-(weight-1)/2) X + 1, as an exact-reciprocal pair.

    The first root has nonnegative imaginary part (ties broken by larger
    real part) and the second is literally 1/first, so the pair multiplies
    to 1 by construction.
    """
    if weight % 2:
        raise UnsupportedWeight(f"weight must be even, got {weight}")
    if not is_prime(p):
        raise NonPrime(f"{p} is not prime")
    import cmath
    normalized = float(Fraction(lam) / p ** ((weight - 2) // 2)) / p ** 0.5
    disc = cmath.sqrt(complex(normalized * normalized - 4))
    r1 = (normalized + disc) / 2
    r2 = (normalized - disc) / 2
    first = max(r1, r2, key=lambda z: (z.imag, z.real))
    return first, 1 / first


# -- external eigenvalue tables ---------------------------------------------

def load_eigenvalue_table(path: str) -> Dict[int, Fraction]:
    """Parse a '<p> <numerator>[/<denominator>]' file, one prime per line.

    Blank lines and lines starting with '#' are ignored.  Primes above
    MAX_PRIMES_UP_TO (checked before primality) and repeated primes are errors.
    """
    table: Dict[int, Fraction] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) != 2:
                raise ValueError(f"{path}:{lineno}: expected '<p> <value>', got {line!r}")
            p = int(fields[0])
            if p > MAX_PRIMES_UP_TO:
                raise InputTooLarge(
                    f"{path}:{lineno}: prime {p} exceeds the cap {MAX_PRIMES_UP_TO}")
            if p in table:
                raise ValueError(f"{path}:{lineno}: duplicate prime {p}")
            if not is_prime(p):
                raise NonPrime(f"{path}:{lineno}: {p} is not prime")
            table[p] = Fraction(fields[1])
    return table
