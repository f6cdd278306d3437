"""Exact q-expansions of level-one modular forms and Hecke eigenvalue data.

Truncated power series in q = e^(2 pi i tau) with plain int coefficients:
every series built here (E4, E6, their monomials, Delta, the eigenforms)
is integral, and any other coefficient is refused.  Fraction remains only
in the Bernoulli numbers and in eigenvalue data: tables, check_eigenvalue
and numeric_satake.

Contents: Eisenstein series from the divisor-sum formula, and the
normalized eigenforms built from E4 and E6.

A product of two series is one big-int multiplication (Kronecker
substitution): each series is packed into an int with one fixed-width byte
slot per coefficient, wide enough for every input coefficient and for
n max|a| max|b|; the low n slots of the product are the truncated product.

Eigenforms exist here only at the one-dimensional cuspidal weights 12, 16,
18, 20, 22 and 26.  Multiplication by Delta = (E4^3 - E6^2)/1728 = q + ...
maps M_(w-12) onto S_w, and at those weights M_(w-12) is spanned by the one
monomial E4^a E6^b with 4a + 6b = w - 12, so the eigenform is
Delta E4^a E6^b, already normalized.  Every level-one cusp space of
dimension 2 or more has irrational Hecke eigenvalues (Maeda's conjecture,
verified up to weight 14,000), so those weights raise IrrationalEigenspace
before any series is built.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import reduce
from itertools import compress
from math import comb, isqrt
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (
    DeligneBoundViolation,
    EmptySpace,
    InputTooLarge,
    InsufficientPrecision,
    IrrationalEigenspace,
    NonIntegralEigenvalue,
    NonPrime,
    UnsupportedWeight,
)

#: weight w -> (a, b) with 4a + 6b = w - 12, for each one-dimensional
#: cuspidal eigenspace on SL2(Z); its eigenform is Delta E4^a E6^b
_DELTA_COFACTORS = {12: (0, 0), 16: (1, 0), 18: (0, 1), 20: (2, 0), 22: (1, 1), 26: (2, 1)}

#: weights of the one-dimensional cuspidal eigenspaces on SL2(Z)
SUPPORTED_WEIGHTS = tuple(_DELTA_COFACTORS)

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

def _pack(coeffs: Sequence[int], width: int) -> int:
    """sum c_i X^i at X = 2^(8 width), for |c_i| < X/2: each byte slot holds
    c_i + X/2, and the offsets are taken off again as one integer."""
    offset = 1 << (8 * width - 1)
    packed = b"".join([(c + offset).to_bytes(width, "little") for c in coeffs])
    return int.from_bytes(packed, "little") - _offsets(len(coeffs), width)


def _unpack(value: int, n: int, width: int) -> List[int]:
    """The first n coefficients c_i of value = sum c_i X^i, X = 2^(8 width),
    for |c_i| < X/2: with X/2 added to each of the n low slots, every slot
    holds c_i + X/2 with no borrow across slots."""
    offset = 1 << (8 * width - 1)
    low = (value + _offsets(n, width)) & ((1 << (8 * width * n)) - 1)
    data = low.to_bytes(n * width, "little")
    return [int.from_bytes(data[i:i + width], "little") - offset
            for i in range(0, n * width, width)]


def _offsets(n: int, width: int) -> int:
    """sum_(i<n) (X/2) X^i at X = 2^(8 width)."""
    return int.from_bytes((b"\0" * (width - 1) + b"\x80") * n, "little")


class QExpansion:
    """Truncated integer q-expansion of a modular form of a fixed weight.

    coeffs[n] is the int coefficient of q^n; precision is the last stored
    index.
    """

    __slots__ = ("weight", "coeffs")

    def __init__(self, weight: int, coeffs: Sequence[int]):
        self.weight = weight
        self.coeffs = tuple(coeffs)
        for c in self.coeffs:
            if type(c) is not int:
                raise TypeError(f"q-expansion coefficients must be ints, got {c!r}")

    @property
    def precision(self) -> int:
        return len(self.coeffs) - 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, QExpansion):
            return NotImplemented
        return self.weight == other.weight and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.weight, self.coeffs))

    def __sub__(self, other: "QExpansion") -> "QExpansion":
        if self.weight != other.weight:
            raise ValueError("cannot subtract expansions of different weights")
        return QExpansion(self.weight, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other: "QExpansion") -> "QExpansion":
        if not isinstance(other, QExpansion):
            return NotImplemented
        n = min(len(self.coeffs), len(other.coeffs))
        a, b = self.coeffs[:n], other.coeffs[:n]
        # slots hold every input coefficient and every product coefficient,
        # each bounded by n max|a| max|b|, with room for the sign
        height_a, height_b = max(map(abs, a), default=0), max(map(abs, b), default=0)
        width = (max(height_a, height_b, n * height_a * height_b).bit_length() + 8) // 8
        packed_a = _pack(a, width)
        packed_b = packed_a if other is self else _pack(b, width)
        return QExpansion(self.weight + other.weight, _unpack(packed_a * packed_b, n, width))

    def __pow__(self, exponent: int) -> "QExpansion":
        if exponent < 0:
            raise ValueError("negative powers of q-expansions are not supported")
        if exponent == 0:
            return QExpansion(0, [1] + [0] * self.precision)
        result, base = None, self
        while True:
            if exponent & 1:
                result = base if result is None else result * base
            exponent >>= 1
            if not exponent:
                return result
            base = base * base

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self.coeffs[:6])
        return f"QExpansion(weight={self.weight}, coeffs=[{shown}, ...])"


def eisenstein(weight: int, precision: int) -> QExpansion:
    """Normalized Eisenstein series E_k = 1 - (2k/B_k) sum sigma_(k-1)(n) q^n,
    for the weights whose -2k/B_k is an integer: 4, 6, 8, 10 and 14."""
    if weight < 4 or weight % 2:
        raise UnsupportedWeight(f"Eisenstein series needs even weight >= 4, got {weight}")
    factor = Fraction(-2 * weight) / bernoulli(weight)
    if factor.denominator != 1:
        raise UnsupportedWeight(f"E_{weight} has the non-integral factor -2k/B_k = {factor}")
    sigma = [0] * (precision + 1)
    for d in range(1, precision + 1):
        dk = d ** (weight - 1)
        for n in range(d, precision + 1, d):
            sigma[n] += dk
    factor = factor.numerator
    return QExpansion(weight, [1] + [factor * s for s in sigma[1:]])


def dim_modular_forms(weight: int) -> int:
    if weight < 0 or weight % 2:
        return 0
    return weight // 12 + (0 if weight % 12 == 2 else 1)


def dim_cusp_forms(weight: int) -> int:
    if weight < 4:
        return 0
    return max(dim_modular_forms(weight) - 1, 0)


# -- Hecke action and eigenforms -------------------------------------------

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


def eigenform(weight: int, precision: int = DEFAULT_PRECISION) -> EigenformData:
    """The normalized eigenform of a one-dimensional cuspidal weight w:
    Delta E4^a E6^b with (a, b) from the weight table, where
    Delta = (E4^3 - E6^2)/1728 by exact integer division.  S_w = Delta M_(w-12),
    so S_w is one-dimensional exactly when M_(w-12) is, and then the single
    monomial E4^a E6^b spans M_(w-12)."""
    d = dim_cusp_forms(weight)
    if d == 0:
        raise EmptySpace(f"S_{weight} is zero-dimensional")
    if d > 1:
        raise IrrationalEigenspace(
            f"S_{weight} has dimension {d} and irrational Hecke eigenvalues; "
            f"eigenforms are built only for the one-dimensional weights "
            f"{SUPPORTED_WEIGHTS}")
    if precision < d:
        raise ValueError(f"precision {precision} below dimension {d}")
    e4, e6 = eisenstein(4, precision), eisenstein(6, precision)
    cusp = (e4 ** 3 - e6 ** 2).coeffs
    assert all(c % 1728 == 0 for c in cusp), "E4^3 - E6^2 is 1728 Delta"
    a, b = _DELTA_COFACTORS[weight]
    form = reduce(mul, [e4] * a + [e6] * b, QExpansion(12, [c // 1728 for c in cusp]))
    assert form.weight == weight and form.coeffs[:2] == (0, 1), "normalized, of weight w"
    return EigenformData(weight, form)


# -- numeric Satake parameters ---------------------------------------------

def check_eigenvalue(lam, weight: int, p: int) -> None:
    """Reject lam outside Deligne's bound, compared exactly as
    lam^2 <= 4 p^(weight-1) before any float conversion, and a lam that is
    not an integer, as no level-one eigenform with rational eigenvalues has."""
    lam = Fraction(lam)
    if lam ** 2 > 4 * p ** (weight - 1):
        raise DeligneBoundViolation(
            f"lambda({p}) = {lam} violates Deligne's bound "
            f"|lambda(p)| <= 2 p^(({weight}-1)/2) for weight {weight}")
    if lam.denominator != 1:
        raise NonIntegralEigenvalue(
            f"lambda({p}) = {lam} is not an integer; the level-one eigenform "
            f"of weight {weight} has integer eigenvalues")


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
    if normalized < -2:  # (normalized + disc) / 2 would cancel to nothing
        large = (normalized - disc) / 2
        return 1 / large, large
    r1 = (normalized + disc) / 2
    r2 = (normalized - disc) / 2
    first = max(r1, r2, key=lambda z: (z.imag, z.real))
    return first, 1 / first


# -- external eigenvalue tables ---------------------------------------------

def load_eigenvalue_table(path: str) -> Dict[int, Fraction]:
    """Parse a '<p> <numerator>[/<denominator>]' file, one prime per line.

    Blank lines and lines starting with '#' are ignored.  Primes and values
    not written in ASCII decimal digits (values as integers or quotients with
    a nonzero denominator), primes above MAX_PRIMES_UP_TO (checked before
    primality) and repeated primes are errors.
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
            value = re.fullmatch(r"([+-]?[0-9]+)(?:/(0*[1-9][0-9]*))?", fields[1])
            try:
                if not re.fullmatch(r"[+-]?[0-9]+", fields[0]):
                    raise ValueError(f"expected the prime in ASCII decimal digits, got {fields[0]!r}")
                if value is None:
                    raise ValueError(f"expected '<num>[/<den>]' in integers, den nonzero, "
                                     f"got {fields[1]!r}")
                p, num, den = int(fields[0]), int(value[1]), int(value[2] or 1)
            except ValueError as exc:  # also too many digits for int()
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if p > MAX_PRIMES_UP_TO:
                raise InputTooLarge(
                    f"{path}:{lineno}: prime {p} exceeds the cap {MAX_PRIMES_UP_TO}")
            if p in table:
                raise ValueError(f"{path}:{lineno}: duplicate prime {p}")
            if not is_prime(p):
                raise NonPrime(f"{path}:{lineno}: {p} is not prime")
            table[p] = Fraction(num, den)
    return table
