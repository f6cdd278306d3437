"""Exact q-expansions of level-one modular forms and Hecke eigenvalue data.

Truncated power series in q = e^(2 pi i tau) with plain int coefficients:
every series built here (the Eisenstein series, Delta, the eigenforms) is
integral, and any other coefficient is refused.  Eigenvalue data is
plain ints too: a table value must be an integer, and is refused where the
table is read if it is not.

Contents: the integral Eisenstein series E4, E6, E8, E10 and E14 from
divisor sums, Delta from Jacobi's eta cube, and the normalized eigenforms.

A product of two series is one big-int multiplication (Kronecker
substitution): each series is packed into an int with one fixed-width byte
slot per coefficient, wide enough for every input coefficient and for
n max|a| max|b|; the low n slots of the product are the truncated product.

Eigenforms exist here only at the one-dimensional cuspidal weights 12, 16,
18, 20, 22 and 26.  Multiplication by Delta = q prod (1 - q^n)^24 = q + ...
maps M_(w-12) onto S_w, and at those weights M_(w-12) is one-dimensional,
spanned by E_(w-12), so the eigenform is Delta E_(w-12) (Delta itself at
w = 12), already normalized: one series product per eigenform, after the
three squarings that build Delta once per precision.  Every level-one cusp
space of dimension 2 or more has irrational Hecke eigenvalues (Maeda's
conjecture, verified up to weight 14,000), so those weights raise
IrrationalEigenspace before any series is built.
"""

from __future__ import annotations

import cmath
from functools import lru_cache
from itertools import compress
from math import isqrt
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (
    DeligneBoundViolation,
    EisensteinCongruenceViolation,
    EmptySpace,
    InputTooLarge,
    InsufficientPrecision,
    IrrationalEigenspace,
    NonIntegralEigenvalue,
    NonPrime,
    UnsupportedWeight,
)

#: -2k/B_k at each weight k whose Eisenstein series E_k is integral; each
#: M_k there is one-dimensional, so S_(k+12) = Delta M_k is too
_EISENSTEIN_FACTORS = {4: 240, 6: -504, 8: 480, 10: -264, 14: -24}

#: weights of the one-dimensional cuspidal eigenspaces on SL2(Z): 12, where
#: the eigenform is Delta, and 12 + k for each integral E_k
SUPPORTED_WEIGHTS = (12,) + tuple(12 + k for k in _EISENSTEIN_FACTORS)

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

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self.coeffs[:6])
        return f"QExpansion(weight={self.weight}, coeffs=[{shown}, ...])"


def eisenstein(weight: int, precision: int) -> QExpansion:
    """Normalized Eisenstein series E_k = 1 - (2k/B_k) sum sigma_(k-1)(n) q^n
    at the weights k = 4, 6, 8, 10 and 14 where -2k/B_k is an integer."""
    factor = _EISENSTEIN_FACTORS.get(weight)
    if factor is None:
        raise UnsupportedWeight(f"Eisenstein series are built at the integral weights "
                                f"{tuple(_EISENSTEIN_FACTORS)} only, got {weight}")
    sigma = [0] * (precision + 1)
    for d in range(1, precision + 1):
        dk = d ** (weight - 1)
        for n in range(d, precision + 1, d):
            sigma[n] += dk
    return QExpansion(weight, [1] + [factor * s for s in sigma[1:]])


def dim_cusp_forms(weight: int) -> int:
    """dim S_weight at level one: dim M_weight - 1, or 0 below 4 and when odd."""
    return 0 if weight < 4 or weight % 2 else weight // 12 - (weight % 12 == 2)


# -- Hecke action and eigenforms -------------------------------------------

class EigenformData:
    """A normalized Hecke eigenform: its weight and either its exact
    q-expansion or, read from a file in its place, a prime -> eigenvalue
    table (qexp None)."""

    def __init__(self, weight: int, qexp: Optional[QExpansion],
                 table: Optional[Dict[int, int]] = None):
        self.weight = weight
        self.qexp = qexp
        self.table = table


def hecke_eigenvalue(form: EigenformData, p: int) -> int:
    """lambda(p): the p-th q-coefficient of the normalized eigenform, or the
    table's entry for p, checked by check_eigenvalue before it is returned."""
    if not is_prime(p):
        raise NonPrime(f"{p} is not prime")
    if form.qexp is None:
        lam = form.table.get(p)
        if lam is None:
            raise InsufficientPrecision(f"eigenvalue table has no entry for p={p}")
    elif p > form.qexp.precision:
        raise InsufficientPrecision(
            f"p={p} exceeds q-expansion precision {form.qexp.precision}")
    else:
        lam = form.qexp.coeffs[p]
    check_eigenvalue(lam, form.weight, p)
    return lam


def _eta_cube(precision: int) -> QExpansion:
    """prod (1 - q^n)^3 = sum_(k>=0) (-1)^k (2k+1) q^(k(k+1)/2) (Jacobi), held
    at weight 0: its k(k+1)/2 <= precision, i.e. 2k+1 <= sqrt(8 precision + 1)."""
    coeffs = [0] * (precision + 1)
    for k in range((isqrt(8 * precision + 1) + 1) // 2):
        coeffs[k * (k + 1) // 2] = (-1) ** k * (2 * k + 1)
    return QExpansion(0, coeffs)


@lru_cache(maxsize=4)
def _delta(precision: int) -> QExpansion:
    """Delta = q prod (1 - q^n)^24, the eta cube squared three times, built
    once per precision for every eigenform of a run."""
    power = _eta_cube(precision - 1)
    for _ in range(3):
        power = power * power
    return QExpansion(12, (0,) + power.coeffs)


def eigenform(weight: int, precision: int = DEFAULT_PRECISION,
              table: Optional[str] = None) -> EigenformData:
    """The normalized eigenform of a one-dimensional cuspidal weight w, its
    eigenvalues read from the file `table` (load_eigenvalue_table) when one
    is given, and otherwise built as Delta E_(w-12) (Delta itself at
    w = 12): one series product, with Delta from the eta cube shared through
    _delta by the forms of one precision.  S_w = Delta M_(w-12), so S_w is
    one-dimensional exactly when M_(w-12) is, and then E_(w-12) spans it."""
    d = dim_cusp_forms(weight)
    if d == 0:
        raise EmptySpace(f"S_{weight} is zero-dimensional")
    if d > 1:
        raise IrrationalEigenspace(
            f"S_{weight} has dimension {d} and irrational Hecke eigenvalues; "
            f"eigenforms are built only for the one-dimensional weights "
            f"{SUPPORTED_WEIGHTS}")
    if table is not None:
        return EigenformData(weight, None, load_eigenvalue_table(table))
    if precision < d:
        raise ValueError(f"precision {precision} below dimension {d}")
    form = _delta(precision)
    if weight != 12:
        form = form * eisenstein(weight - 12, precision)
    assert form.weight == weight and form.coeffs[:2] == (0, 1), "normalized, of weight w"
    return EigenformData(weight, form)


# -- numeric Satake parameters ---------------------------------------------

#: N_w, the numerator of B_w / (2w), at each supported weight w: every
#: eigenvalue of the weight-w eigenform is 1 + p^(w-1) mod N_w
_EISENSTEIN_MODULI = {12: 691, 16: 3617, 18: 43867, 20: 174611, 22: 77683, 26: 657931}


def check_eigenvalue(lam: int, weight: int, p: int) -> None:
    """Reject lam outside Deligne's bound, compared exactly as
    lam^2 <= 4 p^(weight-1) before any float conversion, and at a supported
    weight w one that breaks the Eisenstein congruence
    lam = 1 + p^(w-1) mod N_w, as a wrong integer inside the bound may."""
    if lam * lam > 4 * p ** (weight - 1):
        raise DeligneBoundViolation(
            f"lambda({p}) = {lam} violates Deligne's bound "
            f"|lambda(p)| <= 2 p^(({weight}-1)/2) for weight {weight}")
    modulus = _EISENSTEIN_MODULI.get(weight)
    if modulus and (lam - 1 - pow(p, weight - 1, modulus)) % modulus:
        raise EisensteinCongruenceViolation(
            f"lambda({p}) = {lam} is not 1 + {p}^{weight - 1} mod {modulus}, as every "
            f"eigenvalue of the weight-{weight} eigenform is")


def numeric_satake(lam: int, weight: int, p: int) -> Tuple[complex, complex]:
    """Roots of X^2 - lam p^(-(weight-1)/2) X + 1, as an exact-reciprocal pair.

    The first root has nonnegative imaginary part (ties broken by larger
    real part) and the second is literally 1/first, so the pair multiplies
    to 1 by construction.
    """
    if weight % 2:
        raise UnsupportedWeight(f"weight must be even, got {weight}")
    if not is_prime(p):
        raise NonPrime(f"{p} is not prime")
    # int / int rounds correctly, so this is the float nearest lam / p^((w-2)/2)
    normalized = lam / p ** ((weight - 2) // 2) / p ** 0.5
    disc = cmath.sqrt(complex(normalized * normalized - 4))
    if normalized < -2:  # (normalized + disc) / 2 would cancel to nothing
        large = (normalized - disc) / 2
        return 1 / large, large
    r1 = (normalized + disc) / 2
    r2 = (normalized - disc) / 2
    first = max(r1, r2, key=lambda z: (z.imag, z.real))
    return first, 1 / first


# -- external eigenvalue tables ---------------------------------------------

def _is_decimal(text: str, signed: bool = True) -> bool:
    """text is ASCII decimal digits, after one optional sign when `signed`."""
    digits = text[1:] if signed and text[:1] in ("+", "-") else text
    return digits.isascii() and digits.isdigit()


def load_eigenvalue_table(path: str) -> Dict[int, int]:
    """Parse a '<p> <numerator>[/<denominator>]' file, one prime per line,
    into prime -> int eigenvalue.

    Blank lines and lines starting with '#' are ignored.  Primes and values
    not written in ASCII decimal digits (values as integers or quotients with
    a nonzero denominator), primes above MAX_PRIMES_UP_TO (checked before
    primality) and repeated primes are errors, and a quotient that is not an
    integer raises NonIntegralEigenvalue: no level-one eigenform with
    rational eigenvalues has one.  Each field passes _is_decimal before
    int() reads it, as int() alone also reads '_' and other Unicode digits.
    """
    table: Dict[int, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) != 2:
                raise ValueError(f"{path}:{lineno}: expected '<p> <value>', got {line!r}")
            num, slash, den = fields[1].partition("/")
            try:
                if not _is_decimal(fields[0]):
                    raise ValueError(f"expected the prime in ASCII decimal digits, got {fields[0]!r}")
                if not (_is_decimal(num) and (not slash or _is_decimal(den, False)
                                              and den.strip("0"))):
                    raise ValueError(f"expected '<num>[/<den>]' in integers, den nonzero, "
                                     f"got {fields[1]!r}")
                p, num, den = int(fields[0]), int(num), int(den or 1)
            except ValueError as exc:  # also too many digits for int()
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if p > MAX_PRIMES_UP_TO:
                raise InputTooLarge(
                    f"{path}:{lineno}: prime {p} exceeds the cap {MAX_PRIMES_UP_TO}")
            if p in table:
                raise ValueError(f"{path}:{lineno}: duplicate prime {p}")
            if not is_prime(p):
                raise NonPrime(f"{path}:{lineno}: {p} is not prime")
            if num % den:
                raise NonIntegralEigenvalue(
                    f"{path}:{lineno}: lambda({p}) = {num}/{den} is not an integer; level-one "
                    f"eigenforms with rational eigenvalues have integer ones")
            table[p] = num // den
    return table
