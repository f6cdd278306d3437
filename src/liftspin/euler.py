"""Local Euler factors, stored as products of linear terms (1 - root T).

Every L-function in scope has a local factor that splits completely into
linear terms whose roots are unit monomials a^i b^j q^e, stored as the
exponent triples (i, j, e) of `satake` (symbolic mode), or complex numbers
(numeric mode).  The factored form is therefore the primary
representation: it is exact at every genus, and two factors are equal as
polynomials if and only if their root multisets agree, so no identity
check, symbolic or numeric, needs the expanded coefficients.

Expanded coefficient lists (index = T-degree) exist for output only.
Every term of the T^d coefficient has the sign (-1)^d, so no term ever
cancels.  Only T^0 to T^(N/2) of a degree-N factor are expanded.  The rest
follow from the local functional equation, which holds for any N unit
roots with product P: the T^(N-d) coefficient is (-1)^N P times the T^d one
with every exponent negated, and the negation reverses the canonical order.

Each of T^0 to T^(N/2) is expanded as one nonnegative int of W-bit slots
(Kronecker substitution, one box per T-degree).  Per exponent component x,
the x-exponents of products of d distinct roots lie between lo_x(d) and
hi_x(d), the sums of the d smallest and the d largest, in steps of g_x,
the gcd of the roots' differences in x.  The box of the widest degree,
N/2, sets the radix R_x of each component, and a term of degree d sits at
slot ((a - lo_a(d))/g_a R_b + (b - lo_b(d))/g_b) R_q + (q - lo_q(d))/g_q,
which increases in the canonical (e_a, e_b, e_q) order.  Multiplying by a
root shifts a whole coefficient by a number of slots.  A slot holds
|c| <= C(N, d) < 2^N, so W is 32 bits up to degree 32 and 64 bits up to
degree 64.  Decoding reads the slots through a memoryview, one row per
(e_a, e_b), with no sort.  This is the only symbolic expansion: roots
whose box has more than PACKED_SLOT_CAP slots (exponents far apart with no
common step, e.g. random triples near 2^70) raise ExpansionTooLarge, which
the CLI maps to exit 3.  No side of the identity registry comes near the
cap: the widest has 164,883 slots (miyawaki_standard, n = 16, degree 63),
and no side's box changes with k.

`json_chunks` streams the indent-2 JSON of `to_json_dict` one coefficient
at a time, and `coefficients()` returns them as lists of (e_a, e_b, e_q, c)
in canonical order; `laurent` writes the terms.  The term count explodes
with the degree (201,695 terms, 28.5 MB of JSON and about 0.4 s at degree
64; degree 128 is out of reach), hence EXPANSION_DEGREE_CAP; numeric
expansion is quadratic and not capped.
"""

from __future__ import annotations

import json
import math
import sys
from itertools import accumulate, compress, repeat
from operator import neg
from typing import Iterator, List, Sequence, Tuple, Union

from . import laurent
from .errors import ExpansionTooLarge, GenusTooLarge, NumericOverflow
from .satake import Monomial, SatakeParams, check_units, mono_inv

Root = Union[Monomial, complex]

#: largest degree expanded symbolically
EXPANSION_DEGREE_CAP = 64

#: widest box, in slots of one coefficient, that the packed expansion uses
PACKED_SLOT_CAP = 2 ** 20

#: spinor factors above this genus (degree 2^12) are refused outright
SPINOR_GENUS_CAP = 12

# the indent-2 layout of LocalFactor.to_json_dict() up to its first coefficient
_JSON_HEAD = '{\n  "label": %s,\n  "degree": %d,\n  "coeffs": [\n'


class _Terms(list):
    """One expanded symbolic coefficient: its (e_a, e_b, e_q, c) in canonical
    order.  `_terms` is the name perfbench's tracer counts terms by."""
    _terms = property(lambda self: self)


def _box(roots: Sequence[Monomial], half: int):
    """(sorted exponents, gcd step, slot stride) per component of the packed
    expansion of T^0 to T^half, or None when its box has more than
    PACKED_SLOT_CAP slots."""
    cols = [sorted(root[i] for root in roots) for i in range(3)]
    steps = [math.gcd(*(x - col[0] for x in col)) or 1 for col in cols]
    # the widest span of d-subset sums, in steps, is the one at d = half
    spans = [(sum(col[len(col) - half:]) - sum(col[:half])) // g + 1
             for col, g in zip(cols, steps)]
    if spans[0] * spans[1] * spans[2] > PACKED_SLOT_CAP:
        return None
    return cols, steps, (spans[1] * spans[2], spans[2], 1)


def _expand_packed(roots: Sequence[Monomial], half: int, cols, steps, strides) -> List[_Terms]:
    """T^0 to T^half as one int of W-bit slots each, holding |c| at slot
    sum_x (e_x - lo_x(d)) / step_x * stride_x, lo_x(d) the sum of the d
    smallest x-exponents."""
    fmt, size = ("I", 4) if len(roots) <= 32 else ("Q", 8)  # |c| <= C(N, d) < 2^N
    width = 8 * size

    def index(triple) -> int:
        return sum((x - col[0]) // g * s for x, col, g, s in zip(triple, cols, steps, strides))

    # a term of degree d-1 times a root moves by index(root) minus the index
    # of the d-th smallest exponents; slots a right shift drops are zero,
    # since every product of d distinct roots lies in the degree-d box
    dth = [index(smallest) for smallest in zip(*cols)]
    packed = [1] + [0] * half
    for m, root in enumerate(roots, 1):
        at = index(root)
        for d in range(min(m, half), 0, -1):
            shift = (at - dth[d - 1]) * width
            lower = packed[d - 1]
            packed[d] += lower << shift if shift >= 0 else lower >> -shift
    coeffs = []
    (g_a, g_b, g_q), (s_a, s_b, _) = steps, strides
    lows = zip(*(accumulate(col[:half], initial=0) for col in cols))
    for d, (value, (l_a, l_b, l_q)) in enumerate(zip(packed, lows)):
        slots = memoryview(value.to_bytes(-(-value.bit_length() // width) * size,
                                          sys.byteorder)).cast(fmt)
        e_q = range(l_q, l_q + g_q * s_b, g_q)
        terms = _Terms()
        # one row of slots per (e_a, e_b), its nonzero slots picked out in C
        for start in range(0, len(slots), s_b):
            a, b = divmod(start, s_a)
            row = slots[start:start + s_b]
            c = filter(None, row)
            terms += zip(repeat(l_a + g_a * a), repeat(l_b + g_b * (b // s_b)),
                         compress(e_q, row), map(neg, c) if d % 2 else c)
        coeffs.append(terms)
    return coeffs


class LocalFactor:
    """One Euler factor at one prime: prod over roots of (1 - root T).

    The constant term is 1 and the degree equals the number of roots by
    construction.  Instances are immutable.
    """

    __slots__ = ("label", "roots", "mode")

    def __init__(self, label: str, roots: Sequence[Root], mode: str = "symbolic"):
        if mode not in ("symbolic", "numeric"):
            raise ValueError(f"unknown mode {mode!r}")
        if mode == "symbolic":
            check_units(roots, "symbolic roots")
        else:
            roots = [complex(r) for r in roots]
        self.label = label
        self.roots = tuple(roots)
        self.mode = mode

    @property
    def degree(self) -> int:
        return len(self.roots)

    # -- expansion --------------------------------------------------------

    def coefficients(self) -> Tuple:
        """Coefficients of T^0 (always 1) to T^degree: complex numbers, or
        lists of terms (e_a, e_b, e_q, c) in canonical order, only up to
        degree EXPANSION_DEGREE_CAP and within PACKED_SLOT_CAP (else
        ExpansionTooLarge)."""
        return tuple(self._expand() if self.mode == "numeric" else self._sorted_terms())

    def _expand(self) -> List:
        """Complex coefficients, or _Terms of T^0 to T^(degree // 2)."""
        if self.mode == "numeric":
            coeffs = [1 + 0j]
            for root in self.roots:
                # new coefficient d is old d minus root times old d-1
                coeffs = coeffs[:1] + [upper - root * lower
                                       for upper, lower in zip(coeffs[1:] + [0j], coeffs)]
            return coeffs
        if self.degree > EXPANSION_DEGREE_CAP:
            raise ExpansionTooLarge(
                f"degree {self.degree} exceeds the symbolic expansion cap "
                f"{EXPANSION_DEGREE_CAP}; use the factored form instead")
        # sorted: equal root multisets do equal work
        roots, half = sorted(self.roots), self.degree // 2
        box = _box(roots, half)
        if box is None:
            raise ExpansionTooLarge(
                f"the expansion of {self.label} needs more than {PACKED_SLOT_CAP} "
                f"slots per coefficient; use the factored form instead")
        return _expand_packed(roots, half, *box)

    def _sorted_terms(self) -> Iterator[List[Tuple[int, int, int, int]]]:
        """Per symbolic coefficient, its (e_a, e_b, e_q, c) in canonical order."""
        low = self._expand()
        yield from low
        p_a, p_b, p_q = map(sum, zip((0, 0, 0), *self.roots))
        sign = (-1) ** self.degree
        for terms in reversed(low[:self.degree + 1 - len(low)]):
            yield [(p_a - a, p_b - b, p_q - q, sign * c) for a, b, q, c in reversed(terms)]

    # -- transformations ---------------------------------------------------

    def shift(self, c: int) -> "LocalFactor":
        """Replace T by q^c T, realizing the shift s -> s - c/2."""
        if self.mode != "symbolic":
            raise ValueError("can only shift symbolic factors; shift, then instantiate")
        if not c:
            return self
        return LocalFactor(f"{self.label}@q^{c}",
                           tuple((e_a, e_b, e_q + c) for e_a, e_b, e_q in self.roots))

    def instantiate(self, alpha: complex, beta: complex, prime: int) -> "LocalFactor":
        """Numeric factor: every root at a = alpha, b = beta, q = sqrt(prime);
        NumericOverflow if a root overflows double range there."""
        if self.mode != "symbolic":
            raise ValueError("can only instantiate symbolic factors")
        a, b, q = complex(alpha), complex(beta), complex(prime ** 0.5)
        try:
            roots = tuple(a ** e_a * b ** e_b * q ** e_q for e_a, e_b, e_q in self.roots)
        except OverflowError:
            raise NumericOverflow(
                f"a root of {self.label} leaves double range at p = {prime}") from None
        return LocalFactor(f"{self.label}|p={prime}", roots, "numeric")

    def evaluate(self, t: complex) -> complex:
        """Value of the factor at T = t, as the stable product of linear terms."""
        if self.mode != "numeric":
            raise ValueError("evaluate needs a numeric factor; instantiate first")
        value = 1 + 0j
        for r in self.roots:
            value *= 1 - r * t
        return value

    # -- comparison and serialization ---------------------------------------

    def root_multiset(self) -> Tuple:
        """Sorted root triples of a symbolic factor; equal tuples, equal polynomials."""
        return tuple(sorted(self.roots))

    def to_json_dict(self) -> dict:
        if self.mode == "symbolic":
            coeffs = [laurent.json_dict(terms) for terms in self._sorted_terms()]
        else:
            coeffs = [[c.real, c.imag] for c in self._expand()]
        return {"label": self.label, "degree": self.degree, "coeffs": coeffs}

    def json_chunks(self) -> Iterator[str]:
        """json.dumps(self.to_json_dict(), indent=2) in one piece per symbolic
        coefficient; ExpansionTooLarge comes before the first piece."""
        if self.mode == "numeric":
            yield json.dumps(self.to_json_dict(), indent=2)
            return
        head = _JSON_HEAD % (json.dumps(self.label), self.degree)
        for terms in self._sorted_terms():
            yield head + laurent.indented_json(terms)
            head = ",\n"
        yield "\n  ]\n}"

    def factored_json_dict(self) -> dict:
        """Root-list encoding, available at any degree; roots come out in
        canonical order so equal factors serialize identically."""
        if self.mode == "symbolic":
            roots = [laurent.json_dict([(*r, 1)]) for r in sorted(self.roots)]
        else:
            roots = [[r.real, r.imag]
                     for r in sorted(self.roots, key=lambda r: (r.real, r.imag))]
        return {"label": self.label, "degree": self.degree, "roots": roots}

    def __repr__(self) -> str:
        return f"LocalFactor({self.label!r}, degree={self.degree}, mode={self.mode})"


# -- factor constructors -----------------------------------------------------

def hecke_factor(role: str, k: int, n: int) -> LocalFactor:
    """Degree-2 factor of f (weight 2k) or g (weight k+n).

    Expanded, the f factor is 1 - (a + 1/a) q^(2k-1) T + q^(4k-2) T^2,
    matching 1 - lambda_f(p) p^-s + p^(2k-1-2s); same shape for g with
    b and q^(k+n-1).
    """
    if role == "f":
        e = 2 * k - 1
        return LocalFactor(f"hecke[f,k={k}]", ((1, 0, e), (-1, 0, e)))
    if role == "g":
        e = k + n - 1
        return LocalFactor(f"hecke[g,k={k},n={n}]", ((0, 1, e), (0, -1, e)))
    raise ValueError(f"role must be 'f' or 'g', got {role!r}")


def sym_power_factor(m: int, k: int) -> LocalFactor:
    """Degree-(m+1) symmetric-power factor of f; m = 0 degenerates to 1 - T."""
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    e = m * (2 * k - 1)
    roots = tuple((m - 2 * j, 0, e) for j in range(m + 1))
    return LocalFactor(f"sym^{m}[f,k={k}]", roots)


def tensor_factor(m: int, k: int, n: int) -> LocalFactor:
    """Degree-2m factor of g tensor sym_(m-1) f; m = 1 is the plain g factor."""
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    e = (m - 1) * (2 * k - 1) + (k + n - 1)
    roots = tuple((m - 1 - 2 * j, eps, e) for j in range(m) for eps in (1, -1))
    return LocalFactor(f"tensor[g*sym^{m - 1}f,k={k},n={n}]", roots)


def spinor_factor(params: SatakeParams, label: str = "") -> LocalFactor:
    """Degree-2^genus factor: one linear term per subset of {mu_1..mu_g},
    each with root mu0 times the subset product."""
    if params.genus > SPINOR_GENUS_CAP:
        raise GenusTooLarge(
            f"genus {params.genus} spinor factor has degree 2^{params.genus}; "
            f"cap is {SPINOR_GENUS_CAP}")
    roots = [params.mu0]
    for i, j, e in params.mus:
        roots.extend([(a + i, b + j, c + e) for a, b, c in roots])
    return LocalFactor(label or f"spin[genus={params.genus}]", tuple(roots))


def standard_factor(params: SatakeParams, label: str = "") -> LocalFactor:
    """Degree-(2 genus + 1) factor: (1 - T) times the paired mu, 1/mu terms."""
    roots = [(0, 0, 0)]
    for mu in params.mus:
        roots += (mu, mono_inv(mu))
    return LocalFactor(label or f"st[genus={params.genus}]", tuple(roots))
