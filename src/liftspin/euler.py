"""Local Euler factors, stored as products of linear terms (1 - root T).

Every L-function in scope has a local factor that splits completely into
linear terms whose roots are unit monomials a^i b^j q^e, stored as the
exponent triples (i, j, e) of `satake`.  A `LocalFactor` is the parts it
was built from, small root lists and shifted copies of other factors, with
its roots counted.  Two factors are equal as polynomials if and only if
their root counts agree, so no identity check needs the expanded
coefficients, and the symbolic ones list no roots.  Numeric work takes the
roots, in order, at given Satake data (`LocalFactor.instantiate`).

Expanded coefficient lists (index = T-degree) exist for output only.
Every term of the T^d coefficient has the sign (-1)^d, so no term ever
cancels.  Each of T^0 to T^(N/2) of a degree-N factor is expanded as one
nonnegative int of W-bit slots (Kronecker substitution, one box per
T-degree).  Per exponent component x, the x-exponents of products of d
distinct roots lie between lo_x(d) and hi_x(d), the sums of the d smallest
and the d largest, in steps of g_x, the gcd of the roots' differences in x.
The box of the widest degree, N/2, sets the radix R_x of each component,
and a term of degree d sits at slot ((a - lo_a(d))/g_a R_b + (b -
lo_b(d))/g_b) R_q + (q - lo_q(d))/g_q, in canonical (e_a, e_b, e_q) order.
Multiplying by a root shifts a whole coefficient by a number of slots.  A
slot holds |c| <= C(N, d) < 2^N, so W is 32 bits up to degree 32 and 64
bits up to EXPANSION_DEGREE_CAP = 64.  The same recurrence with 1-bit
slots counts the terms first.  More than EXPANSION_TERM_CAP terms, or a
box over PACKED_SLOT_CAP slots (exponents far apart with no common step),
raises ExpansionTooLarge, exit 3 in the CLI, before any output: the
degree-63 miyawaki_standard side at n = 16 has 1,713,988 terms (240 MB).

Only the ints are kept.  The writers walk their slots through a memoryview,
one row per (e_a, e_b), with no sort and no term tuples.  By the local
functional equation, which holds for any N unit roots with product P,
T^(N-d) is (-1)^N P times T^d with every exponent negated; the negation
reverses the canonical order, so T^(N-d) is T^d's slots walked backwards.
`json_chunks` streams the indent-2 JSON one coefficient at a time (201,695
terms, 28.5 MB, in about 0.2 s at degree 64), and `text_chunks` the
`--format text` lines, each coefficient's compact JSON, from the same walk.
Factored, both write the roots in canonical order through one root
template each, with no per-root dict: each distinct root is formatted
once and repeated by its multiplicity; `laurent` holds the layouts.  The
labels written come from the caller.  `numeric_coefficients` expands
complex roots; it is quadratic and not capped, and refuses a coefficient
past double range with NumericOverflow.
"""

from __future__ import annotations

import cmath
import math
import sys
from itertools import accumulate, chain, count, product, repeat
from operator import add, or_
from typing import Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from . import laurent
from .errors import ExpansionTooLarge, GenusTooLarge, NumericOverflow
from .satake import Monomial, SatakeParams, check_units, mono_inv

#: largest degree expanded symbolically, the widest whose slots fit 64 bits
EXPANSION_DEGREE_CAP = 64

#: most terms, over all coefficients, that one expansion may write
EXPANSION_TERM_CAP = 2 ** 18

#: widest box, in slots of one coefficient, that the packed expansion uses
PACKED_SLOT_CAP = 2 ** 20

#: spinor factors above this genus (degree 2^12) are refused outright
SPINOR_GENUS_CAP = 12

# the indent-2 JSON of a factor up to its first entry; the entries sit at
# depth 2, each after "\n    " or ",\n    ", and "\n  ]\n}" closes
_JSON_HEAD = '{\n  "label": %s,\n  "degree": %d,\n  "%s": ['


class _Packed(NamedTuple):
    """A low-half coefficient: its slots as one int; perfbench's tracer reads len(_terms)."""
    value: int
    n_terms: int
    _terms = property(lambda self: range(self.n_terms))


def _slot_format(degree: int) -> Tuple[str, int]:
    """memoryview format and byte size of one slot: |c| <= C(N, d) < 2^N."""
    return ("I", 4) if degree <= 32 else ("Q", 8)


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


def _pack(roots: Sequence[Monomial], half: int, cols, steps, strides, width: int, merge):
    """T^0 to T^half as ints of `width`-bit slots, |c| at slot sum_x (e_x -
    lo_x(d)) / step_x * stride_x; `merge` adds a shifted coefficient in."""
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
            packed[d] = merge(packed[d], lower << shift if shift >= 0 else lower >> -shift)
    return packed


class LocalFactor:
    """One Euler factor at one prime: prod over its roots of (1 - root T),
    each root a unit monomial given by its exponent triple.

    `LocalFactor(roots)` checks each of a few roots.  `LocalFactor(parts=
    [(factor, shift, e), ...])` is the product of factor(shift T) e times
    over, `shift` a monomial, and checks nothing: its factors were checked
    when built, and its shifts are sums of checked ints.  `counts`, each
    root's multiplicity (never 0), is built once from the parts' counts;
    equal counts, equal polynomials.  `roots`, for the float paths only, is
    listed on first use: the parts in order, each one's shifted roots e
    times in a row.  A factor carries no name; the serializers take the
    label to write.  Instances are immutable.
    """

    __slots__ = ("counts", "degree", "_parts", "_roots")

    #: read by perfbench's tracer, which counts the factors built
    mode = "symbolic"

    def __init__(self, roots: Optional[Iterable[Monomial]] = None, *,
                 parts: Optional[Iterable[Tuple[LocalFactor, Monomial, int]]] = None):
        if (roots is None) == (parts is None):
            raise TypeError("LocalFactor takes either roots or parts")
        counts = {}
        if parts is None:
            # a tuple first: checking must not use up an iterator
            roots = tuple(roots)
            check_units(roots, "roots")
            for root in roots:
                counts[root] = counts.get(root, 0) + 1
        else:
            parts = tuple(parts)
            for factor, (s_a, s_b, s_q), e in parts:
                if e:
                    for (r_a, r_b, r_q), m in factor.counts.items():
                        root = (r_a + s_a, r_b + s_b, r_q + s_q)
                        counts[root] = counts.get(root, 0) + m * e
        self.counts, self.degree = counts, sum(counts.values())
        self._parts, self._roots = parts, roots

    @property
    def roots(self) -> Tuple[Monomial, ...]:
        if self._roots is None:
            self._roots = tuple(chain.from_iterable(
                [(r_a + s_a, r_b + s_b, r_q + s_q) for r_a, r_b, r_q in factor.roots] * e
                for factor, (s_a, s_b, s_q), e in self._parts))
        return self._roots

    # -- expansion --------------------------------------------------------

    def _expand(self) -> List[_Packed]:
        """T^0 to T^(degree // 2), packed; ExpansionTooLarge past a cap."""
        if self.degree > EXPANSION_DEGREE_CAP:
            raise ExpansionTooLarge(
                f"degree {self.degree} exceeds the symbolic expansion cap "
                f"{EXPANSION_DEGREE_CAP}; use the factored form instead")
        # sorted: equal root multisets do equal work
        roots, half = sorted(self.roots), self.degree // 2
        box = _box(roots, half)
        if box is None:
            raise ExpansionTooLarge(
                f"the expansion of this degree-{self.degree} factor needs more than "
                f"{PACKED_SLOT_CAP} slots per coefficient; use the factored form instead")
        # 1-bit slots mark the terms; T^(N-d) mirrors T^d for d < N - half
        counts = [value.bit_count() for value in _pack(roots, half, *box, 1, or_)]
        total = sum(counts) + sum(counts[:self.degree - half])
        if total > EXPANSION_TERM_CAP:
            raise ExpansionTooLarge(
                f"the expansion of this degree-{self.degree} factor has {total} terms, "
                f"over the term cap {EXPANSION_TERM_CAP}; use the factored form instead")
        width = 8 * _slot_format(self.degree)[1]
        return list(map(_Packed, _pack(roots, half, *box, width, add), counts))

    def _walk(self) -> Iterator[Tuple[bool, range, Iterator[Tuple[int, int, memoryview]]]]:
        """Per coefficient T^0 to T^degree: (negative, qs, rows), each row
        (e_a, e_b, slots) with |c| of the term of e_q = qs[i] in slot i, or 0."""
        packed = self._expand()
        half = len(packed) - 1
        cols, steps, (s_a, s_b, _) = _box(sorted(self.roots), half)
        fmt, size = _slot_format(self.degree)
        lows = list(zip(*(accumulate(col[:half], initial=0) for col in cols)))
        for t in range(self.degree + 1):
            d = min(t, self.degree - t)
            value = packed[d].value
            # whole e_a blocks of slots, so that a reversed walk splits alike
            blocks = -(-value.bit_length() // (8 * size * s_a))
            slots = memoryview(value.to_bytes(blocks * s_a * size, sys.byteorder)).cast(fmt)
            counts, origin = (blocks, s_a // s_b, s_b), lows[d]
            if t > half:
                # T^(N-d) walks T^d backwards: i_x -> n_x - 1 - i_x, e_x -> P_x - e_x
                slots = slots[::-1]
                origin = [sum(col) - o - g * (n - 1)
                          for col, o, g, n in zip(cols, origin, steps, counts)]
            e_a, e_b, qs = (range(o, o + g * n, g) for o, g, n in zip(origin, steps, counts))
            rows = ((a, b, slots[i:i + s_b])
                    for i, (a, b) in zip(range(0, len(slots), s_b), product(e_a, e_b)))
            yield t % 2 == 1, qs, rows

    # -- transformations ---------------------------------------------------

    def instantiate(self, alpha: complex, beta: complex, prime: int) -> Tuple[complex, ...]:
        """The roots at a = alpha, b = beta, q = sqrt(prime), as complex
        numbers in root order; NumericOverflow if one leaves double range."""
        a, b, q = complex(alpha), complex(beta), complex(prime ** 0.5)
        try:
            return tuple(a ** e_a * b ** e_b * q ** e_q for e_a, e_b, e_q in self.roots)
        except OverflowError:
            raise NumericOverflow(
                f"a root of a degree-{self.degree} factor leaves double range "
                f"at p = {prime}") from None

    # -- comparison and serialization ---------------------------------------

    def json_chunks(self, label: str, factored: bool = False) -> Iterator[str]:
        """json.dumps({"label": label, "degree": degree, "coeffs": [...]},
        indent=2), or "roots" in canonical order when factored, one piece per
        entry; ExpansionTooLarge comes before the first piece."""
        entries = self._entries(factored, 2)
        first = next(entries, None)
        head = _JSON_HEAD % (laurent.dumps(label), self.degree,
                             "roots" if factored else "coeffs")
        if first is None:
            yield head + "]\n}"
            return
        yield head + "\n    " + first
        for entry in entries:
            yield ",\n    " + entry
        yield "\n  ]\n}"

    def text_chunks(self, label: str, factored: bool = False) -> Iterator[str]:
        """The --format text lines: label, degree, then `coeff d: ` (or
        `root i: `) and the entry's compact JSON per coefficient (or root)."""
        name = "root" if factored else "coeff"
        lines = map("\n{} {}: {}".format, repeat(name), count(), self._entries(factored, None))
        yield f"label:  {label}\ndegree: {self.degree}" + next(lines, "")
        yield from lines

    def _entries(self, factored: bool, depth: Optional[int]) -> Iterator[str]:
        """The JSON of each root, in canonical order, or of each expanded
        coefficient, at `depth` (None: compact)."""
        if factored:
            template = laurent.root_template(depth)
            return chain.from_iterable(repeat(template % root, m)
                                       for root, m in sorted(self.counts.items()))
        return (laurent.coefficient_text(negative, qs, rows, depth)
                for negative, qs, rows in self._walk())


def numeric_coefficients(roots: Sequence[complex]) -> List[complex]:
    """Coefficients of T^0 to T^len(roots) of prod (1 - root T) at complex
    roots, one root at a time; quadratic, so not capped.  Complex products
    overflow to inf or nan silently, and coefficient d stays non-finite once
    it is, so one check at the end raises NumericOverflow."""
    coeffs = [1 + 0j]
    for root in roots:
        # new coefficient d is old d minus root times old d-1
        coeffs = coeffs[:1] + [upper - root * lower
                               for upper, lower in zip(coeffs[1:] + [0j], coeffs)]
    if not all(map(cmath.isfinite, coeffs)):
        raise NumericOverflow(
            f"a coefficient of a degree-{len(roots)} factor leaves double range; "
            f"use the factored form instead")
    return coeffs


# -- factor constructors -----------------------------------------------------

#: 1 - T, the local zeta factor, which the spinor and standard factors shift
_UNIT = LocalFactor(((0, 0, 0),))


def sym_power_factor(m: int, k: int) -> LocalFactor:
    """Degree-(m+1) symmetric-power factor of f; m = 0 degenerates to 1 - T,
    the local zeta factor, and m = 1 is the plain f factor, 1 - lambda_f(p)
    p^-s + p^(2k-1-2s)."""
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    e = m * (2 * k - 1)
    return LocalFactor((m - 2 * j, 0, e) for j in range(m + 1))


def tensor_factor(m: int, k: int, n: int) -> LocalFactor:
    """Degree-2m factor of g tensor sym_(m-1) f; m = 1 is the plain g factor."""
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    e = (m - 1) * (2 * k - 1) + (k + n - 1)
    return LocalFactor((m - 1 - 2 * j, eps, e) for j in range(m) for eps in (1, -1))


def spinor_factor(params: SatakeParams) -> LocalFactor:
    """Degree-2^genus factor: one linear term per subset of {mu_1..mu_g},
    root mu0 times the subset product; S_i(T) = S_(i-1)(T) S_(i-1)(mu_i T)."""
    if params.genus > SPINOR_GENUS_CAP:
        raise GenusTooLarge(
            f"genus {params.genus} spinor factor has degree 2^{params.genus}; "
            f"cap is {SPINOR_GENUS_CAP}")
    factor = LocalFactor(parts=[(_UNIT, params.mu0, 1)])
    for mu in params.mus:
        factor = LocalFactor(parts=[(factor, (0, 0, 0), 1), (factor, mu, 1)])
    return factor


def standard_factor(params: SatakeParams) -> LocalFactor:
    """Degree-(2 genus + 1) factor: (1 - T) times the paired mu, 1/mu terms."""
    shifts = chain([(0, 0, 0)], *((mu, mono_inv(mu)) for mu in params.mus))
    return LocalFactor(parts=[(_UNIT, shift, 1) for shift in shifts])
