"""Local Euler factors, stored as products of linear terms (1 - root T).

Every L-function in scope has a local factor that splits completely into
linear terms whose roots are unit monomials a^i b^j q^e, stored as the
exponent triples (i, j, e) of `satake`.  A `LocalFactor` is the parts it
was built from, small root lists and shifted copies of other factors, with
its roots counted.  Two factors are equal as polynomials if and only if
their root counts agree, so no identity check needs the expanded
coefficients, and the symbolic ones list no roots.  Numeric work takes the
roots, in order, at given Satake data (`LocalFactor.instantiate`).

The counts are packed q-rows: per (e_a, e_b) and window of 2^12 q-steps,
the lowest e_q and an int of 64-bit slots of multiplicities, slot 0 never
0, so sides compare as dicts.  Parts of one factor and (e_a, e_b) shift
fold into an int of multiplicities in q, one product per row of the
factor.  Windows keep roots 10^300 apart in two short rows.  Built,
they are compared as they are and read decoded from `LocalFactor.runs`.

Expanded coefficient lists (index = T-degree) exist for output only.
Every term of the T^d coefficient has the sign (-1)^d, so no term ever
cancels.  Each of T^0 to T^(N/2) of a degree-N factor is expanded as one
nonnegative int of W-bit slots (Kronecker substitution, one box per
T-degree), in the coordinates of a lattice that holds the roots'
differences.  Its triangular basis v_a = (h_a, *, *), v_b = (0, h_b, *),
v_q = (0, 0, h_q), each h_x > 0, writes a root as r_0 + c_a v_a + c_b v_b
+ c_q v_q, r_0 the smallest root.  The coordinates c are linear, so those
of a product of d distinct roots are the sums of theirs and lie between
lo_x(d) and hi_x(d), the sums of the d smallest and the d largest c_x.
The box of the widest degree, N/2, sets the radix R_x of each coordinate,
and a term of degree d sits at slot ((c_a - lo_a(d)) R_b + c_b - lo_b(d))
R_q + c_q - lo_q(d).  The basis is triangular, so slot order is canonical
(e_a, e_b, e_q) order, and each row (c_a, c_b) is one (e_a, e_b), its e_q
in steps of h_q from a start that moves with c_a and c_b.  That basis is
the differences' Hermite normal form.  Every root of a registry side
has e_a + e_q of one parity, since the q-exponent carries the odd 2k - 1,
so its lattice has h_q = 2, and above degree 8 its box has 50 to 60% of
the slots of a box with one gcd step per exponent: 1.3 MB packed at
degree 64, not 2.5 MB.  No registry side's box is larger than that one,
but a skewed root set can have one: 20 roots (j, j mod 2, 0) take 5,151
slots, against 1,111.  Multiplying by a root shifts a whole
coefficient by a number of slots.  A slot holds |c| <= C(N, d) < 2^N, so
W is 32 bits up to degree 32 and 64 bits up to EXPANSION_DEGREE_CAP = 64.
The same recurrence with 1-bit slots counts the terms first.  More than
EXPANSION_TERM_CAP terms, or a box over PACKED_SLOT_CAP slots (exponents
far apart with no common step), raises ExpansionTooLarge, exit 3 in the
CLI, before any output: the degree-63 miyawaki_standard side at n = 16
has 1,713,988 terms (240 MB).

Only the ints are kept.  The writer walks their slots through a memoryview,
one row per (e_a, e_b), with no sort and no term tuples.  By the local
functional equation, which holds for any N unit roots with product P,
T^(N-d) is (-1)^N P times T^d with every exponent negated; the negation
reverses the canonical order, so T^(N-d) is T^d's slots walked backwards.
`LocalFactor.chunks` is the one writer of a factor: it streams the
indent-2 JSON one entry at a time (201,695 terms, 28.5 MB, in about
0.07 s at degree 64 on a 2-vCPU Xeon) or the `--format text` lines, each
entry's compact JSON, from the same walk.  Within a coefficient, rows
with equal terms are formatted once, keyed on the e_q of their first
nonzero slot and the slots from there to the last nonzero one: the Satake
parameters are defined up to a <-> 1/a and b <-> 1/b, so rows (e_a, e_b)
and (-e_a, e_b) hold equal terms, at slots the lattice box shifts, and at
degree 64 the 201,695 terms lie in 103,312 terms' worth of distinct rows.
Factored, it writes the roots in canonical order through one root
template, with no per-root dict: each distinct root is formatted once and
repeated by its multiplicity.  At a prime, the entries are the [re, im]
of the instantiated roots, sorted, or of `numeric_coefficients`, which
expands complex roots; it is quadratic and not capped, and refuses a
coefficient past double range with NumericOverflow.  `laurent` holds the
layouts, and the labels written come from the caller.
"""

from __future__ import annotations

import cmath
import sys
from itertools import accumulate, chain, count, product, repeat
from operator import add, or_
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

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


class _Packed(NamedTuple):
    """A low-half coefficient: its slots as one int; perfbench's tracer reads len(_terms)."""
    value: int
    n_terms: int
    _terms = property(lambda self: range(self.n_terms))


class _Expansion(list):
    """T^0 to T^half, each a _Packed, and the _Box they are packed in."""

    __slots__ = ("box",)

    def __init__(self, coefficients: Iterable[_Packed], box):
        super().__init__(coefficients)
        self.box = box


def _slot_format(degree: int) -> Tuple[str, int]:
    """memoryview format and byte size of one slot: |c| <= C(N, d) < 2^N."""
    return ("I", 4) if degree <= 32 else ("Q", 8)


def _coordinates(basis, vector) -> Monomial:
    """The coordinates of a lattice vector in a triangular basis."""
    coords = []
    for x, row in enumerate(basis):
        c = vector[x] // row[x]
        vector = [v - c * r for v, r in zip(vector, row)]
        coords.append(c)
    return tuple(coords)


def _lattice(differences: Iterable[Monomial]) -> List[Monomial]:
    """(h_a, *, *), (0, h_b, *), (0, 0, h_q), each h > 0, spanning a lattice
    of the differences: their Hermite normal form, each entry above a pivot
    in [0, h), and the unit vector of a component with no pivot."""
    vectors, basis = set(differences), []
    for x in range(3):
        pivot, rest = (0, 0, 0), set()
        for v in vectors:
            # Euclid on the x-components, each step unimodular
            while v[x]:
                t = pivot[x] // v[x]
                pivot, v = v, tuple(p - t * w for p, w in zip(pivot, v))
            if any(v):
                rest.add(v)
        if pivot[x] < 0:
            pivot = tuple(-p for p in pivot)
        if pivot[x]:
            basis = [tuple(r - row[x] // pivot[x] * p for r, p in zip(row, pivot))
                     for row in basis]
        else:
            pivot = tuple(int(y == x) for y in range(3))
        basis.append(pivot)
        vectors = rest
    return basis


class _Box:
    """The packing of T^0 to T^half: a product of d roots, exponents d
    origin + sum_x c_x basis[x], sits at slot sum_x (c_x - lo_x(d))
    strides[x]; `coords` holds each root's c, relative to the origin, and
    `cols` the sorted c_x per x."""

    __slots__ = ("origin", "basis", "coords", "cols", "strides", "slots")

    def __init__(self, origin, basis, coords, cols, strides, slots):
        self.origin, self.basis, self.coords = origin, basis, coords
        self.cols, self.strides, self.slots = cols, strides, slots


def _box(roots: Sequence[Monomial], half: int) -> Optional[_Box]:
    """The packing of T^0 to T^half in the box of the roots' lattice, or
    None when it has more than PACKED_SLOT_CAP slots."""
    origin = roots[0] if roots else (0, 0, 0)
    differences = [tuple(x - o for x, o in zip(root, origin)) for root in roots]
    basis = _lattice(differences)
    coords = [_coordinates(basis, v) for v in differences]
    cols = [sorted(v[x] for v in coords) for x in range(3)]
    # the widest span of d-subset sums is the one at d = half
    n_a, n_b, n_q = (sum(col[len(col) - half:]) - sum(col[:half]) + 1 for col in cols)
    box = _Box(origin, basis, coords, cols, (n_b * n_q, n_q, 1), n_a * n_b * n_q)
    return box if box.slots <= PACKED_SLOT_CAP else None


def _pack(box: _Box, half: int, width: int, merge):
    """T^0 to T^half as ints of `width`-bit slots, |c| at slot sum_x (c_x -
    lo_x(d)) stride_x; `merge` adds a shifted coefficient in."""
    def index(coords) -> int:
        return sum((c - col[0]) * s for c, col, s in zip(coords, box.cols, box.strides))

    # a term of degree d-1 times a root moves by index(root) minus the index
    # of the d-th smallest coordinates; slots a right shift drops are zero,
    # since every product of d distinct roots lies in the degree-d box
    dth = [index(smallest) for smallest in zip(*box.cols)]
    packed = [1] + [0] * half
    for m, root in enumerate(box.coords, 1):
        at = index(root)
        for d in range(min(m, half), 0, -1):
            shift = (at - dth[d - 1]) * width
            lower = packed[d - 1]
            packed[d] = merge(packed[d], lower << shift if shift >= 0 else lower >> -shift)
    return packed


def _rows(slots: memoryview, base: Monomial, basis, rows: int,
          width: int) -> Iterator[Tuple[int, int, int, memoryview]]:
    """(e_a, e_b, e_q, row) for each run of `width` slots, `rows` runs per
    step of c_a, from the exponents `base` of slot 0; the arguments are
    bound when the walk is made."""
    (h_a, a_b, a_q), (_, h_b, b_q), _ = basis
    e_a, e_b, e_q = base
    for i, (c_a, c_b) in zip(range(0, len(slots), width),
                             product(range(len(slots) // (rows * width)), range(rows))):
        yield (e_a + c_a * h_a, e_b + c_a * a_b + c_b * h_b, e_q + c_a * a_q + c_b * b_q,
               slots[i:i + width])


#: bits of a count's slot and of a row's window, w holding e_q from w 2^12 - 2^11
_SLOT_BITS, _WINDOW_BITS, _HALF_WINDOW = 64, 12, 2 ** 11


def _add_run(rows, e_a, e_b, e_q: int, value: int) -> None:
    """Add the counts `value`, slot 0 nonzero and slot i that of e_q + i,
    to the rows of (e_a, e_b), split where it crosses a window edge."""
    at = e_q + _HALF_WINDOW
    window = at >> _WINDOW_BITS
    if value >> _SLOT_BITS and (
            at + (value.bit_length() - 1) // _SLOT_BITS) >> _WINDOW_BITS != window:
        # the slots past the edge go on from their first nonzero one
        bits = _SLOT_BITS * (((window + 1) << _WINDOW_BITS) - at)
        rest = value >> bits
        skip = ((rest & -rest).bit_length() - 1) // _SLOT_BITS
        _add_run(rows, e_a, e_b, e_q + bits // _SLOT_BITS + skip, rest >> _SLOT_BITS * skip)
        value ^= rest << bits
    key = e_a, e_b, window
    low, counts = rows.get(key, (e_q, 0))
    if low > e_q:
        low, counts, e_q, value = e_q, value, low, counts
    rows[key] = low, counts + (value << _SLOT_BITS * (e_q - low))


class LocalFactor:
    """One Euler factor at one prime: prod over its roots of (1 - root T),
    each root a unit monomial given by its exponent triple.

    `LocalFactor(roots)` checks each of a few roots.  `LocalFactor(parts=
    [(factor, shift, e), ...])` is the product of factor(shift T) e times
    over, `shift` a monomial, and checks only that each e >= 0: its
    factors were checked when built, and its shifts are sums of checked
    ints.  `rows` counts the roots, {(e_a, e_b, (e_q + 2^11) >> 12): (e_q,
    value)}, slot i of `value` the multiplicity of e_q + i; a degree of
    2^64 or more is refused with ValueError.  `runs()` decodes them in
    canonical order, `counts` as {root: multiplicity}.  `roots`, for the
    float paths only, is listed on first use: the parts in order, each
    one's shifted roots e times in a row.  A factor carries no name;
    `chunks` takes the label to write.  Instances are immutable.
    """

    __slots__ = ("rows", "degree", "_parts", "_roots")

    #: read by perfbench's tracer, which counts the factors built
    mode = "symbolic"

    def __init__(self, roots: Optional[Iterable[Monomial]] = None, *,
                 parts: Optional[Iterable[Tuple[LocalFactor, Monomial, int]]] = None):
        if (roots is None) == (parts is None):
            raise TypeError("LocalFactor takes either roots or parts")
        rows = {}
        if parts is None:
            # a tuple first: checking must not use up an iterator
            roots = tuple(roots)
            check_units(roots, "roots")
            degree = len(roots)
            for e_a, e_b, e_q in roots:
                _add_run(rows, e_a, e_b, e_q, 1)
        else:
            # the multiplicities of each factor and (e_a, e_b) shift, as rows
            parts, degree, folded = tuple(parts), 0, {}
            for factor, (s_a, s_b, s_q), e in parts:
                if e < 0:
                    raise ValueError(f"a part's multiplicity must be nonnegative, got {e}")
                if e and factor.degree:
                    degree += e * factor.degree
                    _add_run(folded, factor, (s_a, s_b), s_q, e)
            if degree >> _SLOT_BITS:
                raise ValueError(f"degree {degree} is not below 2^64, the bound of a root count")
            for (factor, (s_a, s_b), _), (low, times) in folded.items():
                if not rows and (s_a, s_b, low, times) == (0, 0, 0, 1):
                    rows = dict(factor.rows)  # the factor itself, first: its rows as they are
                    continue
                for (r_a, r_b, _), (r_q, value) in factor.rows.items():
                    _add_run(rows, r_a + s_a, r_b + s_b, r_q + low, value * times)
        self.rows, self.degree = rows, degree
        self._parts, self._roots = parts, roots

    def runs(self) -> List[Tuple[int, int, int, memoryview]]:
        """The rows decoded, in canonical order: (e_a, e_b, e_q, cs), cs[i]
        the multiplicity of e_q + i in a memoryview of 64-bit slots."""
        return [(e_a, e_b, e_q, memoryview(value.to_bytes(
                    -(-value.bit_length() // _SLOT_BITS) * 8, sys.byteorder)).cast("Q"))
                for (e_a, e_b, _), (e_q, value) in sorted(self.rows.items())]

    @property
    def counts(self) -> Dict[Monomial, int]:
        """{root: multiplicity} in canonical order."""
        return {(e_a, e_b, e_q + i): m for e_a, e_b, e_q, cs in self.runs()
                for i, m in enumerate(cs) if m}

    @property
    def roots(self) -> Tuple[Monomial, ...]:
        if self._roots is None:
            self._roots = tuple(chain.from_iterable(
                [(r_a + s_a, r_b + s_b, r_q + s_q) for r_a, r_b, r_q in factor.roots] * e
                for factor, (s_a, s_b, s_q), e in self._parts))
        return self._roots

    # -- expansion --------------------------------------------------------

    def _expand(self) -> _Expansion:
        """T^0 to T^(degree // 2), packed; ExpansionTooLarge past a cap."""
        if self.degree > EXPANSION_DEGREE_CAP:
            raise ExpansionTooLarge(
                f"degree {self.degree} exceeds the symbolic expansion cap "
                f"{EXPANSION_DEGREE_CAP}; use the factored form instead")
        # in canonical order: equal root multisets do equal work
        roots, half = [root for root, m in self.counts.items() for _ in range(m)], self.degree // 2
        box = _box(roots, half)
        if box is None:
            raise ExpansionTooLarge(
                f"the expansion of this degree-{self.degree} factor needs more than "
                f"{PACKED_SLOT_CAP} slots per coefficient; use the factored form instead")
        # 1-bit slots mark the terms; T^(N-d) mirrors T^d for d < N - half
        counts = [value.bit_count() for value in _pack(box, half, 1, or_)]
        total = sum(counts) + sum(counts[:self.degree - half])
        if total > EXPANSION_TERM_CAP:
            raise ExpansionTooLarge(
                f"the expansion of this degree-{self.degree} factor has {total} terms, "
                f"over the term cap {EXPANSION_TERM_CAP}; use the factored form instead")
        width = 8 * _slot_format(self.degree)[1]
        return _Expansion(map(_Packed, _pack(box, half, width, add), counts), box)

    def _walk(self) -> Iterator[Tuple[bool, int, Iterator[Tuple[int, int, int, memoryview]]]]:
        """Per coefficient T^0 to T^degree: (negative, step, rows), each row
        (e_a, e_b, e_q, slots) with |c| of the term of e_q + i step in slot
        i, or 0; the rows, and the slots in each, in canonical order."""
        packed = self._expand()
        half = len(packed) - 1
        box = packed.box
        block, width, _ = box.strides
        rows = block // width
        fmt, size = _slot_format(self.degree)
        lows = list(zip(*(accumulate(col[:half], initial=0) for col in box.cols)))
        sums = [sum(col) for col in box.cols]
        for t in range(self.degree + 1):
            d = min(t, self.degree - t)
            value = packed[d].value
            # whole c_a blocks of slots, so that a reversed walk splits alike
            blocks = -(-value.bit_length() // (8 * size * block))
            slots = memoryview(value.to_bytes(blocks * block * size, sys.byteorder)).cast(fmt)
            corner = lows[d]
            if t > half:
                # T^(N-d) walks T^d backwards from its last slot c: e -> P - e,
                # P the product of all N roots, so c -> sums - c
                slots = slots[::-1]
                corner = [s - lo - n + 1 for s, lo, n in zip(sums, corner, (blocks, rows, width))]
            # the exponents at `corner`, slot 0 of the walk, of a product of t roots
            base = [t * o + sum(c * row[x] for c, row in zip(corner, box.basis))
                    for x, o in enumerate(box.origin)]
            yield t % 2 == 1, box.basis[2][2], _rows(slots, base, box.basis, rows, width)

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

    def chunks(self, label: str, factored: bool = False, fmt: str = "json",
               at: Optional[Tuple[complex, complex, int]] = None) -> Iterator[str]:
        """The factor as `fmt` "json", json.dumps({"label": label, "degree":
        degree, "coeffs": [...]}, indent=2), or "text", the lines label,
        degree and `coeff d: ` with the entry's compact JSON per coefficient;
        "roots" and `root i: ` when factored.  The entries are exact, the
        roots in canonical order, or with `at` = (alpha, beta, prime) the
        [re, im] of the instantiated roots, sorted, or of their expanded
        coefficients.  One piece per entry; ExpansionTooLarge and
        NumericOverflow come before the first piece."""
        key = "roots" if factored else "coeffs"
        entries = self._entries(factored, 2 if fmt == "json" else None, at)
        if fmt != "json":
            lines = map("\n{} {}: {}".format, repeat(key[:-1]), count(), entries)
            yield f"label:  {label}\ndegree: {self.degree}" + next(lines, "")
            yield from lines
            return
        first = next(entries, None)
        empty = laurent.dumps({"label": label, "degree": self.degree, key: []})
        if first is None:
            yield empty
            return
        # the entries go in the place of the last "[]", one level in
        head, _, tail = empty.rpartition("[]")
        opening, sep, closing = laurent.container(1)
        yield head + "[" + opening + first
        for entry in entries:
            yield sep
            yield entry
        yield closing + "]" + tail

    def _entries(self, factored: bool, depth: Optional[int],
                 at: Optional[Tuple[complex, complex, int]]) -> Iterator[str]:
        """The JSON of each entry of `chunks` at `depth` (None: compact)."""
        if at is not None:
            roots = self.instantiate(*at)
            values = (sorted(roots, key=lambda r: (r.real, r.imag)) if factored
                      else numeric_coefficients(roots))
            return (laurent.dumps([z.real, z.imag], depth) for z in values)
        if factored:
            template = laurent.root_template(depth)
            return chain.from_iterable(repeat(template % r, m) for r, m in self.counts.items())
        return (laurent.coefficient_text(negative, step, rows, depth)
                for negative, step, rows in self._walk())


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
