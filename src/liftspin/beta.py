"""Subset-sum multiplicities behind the spinor factorizations.

alpha(r, m, n) counts the m-element subsets of the 2n symmetric odd numbers
{1-2n, 3-2n, ..., 2n-1} whose elements sum to r; beta(r, m, n) is the
difference alpha(r, m, n) - alpha(r, m-2, n).  The beta values are the
exponents with which the shifted symmetric-power and tensor factors occur
in the lift factorizations, so everything downstream leans on this module.

A table is built once per n and memoized.  Its alpha rows come from one
subset-sum DP on ints: element 2i + 1 - 2n adds i to the sum of its halved
offsets, so row m is an int with a slot per offset sum, and each (element,
m) is one shift-and-add of row m-1 into row m; row m is the Gaussian
binomial [2n, m].  The slots are wide enough for the largest count,
C(2n, n), with a bit to spare.  Only rows m <= n are built, since
alpha(r, m) = alpha(r, 2n - m).  beta(., m) is then one subtraction of row
m-2, moved up 2n-1 slots, from row m.  For m <= n each of those beta rows
is nonnegative, by the unimodality of the Gaussian binomials; the table
checks that once, when it is built, and raises NegativeMultiplicity if
not, so no reader of a row checks a value.  The beta rows are kept
decoded, one tuple per m over the support r = -m(2n-m), ..., m(2n-m) in
steps of 2, and so are the alpha rows, once a lookup needs them.
"""

from __future__ import annotations

import sys
from functools import cached_property
from math import comb
from typing import Dict, Iterator, List, Tuple


class NegativeMultiplicity(ValueError):
    """A beta exponent went negative: the factored side is not a polynomial."""


def _slots(value: int, width: int, count: int) -> List[int]:
    """The `count` lowest `width`-bit slots of a nonnegative int, lowest first."""
    size = width // 8
    data = value.to_bytes(count * size, sys.byteorder)
    if width == 64:
        return memoryview(data).cast("Q").tolist()
    return [int.from_bytes(data[i:i + size], sys.byteorder) for i in range(0, len(data), size)]


class BetaTable:
    """All alpha / beta values for one n, read-only once built."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"n must be positive, got {n}")
        self.n = n
        # 64-bit slots up to n = 33; a spare top bit shows a borrow
        width = 64 * -(-(comb(2 * n, n).bit_length() + 1) // 64)
        # packed[m], slot j: the m-subsets of offsets 0..2n-1 summing to j
        packed = [1] + [0] * n
        for i in range(2 * n):
            for m in range(min(i + 1, n), 0, -1):
                packed[m] += packed[m - 1] << i * width
        self._packed, self._width = packed, width
        # an m-subset's sum r is 2j - m(2n-1), from j = m(m-1)/2 up
        bounds = [m * (2 * n - m) for m in range(n + 1)]
        self._beta = []
        for m in range(n + 1):
            # row m-2 at the same r is 2n-1 slots further up; a negative
            # beta borrows, so the int goes negative or a top bit is set
            value = packed[m] - (packed[m - 2] << (2 * n - 1) * width if m >= 2 else 0)
            row = _slots(value >> m * (m - 1) // 2 * width, width, bounds[m] + 1) \
                if value >= 0 else None
            if row is None or max(row) >> width - 1:
                r = next(r for r in range(-bounds[m], bounds[m] + 1, 2) if self.beta(r, m) < 0)
                raise NegativeMultiplicity(f"beta({r},{m},{n}) = {self.beta(r, m)} < 0")
            self._beta.append(tuple(row))

    @cached_property
    def _alpha(self) -> List[Tuple[int, ...]]:
        """The alpha rows of m = 0..2n, decoded on first use: a product side
        reads only beta rows."""
        n, width = self.n, self._width
        rows = [tuple(_slots(value >> m * (m - 1) // 2 * width, width, m * (2 * n - m) + 1))
                for m, value in enumerate(self._packed)]
        return rows + rows[-2::-1]

    def alpha(self, r: int, m: int) -> int:
        if m < 0 or m > 2 * self.n:
            return 0
        row = self._alpha[m]
        s, odd = divmod(r + len(row) - 1, 2)
        return row[s] if not odd and 0 <= s < len(row) else 0

    def beta(self, r: int, m: int) -> int:
        return self.alpha(r, m) - self.alpha(r, m - 2)

    def beta_row(self, m: int) -> Tuple[int, ...]:
        """beta(r, m) at r = -m(2n-m), ..., m(2n-m) in steps of 2, for 0 <= m <= n:
        each nonnegative, the first and the last 1."""
        return self._beta[m]

    def entries(self) -> Iterator[Tuple[int, int, int, int]]:
        """Yield (m, r, alpha, beta) over the full support, ordered."""
        rows = self._alpha
        for m, row in enumerate(rows):
            bound = len(row) - 1
            # row m-2 holds r at slot (r + bound(m-2)) / 2, which is s - skip
            lower = rows[m - 2] if m >= 2 else ()
            skip = (bound - len(lower) + 1) // 2
            for s, a in enumerate(row):
                t = s - skip
                yield m, 2 * s - bound, a, a - (lower[t] if 0 <= t < len(lower) else 0)


_tables: Dict[int, BetaTable] = {}


def table(n: int) -> BetaTable:
    tab = _tables.get(n)
    if tab is None:
        tab = _tables[n] = BetaTable(n)
    return tab


def beta_value(r: int, m: int, n: int) -> int:
    """alpha(r, m, n) - alpha(r, m-2, n), with alpha at negative m taken as 0."""
    return table(n).beta(r, m)
