"""Subset-sum multiplicities behind the spinor factorizations.

alpha(r, m, n) counts the m-element subsets of the 2n symmetric odd numbers
{1-2n, 3-2n, ..., 2n-1} whose elements sum to r; beta(r, m, n) is the
difference alpha(r, m, n) - alpha(r, m-2, n).  The beta values are the
exponents with which the shifted symmetric-power and tensor factors occur
in the lift factorizations, so everything downstream leans on this module.

alpha is computed once per n by dynamic programming over the 2n elements
(subset-sum counting) and memoized.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple


class BetaTable:
    """All alpha / beta values for one n, built eagerly, then read-only."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"n must be positive, got {n}")
        self.n = n
        elements = symmetric_odd_set(n)
        # alpha[m] maps sum r -> count over m-element subsets
        alpha: list = [dict() for _ in range(2 * n + 1)]
        alpha[0][0] = 1
        for x in elements:
            for m in range(2 * n, 0, -1):
                lower = alpha[m - 1]
                target = alpha[m]
                for s, cnt in lower.items():
                    target[s + x] = target.get(s + x, 0) + cnt
        self._alpha = alpha

    def alpha(self, r: int, m: int) -> int:
        if m < 0 or m > 2 * self.n:
            return 0
        return self._alpha[m].get(r, 0)

    def beta(self, r: int, m: int) -> int:
        return self.alpha(r, m) - self.alpha(r, m - 2)

    def entries(self) -> Iterator[Tuple[int, int, int, int]]:
        """Yield (m, r, alpha, beta) over the full support, ordered."""
        n = self.n
        for m in range(0, 2 * n + 1):
            bound = m * (2 * n - m)
            for r in range(-bound, bound + 1, 2):
                yield (m, r, self.alpha(r, m), self.beta(r, m))


def symmetric_odd_set(n: int) -> Tuple[int, ...]:
    """The 2n odd numbers 1-2n, 3-2n, ..., 2n-1."""
    return tuple(range(1 - 2 * n, 2 * n, 2))


_tables: Dict[int, BetaTable] = {}


def table(n: int) -> BetaTable:
    tab = _tables.get(n)
    if tab is None:
        tab = _tables[n] = BetaTable(n)
    return tab


def beta_value(r: int, m: int, n: int) -> int:
    """alpha(r, m, n) - alpha(r, m-2, n), with alpha at negative m taken as 0."""
    return table(n).beta(r, m)
