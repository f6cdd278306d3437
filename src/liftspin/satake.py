"""Satake parameter sets of the two lift families and the unit monomials
they are made of.

A parameter set is (mu0, mu1, ..., mu_g); the sets built here satisfy the
similitude constraint mu0^2 mu1 ... mu_g = q^e (recall q^2 = p).  Every
entry is a unit monomial a^i b^j q^e, stored as its exponent triple
(i, j, e) of ints with implicit coefficient 1.  So is every root of every
Euler factor in scope, which is why the monomial algebra lives here: the
product and the inverse are exponent sums and negations, so everything
built from them is exact, and `check_units` is the one place that says
what a monomial is.  Numeric work takes the roots of the finished local
factors at real Satake data instead (`LocalFactor.instantiate`).

Constructors cover the genus-2n lift of f, the genus-(2n-1) lift of the
pair (f, g), and the degenerate genus-1 set of an elliptic eigenform.
Parameter order follows the construction; all downstream consumers are
invariant under the Weyl action, so the order is a serialization choice,
not mathematical content.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple

#: a^i b^j q^e as (i, j, e)
Monomial = Tuple[int, int, int]


def mono_mul(x: Monomial, y: Monomial) -> Monomial:
    return (x[0] + y[0], x[1] + y[1], x[2] + y[2])


def mono_inv(x: Monomial) -> Monomial:
    return (-x[0], -x[1], -x[2])


def check_units(items: Iterable, what: str) -> None:
    """ValueError unless each item is an exponent triple of ints (no bools)."""
    for x in items:
        if not (type(x) is tuple and len(x) == 3 and type(x[0]) is int
                and type(x[1]) is int and type(x[2]) is int):
            raise ValueError(f"{what} must be exponent triples (i, j, e) of "
                             f"unit monomials a^i b^j q^e, got {x!r}")


@dataclass(frozen=True)
class SatakeParams:
    genus: int
    mu0: Monomial
    mus: Tuple[Monomial, ...]

    def __post_init__(self):
        if self.genus < 1 or len(self.mus) != self.genus:
            raise ValueError(f"genus {self.genus} does not match {len(self.mus)} parameters")
        check_units((self.mu0, *self.mus), "Satake parameters")


def ikeda_satake(n: int, k: int) -> SatakeParams:
    """Satake parameters of the genus-2n lift of f (f of weight 2k).

    mu0 = a^-n q^(n(2k-1)); the 2n remaining parameters are a q^e with e
    running over the symmetric odd range -(2n-1), ..., 2n-1.
    """
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    genus = 2 * n
    mu0 = (-n, 0, n * (2 * k - 1))
    mus = tuple((1, 0, 2 * i - 2 * n - 1) for i in range(1, genus + 1))
    return SatakeParams(genus, mu0, mus)


def miyawaki_satake(n: int, k: int) -> SatakeParams:
    """Satake parameters of the genus-(2n-1) lift of the pair (f, g),
    f of weight 2k and g of weight k+n.

    mu0 = a^-(n-1) b^-1 q^((n-1)(2k-1)+(k+n-1)); the list is the 2n-2
    monomials a q^e, e = -(2n-3), ..., 2n-3, followed by b^2.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    if k < 1:
        raise ValueError(f"need k >= 1, got k={k}")
    genus = 2 * n - 1
    mu0 = (-(n - 1), -1, (n - 1) * (2 * k - 1) + (k + n - 1))
    mus = tuple((1, 0, 2 * i - 2 * n + 1) for i in range(1, genus)) + ((0, 2, 0),)
    return SatakeParams(genus, mu0, mus)


def elliptic_satake(weight: int) -> SatakeParams:
    """Genus-1 parameters of the elliptic eigenform g of the given weight:
    mu0 = b^-1 q^(weight-1), mu1 = b^2."""
    return SatakeParams(1, (0, -1, weight - 1), ((0, 2, 0),))
