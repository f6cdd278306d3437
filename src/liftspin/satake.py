"""Satake parameter sets of the two lift families, and the Weyl action.

A parameter set is (mu0, mu1, ..., mu_g) together with the exponent e of
the similitude constraint mu0^2 mu1 ... mu_g = q^e (recall q^2 = p).  Every
entry is a single unit monomial in a, b, q, which makes the Weyl generators
(monomial inversion) and the similitude check exact.  Numeric work
instantiates the finished local factors instead (`LocalFactor.instantiate`);
the similitude, exact in the ring, holds there for every alpha and beta.

Constructors cover the genus-2n lift of f, the genus-(2n-1) lift of the
pair (f, g), and the degenerate genus-1 set of an elliptic eigenform.
Parameter order follows the construction; all downstream consumers are
invariant under the Weyl action, so the order is a serialization choice,
not mathematical content.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence, Tuple

from .laurent import LaurentPoly


@dataclass(frozen=True)
class SatakeParams:
    genus: int
    mu0: LaurentPoly
    mus: Tuple[LaurentPoly, ...]
    similitude_exponent: int

    def __post_init__(self):
        if self.genus < 1 or len(self.mus) != self.genus:
            raise ValueError(f"genus {self.genus} does not match {len(self.mus)} parameters")
        LaurentPoly.check_monomials((self.mu0, *self.mus), "Satake parameters")

    # -- invariants -----------------------------------------------------

    def similitude_holds(self) -> bool:
        """mu0^2 prod(mus) == q^similitude_exponent, exactly."""
        product = self.mu0 * self.mu0
        for mu in self.mus:
            product = product * mu
        return product == LaurentPoly.monomial(e_q=self.similitude_exponent)


def _triangle(n: int) -> int:
    return n * (n + 1) // 2


def ikeda_satake(n: int, k: int) -> SatakeParams:
    """Satake parameters of the genus-2n lift of f (f of weight 2k).

    mu0 = a^-n q^(n(2k-1)); the 2n remaining parameters are a q^e with e
    running over the symmetric odd range -(2n-1), ..., 2n-1.
    """
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    genus = 2 * n
    mu0 = LaurentPoly.monomial(e_a=-n, e_q=n * (2 * k - 1))
    mus = tuple(LaurentPoly.monomial(e_a=1, e_q=2 * i - 2 * n - 1)
                for i in range(1, genus + 1))
    exponent = 2 * (genus * (k + n) - _triangle(genus))
    return SatakeParams(genus, mu0, mus, exponent)


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
    mu0 = LaurentPoly.monomial(e_a=-(n - 1), e_b=-1,
                               e_q=(n - 1) * (2 * k - 1) + (k + n - 1))
    mus = tuple(LaurentPoly.monomial(e_a=1, e_q=2 * i - 2 * n + 1)
                for i in range(1, genus)) + (LaurentPoly.monomial(e_b=2),)
    exponent = 2 * (genus * (k + n) - _triangle(genus))
    return SatakeParams(genus, mu0, mus, exponent)


def elliptic_satake(weight: int, variable: str = "b") -> SatakeParams:
    """Genus-1 parameters of an elliptic eigenform of the given weight:
    mu0 = v^-1 q^(weight-1), mu1 = v^2, where v is 'a' or 'b'."""
    if variable == "a":
        v = LaurentPoly.monomial(e_a=1)
    elif variable == "b":
        v = LaurentPoly.monomial(e_b=1)
    else:
        raise ValueError(f"variable must be 'a' or 'b', got {variable!r}")
    mu0 = v.monomial_inverse() * LaurentPoly.monomial(e_q=weight - 1)
    return SatakeParams(1, mu0, (v * v,), 2 * (weight - 1))


# -- Weyl group action ------------------------------------------------------

def weyl_sigma(params: SatakeParams, i: int) -> SatakeParams:
    """Generator sigma_i: mu0 -> mu0 mu_i, mu_i -> mu_i^-1, rest fixed."""
    if not 1 <= i <= params.genus:
        raise IndexError(f"sigma index {i} out of range 1..{params.genus}")
    mus = list(params.mus)
    mu0 = params.mu0 * mus[i - 1]
    mus[i - 1] = mus[i - 1].monomial_inverse()
    return replace(params, mu0=mu0, mus=tuple(mus))


def weyl_permute(params: SatakeParams, perm: Sequence[int]) -> SatakeParams:
    """Reorder mu_1..mu_g by a permutation given as the image list of 1..g."""
    if sorted(perm) != list(range(1, params.genus + 1)):
        raise ValueError(f"{perm!r} is not a permutation of 1..{params.genus}")
    mus = tuple(params.mus[j - 1] for j in perm)
    return replace(params, mus=mus)


def _reduce_b_squared_to_minus_one(poly: LaurentPoly) -> LaurentPoly:
    """Formally set b^2 = -1: b^e becomes (-1)^floor(e/2) b^(e mod 2)."""
    out = LaurentPoly.zero()
    for e, c in poly.terms:
        quot, rem = divmod(e[1], 2)
        sign = -1 if quot % 2 else 1
        out = out + LaurentPoly.monomial(e[0], rem, e[2], e[3], coeff=sign * c)
    return out


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
        mu0 = _reduce_b_squared_to_minus_one(p.mu0)
        if negate_mu0:
            mu0 = -mu0
        mus = sorted((_reduce_b_squared_to_minus_one(mu) for mu in p.mus),
                     key=lambda m: m.terms)
        return mu0, mus

    return reduced(flipped, negate_mu0=False) == reduced(params, negate_mu0=True)

