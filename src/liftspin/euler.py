"""Local Euler factors, stored as products of linear terms (1 - root T).

Every L-function in scope has a local factor that splits completely into
linear terms whose roots are unit monomials in a, b, q (symbolically) or
complex numbers (numerically).  The factored form is therefore the primary
representation: it is exact at every genus, and two factors are equal as
polynomials if and only if their root multisets agree, so the heavy
identity checks never need the expanded coefficients.

Expanded coefficient lists (index = T-degree) are computed on demand and
cached.  Symbolic expansion cost explodes combinatorially with the degree:
dict-based expansion is subsecond up to degree 64 and out of reach by 128,
hence the default cap; numeric expansion is quadratic and effectively
unlimited.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from .errors import ExpansionTooLarge, GenusTooLarge
from .laurent import LaurentPoly
from .satake import SatakeParams

Root = Union[LaurentPoly, complex]

#: largest degree expanded symbolically unless the caller raises the cap
EXPANSION_DEGREE_CAP = 64

#: spinor factors above this genus (degree 2^12) are refused outright
SPINOR_GENUS_CAP = 12


class LocalFactor:
    """One Euler factor at one prime: prod over roots of (1 - root T).

    The constant term is 1 and the degree equals the number of roots by
    construction.  Instances are immutable apart from the cached expansion.
    """

    __slots__ = ("label", "roots", "mode", "prime", "_coeffs")

    def __init__(self, label: str, roots: Sequence[Root], mode: str = "symbolic",
                 prime: Optional[int] = None):
        if mode not in ("symbolic", "numeric"):
            raise ValueError(f"unknown mode {mode!r}")
        if mode == "symbolic":
            for r in roots:
                if not isinstance(r, LaurentPoly) or not r.is_monomial():
                    raise ValueError(f"symbolic roots must be monomials, got {r!r}")
        else:
            roots = [complex(r) for r in roots]
            if prime is None:
                raise ValueError("numeric factors need the prime")
        self.label = label
        self.roots = tuple(roots)
        self.mode = mode
        self.prime = prime
        self._coeffs = None

    @property
    def degree(self) -> int:
        return len(self.roots)

    # -- expansion --------------------------------------------------------

    def coefficients(self, cap: Optional[int] = EXPANSION_DEGREE_CAP) -> Tuple:
        """Coefficient list in T, from degree 0 (always 1) to self.degree.

        Symbolic expansion above the cap raises ExpansionTooLarge; pass
        cap=None to force it anyway.
        """
        if self._coeffs is None:
            if self.mode == "symbolic" and cap is not None and self.degree > cap:
                raise ExpansionTooLarge(
                    f"degree {self.degree} exceeds the symbolic expansion cap {cap}; "
                    f"use the factored form instead")
            self._coeffs = tuple(self._expand(self.degree))
        return self._coeffs

    def truncated_coefficients(self, max_degree: int) -> List:
        """Coefficients of T^0..T^max_degree without expanding the rest."""
        if self._coeffs is not None:
            return list(self._coeffs[:max_degree + 1])
        return self._expand(min(max_degree, self.degree))

    def _expand(self, max_degree: int) -> List:
        one, zero = (LaurentPoly.one(), LaurentPoly.zero()) \
            if self.mode == "symbolic" else (1 + 0j, 0j)
        coeffs = [one]
        for root in self.roots:
            limit = min(len(coeffs), max_degree)
            nxt = coeffs[:1]
            for d in range(1, limit + 1):
                upper = coeffs[d] if d < len(coeffs) else zero
                nxt.append(upper - root * coeffs[d - 1])
            coeffs = nxt
        return coeffs

    def as_poly(self, cap: Optional[int] = EXPANSION_DEGREE_CAP) -> LaurentPoly:
        """The expanded factor as a single Laurent polynomial in T."""
        if self.mode != "symbolic":
            raise ValueError("as_poly is only defined for symbolic factors")
        total = LaurentPoly.zero()
        for d, coeff in enumerate(self.coefficients(cap)):
            total = total + coeff * LaurentPoly.monomial(e_T=d)
        return total

    # -- transformations ---------------------------------------------------

    def shift(self, c: int) -> "LocalFactor":
        """Replace T by q^c T, realizing the shift s -> s - c/2."""
        if self.mode != "symbolic":
            raise ValueError("can only shift symbolic factors; shift, then instantiate")
        if not c:
            return self
        scale = LaurentPoly.monomial(e_q=c)
        return LocalFactor(f"{self.label}@q^{c}", tuple(r * scale for r in self.roots))

    def instantiate(self, alpha: complex, beta: complex, q: float,
                    prime: int) -> "LocalFactor":
        """Numeric factor obtained by evaluating every symbolic root."""
        if self.mode != "symbolic":
            raise ValueError("can only instantiate symbolic factors")
        roots = tuple(r.eval_complex(alpha, beta, q, 0j) for r in self.roots)
        return LocalFactor(f"{self.label}|p={prime}", roots, "numeric", prime)

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
        """Sorted root key tuple; equal multisets mean equal polynomials."""
        if self.mode == "symbolic":
            return tuple(sorted(r.single_term() for r in self.roots))
        return tuple(sorted((r.real, r.imag) for r in self.roots))

    def to_json_dict(self, cap: Optional[int] = EXPANSION_DEGREE_CAP) -> dict:
        if self.mode == "symbolic":
            coeffs = [c.to_json_dict() for c in self.coefficients(cap)]
        else:
            coeffs = [[c.real, c.imag] for c in self.coefficients(cap)]
        return {"label": self.label, "degree": self.degree, "coeffs": coeffs}

    def factored_json_dict(self) -> dict:
        """Root-list encoding, available at any degree; roots come out in
        canonical order so equal factors serialize identically."""
        if self.mode == "symbolic":
            roots = [r.to_json_dict()
                     for r in sorted(self.roots, key=lambda r: r.single_term())]
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
        roots = (LaurentPoly.monomial(e_a=1, e_q=e),
                 LaurentPoly.monomial(e_a=-1, e_q=e))
        return LocalFactor(f"hecke[f,k={k}]", roots)
    if role == "g":
        e = k + n - 1
        roots = (LaurentPoly.monomial(e_b=1, e_q=e),
                 LaurentPoly.monomial(e_b=-1, e_q=e))
        return LocalFactor(f"hecke[g,k={k},n={n}]", roots)
    raise ValueError(f"role must be 'f' or 'g', got {role!r}")


def sym_power_factor(m: int, k: int) -> LocalFactor:
    """Degree-(m+1) symmetric-power factor of f; m = 0 degenerates to 1 - T."""
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    e = m * (2 * k - 1)
    roots = tuple(LaurentPoly.monomial(e_a=m - 2 * j, e_q=e) for j in range(m + 1))
    return LocalFactor(f"sym^{m}[f,k={k}]", roots)


def tensor_factor(m: int, k: int, n: int) -> LocalFactor:
    """Degree-2m factor of g tensor sym_(m-1) f; m = 1 is the plain g factor."""
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    e = (m - 1) * (2 * k - 1) + (k + n - 1)
    roots = tuple(LaurentPoly.monomial(e_a=m - 1 - 2 * j, e_b=eps, e_q=e)
                  for j in range(m) for eps in (1, -1))
    return LocalFactor(f"tensor[g*sym^{m - 1}f,k={k},n={n}]", roots)


def spinor_factor(params: SatakeParams, label: str = "") -> LocalFactor:
    """Degree-2^genus factor: one linear term per subset of {mu_1..mu_g},
    each with root mu0 times the subset product."""
    if params.genus > SPINOR_GENUS_CAP:
        raise GenusTooLarge(
            f"genus {params.genus} spinor factor has degree 2^{params.genus}; "
            f"cap is {SPINOR_GENUS_CAP}")
    roots = [params.mu0]
    for mu in params.mus:
        roots.extend(r * mu for r in list(roots))
    return LocalFactor(label or f"spin[genus={params.genus}]", tuple(roots))


def standard_factor(params: SatakeParams, label: str = "") -> LocalFactor:
    """Degree-(2 genus + 1) factor: (1 - T) times the paired mu, 1/mu terms."""
    roots = [LaurentPoly.one()]
    for mu in params.mus:
        roots.append(mu)
        roots.append(mu.monomial_inverse())
    return LocalFactor(label or f"st[genus={params.genus}]", tuple(roots))


# -- scalar constants of the pair lift ----------------------------------------

def gp_constant(n: int) -> LaurentPoly:
    """Denominator D of the Fourier-Jacobi normalization constant G = 1/D:
    D = prod over i = 1..n-1 of (1 + a q^(1-2i))(1 + 1/a q^(1-2i)); 1 if n = 1."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    product = LaurentPoly.one()
    for i in range(1, n):
        e = 1 - 2 * i
        product = product * (1 + LaurentPoly.monomial(e_a=1, e_q=e))
        product = product * (1 + LaurentPoly.monomial(e_a=-1, e_q=e))
    return product


def c1_eigenvalue(n: int, k: int) -> LaurentPoly:
    """The full T(p)-eigenvalue of the genus-(2n-1) pair lift:
    lambda_g(p) times the scalar C1 = p^(-(n-1)(n+2)/2) p^((n-1)(k+n)) D(a, q),
    with lambda_g(p) = (b + 1/b) q^(k+n-1)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    lam_g = (LaurentPoly.monomial(e_b=1) + LaurentPoly.monomial(e_b=-1)) \
        * LaurentPoly.monomial(e_q=k + n - 1)
    scale = LaurentPoly.monomial(e_q=-(n - 1) * (n + 2) + 2 * (n - 1) * (k + n))
    return lam_g * scale * gp_constant(n)


def frobenius_eigenvalue(params: SatakeParams) -> LaurentPoly:
    """mu0 prod (1 + mu_i): the T(p)-eigenvalue read off the Satake set."""
    value = params.mu0
    for mu in params.mus:
        value = value * (1 + mu)
    return value
