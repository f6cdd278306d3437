"""Local Euler factors, stored as products of linear terms (1 - root T).

Every L-function in scope has a local factor that splits completely into
linear terms whose roots are unit monomials a^i b^j q^e, stored as the
exponent triples (i, j, e) of `satake` (symbolic mode), or complex numbers
(numeric mode).  The factored form is therefore the primary
representation: it is exact at every genus, and two factors are equal as
polynomials if and only if their root multisets agree, so no identity
check, symbolic or numeric, needs the expanded coefficients.

Expanded coefficient lists (index = T-degree) exist for output only.  A
symbolic coefficient is a dict keyed by one int (e_a S + e_b) S + e_q whose
balanced digits cannot overflow, S being 2 sum over roots of max |e| + 1:
multiplying by a root adds one int per term, and sorted keys are in the
canonical (e_a, e_b, e_q) order.  Every term of the T^d coefficient has
the sign (-1)^d, so no term ever cancels.  Only T^0 to T^(N/2) of a degree-N
factor are expanded.  The rest follow from the local functional equation,
which holds for any N unit roots with product P: the T^(N-d) coefficient is
(-1)^N P times the T^d one with every exponent negated, and the negation
reverses the canonical order.  `json_chunks` streams the indent-2 JSON of
`to_json_dict` one coefficient at a time, and `coefficients()` returns them
as `LaurentPoly` values.  The term count explodes with the degree (201,695
terms, 28.5 MB of JSON and about 0.6 s at degree 64; degree 128 is out of
reach), hence EXPANSION_DEGREE_CAP; numeric expansion is quadratic and not
capped.
"""

from __future__ import annotations

import json
from typing import Iterator, List, Sequence, Tuple, Union

from .errors import ExpansionTooLarge, GenusTooLarge, NumericOverflow
from .laurent import LaurentPoly
from .satake import Monomial, SatakeParams, check_units, mono_inv

Root = Union[Monomial, complex]

#: largest degree expanded symbolically
EXPANSION_DEGREE_CAP = 64

#: spinor factors above this genus (degree 2^12) are refused outright
SPINOR_GENUS_CAP = 12

# the indent-2 layout of LocalFactor.to_json_dict(), filled in by json_chunks
_JSON_HEAD = '{\n  "label": %s,\n  "degree": %d,\n  "coeffs": [\n'
_JSON_COEFF = '    {\n      "terms": [\n%s\n      ]\n    }'
_JSON_TERM = ('        {\n          "e": [\n            %d,\n            %d,\n'
              '            %d,\n            0\n          ],\n          "c": "%d"\n        }')


class _Packed(dict):
    """One expanded symbolic coefficient: packed key -> integer coefficient.

    `_terms` is the same map under LaurentPoly's name for it, so code that
    counts terms (perfbench's tracer) reads both kinds of coefficient."""
    _terms = property(lambda self: self)


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
        """Coefficients of T^0 (always 1) to T^degree, symbolic ones only
        up to degree EXPANSION_DEGREE_CAP (above it ExpansionTooLarge)."""
        if self.mode == "numeric":
            return tuple(self._expand())
        return tuple(LaurentPoly(((e_a, e_b, e_q, 0), c) for e_a, e_b, e_q, c in terms)
                     for terms in self._sorted_terms())

    def _radix(self) -> int:
        """S with |e| <= S // 2 for every exponent of every root product."""
        return 2 * sum(max(map(abs, r)) for r in self.roots) + 1

    def _expand(self) -> List:
        """Complex coefficients, or _Packed dicts of T^0 to T^(degree // 2)."""
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
        radix = self._radix()
        coeffs = [_Packed({0: 1})]
        # sorted: equal root multisets do equal work, in fewer inner-loop steps
        for e_a, e_b, e_q in sorted(self.roots):
            shift = (e_a * radix + e_b) * radix + e_q
            if len(coeffs) <= self.degree // 2:
                coeffs.append(_Packed())
            # the same recurrence in place, from the top down so that old
            # d-1 is still unchanged when d is updated
            for d in range(len(coeffs) - 1, 0, -1):
                target = coeffs[d]
                get = target.get
                for key, value in coeffs[d - 1].items():
                    key += shift
                    target[key] = get(key, 0) - value
        return coeffs

    def _sorted_terms(self) -> Iterator[List[Tuple[int, int, int, int]]]:
        """Per symbolic coefficient, its (e_a, e_b, e_q, c) in canonical order."""
        radix = self._radix()
        half = radix // 2
        offset = half * (radix * radix + radix + 1)  # every digit nonnegative
        low = []
        for packed in self._expand():
            terms = []
            for key in sorted(packed):
                rest, e_q = divmod(key + offset, radix)
                e_a, e_b = divmod(rest, radix)
                terms.append((e_a - half, e_b - half, e_q - half, packed[key]))
            low.append(terms)
            yield terms
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
            coeffs = [{"terms": [{"e": [e_a, e_b, e_q, 0], "c": str(c)}
                                 for e_a, e_b, e_q, c in terms]}
                      for terms in self._sorted_terms()]
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
            yield head + _JSON_COEFF % ",\n".join([_JSON_TERM % term for term in terms])
            head = ",\n"
        yield "\n  ]\n}"

    def factored_json_dict(self) -> dict:
        """Root-list encoding, available at any degree; roots come out in
        canonical order so equal factors serialize identically."""
        if self.mode == "symbolic":
            roots = [{"terms": [{"e": [*r, 0], "c": "1"}]} for r in sorted(self.roots)]
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
    value = LaurentPoly.monomial(*params.mu0)
    for mu in params.mus:
        value = value * (1 + LaurentPoly.monomial(*mu))
    return value
