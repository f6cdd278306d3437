"""Exact Laurent-polynomial arithmetic in the four formal variables a, b, q, T.

It holds the values that really are polynomials: expanded Euler factor
coefficients, the T^1 witness of a failed comparison, the eigenvalue
constants of `euler`, and their JSON wire format.  Roots and Satake
parameters are unit monomials, kept as exponent triples (see `satake`).

A polynomial is a finite map from exponent vectors (e_a, e_b, e_q, e_T) to
nonzero arbitrary-precision integer coefficients.  The variables stand for,
in this order: the two unit parameters a and b attached to the elliptic
eigenforms, q (a formal square root of the prime p, so half-integer powers
of p never appear), and T (shorthand for p^-s).

a, b and q are Laurent variables and may carry negative exponents.  T may
not: Euler factors are honest polynomials in p^-s, so a negative T-exponent
always signals an upstream bug and is rejected at construction time.

Polynomials are canonical: zero coefficients are never stored, so equal
polynomials have equal term maps.  For serialization and printing, terms
are ordered lexicographically on (e_T, e_a, e_b, e_q), which makes the JSON
encoding deterministic byte for byte.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Tuple, Union

Exponents = Tuple[int, int, int, int]

VARIABLE_NAMES = ("a", "b", "q", "T")


def _canonical_key(exponents: Exponents) -> Tuple[int, int, int, int]:
    e_a, e_b, e_q, e_T = exponents
    return (e_T, e_a, e_b, e_q)


class LaurentPoly:
    """Immutable sparse Laurent polynomial with integer coefficients.

    All arithmetic returns new canonical instances; values are safe to
    share across threads and to use as dict keys.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Union[Mapping[Exponents, int], Iterable] = ()):
        data: dict = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exponents, coeff in items:
            e = tuple(exponents)
            if len(e) != 4 or not all(isinstance(x, int) for x in e):
                raise ValueError(f"expected an integer 4-vector of exponents, got {exponents!r}")
            if e[3] < 0:
                raise ValueError(
                    f"negative T-exponent in {e!r}: Euler factors are polynomials in T"
                )
            if not isinstance(coeff, int):
                raise TypeError(f"coefficients must be integers, got {coeff!r}")
            c = data.get(e, 0) + coeff
            if c:
                data[e] = c
            elif e in data:
                del data[e]
        self._terms = data

    # -- constructors ---------------------------------------------------

    @classmethod
    def monomial(cls, e_a: int = 0, e_b: int = 0, e_q: int = 0, e_T: int = 0,
                 coeff: int = 1) -> "LaurentPoly":
        return cls((((e_a, e_b, e_q, e_T), coeff),))

    @classmethod
    def constant(cls, value: int) -> "LaurentPoly":
        return cls((((0, 0, 0, 0), value),))

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return _ZERO

    @classmethod
    def one(cls) -> "LaurentPoly":
        return _ONE

    # -- inspection -----------------------------------------------------

    @property
    def terms(self) -> Tuple[Tuple[Exponents, int], ...]:
        """Terms in canonical order, lexicographic on (e_T, e_a, e_b, e_q)."""
        return tuple(sorted(self._terms.items(), key=lambda kv: _canonical_key(kv[0])))

    # -- ring operations ------------------------------------------------

    @staticmethod
    def _coerce(value) -> "LaurentPoly":
        if isinstance(value, LaurentPoly):
            return value
        if isinstance(value, int):
            return LaurentPoly.constant(value) if value else _ZERO
        raise TypeError(f"cannot interpret {value!r} as a LaurentPoly")

    def __add__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if not self._terms:
            return other
        if not other._terms:
            return self
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return _raw(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return _raw({e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "LaurentPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "LaurentPoly":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if not self._terms or not other._terms:
            return _ZERO
        # iterate over the smaller factor for fewer dict rebuilds
        small, large = self._terms, other._terms
        if len(small) > len(large):
            small, large = large, small
        out: dict = {}
        for e1, c1 in small.items():
            for e2, c2 in large.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        return _raw(out)

    __rmul__ = __mul__

    # -- evaluation -----------------------------------------------------

    def eval_complex(self, a: complex, b: complex, q: complex, t: complex) -> complex:
        """Evaluate at complex arguments, Horner in T; the reference that the
        roots of `LocalFactor.instantiate` are tested against bit for bit.

        Raises ZeroDivisionError when a, b or q is zero and occurs with a
        negative exponent.
        """
        by_degree: dict = {}
        for e, c in self._terms.items():
            by_degree.setdefault(e[3], []).append((e, c))
        if not by_degree:
            return 0j
        cache: dict = {}

        def power(base: complex, exponent: int, tag: str) -> complex:
            if exponent == 0:
                return 1.0 + 0j
            key = (tag, exponent)
            value = cache.get(key)
            if value is None:
                value = complex(base) ** exponent
                cache[key] = value
            return value

        acc = 0j
        for d in range(max(by_degree), -1, -1):
            acc *= t
            for e, c in by_degree.get(d, ()):
                acc += c * power(a, e[0], "a") * power(b, e[1], "b") * power(q, e[2], "q")
        return acc

    # -- serialization --------------------------------------------------

    def to_json_dict(self) -> dict:
        """Spec wire format; coefficients go out as decimal strings."""
        return {"terms": [{"e": list(e), "c": str(c)} for e, c in self.terms]}

    # -- dunder plumbing ------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = self._coerce(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for e, c in self.terms:
            factors = [f"{name}^{exp}" if exp != 1 else name
                       for name, exp in zip(VARIABLE_NAMES, e) if exp != 0]
            if not factors:
                body = str(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(c))] + factors)
            parts.append(("- " if c < 0 else "+ ") + body)
        head = ("-" + parts[0][2:]) if parts[0].startswith("- ") else parts[0][2:]
        return " ".join([head] + parts[1:])

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"


def _raw(data: dict) -> LaurentPoly:
    """Wrap an already-canonical term dict without re-validation."""
    poly = LaurentPoly.__new__(LaurentPoly)
    poly._terms = data
    return poly


_ZERO = _raw({})
_ONE = _raw({(0, 0, 0, 0): 1})
