"""Packed expansion of the low half, the reflected top half and the
streamed indent-2 encoder of LocalFactor, against a tuple-keyed reference
expansion of every coefficient and json.dumps on random unit-monomial
roots: exponent triples past 2^64 of either sign, repeated roots, and
degrees 0 to 9."""

import json

import pytest

from liftspin.euler import LocalFactor
from liftspin.laurent import LaurentPoly

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_HUGE = 2 ** 70
_exponent = st.one_of(st.integers(-6, 6), st.integers(-_HUGE, _HUGE))
_root = st.tuples(_exponent, _exponent, _exponent)
_roots = st.lists(_root, max_size=9)


def reference_coefficients(roots):
    """The expansion the packed one replaced: tuple-keyed dicts per T-degree."""
    coeffs = [{(0, 0, 0): 1}]
    for a, b, q in roots:
        new = [dict(coeffs[0])]
        for upper, lower in zip(coeffs[1:] + [{}], coeffs):
            out = dict(upper)
            for (ea, eb, eq), value in lower.items():
                key = (ea + a, eb + b, eq + q)
                out[key] = out.get(key, 0) - value
            new.append({key: value for key, value in out.items() if value})
        coeffs = new
    return coeffs


@settings(max_examples=80, deadline=None)
@given(_roots)
@example([])
@example([(2, -1, 3)])
@example([(_HUGE, -_HUGE, 2 ** 64 + 1), (-_HUGE, _HUGE, -(2 ** 64))])
@example([(1, 0, 5), (1, 0, 5), (-1, 0, 5)])
def test_packed_expansion_matches_reference(roots):
    factor = LocalFactor("ref[\"x\"]é", tuple(roots))
    reference = reference_coefficients(roots)
    data = {"label": factor.label, "degree": len(roots), "coeffs": [
        {"terms": [{"e": [*key, 0], "c": str(value)} for key, value in sorted(coeff.items())]}
        for coeff in reference]}
    assert "".join(factor.json_chunks()) == json.dumps(data, indent=2)
    # only degrees 0 to degree // 2 are expanded; the rest is reflected
    assert len(factor._expand()) == len(roots) // 2 + 1
    assert factor.to_json_dict() == data
    expected = tuple(LaurentPoly((((*key, 0), value) for key, value in coeff.items()))
                     for coeff in reference)
    got = factor.coefficients()
    assert got == expected
    assert [c.terms for c in got] == [c.terms for c in expected]
    # unit roots: every term of the T^d coefficient has the sign (-1)^d, so
    # no coefficient of the product is ever empty
    for d, coeff in enumerate(got):
        assert coeff.terms and all((c > 0) == (d % 2 == 0) for _, c in coeff.terms)
