"""Packed expansion and the direct indent-2 encoder of LocalFactor, against
a tuple-keyed reference expansion and json.dumps on random monomial roots:
exponents past 2^64 of either sign, coefficients other than +-1, roots r
and -r whose coefficients cancel, and degree 0."""

import json

import pytest

from liftspin.euler import LocalFactor
from liftspin.laurent import LaurentPoly

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_HUGE = 2 ** 70
_exponent = st.one_of(st.integers(-6, 6), st.integers(-_HUGE, _HUGE))
_coeff = st.sampled_from((1, -1, 2, -3, 7, 10 ** 25))
_root = st.tuples(_exponent, _exponent, _exponent, _coeff)
_roots = st.lists(_root, max_size=7)
# with -r beside each r the odd coefficients cancel to zero
_cancelling = st.lists(_root, max_size=3).map(
    lambda roots: roots + [(a, b, q, -c) for a, b, q, c in roots])


def reference_coefficients(roots):
    """The expansion the packed one replaced: tuple-keyed dicts per T-degree."""
    coeffs = [{(0, 0, 0): 1}]
    for a, b, q, c in roots:
        new = [dict(coeffs[0])]
        for upper, lower in zip(coeffs[1:] + [{}], coeffs):
            out = dict(upper)
            for (ea, eb, eq), value in lower.items():
                key = (ea + a, eb + b, eq + q)
                out[key] = out.get(key, 0) - c * value
            new.append({key: value for key, value in out.items() if value})
        coeffs = new
    return coeffs


def _factor(roots):
    return LocalFactor("ref[\"x\"]é", tuple(
        LaurentPoly.monomial(e_a=a, e_b=b, e_q=q, coeff=c) for a, b, q, c in roots))


def _check(roots):
    factor = _factor(roots)
    reference = reference_coefficients(roots)
    data = {"label": factor.label, "degree": len(roots), "coeffs": [
        {"terms": [{"e": [*key, 0], "c": str(value)} for key, value in sorted(coeff.items())]}
        for coeff in reference]}
    assert factor.to_json() == json.dumps(data, indent=2)
    assert factor.to_json_dict() == data
    expected = tuple(LaurentPoly((((*key, 0), value) for key, value in coeff.items()))
                     for coeff in reference)
    got = factor.coefficients()
    assert got == expected
    assert [c.terms for c in got] == [c.terms for c in expected]


@settings(max_examples=80, deadline=None)
@given(_roots)
@example([])
@example([(_HUGE, -_HUGE, 2 ** 64 + 1, 10 ** 25), (-_HUGE, _HUGE, -(2 ** 64), -3)])
def test_packed_expansion_matches_reference(roots):
    _check(roots)


@settings(max_examples=40, deadline=None)
@given(_cancelling)
@example([(1, 0, 5, 1), (1, 0, 5, -1)])
def test_cancelled_coefficients_encode_as_empty_terms(roots):
    _check(roots)
    if roots:
        assert '"terms": []' in _factor(roots).to_json()
