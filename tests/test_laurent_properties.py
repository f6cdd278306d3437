"""JSON wire format on random polynomials: 30-digit coefficients and
negative a, b and q exponents, written by the LaurentPoly oracle and by the
package's term writers in `liftspin.laurent`."""

import json

import pytest

from liftspin import laurent
from oracles import LaurentPoly, poly

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_BIG = 10 ** 30
_exponents = st.tuples(st.integers(-40, 40), st.integers(-40, 40),
                       st.integers(-40, 40), st.integers(0, 12))
_coeff = st.integers(-_BIG, _BIG).filter(bool)
_term_maps = st.dictionaries(_exponents, _coeff, max_size=25)
_NEGATIVE = {(-3, -1, -7, 0): _BIG - 1, (2, -5, -1, 4): -(_BIG + 7), (0, 0, 0, 0): 1}


def _encode(poly):
    return json.dumps(poly.to_json_dict()).encode("utf-8")


@settings(max_examples=60, deadline=None)
@given(_term_maps)
@example(_NEGATIVE)
def test_json_round_trip(terms):
    poly = LaurentPoly(terms)
    back = LaurentPoly((tuple(t["e"]), int(t["c"])) for t in json.loads(_encode(poly))["terms"])
    assert back == poly
    assert dict(back.terms) == terms


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_exponents, _coeff), max_size=25).flatmap(
    lambda items: st.tuples(st.just(items), st.permutations(items))))
@example((list(_NEGATIVE.items()), list(reversed(_NEGATIVE.items()))))
def test_encoding_ignores_insertion_order(orders):
    # repeated exponents are allowed: their coefficients add up, cancelling
    # terms included, and the bytes must not see the order of the additions
    items, shuffled = orders
    encoded = _encode(LaurentPoly(items))
    assert _encode(LaurentPoly(shuffled)) == encoded
    summed = sum((LaurentPoly.monomial(*e, coeff=c) for e, c in shuffled), LaurentPoly.zero())
    assert _encode(summed) == encoded


_triples = st.tuples(st.integers(-40, 40), st.integers(-40, 40), st.integers(-40, 40))


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(_triples, _coeff, min_size=1, max_size=25), st.booleans())
def test_package_wire_format_matches_the_oracle(coeffs, negative):
    # liftspin.laurent writes sorted (e_a, e_b, e_q, c) terms the way the
    # oracle writes the same polynomial at T-degree 0, both as a dict and,
    # given row by row with one sign for every term, as the indented text
    # of an entry in a "coeffs" list
    terms = [(*e, c) for e, c in sorted(coeffs.items())]
    data = laurent.json_dict(terms)
    assert data == poly(terms).to_json_dict()
    signed = [(*e, -abs(c) if negative else abs(c)) for *e, c in terms]
    # one row of |c| per (e_a, e_b) over every e_q the strategy draws, each
    # after a row with no term
    qs = range(-40, 41)
    rows = {}
    for e_a, e_b, e_q, c in signed:
        rows.setdefault((e_a, e_b), [0] * len(qs))[e_q - qs[0]] = abs(c)
    rows = [row for (e_a, e_b), cs in rows.items()
            for row in ((e_a, e_b - 1, [0] * len(qs)), (e_a, e_b, cs))]
    assert json.dumps({"coeffs": [laurent.json_dict(signed)]}, indent=2) \
        == '{\n  "coeffs": [\n' + laurent.indented_rows(negative, qs, rows) + "\n  ]\n}"
