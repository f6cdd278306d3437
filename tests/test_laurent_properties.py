"""JSON wire format on random polynomials: 30-digit coefficients and
negative a, b and q exponents, written by the LaurentPoly oracle and by the
package's term writers in `liftspin.laurent`; and `laurent.dumps` against
json.dumps(..., indent=2) on random nested values."""

import json
from array import array

import pytest

from liftspin import laurent
from oracles import LaurentPoly, poly

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_BIG = 10 ** 30
_SLOT_MAX = 2 ** 64 - 1
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
@given(st.dictionaries(_triples, _coeff, min_size=1, max_size=25), st.booleans(),
       st.integers(0, 5))
def test_package_wire_format_matches_the_oracle(coeffs, negative, depth):
    # liftspin.laurent writes sorted (e_a, e_b, e_q, c) terms the way the
    # oracle writes the same polynomial at T-degree 0, both as a dict and,
    # given row by row with one sign for every term, as the text json.dumps
    # writes nested `depth` lists deep, and compact
    terms = [(*e, c) for e, c in sorted(coeffs.items())]
    data = laurent.json_dict(terms)
    assert data == poly(terms).to_json_dict()
    # a row slot holds at most 2^64 - 1, so a larger |c| is clamped to it
    slots = [(e_a, e_b, e_q, min(abs(c), _SLOT_MAX)) for e_a, e_b, e_q, c in terms]
    # the first row's terms again under two (e_a, e_b) past the drawn ones,
    # so that equal rows share their term strings
    first = [(e_q, c) for e_a, e_b, e_q, c in slots if (e_a, e_b) == slots[0][:2]]
    slots += [(e_a, e_b, e_q, c) for e_a, e_b in ((41, -40), (42, 40)) for e_q, c in first]
    # one row of |c| per (e_a, e_b) over every e_q the strategy draws, each
    # after the same row with no term
    qs = range(-40, 41)
    rows = {}
    for e_a, e_b, e_q, c in slots:
        rows.setdefault((e_a, e_b), array("Q", bytes(8 * len(qs))))[e_q - qs[0]] = c
    empty = memoryview(array("Q", bytes(8 * len(qs))))
    rows = [row for (e_a, e_b), cs in rows.items()
            for row in ((e_a, e_b - 1, empty), (e_a, e_b, memoryview(cs)))]
    expected = laurent.json_dict([(*e, -c if negative else c) for *e, c in slots])
    assert laurent.coefficient_text(negative, qs, rows, None) == json.dumps(expected)
    assert _nested("@", depth).replace('"@"', laurent.coefficient_text(negative, qs, rows, depth)) \
        == _nested(expected, depth)


def _nested(value, depth):
    """json.dumps(value, indent=2) with value inside `depth` lists."""
    for _ in range(depth):
        value = [value]
    return json.dumps(value, indent=2)


# -- laurent.dumps against json.dumps(..., indent=2) ----------------------------

_TRICKY_STRINGS = ["", "\n", "\"", "\\", " ", "é", "liftspin[n=2,k=10]|p=97", "\ud800"]
_floats = st.one_of(st.sampled_from([-0.0, 0.0, 1e300, -1e300, 5e-324, float("nan"),
                                     float("inf"), float("-inf")]),
                    st.floats(allow_nan=True, allow_infinity=True))
_strings = st.one_of(st.sampled_from(_TRICKY_STRINGS), st.text(max_size=8))
_polys = st.lists(st.tuples(_triples, _coeff), max_size=6).map(
    lambda items: laurent.json_dict((*e, c) for e, c in sorted(dict(items).items())))
_leaves = st.one_of(st.none(), st.booleans(), st.integers(),
                    st.integers(-(_BIG ** 3), -_BIG), _floats, _strings, _polys)
_values = st.recursive(
    _leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(_strings, inner, max_size=4)),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(_values)
@example([])
@example({})
@example(({}, [], ()))
@example([True, 1, False, 0, None, -(2 ** 100)])
@example({"terms": []})
@example(laurent.json_dict([]))
@example([laurent.json_dict([]), {"w": laurent.json_dict([(1, -2, 3, -(10 ** 40))])}])
@example({" \"\n": [-0.0, 1e300, 5e-324, float("nan"), float("inf"), float("-inf")]})
def test_dumps_writes_the_bytes_of_json_dumps(value):
    assert laurent.dumps(value) == json.dumps(value, indent=2)


@settings(max_examples=100, deadline=None)
@given(_polys, st.lists(st.one_of(st.none(), _strings), max_size=5))
def test_dumps_writes_polynomials_at_every_depth(poly_dict, wrappers):
    # a json_dict result nested 0 to 5 levels deep, each level a list (None)
    # or a dict with the drawn key, beside a plain value
    value = poly_dict
    for key in wrappers:
        value = [value, 1] if key is None else {key: value, "x": [1]}
    assert laurent.dumps(value) == json.dumps(value, indent=2)


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.integers(), _floats, st.booleans(), st.none(),
                 st.tuples(st.integers())), st.integers(0, 3))
def test_dumps_refuses_keys_that_are_not_str(key, depth):
    # json.dumps would write such a key as a string; the writer raises
    # instead of writing bytes of its own
    value = {key: 1}
    for _ in range(depth):
        value = [{"k": value}]
    with pytest.raises(TypeError, match="keys must be str"):
        laurent.dumps(value)


@pytest.mark.parametrize("value", [{1, 2}, b"x", 1j, object(), [{"k": frozenset()}]])
def test_dumps_refuses_what_json_dumps_refuses(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2)
    with pytest.raises(TypeError):
        laurent.dumps(value)
