"""JSON wire format on random polynomials: 30-digit coefficients and
negative a, b and q exponents, written by the LaurentPoly oracle and by the
package's term writers in `liftspin.laurent`; and `laurent.dumps` against
json.dumps(..., indent=2) and compact json.dumps on random nested values."""

import json
from array import array

import pytest

from liftspin import laurent
from oracles import LaurentPoly, json_dict, poly

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
       st.integers(0, 5), st.integers(1, 3), st.integers(0, 3))
def test_package_wire_format_matches_the_oracle(coeffs, negative, depth, step, skew):
    # liftspin.laurent writes sorted (e_a, e_b, e_q, c) terms the way the
    # oracle writes the same polynomial at T-degree 0, both as a dict and,
    # given row by row with one sign for every term, as the text json.dumps
    # writes nested `depth` lists deep, and compact
    terms = [(e_a, e_b, e_q * step, c) for (e_a, e_b, e_q), c in sorted(coeffs.items())]
    data = json_dict(terms)
    assert data == poly(terms).to_json_dict()
    # a row slot holds at most 2^64 - 1, so a larger |c| is clamped to it
    slots = [(e_a, e_b, e_q, min(abs(c), _SLOT_MAX)) for e_a, e_b, e_q, c in terms]
    # the first row's terms again under two (e_a, e_b) past the drawn ones,
    # so that equal rows share their term strings
    first = [(e_q, c) for e_a, e_b, e_q, c in slots if (e_a, e_b) == slots[0][:2]]
    slots += [(e_a, e_b, e_q, c) for e_a, e_b in ((41, -40), (42, 40)) for e_q, c in first]
    # one row of |c| per (e_a, e_b), each after the same row with no term;
    # each row's window of e_q in steps of `step` starts skew (e_a + e_b +
    # 82) steps below the lowest e_q drawn, as a lattice box shifts them
    size = 81 + 2 * 82 * skew
    rows = {}
    for e_a, e_b, e_q, c in slots:
        start = (-40 - skew * (e_a + e_b + 82)) * step
        cs = rows.setdefault((e_a, e_b), (start, array("Q", bytes(8 * size))))[1]
        cs[(e_q - start) // step] = c
    empty = memoryview(array("Q", bytes(8 * size)))
    rows = [row for (e_a, e_b), (start, cs) in rows.items()
            for row in ((e_a, e_b - 1, start, empty), (e_a, e_b, start, memoryview(cs)))]
    expected = json_dict([(*e, -c if negative else c) for *e, c in slots])
    assert laurent.coefficient_text(negative, step, rows, None) == json.dumps(expected)
    text = laurent.coefficient_text(negative, step, rows, depth)
    assert _nested("@", depth).replace('"@"', text) == _nested(expected, depth)


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
    lambda items: json_dict((*e, c) for e, c in sorted(dict(items).items())))
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
@example(json_dict([]))
@example([json_dict([]), {"w": json_dict([(1, -2, 3, -(10 ** 40))])}])
@example({" \"\n": [-0.0, 1e300, 5e-324, float("nan"), float("inf"), float("-inf")]})
def test_dumps_writes_the_bytes_of_json_dumps(value):
    assert laurent.dumps(value) == json.dumps(value, indent=2)
    assert laurent.dumps(value, None) == json.dumps(value)


def _rows(terms):
    """The runs (e_a, e_b, e_q, cs) of {(e_a, e_b, e_q): |c|} in canonical
    order, one per (e_a, e_b) from its lowest e_q, cs[i] the |c| of e_q + i
    in 64-bit slots, as LocalFactor.runs decodes its rows."""
    rows = {}
    for (e_a, e_b, e_q), c in sorted(terms.items()):
        low, cs = rows.setdefault((e_a, e_b), (e_q, array("Q")))
        cs.extend([0] * (e_q - low - len(cs)) + [c])
    return [(e_a, e_b, low, memoryview(cs)) for (e_a, e_b), (low, cs) in rows.items()]


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(_triples, st.integers(1, _SLOT_MAX), max_size=6), st.booleans(),
       st.lists(st.one_of(st.none(), _strings), max_size=5))
@example({}, False, [])
@example({(1, -2, 3): _SLOT_MAX, (-1, -2, 3): _SLOT_MAX, (1, -2, 5): 1}, True, [None, "w"])
def test_dumps_writes_polynomials_at_every_depth(terms, negative, wrappers):
    # a polynomial of one sign, given as rows, nested 0 to 5 levels deep,
    # each level a list (None) or a dict with the drawn key, beside a plain
    # value: the bytes of its json_dict in the same place
    value = laurent.Rows((negative, _rows(terms)))
    expected = json_dict((*e, -c if negative else c) for e, c in sorted(terms.items()))
    for key in wrappers:
        value, expected = ([value, 1], [expected, 1]) if key is None else (
            {key: value, "x": [1]}, {key: expected, "x": [1]})
    assert laurent.dumps(value) == json.dumps(expected, indent=2)
    assert laurent.dumps(value, None) == json.dumps(expected)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(*[st.integers(-(_BIG ** 3), _BIG ** 3)] * 3), max_size=5),
       st.lists(st.one_of(st.none(), _strings), max_size=3))
@example([], [])
def test_dumps_writes_records_through_one_template(values, wrappers):
    keys = ("m", "%s", "\"é")
    value, expected = laurent.Records((keys, values)), [dict(zip(keys, v)) for v in values]
    for key in wrappers:
        value, expected = ([value, 1], [expected, 1]) if key is None else (
            {key: value}, {key: expected})
    assert laurent.dumps(value) == json.dumps(expected, indent=2)
    assert laurent.dumps(value, None) == json.dumps(expected)


_scalars = st.one_of(st.none(), st.integers(), st.integers(-(_BIG ** 3), _BIG ** 3), _strings)


@st.composite
def _record_lists(draw):
    """(keys, rows, dicts): keys with at most one nested dict of scalars,
    flat rows of values for them, and the same records as dicts; a value of
    a top-level key may be any JSON value."""
    names = draw(st.lists(_strings, unique=True, max_size=4))
    nested = draw(st.lists(_strings, unique=True, max_size=3))
    at = draw(st.integers(0, len(names)))
    keys = list(names)
    if draw(st.booleans()):
        keys.insert(at, (draw(_strings.filter(lambda name: name not in names)), tuple(nested)))
    rows, dicts = [], []
    for _ in range(draw(st.integers(0, 4))):
        row, record = [], {}
        for key in keys:
            if isinstance(key, str):
                row.append(draw(st.one_of(_scalars, _values)))
                record[key] = row[-1]
            else:
                values = [draw(_scalars) for _ in key[1]]
                row += values
                record[key[0]] = dict(zip(key[1], values))
        rows.append(tuple(row))
        dicts.append(record)
    return tuple(keys), rows, dicts


@settings(max_examples=200, deadline=None)
@given(_record_lists(), st.lists(st.one_of(st.none(), _strings), max_size=3))
@example(((), [()], [{}]), [])
@example((("p", "lambda"), [(2, "-24"), (3, "252")], [{"p": 2, "lambda": "-24"},
                                                     {"p": 3, "lambda": "252"}]), ["x"])
def test_dumps_writes_nested_records_through_one_template(records, wrappers):
    keys, rows, expected = records
    value = laurent.Records((keys, rows))
    for key in wrappers:
        value, expected = ([value, 1], [expected, 1]) if key is None else (
            {key: value}, {key: expected})
    assert laurent.dumps(value) == json.dumps(expected, indent=2)
    assert laurent.dumps(value, None) == json.dumps(expected)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 40), st.lists(st.tuples(st.integers(2, 10 ** 6), st.integers()),
                                    max_size=6),
       st.lists(st.tuples(*[st.integers(-(10 ** 6), 10 ** 6)] * 4), max_size=6))
def test_dumps_writes_eigenvalue_rows_and_beta_entries(weight, eigenvalues, entries):
    # the two CLI payloads that hold a Records, as cmd_eigenvalues and
    # cmd_beta_table build them
    rows = [(p, str(lam)) for p, lam in eigenvalues]
    value = {"weight": weight, "eigenvalues": laurent.Records((("p", "lambda"), rows))}
    expected = {"weight": weight, "eigenvalues": [{"p": p, "lambda": lam} for p, lam in rows]}
    assert laurent.dumps(value) == json.dumps(expected, indent=2)
    keys = ("m", "r", "alpha", "beta")
    value = {"n": weight, "entries": laurent.Records((keys, entries))}
    expected = {"n": weight, "entries": [dict(zip(keys, entry)) for entry in entries]}
    assert laurent.dumps(value) == json.dumps(expected, indent=2)


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
