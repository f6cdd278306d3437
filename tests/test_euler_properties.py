"""Packed expansion of the low half, the reflected top half and the
streamed indent-2 and text writers of LocalFactor, expanded and factored,
against a tuple-keyed reference expansion of every coefficient and
json.dumps on random unit-monomial
roots: exponent triples past 2^64 of either sign, repeated roots, and
degrees 0 to 9, plus explicit degree-32, degree-33 and degree-64
examples.  Roots whose packed box is over PACKED_SLOT_CAP must raise
ExpansionTooLarge before the first piece of output."""

import json

import pytest

from liftspin.errors import ExpansionTooLarge
from liftspin.euler import LocalFactor, _box, _slot_format
from oracles import coefficients, factored_json_dict, text_lines, to_json_dict

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_HUGE = 2 ** 70
_exponent = st.one_of(st.integers(-6, 6), st.integers(-_HUGE, _HUGE))
_root = st.tuples(_exponent, _exponent, _exponent)
_roots = st.lists(_root, max_size=9)

# one root 32 and 64 times: the box is one slot, and the middle coefficients
# C(32, 16) and C(64, 32) fill 29.2 of its 32 and 60.7 of its 64 bits
_COPIES_32 = [(1, -2, 3)] * 32
_COPIES_64 = [(1, -2, 3)] * 64
# 33 copies: the first degree with 64-bit slots, and an odd one, so T^17 to
# T^33 mirror T^16 down to T^0
_COPIES_33 = [(1, -2, 3)] * 33
# sorted, the second root has e_b = -1 below the second-smallest e_b = 0, so
# its step from degree 1 to 2 is a right shift
_NEGATIVE_SHIFT = [(-1, 1, 1), (0, -1, 1), (0, 1, 1), (1, 0, 1)]
# degree 5 with e_b != 0 and a negative e_q: rows of 6 slots, and T^0 to T^2
# end one slot into a row, so the reversed walk of T^5 to T^3 starts on a
# partial row; sorted, the second root's step from degree 1 to 2 is a right
# shift, as its e_b = -1 is below the second-smallest e_b = 0
_PARTIAL_ROW = [(-1, 2, 1), (0, -1, 3), (0, 1, 1), (1, 0, 1), (2, 1, -2)]
# e_a spans 2^21 + 1 steps of 1: past PACKED_SLOT_CAP, so ExpansionTooLarge
_TOO_WIDE = [(0, 0, 0), (1, 0, 0), (2 ** 21, 0, 0)]


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


@settings(max_examples=200, deadline=None)
@given(_roots)
@example([])
@example([(2, -1, 3)])
@example([(_HUGE, -_HUGE, 2 ** 64 + 1), (-_HUGE, _HUGE, -(2 ** 64))])
@example([(1, 0, 5), (1, 0, 5), (-1, 0, 5)])
@example(_COPIES_32)
@example(_COPIES_64)
@example(_COPIES_33)
@example(_PARTIAL_ROW)
@example(_NEGATIVE_SHIFT)
@example(_TOO_WIDE)
def test_packed_expansion_matches_reference(roots):
    label = "ref[\"x\"]é"
    factor = LocalFactor(tuple(roots))
    # the root list is written at any degree, in canonical order
    factored = factored_json_dict(factor, label)
    assert "".join(factor.json_chunks(label, factored=True)) == json.dumps(factored, indent=2)
    assert "".join(factor.text_chunks(label, factored=True)) == text_lines(factored, "roots")
    if _box(sorted(roots), len(roots) // 2) is None:
        for chunks in (factor.json_chunks(label), factor.text_chunks(label)):
            with pytest.raises(ExpansionTooLarge, match="factored form"):
                next(chunks)
        with pytest.raises(ExpansionTooLarge, match="factored form"):
            coefficients(factor)
        return
    reference = reference_coefficients(roots)
    data = {"label": label, "degree": len(roots), "coeffs": [
        {"terms": [{"e": [*key, 0], "c": str(value)} for key, value in sorted(coeff.items())]}
        for coeff in reference]}
    assert "".join(factor.json_chunks(label)) == json.dumps(data, indent=2)
    assert "".join(factor.text_chunks(label)) == text_lines(data, "coeffs")
    # only degrees 0 to degree // 2 are expanded; the rest is reflected
    assert len(factor._expand()) == len(roots) // 2 + 1
    assert to_json_dict(factor, label) == data
    got = coefficients(factor)
    assert got == tuple([(*key, value) for key, value in sorted(coeff.items())]
                        for coeff in reference)
    # unit roots: every term of the T^d coefficient has the sign (-1)^d, so
    # no coefficient of the product is ever empty
    for d, coeff in enumerate(got):
        assert coeff and all((c > 0) == (d % 2 == 0) for *_, c in coeff)


def test_examples_take_the_path_they_name():
    for roots in (_COPIES_32, _COPIES_33, _COPIES_64):
        assert _box(roots, len(roots) // 2)[2] == (1, 1, 1)
    assert _slot_format(32) == ("I", 4) and _slot_format(33) == ("Q", 8)
    # the slots of each mirrored coefficient end one slot into a row of 6
    _, _, (_, row, _) = _box(sorted(_PARTIAL_ROW), 2)
    assert row == 6
    for packed in LocalFactor(_PARTIAL_ROW)._expand():
        assert -(-packed.value.bit_length() // 32) % row == 1
    assert _box(sorted(_NEGATIVE_SHIFT), 2) is not None
    assert _box(_TOO_WIDE, 1) is None
    # exponents near 2^70 that share a step still pack: 2 slots per component
    assert _box(sorted([(_HUGE, -_HUGE, 2 ** 64 + 1), (-_HUGE, _HUGE, -(2 ** 64))]), 1)
