"""Packed expansion of the low half, the reflected top half and the
streamed indent-2 and text writers of LocalFactor, expanded and factored,
against a tuple-keyed reference expansion of every coefficient and
json.dumps on random unit-monomial
roots: exponent triples past 2^64 of either sign, repeated roots, and
degrees 0 to 9, plus explicit degree-32, degree-33 and degree-64
examples and root sets whose lattice box has a step of 2, lies along a
line or is sheared.  Roots whose lattice box is over PACKED_SLOT_CAP must
raise ExpansionTooLarge before the first piece of output.  The numeric
writer, at unit-circle Satake data and a few primes, against the dict of
[re, im] entries written by json.dumps, NumericOverflow before the first
piece included."""

import cmath
import json
import math

import pytest

from liftspin.errors import ExpansionTooLarge, NumericOverflow
from liftspin.euler import LocalFactor, _box, _slot_format, numeric_coefficients
from oracles import axis_slots, coefficients, factored_json_dict, text_lines, to_json_dict

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
# e_a + e_q even in every root, as in every registry side: the lattice box
# has a q step of 2 and half the slots of the axis box
_PARITY = [(0, 0, 4), (1, 0, 5), (0, 1, 4), (0, 0, 6), (-1, 1, 3), (2, -1, 4), (1, 1, 7)]
# 20 roots (j, j mod 2, 0): the lattice basis (1, 1, 0), (0, 2, 0) shears
# e_b against e_a, so its box has 5,151 slots, where one gcd step per
# exponent would give 1,111
_ZIGZAG = [(j, j % 2, 0) for j in range(20)]
# a rank-1 line: the lattice box is one row of slots along the line, the
# axis box a square
_LINE = [(j, 0, 3 * j - 1) for j in (-3, -1, 0, 0, 2, 4)]


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
@example(_PARITY)
@example(_ZIGZAG)
@example(_LINE)
def test_packed_expansion_matches_reference(roots):
    label = "ref[\"x\"]é"
    factor = LocalFactor(tuple(roots))
    # the root list is written at any degree, in canonical order
    factored = factored_json_dict(factor, label)
    assert "".join(factor.chunks(label, factored=True)) == json.dumps(factored, indent=2)
    assert "".join(factor.chunks(label, True, "text")) == text_lines(factored, "roots")
    # roots whose box is over PACKED_SLOT_CAP are refused before any output
    if _box(sorted(roots), len(roots) // 2) is None:
        for chunks in (factor.chunks(label), factor.chunks(label, fmt="text")):
            with pytest.raises(ExpansionTooLarge, match="factored form"):
                next(chunks)
        with pytest.raises(ExpansionTooLarge, match="factored form"):
            coefficients(factor)
        return
    reference = reference_coefficients(roots)
    data = {"label": label, "degree": len(roots), "coeffs": [
        {"terms": [{"e": [*key, 0], "c": str(value)} for key, value in sorted(coeff.items())]}
        for coeff in reference]}
    assert "".join(factor.chunks(label)) == json.dumps(data, indent=2)
    assert "".join(factor.chunks(label, fmt="text")) == text_lines(data, "coeffs")
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
        assert _box(roots, len(roots) // 2).strides == (1, 1, 1)
    assert _slot_format(32) == ("I", 4) and _slot_format(33) == ("Q", 8)
    # the slots of each mirrored coefficient end one slot into a row of 6
    row = _box(sorted(_PARTIAL_ROW), 2).strides[1]
    assert row == 6
    for packed in LocalFactor(_PARTIAL_ROW)._expand():
        assert -(-packed.value.bit_length() // 32) % row == 1
    assert _box(sorted(_NEGATIVE_SHIFT), 2) is not None
    assert _box(_TOO_WIDE, 1) is None
    # exponents near 2^70 that share a step still pack: 2 slots per component
    assert _box(sorted([(_HUGE, -_HUGE, 2 ** 64 + 1), (-_HUGE, _HUGE, -(2 ** 64))]), 1)
    # the lattice box: a q step of 2, a shear, and a line
    parity = _box(sorted(_PARITY), 3)
    assert parity.basis == [(1, 0, 1), (0, 1, 0), (0, 0, 2)]
    assert 2 * parity.slots <= axis_slots(_PARITY)
    zigzag = _box(_ZIGZAG, 10)
    assert zigzag.basis == [(1, 1, 0), (0, 2, 0), (0, 0, 1)] and zigzag.slots == 5151
    line = _box(sorted(_LINE), 3)
    assert line.basis[0] == (1, 0, 3) and line.strides == (1, 1, 1)
    # e_a from -4 to 6 at T^3, against 11 e_q as well in the axis box
    assert line.slots == 11 and axis_slots(_LINE) == 121


def numeric_data(factor, label, factored, alpha, beta, p):
    """The numeric factor as a dict of [re, im] entries, built from the
    instantiated roots: sorted by (re, im), or expanded."""
    roots = factor.instantiate(alpha, beta, p)
    key, values = (("roots", sorted(roots, key=lambda r: (r.real, r.imag))) if factored
                   else ("coeffs", numeric_coefficients(roots)))
    return key, {"label": label, "degree": len(roots), key: [[z.real, z.imag] for z in values]}


# small exponents, and now and then one whose root or coefficients leave
# double range at the larger primes
_numeric_exponent = st.one_of(st.integers(-6, 6), st.integers(-400, 400))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_numeric_exponent, _numeric_exponent, _numeric_exponent), max_size=9),
       st.floats(0, 2 * math.pi), st.floats(0, 2 * math.pi), st.sampled_from([2, 3, 5, 199]),
       st.booleans())
@example([], 0.0, 0.0, 2, False)
@example([], 0.0, 0.0, 2, True)
@example([(1, -1, 3)] * 4, 1.0, 2.0, 5, False)
@example([(0, 0, 400)], 0.5, 0.5, 199, True)
def test_numeric_writer_matches_json_dumps(roots, theta_a, theta_b, p, factored):
    label = "num[\"x\"]é|p=%d" % p
    factor = LocalFactor(tuple(roots))
    at = (cmath.exp(1j * theta_a), cmath.exp(1j * theta_b), p)
    try:
        key, data = numeric_data(factor, label, factored, *at)
    except NumericOverflow:
        for fmt in ("json", "text"):
            with pytest.raises(NumericOverflow):
                next(factor.chunks(label, factored, fmt, at))
        return
    assert "".join(factor.chunks(label, factored, "json", at)) == json.dumps(data, indent=2)
    assert "".join(factor.chunks(label, factored, "text", at)) == text_lines(data, key)
