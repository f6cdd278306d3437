"""Ring laws of truncated q-expansion multiplication, on random int and
Fraction coefficients."""

import pytest

from liftspin.qexp import QExpansion
from oracles import schoolbook

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_coeff = st.one_of(st.integers(-10 ** 12, 10 ** 12),
                   st.fractions(min_value=-1000, max_value=1000, max_denominator=60))
_series = st.builds(QExpansion, st.integers(0, 30), st.lists(_coeff, min_size=1, max_size=12))


@settings(max_examples=40, deadline=None)
@given(_series, _series, _series)
def test_mul_commutative_and_associative(a, b, c):
    assert list((a * b).coeffs) == schoolbook(a, b)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


@settings(max_examples=40, deadline=None)
@given(_series, st.lists(_coeff, min_size=1, max_size=12),
       st.lists(_coeff, min_size=1, max_size=12))
def test_mul_distributes_over_add(a, b, c):
    b, c = QExpansion(4, b), QExpansion(4, c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40, deadline=None)
@given(_series)
def test_mul_by_unit_series(a):
    unit = QExpansion(0, [1] + [0] * a.precision)
    assert unit * a == a * unit == a
