"""A LocalFactor keeps the parts it was built from and counts its roots from
theirs; it lists its roots only when a float path asks for them.

The counts must be the listed roots counted, with no zero count, so that
`compare_symbolic`'s dict equality is multiset equality.  The listed order
is a byte contract of every float output (numeric `euler`, `lvalue`), so
the roots of every side are pinned by one digest.
"""

import hashlib
from collections import Counter

import pytest

from liftspin.euler import LocalFactor, sym_power_factor, tensor_factor
from liftspin.identities import (
    IDENTITIES,
    compare_symbolic,
    full_symbolic_suite,
    negative_control_hooks,
    negative_control_reports,
    verify,
)
from liftspin.satake import mono_mul

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

SIDE_IDENTITIES = [name for name, identity in IDENTITIES.items() if identity.sides]

#: sha256 of the roots, in order, of every case of `_root_order_cases`
ROOT_ORDER_SHA256 = "28f4ac82f16593811c8712609d33e692abd3c83c0dd7fda604ab931114524bc0"


def _root_order_cases():
    """(sides, n, k, hooks): the side-building identities at n = 1..6 and six
    k, out of range included, and the negative controls at n = 2..6."""
    cases = [(IDENTITIES[name].sides, n, k, {}) for name in SIDE_IDENTITIES
             for n in range(1, 7) for k in (1, 4, 9, 10, 16, 10 ** 21)]
    return cases + [(IDENTITIES["main_theorem"].sides, n, 10, hooks) for n in range(2, 7)
                    for hooks in negative_control_hooks(n, 10)]


def test_root_order_is_pinned():
    digest = hashlib.sha256()
    cases = _root_order_cases()
    for sides, n, k, hooks in cases:
        try:
            record = repr([side.roots for side in sides(n, k, **hooks)])
        except Exception as exc:
            record = f"{type(exc).__name__}: {exc}"
        digest.update(record.encode() + b"\n")
    assert len(SIDE_IDENTITIES) == 7 and len(cases) == 267
    assert digest.hexdigest() == ROOT_ORDER_SHA256


def assert_counted(factor):
    assert factor.counts == Counter(factor.roots)
    assert 0 not in factor.counts.values()
    assert factor.degree == len(factor.roots)


def test_every_side_counts_its_roots():
    grid = [(name, n, k, {}) for name in SIDE_IDENTITIES for n, k in IDENTITIES[name].grid]
    grid += [("main_theorem", n, 10, hooks) for n in range(2, 7)
             for hooks in negative_control_hooks(n, 10)]
    verdicts = []
    for name, n, k, hooks in grid:
        lhs, rhs = IDENTITIES[name].sides(n, k, **hooks)
        assert_counted(lhs)
        assert_counted(rhs)
        ok = compare_symbolic(lhs, rhs)[0]
        assert ok == (Counter(lhs.roots) == Counter(rhs.roots)), (name, n, k, hooks)
        verdicts.append(ok)
    # the registry passes, every negative control fails
    assert verdicts == [not hooks for _, _, _, hooks in grid]


def test_parts_with_zero_or_repeated_multiplicity():
    f = tensor_factor(2, 4, 3)
    shift = (1, -1, 5)
    product = LocalFactor(parts=[(f, shift, 2), (f, (0, 0, 9), 0), (f, shift, 1)])
    assert product.counts == {mono_mul(root, shift): 3 * m for root, m in f.counts.items()}
    assert product.roots == tuple(mono_mul(root, shift) for root in f.roots) * 3
    assert_counted(product)
    empty = LocalFactor(parts=[(f, shift, 0)])
    assert (empty.counts, empty.roots, empty.degree) == ({}, (), 0)
    assert compare_symbolic(empty, LocalFactor(())) == (True, None)


# small factors and shifts from {-1, 0, 1}^3, so that roots and shifts
# repeat; products of products, as the spinor factor is built
_small = st.lists(st.tuples(*[st.integers(-1, 1)] * 3), max_size=3).map(LocalFactor)
_shift = st.tuples(*[st.integers(-1, 1)] * 3)


def _products(factors):
    return st.lists(st.tuples(factors, _shift, st.integers(0, 3)), max_size=4)


_factors = st.recursive(_small, lambda factors: _products(factors).map(
    lambda parts: LocalFactor(parts=parts)), max_leaves=8)


@st.composite
def _pairs(draw):
    parts = draw(_products(_factors))
    other = draw(st.one_of(st.permutations(parts), _products(_factors)))
    return LocalFactor(parts=parts), LocalFactor(parts=other)


@settings(max_examples=200, deadline=None)
@given(_pairs())
def test_products_count_their_listed_roots(pair):
    lhs, rhs = pair
    assert_counted(lhs)
    assert_counted(rhs)
    assert compare_symbolic(lhs, rhs)[0] == (Counter(lhs.roots) == Counter(rhs.roots))


def test_symbolic_verdicts_list_no_roots(monkeypatch, f20, g12):
    listed = []
    roots = LocalFactor.roots.fget

    def listing(factor):
        listed.append(factor.degree)
        return roots(factor)

    monkeypatch.setattr(LocalFactor, "roots", property(listing))
    assert verify("main_theorem", 6, 10).passed
    assert not any(report.passed for report in negative_control_reports(6, 10))
    assert all(report.passed for report in full_symbolic_suite())
    # nor do numeric ones: they compare the same counts
    assert verify("main_theorem", 2, 10, mode="numeric", prime=2, f=f20, g=g12).passed
    assert listed == []
    # the float paths do list them
    LocalFactor(parts=[(sym_power_factor(1, 4), (0, 0, 0), 1)]).instantiate(1j, 1j, 2)
    assert listed == [2, 2]


def test_roots_may_come_from_a_generator():
    factor = LocalFactor(root for root in [(1, 0, 1), (0, 1, 2)])
    assert factor.degree == 2 and factor.roots == ((1, 0, 1), (0, 1, 2))
    assert compare_symbolic(factor, LocalFactor([(0, 1, 2), (1, 0, 1)])) == (True, None)
    assert not compare_symbolic(factor, LocalFactor([]))[0]
    with pytest.raises(ValueError, match="exponent triples"):
        LocalFactor(root for root in [(1, 0, 1), (0, 1, 2.0)])


def test_a_factor_is_roots_or_parts():
    with pytest.raises(TypeError, match="either roots or parts"):
        LocalFactor()
    with pytest.raises(TypeError, match="either roots or parts"):
        LocalFactor([(0, 0, 0)], parts=[])


def test_a_negative_multiplicity_is_refused():
    # a negative e would give a negative degree, or zero counts with roots listed
    f, s = sym_power_factor(1, 10), (0, 0, 0)
    for parts in ([(f, s, -1)], [(f, s, 1), (f, s, -1)]):
        with pytest.raises(ValueError, match="multiplicity must be nonnegative, got -1"):
            LocalFactor(parts=parts)
    # a multiplicity of 0 is still skipped
    assert LocalFactor(parts=[(f, s, 0), (f, s, 1)]).counts == f.counts
