"""A LocalFactor keeps the parts it was built from and counts its roots from
theirs in packed q-rows; it lists its roots only when a float path asks
for them.

The rows, decoded, must be the listed roots counted, with no zero count,
and canonical, so that `compare_symbolic`'s dict equality is multiset
equality.  The listed order is a byte contract of every float output
(numeric `euler`, `lvalue`), so the roots of every side are pinned by one
digest.
"""

import hashlib
import io
import time
from collections import Counter
from contextlib import redirect_stdout

import pytest

from liftspin.cli import main
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
from hypothesis import example, given, settings  # noqa: E402
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
    listed, decoded = [], []
    roots, counts = LocalFactor.roots.fget, LocalFactor.counts.fget

    def listing(factor):
        listed.append(factor.degree)
        return roots(factor)

    def decoding(factor):
        decoded.append(factor.degree)
        return counts(factor)

    monkeypatch.setattr(LocalFactor, "roots", property(listing))
    # nor do they decode the root counts: the rows are compared as they are
    monkeypatch.setattr(LocalFactor, "counts", property(decoding))
    assert verify("main_theorem", 6, 10).passed
    assert not any(report.passed for report in negative_control_reports(6, 10))
    assert all(report.passed for report in full_symbolic_suite())
    # nor do numeric ones: they compare the same counts
    assert verify("main_theorem", 2, 10, mode="numeric", prime=2, f=f20, g=g12).passed
    assert listed == decoded == []
    # the float paths do list them
    LocalFactor(parts=[(sym_power_factor(1, 4), (0, 0, 0), 1)]).instantiate(1j, 1j, 2)
    assert listed == [2, 2] and decoded == []


def test_output_and_verdicts_read_only_what_they_need(monkeypatch, f20, g12):
    listed, decoded = [], []
    roots = LocalFactor.roots.fget

    def listing(factor):
        listed.append(factor.degree)
        return roots(factor)

    monkeypatch.setattr(LocalFactor, "roots", property(listing))
    # exact euler output, expanded and factored, in JSON and in text, is
    # written from the root counts and lists no root
    for flags in ([], ["--factored"], ["--format", "text"], ["--factored", "--format", "text"]):
        with redirect_stdout(io.StringIO()) as out:
            assert main(["euler", "--identity", "main_theorem", "--side", "lhs",
                         "--n", "3", "--k", "10"] + flags) == 0
        assert out.getvalue()
    assert listed == []
    # passing verdicts decode no rows, symbolic or numeric
    runs = LocalFactor.runs

    def decoding(factor):
        decoded.append(factor.degree)
        return runs(factor)

    monkeypatch.setattr(LocalFactor, "runs", decoding)
    assert all(report.passed for report in full_symbolic_suite())
    assert verify("main_theorem", 2, 10, mode="numeric", prime=2, f=f20, g=g12).passed
    assert decoded == []
    # a failed one decodes its two sides once, for its witness
    failed = negative_control_reports(2, 10)
    assert not any(report.passed for report in failed)
    assert len(decoded) == 2 * len(failed) and listed == []


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


# exponents of both parities near 0, at the window edges e_q = -2^11 and
# 2^11, and up to 2^70: shifts that share a factor and (e_a, e_b) fold, and
# runs that cross a window edge split there
_HUGE = 2 ** 70
_exponent = st.one_of(st.integers(-3, 3), st.integers(2 ** 11 - 4, 2 ** 11 + 3),
                      st.integers(-2 ** 11 - 4, -2 ** 11 + 3), st.integers(-_HUGE, _HUGE))
_huge_small = st.lists(st.tuples(*[_exponent] * 3), max_size=4).map(LocalFactor)


def _huge_products(factors):
    return st.lists(st.tuples(factors, st.tuples(*[_exponent] * 3), st.integers(0, 3)),
                    max_size=4)


_huge_factors = st.recursive(_huge_small, lambda factors: _huge_products(factors).map(
    lambda parts: LocalFactor(parts=parts)), max_leaves=8)


@st.composite
def _huge_pairs(draw):
    parts = draw(_huge_products(_huge_factors))
    other = draw(st.one_of(st.permutations(parts), _huge_products(_huge_factors)))
    return LocalFactor(parts=parts), LocalFactor(parts=other)


def assert_canonical(factor):
    # each row's first and last slot are nonzero and lie in its window
    for (_, _, window), (e_q, value) in factor.rows.items():
        top = e_q + (value.bit_length() - 1) // 64
        assert value % 2 ** 64 and (e_q + 2 ** 11) >> 12 == (top + 2 ** 11) >> 12 == window


# a two-slot row shifted across the edge at 2^11, where the slots after the
# edge start with two zeros; and two shifts of one factor that fold into a
# run across it
_EDGE = LocalFactor(((0, 0, 2 ** 11 - 8), (0, 0, 2 ** 11 - 4)))
_BELOW_EDGE = LocalFactor(((1, -1, 2 ** 11 - 2),))


@settings(max_examples=200, deadline=None)
@given(_huge_pairs())
@example((LocalFactor(parts=[(_EDGE, (0, 0, 6), 1)]),
          LocalFactor(((0, 0, 2 ** 11 - 2), (0, 0, 2 ** 11 + 2)))))
@example((LocalFactor(parts=[(_BELOW_EDGE, (0, 0, 0), 1), (_BELOW_EDGE, (0, 0, 2), 2)]),
          LocalFactor([(1, -1, 2 ** 11 - 2)] + [(1, -1, 2 ** 11)] * 2)))
def test_rows_count_roots_far_apart(pair):
    lhs, rhs = pair
    for side in pair:
        assert_counted(side)
        assert_canonical(side)
        assert list(side.counts) == sorted(side.counts)
    assert compare_symbolic(lhs, rhs)[0] == (Counter(lhs.roots) == Counter(rhs.roots))


def test_roots_far_apart_take_two_short_rows():
    # one run from 0 to 10^300 would not fit in memory
    started = time.perf_counter()
    factor = LocalFactor(((0, 0, 0), (0, 0, 10 ** 300)))
    assert time.perf_counter() - started < 1e-3
    assert factor.rows == {(0, 0, 0): (0, 1), (0, 0, (10 ** 300 + 2 ** 11) >> 12): (10 ** 300, 1)}
    assert_counted(factor)


def test_a_degree_of_2_to_the_64_is_refused():
    # a count is at most the degree and must fit its 64-bit slot
    f, s = sym_power_factor(1, 10), (0, 0, 0)
    biggest = LocalFactor(parts=[(f, s, 2 ** 62), (f, s, 2 ** 63 - 1 - 2 ** 62)])
    assert biggest.degree == 2 ** 64 - 2
    assert biggest.counts == dict.fromkeys(sorted(f.counts), 2 ** 63 - 1)
    for parts in ([(f, s, 2 ** 63)], [(f, s, 2 ** 62), (f, (0, 0, 1), 2 ** 62)]):
        with pytest.raises(ValueError, match="is not below 2\\^64"):
            LocalFactor(parts=parts)
