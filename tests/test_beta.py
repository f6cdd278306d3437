from math import comb

import pytest

from liftspin.beta import BetaTable, beta_value, table
from liftspin.cli import MAX_N
from oracles import (BetaOracle, alpha_count_bruteforce, degree_audit_ikeda,
                     degree_audit_miyawaki, symmetric_odd_set)


def test_symmetric_odd_set():
    assert symmetric_odd_set(1) == (-1, 1)
    assert symmetric_odd_set(3) == (-5, -3, -1, 1, 3, 5)


@pytest.mark.parametrize("n", range(1, 7))
def test_alpha_empty_subset(n):
    assert table(n).alpha(0, 0) == 1
    assert table(n).alpha(2, 0) == 0
    assert table(n).alpha(0, -1) == 0
    assert table(n).alpha(0, 2 * n + 1) == 0


@pytest.mark.parametrize("n", range(1, 7))
def test_alpha_singleton_max(n):
    assert table(n).alpha(2 * n - 1, 1) == 1


def test_alpha_pairs_example():
    # the three pairs {-5,5}, {-3,3}, {-1,1}
    assert table(3).alpha(0, 2) == 3
    assert alpha_count_bruteforce(0, 2, 3) == 3


def test_beta_examples():
    for n in range(1, 7):
        assert beta_value(0, 0, n) == 1
        assert beta_value(2, 0, n) == 0
        assert beta_value(-4, 0, n) == 0
    assert beta_value(1, 1, 1) == 1
    assert beta_value(-1, 1, 1) == 1
    assert beta_value(0, 2, 3) == 2


@pytest.mark.parametrize("n", range(1, 5))
def test_dp_matches_bruteforce(n):
    for m in range(0, 2 * n + 1):
        bound = m * (2 * n - m)
        for r in range(-bound - 2, bound + 3):
            assert table(n).alpha(r, m) == alpha_count_bruteforce(r, m, n)


@pytest.mark.parametrize("n", range(1, 7))
def test_symmetry_and_complement(n):
    for m in range(0, 2 * n + 1):
        bound = m * (2 * n - m)
        for r in range(-bound, bound + 1):
            a = table(n).alpha(r, m)
            assert a == table(n).alpha(-r, m)
            assert a == table(n).alpha(r, 2 * n - m)
            assert beta_value(r, m, n) == beta_value(-r, m, n)


@pytest.mark.parametrize("n", range(1, 7))
def test_parity_vanishing(n):
    for m in range(0, 2 * n + 1):
        bound = m * (2 * n - m)
        for r in range(-bound, bound + 1):
            if (r - m) % 2:
                assert table(n).alpha(r, m) == 0


@pytest.mark.parametrize("n", range(1, 7))
def test_beta_nonnegative_in_range(n):
    for m in range(0, n + 1):
        bound = m * (2 * n - m)
        for r in range(-bound, bound + 1):
            assert beta_value(r, m, n) >= 0


@pytest.mark.parametrize("n", range(1, 13))
def test_packed_table_matches_the_dict_dp(n):
    # every (r, m), m and r past the support included
    packed, oracle = BetaTable(n), BetaOracle(n)
    for m in range(-2, 2 * n + 3):
        for r in range(-n * n - 3, n * n + 4):
            assert packed.alpha(r, m) == oracle.alpha(r, m), (r, m)
            assert packed.beta(r, m) == oracle.beta(r, m), (r, m)
    assert list(packed.entries()) == list(oracle.entries())


def test_wide_slots_follow_the_recurrence_in_n():
    # n = 34 needs 128-bit slots: C(68, 34) > 2^64.  The set of n is that of
    # n - 1 and +-(2n - 1), so alpha_n(r, m) sums four alpha_(n-1) values
    n, x = 34, 67
    wide, narrow = table(n), table(n - 1)
    for m in range(2 * n + 1):
        bound = m * (2 * n - m)
        for r in range(-bound, bound + 1, 2):
            assert wide.alpha(r, m) == (narrow.alpha(r, m) + narrow.alpha(r - x, m - 1)
                                        + narrow.alpha(r + x, m - 1)
                                        + narrow.alpha(r, m - 2)), (r, m)
    assert [sum(wide.beta_row(m)) for m in range(n + 1)] == [
        comb(2 * n, m) - comb(2 * n, m - 2) if m >= 2 else comb(2 * n, m) for m in range(n + 1)]


def test_beta_rows_are_nonnegative_up_to_the_cli_cap():
    # what the table checks once when built, so that no reader checks a value
    for n in range(1, MAX_N + 1):
        tab = table(n)
        for m in range(n + 1):
            bound = m * (2 * n - m)
            row = tab.beta_row(m)
            assert min(row) >= 0 and row[0] == row[-1] == 1, (n, m)
            assert row == tuple(tab.beta(r, m) for r in range(-bound, bound + 1, 2)), (n, m)


def test_degree_audits():
    assert all(degree_audit_ikeda(n) for n in range(1, 7))
    assert all(degree_audit_miyawaki(n) for n in range(2, 7))


def test_degree_audit_values():
    # spot totals from the audit sums themselves
    total = sum(beta_value(r, m, 1) * (1 - m + 1)
                for m in range(0, 2)
                for r in range(-m * (2 - m), m * (2 - m) + 1, 2))
    assert total == 4
    # the n=2 pair-lift decomposition 8 = 4 + 2 + 2
    assert beta_value(-1, 1, 1) == beta_value(1, 1, 1) == 1


def test_table_entries_ordering():
    rows = list(table(2).entries())
    assert rows[0] == (0, 0, 1, 1)
    assert rows == sorted(rows, key=lambda t: (t[0], t[1]))
    # entries carry the full support, m up to 2n
    assert rows[-1][0] == 4


def test_bad_n():
    with pytest.raises(ValueError):
        BetaTable(0)
    with pytest.raises(ValueError):
        degree_audit_miyawaki(1)
