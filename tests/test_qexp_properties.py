"""Ring laws of truncated q-expansion multiplication, on random int
coefficients; genuine eigenvalue tables with one entry moved, which the CLI
refuses with exit 3; numeric Satake roots from int eigenvalues, which
match the ones computed from Fractions bit for bit; and table fields, read
as the patterns of `oracles.regex_eigenvalue_table` read them."""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from math import isqrt
from pathlib import Path

import pytest

from liftspin import cli
from liftspin.qexp import (MAX_PRIMES_UP_TO, SUPPORTED_WEIGHTS, QExpansion, check_eigenvalue,
                           load_eigenvalue_table, numeric_satake, primes_up_to)
from oracles import bernoulli, fraction_satake, pair, regex_eigenvalue_table, schoolbook, subtract

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_coeff = st.integers(-10 ** 12, 10 ** 12)
_series = st.builds(QExpansion, st.integers(0, 30), st.lists(_coeff, min_size=1, max_size=12))


@settings(max_examples=40, deadline=None)
@given(_series, _series, _series)
def test_mul_commutative_and_associative(a, b, c):
    assert list((a * b).coeffs) == schoolbook(a, b)
    assert pair(a * b) == pair(b * a)
    assert pair((a * b) * c) == pair(a * (b * c))


@settings(max_examples=40, deadline=None)
@given(_series, st.lists(_coeff, min_size=1, max_size=12),
       st.lists(_coeff, min_size=1, max_size=12))
def test_mul_distributes_over_sub(a, b, c):
    b, c = QExpansion(4, b), QExpansion(4, c)
    assert pair(a * subtract(b, c)) == pair(subtract(a * b, a * c))


@settings(max_examples=40, deadline=None)
@given(_series)
def test_mul_by_unit_series(a):
    unit = QExpansion(0, [1] + [0] * a.precision)
    assert pair(unit * a) == pair(a * unit) == pair(a)


# -- the Eisenstein congruence lambda_w(p) = 1 + p^(w-1) mod N_w ---------------

GOLDEN = Path(__file__).parent / "golden"
#: N_w, the numerator of B_w / (2w), at each weight with a golden table
_MODULI = {12: 691, 16: 3617, 18: 43867, 20: 174611, 22: 77683, 26: 657931}


def _golden_table(weight):
    rows = json.loads((GOLDEN / f"eigenvalues_w{weight}.json").read_text())["eigenvalues"]
    return {row["p"]: int(row["lambda"]) for row in rows}


def _eigenvalues_exit(weight, table):
    """The exit code of `eigenvalues` at every prime of a table file."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "table.txt"
        path.write_text("".join(f"{p} {lam}\n" for p, lam in table.items()))
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return cli.main(["eigenvalues", "--weight", str(weight), "--primes-up-to",
                             str(max(table)), "--eigenvalues-file", str(path)])


def test_golden_tables_are_eisenstein_congruent():
    # N_w from the Bernoulli numbers; all 46 rows of each golden table pass
    # every check, the congruence included
    for weight, modulus in _MODULI.items():
        assert abs((bernoulli(weight) / (2 * weight)).numerator) == modulus
        table = _golden_table(weight)
        assert len(table) == 46
        for p, lam in table.items():
            assert (lam - 1 - p ** (weight - 1)) % modulus == 0
            check_eigenvalue(lam, weight, p)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_MODULI)), st.sampled_from(primes_up_to(19)),
       st.one_of(st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 40, 10 ** 40)))
@example(12, 2, 1)
@example(26, 19, -1)
def test_a_moved_table_entry_exits_3(weight, p, delta):
    # one entry of a genuine table at p <= 19 moved by delta: outside
    # Deligne's bound or inside it, it breaks the congruence unless N_w
    # divides delta; such a delta passes by design, as the congruence is
    # all that tells those values apart inside the bound
    assume(delta % _MODULI[weight])
    table = {q: lam for q, lam in _golden_table(weight).items() if q <= 19}
    table[p] += delta
    assert _eigenvalues_exit(weight, table) == 3


def test_a_table_entry_moved_by_n_w_inside_the_bound_passes():
    # the limit of the check: tau(19) + 691 lies inside Deligne's bound
    table = {q: lam for q, lam in _golden_table(12).items() if q <= 19}
    table[19] += 691
    assert table[19] ** 2 <= 4 * 19 ** 11
    assert _eigenvalues_exit(12, table) == 0


# -- numeric Satake roots from int eigenvalues -----------------------------------

def _bits(roots):
    return [(z.real.hex(), z.imag.hex()) for z in roots]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SUPPORTED_WEIGHTS), st.sampled_from(primes_up_to(MAX_PRIMES_UP_TO)),
       st.data())
def test_int_satake_roots_match_the_fraction_formula(weight, p, data):
    # lam / p^((w-2)/2) on ints rounds correctly, as Fraction.__float__ does,
    # so the roots agree to the last bit anywhere in Deligne's bound
    bound = isqrt(4 * p ** (weight - 1))
    lam = data.draw(st.integers(-bound, bound))
    assert _bits(numeric_satake(lam, weight, p)) == _bits(fraction_satake(lam, weight, p))


@pytest.mark.parametrize("weight, p", [(12, 2), (26, 999983)])
def test_int_satake_roots_match_the_fraction_formula_at_the_bound(weight, p):
    bound = isqrt(4 * p ** (weight - 1))
    for lam in (bound, -bound, 0):
        assert _bits(numeric_satake(lam, weight, p)) == _bits(fraction_satake(lam, weight, p))


# -- table fields read with str methods, as the old patterns read them -----------

#: signs, ASCII digits with leading zeros, other Unicode digits (Arabic-Indic,
#: superscript, fullwidth, NKo), and what int() or float() would also read
_FIELD_PIECES = ["+", "-", "0", "00", "1", "2", "3", "5", "7", "9", "19", "١",
                 "²", "１", "߀", "_", "/", ".", "e", "e5"]
_fields = st.lists(st.sampled_from(_FIELD_PIECES), max_size=5).map("".join)


def _outcome(read, path):
    try:
        return read(str(path))
    except ValueError as exc:  # every refusal of a table is one
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(_fields, _fields), min_size=1, max_size=3))
@example([("١٩", "5")])
@example([("1_9", "5")])
@example([("2", "²")])
@example([("2", "1e10000000")])
@example([("2", "0.5")])
@example([("2", "1/0"), ("3", "5/00"), ("5", "5/+1"), ("7", "5/"), ("11", "5/1/2")])
@example([("3", "5/00")])
@example([("3", "5/+1")])
@example([("3", "5/")])
@example([("3", "5/1/2")])
@example([("+0019", "-0010/005"), ("1000003", "1")])
@example([("2", "1" * 5000)])
def test_table_fields_are_read_as_the_patterns_read_them(lines):
    # the same table from the same lines, or the same refusal with the same
    # message, the prime cap checked before primality
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "lam.txt"
        path.write_text("".join(f"{p} {value}\n" for p, value in lines), encoding="utf-8")
        assert _outcome(load_eigenvalue_table, path) == _outcome(regex_eigenvalue_table, path)
