from fractions import Fraction
from functools import reduce
from math import isqrt
from operator import mul

import pytest

from liftspin.errors import UnsupportedInput
from liftspin.qexp import (
    MAX_PRECISION,
    MAX_PRIMES_UP_TO,
    SUPPORTED_WEIGHTS,
    QExpansion,
    check_eigenvalue,
    dim_cusp_forms,
    eigenform,
    eisenstein,
    hecke_eigenvalue,
    is_prime,
    load_eigenvalue_table,
    numeric_satake,
    primes_up_to,
)
from oracles import (
    bernoulli,
    delta,
    delta_eta_product,
    eisenstein_series,
    hecke_operator,
    pair,
    pentagonal_euler,
    power,
    schoolbook,
    victor_miller_full_rows,
)


def test_bernoulli():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(6) == Fraction(1, 42)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_primes():
    assert primes_up_to(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1)
    assert is_prime(199)


def test_sieve_matches_trial_division():
    assert primes_up_to(-5) == primes_up_to(0) == primes_up_to(1) == []
    assert primes_up_to(2) == [2]
    assert primes_up_to(2000) == [n for n in range(2001) if is_prime(n)]
    # pi(10^6) = 78498, the largest bound the CLI accepts
    primes = primes_up_to(MAX_PRIMES_UP_TO)
    assert len(primes) == 78498 and primes[-1] == 999983


def test_eisenstein_examples():
    e4 = eisenstein(4, 2)
    assert e4.coeffs == (1, 240, 2160)
    e6 = eisenstein(6, 1)
    assert e6.coeffs == (1, -504)
    # the package builds E4, E6, E8, E10 and E14, the series that are
    # integral, and each agrees with the oracle's divisor sums
    for weight in range(4, 28, 2):
        if weight in (4, 6, 8, 10, 14):
            for precision in (30, 200):
                assert pair(eisenstein(weight, precision)) \
                    == pair(eisenstein_series(weight, precision))
        else:
            with pytest.raises(UnsupportedInput,
                               match=r"integral weights \(4, 6, 8, 10, 14\) only"):
                eisenstein(weight, 3)
    # -2k/B_k is an integer at these weights only; the series stay integral
    for weight in range(4, 28, 2):
        if weight in (4, 6, 8, 10, 14):
            assert eisenstein_series(weight, 3).coeffs[0] == 1
        else:
            with pytest.raises(UnsupportedInput, match="non-integral"):
                eisenstein_series(weight, 3)


@pytest.mark.parametrize("weight, factors", [(8, (4, 4)), (10, (4, 6)), (14, (4, 4, 6))])
def test_integral_eisenstein_series_are_products_of_e4_and_e6(weight, factors):
    # M_8, M_10 and M_14 are one-dimensional, so E8 = E4^2, E10 = E4 E6
    # and E14 = E4^2 E6; the oracle's divisor sums on the left, the package's
    # packed products of E4 and E6 on the right
    product = reduce(mul, [eisenstein(w, 200) for w in factors])
    assert pair(eisenstein_series(weight, 200)) == pair(product)


def test_eisenstein_rejects_bad_weight():
    with pytest.raises(UnsupportedInput, match="integral weights .* only, got 2$"):
        eisenstein(2, 5)
    with pytest.raises(UnsupportedInput, match="integral weights .* only, got 7$"):
        eisenstein(7, 5)


def test_delta_against_eta_product():
    d = delta(100)
    assert d.coeffs[0] == 0
    assert d.coeffs[1] == 1
    assert d.coeffs[2] == -24
    assert d.coeffs == delta_eta_product(100).coeffs


def test_dimensions():
    assert [dim_cusp_forms(w) for w in (4, 10, 12, 14, 16, 24, 26)] \
        == [0, 0, 1, 0, 1, 2, 1]


def test_victor_miller_basis():
    # the eigenform of a one-dimensional weight is its Victor Miller basis
    # element: coefficient 0 is 0 and coefficient 1 is 1
    assert eigenform(12, 40).qexp.coeffs == delta(40).coeffs
    assert eigenform(20, 10).qexp.coeffs[:2] == (0, 1)
    with pytest.raises(UnsupportedInput, match="S_4 is zero-dimensional"):
        eigenform(4, 10)
    with pytest.raises(UnsupportedInput, match="S_11 is zero-dimensional"):
        eigenform(11, 10)


@pytest.mark.parametrize("weight", [12, 16, 18, 20, 22, 26])
@pytest.mark.parametrize("precision", [10, 200])
def test_eigenforms_match_full_row_echelon(weight, precision):
    assert pair(eigenform(weight, precision).qexp) \
        == pair(victor_miller_full_rows(weight, precision)[0])


def test_eigenforms_are_eisenstein_congruent_at_the_precision_cap():
    # a_n = sigma_(w-1)(n) mod the numerator of B_w / (2w) for every n,
    # with the divisor sums from a sieve of their own (Ramanujan's 691 at 12)
    moduli = {w: abs((bernoulli(w) / (2 * w)).numerator) for w in SUPPORTED_WEIGHTS}
    assert moduli == {12: 691, 16: 3617, 18: 43867, 20: 174611, 22: 77683, 26: 657931}
    for weight, modulus in moduli.items():
        sigma = [0] * (MAX_PRECISION + 1)
        for d in range(1, MAX_PRECISION + 1):
            power = pow(d, weight - 1, modulus)
            for n in range(d, MAX_PRECISION + 1, d):
                sigma[n] += power
        coeffs = eigenform(weight, MAX_PRECISION).qexp.coeffs
        assert len(coeffs) == MAX_PRECISION + 1
        bad = [n for n in range(1, MAX_PRECISION + 1) if (coeffs[n] - sigma[n]) % modulus]
        assert bad == [], weight


def test_hecke_operator_self_consistency(f20):
    lam2 = hecke_eigenvalue(f20, 2)
    t2 = hecke_operator(f20.qexp, 2)
    for n in range(0, 21):
        assert t2.coeffs[n] == lam2 * f20.qexp.coeffs[n]


def test_hecke_eigenvalue_examples(f20, g12):
    assert hecke_eigenvalue(g12, 2) == -24
    assert g12.qexp.coeffs[1] == 1  # normalization: coeffs[1] * lambda = coeffs[p]
    assert hecke_eigenvalue(f20, 2) == f20.qexp.coeffs[2]
    with pytest.raises(UnsupportedInput, match="^1 is not prime"):
        hecke_eigenvalue(g12, 1)
    with pytest.raises(UnsupportedInput, match="p=211 exceeds q-expansion precision 200"):
        hecke_eigenvalue(g12, 211)


@pytest.mark.parametrize("weight", [12, 20])
def test_multiplicativity(weight):
    form = eigenform(weight)
    coeffs = form.qexp.coeffs
    primes = primes_up_to(100)
    for i, p in enumerate(primes):
        for q in primes[i + 1:]:
            if p * q <= form.qexp.precision:
                assert coeffs[p] * coeffs[q] == coeffs[p * q]


def test_eigenform_unsupported_weights(monkeypatch):
    from liftspin import qexp

    built = []
    real_eisenstein = qexp.eisenstein

    def counting_eisenstein(weight, precision):
        built.append(weight)
        return real_eisenstein(weight, precision)

    monkeypatch.setattr(qexp, "eisenstein", counting_eisenstein)
    one_dimensional = []
    for weight in range(4, 201, 2):
        d = dim_cusp_forms(weight)
        if d == 1:
            form = eigenform(weight, 60)
            assert form.weight == weight and form.qexp.precision == 60
            assert form.qexp.coeffs[:2] == (0, 1)
            one_dimensional.append(weight)
            continue
        built.clear()
        with pytest.raises(UnsupportedInput,
                           match=f"S_{weight} has dimension {d} and irrational Hecke eigenvalues"
                           if d else f"S_{weight} is zero-dimensional") as exc:
            eigenform(weight, 60)
        if d:
            assert f"dimension {d}" in str(exc.value) and str(SUPPORTED_WEIGHTS) in str(exc.value)
        # rejected weights fail before any series is built
        assert built == [], weight
    assert tuple(one_dimensional) == SUPPORTED_WEIGHTS
    with pytest.raises(UnsupportedInput, match="S_24 has dimension 2 and irrational"):
        eigenform(24, 60)


def test_all_supported_weights_are_normalized():
    for weight in (12, 16, 18, 22, 26):
        form = eigenform(weight, 30)
        assert form.qexp.coeffs[0] == 0 and form.qexp.coeffs[1] == 1


def test_eigenforms_match_eisenstein_delta_products():
    # every supported cusp space is one-dimensional and spanned by an
    # explicit E4^a E6^b delta product with leading coefficient 1; delta
    # comes from the eta product here, not from E4 and E6 as in the package
    combos = {12: (0, 0), 16: (1, 0), 18: (0, 1), 20: (2, 0), 22: (1, 1), 26: (2, 1)}
    prec = 200
    d = delta_eta_product(prec)
    e4 = eisenstein(4, prec)
    e6 = eisenstein(6, prec)
    for weight, (a4, b6) in combos.items():
        product = power(e4, a4) * power(e6, b6) * d
        form = eigenform(weight, prec)
        assert form.qexp.coeffs[:prec + 1] == product.coeffs[:prec + 1], weight
    # first eigenvalues that fall out of the products
    assert [eigenform(w, 10).qexp.coeffs[2] for w in (12, 16, 18, 20, 22, 26)] \
        == [-24, 216, -528, 456, -288, -48]


@pytest.mark.parametrize("precision", [1, 2, 3, 13, 200])
def test_eigenforms_match_the_eta_product_times_the_oracle_eisenstein_series(precision):
    # Delta from the eta product and E_(w-12) from the oracle's divisor sums,
    # multiplied term by term: no series of the package's own
    d = delta_eta_product(precision)
    assert pair(eigenform(12, precision).qexp) == pair(d)
    for weight in SUPPORTED_WEIGHTS[1:]:
        expected = schoolbook(d, eisenstein_series(weight - 12, precision))
        assert pair(eigenform(weight, precision).qexp) == (weight, tuple(expected)), weight


def test_eigenforms_cost_one_series_product_after_a_shared_delta(monkeypatch):
    from liftspin import qexp

    products, built = [], []
    real_mul, real_eisenstein = QExpansion.__mul__, qexp.eisenstein

    def counting_mul(a, b):
        products.append(a is b)
        return real_mul(a, b)

    def counting_eisenstein(weight, precision):
        built.append(weight)
        return real_eisenstein(weight, precision)

    monkeypatch.setattr(QExpansion, "__mul__", counting_mul)
    monkeypatch.setattr(qexp, "eisenstein", counting_eisenstein)
    # Delta is the eta cube squared three times, with no Eisenstein series
    qexp._delta.cache_clear()
    assert eigenform(12, 200).qexp.coeffs[:3] == (0, 1, -24)
    assert products == [True, True, True] and built == []
    # the three squarings build Delta once for both forms, then each form
    # costs one product with its E_(w-12)
    products.clear()
    qexp._delta.cache_clear()
    eigenform(26, 200)
    eigenform(16, 200)
    assert products == [True, True, True, False, False], products
    assert sorted(built) == [4, 14], built
    # each precision has its own Delta, and each series its own length
    for precision in (60, 200, 60):
        for weight in SUPPORTED_WEIGHTS:
            assert len(eigenform(weight, precision).qexp.coeffs) == precision + 1


@pytest.mark.parametrize("precision", [1, 2, 3, 13, 200, 2000])
def test_delta_matches_the_e4_e6_oracle(precision):
    # (E4^3 - E6^2)/1728 shares no series with the package's eta-cube route
    from liftspin import qexp

    assert pair(qexp._delta(precision)) == pair(delta(precision))


@pytest.mark.parametrize("precision", [1, 2, 50, 500])
def test_jacobi_cube_is_the_cubed_pentagonal_euler_product(precision):
    # Jacobi's identity, on which Delta rests, against the pentagonal
    # number theorem of the oracle
    from liftspin import qexp

    assert pair(qexp._eta_cube(precision)) == pair(power(pentagonal_euler(precision), 3))


def _plain_ints(series):
    return all(type(c) is int for c in series.coeffs)


def test_integral_expansions_hold_plain_ints():
    # a float or Fraction here means the integer path was left somewhere,
    # e.g. the division by 1728 done as a true division
    for series in (eisenstein(4, 200), eisenstein(6, 200), delta(200),
                   delta_eta_product(200)):
        assert _plain_ints(series)
    for weight in SUPPORTED_WEIGHTS:
        form = eigenform(weight, 200)
        assert _plain_ints(form.qexp), weight
        assert type(hecke_eigenvalue(form, 199)) is int
    # a non-integral Eisenstein factor (65520/691 at weight 12) is refused
    with pytest.raises(UnsupportedInput, match="integral weights .* only, got 12$"):
        eisenstein(12, 2)


def test_delta_oracles_independent_of_eisenstein_route():
    d = delta(200)
    assert pair(d) == pair(delta_eta_product(200))
    # Ramanujan's congruence tau(p) = 1 + p^11 (mod 691)
    tau = eigenform(12, 200).qexp.coeffs
    for p in primes_up_to(199):
        assert (tau[p] - 1 - p ** 11) % 691 == 0, p
        assert d.coeffs[p] == tau[p]


def test_deligne_bound_is_exact():
    # weight 3 at p = 2: |lambda| <= 2 * 2^1 = 4
    check_eigenvalue(4, 3, 2)
    check_eigenvalue(-4, 3, 2)
    with pytest.raises(UnsupportedInput,
                       match=r"lambda\(2\) = 4001/1000 violates Deligne's bound"):
        check_eigenvalue(Fraction(4001, 1000), 3, 2)
    # the largest integer inside 2 p^((w-1)/2) that keeps the congruence
    # mod N_26 = 657931, the next such integer and the integer square root
    # plus one: a float comparison cannot tell these apart, the exact one must
    bound_sq = 4 * 199 ** 25
    top = isqrt(bound_sq)
    top -= (top - 1 - 199 ** 25) % 657931
    check_eigenvalue(top, 26, 199)
    for lam in (top + 657931, isqrt(bound_sq) + 1):
        assert float(lam) == float(top)
        with pytest.raises(UnsupportedInput, match=rf"lambda\(199\) = {lam} violates Deligne's"):
            check_eigenvalue(lam, 26, 199)


def test_eigenvalue_must_be_an_integer(tmp_path):
    # tau(3) = 252; 505/2 lies inside Deligne's bound for weight 12 at p = 3
    # but is no level-one eigenvalue, and the table is refused (exit 3) where
    # it is read; an integer written as a quotient is one, read as an int
    assert Fraction(505, 2) ** 2 <= 4 * 3 ** 11
    path = tmp_path / "lam.txt"
    path.write_text("2 -24\n3 505/2\n")
    with pytest.raises(UnsupportedInput, match=r"lam.txt:2: lambda\(3\) = 505/2 is not an int"):
        load_eigenvalue_table(str(path))
    path.write_text("2 -24\n3 504/2\n")
    table = load_eigenvalue_table(str(path))
    assert table == {2: -24, 3: 252} and type(table[3]) is int
    check_eigenvalue(table[3], 12, 3)


def test_genuine_tables_satisfy_deligne_bound(tmp_path):
    primes = primes_up_to(199)
    for weight in SUPPORTED_WEIGHTS:
        coeffs = eigenform(weight, 200).qexp.coeffs
        path = tmp_path / f"w{weight}.txt"
        path.write_text("".join(f"{p} {coeffs[p]}\n" for p in primes))
        form = eigenform(weight, table=str(path))
        for p in primes:
            check_eigenvalue(hecke_eigenvalue(form, p), weight, p)


def test_numeric_satake_examples():
    i, minus_i = numeric_satake(0, 12, 5)
    assert i == pytest.approx(1j)
    assert minus_i == pytest.approx(-1j)

    # near the double root: lam ~ 2 p^((w-1)/2)
    lam = Fraction(2 * 2 ** 5) * Fraction(2 ** 0.5)
    a1, a2 = numeric_satake(lam, 12, 2)
    assert a1 == pytest.approx(1.0, abs=1e-6)
    assert a2 == pytest.approx(1.0, abs=1e-6)

    alpha, alpha_inv = numeric_satake(-24, 12, 2)
    assert alpha * alpha_inv == pytest.approx(1.0, abs=1e-15)
    assert (alpha + alpha_inv).real == pytest.approx(-24 * 2 ** -5.5, abs=1e-12)
    assert (alpha + alpha_inv).imag == pytest.approx(0.0, abs=1e-12)
    # deterministic branch: nonnegative imaginary part first
    assert alpha.imag >= 0

    with pytest.raises(UnsupportedInput, match="^6 is not prime"):
        numeric_satake(1, 12, 6)


@pytest.mark.parametrize("lam", [10 ** 9, -10 ** 9, 10 ** 12, -10 ** 12])
def test_numeric_satake_far_outside_the_bound(lam):
    # the root of larger size comes first in the arithmetic, so the other
    # one does not cancel to zero (or to 1/0) below -2
    first, second = numeric_satake(lam, 12, 2)
    normalized = lam / 2 ** 5 / 2 ** 0.5
    assert abs(first * second - 1) <= 1e-12
    assert abs(first + second - normalized) <= 1e-12 * abs(normalized)


def test_eigenvalue_table_round_trip(tmp_path):
    path = tmp_path / "lam.txt"
    path.write_text("# weight 12\n2 -24\n3 252\n5 4830/1\n\n")
    table = load_eigenvalue_table(str(path))
    assert table == {2: -24, 3: 252, 5: 4830}
    assert all(type(lam) is int for lam in table.values())

    form = eigenform(12, table=str(path))
    assert hecke_eigenvalue(form, 3) == 252
    with pytest.raises(UnsupportedInput, match="eigenvalue table has no entry for p=7"):
        hecke_eigenvalue(form, 7)
    # a table's keys are prime, so only a miss is tested: 4 still is refused
    with pytest.raises(UnsupportedInput, match="^4 is not prime"):
        hecke_eigenvalue(form, 4)

    bad = tmp_path / "bad.txt"
    bad.write_text("4 10\n")
    with pytest.raises(UnsupportedInput, match="bad.txt:1: 4 is not prime"):
        load_eigenvalue_table(str(bad))
    bad.write_text("2 1 2\n")
    with pytest.raises(ValueError):
        load_eigenvalue_table(str(bad))


def test_a_table_form_is_checked_as_a_computed_one_is(tmp_path):
    # the weight first, before the file is opened
    missing = str(tmp_path / "missing.txt")
    with pytest.raises(UnsupportedInput, match="S_14 is zero-dimensional"):
        eigenform(14, table=missing)
    with pytest.raises(UnsupportedInput, match="S_24 has dimension 2 and irrational"):
        eigenform(24, table=missing)
    # then each value where hecke_eigenvalue reads it: 5 breaks the
    # congruence mod 691 at p = 2 and 10^6 Deligne's bound at p = 3, while
    # the entry for p = 5 still reads
    path = tmp_path / "lam.txt"
    path.write_text("2 5\n3 1000000\n5 4830\n")
    form = eigenform(12, table=str(path))
    assert hecke_eigenvalue(form, 5) == 4830
    with pytest.raises(UnsupportedInput, match=r"lambda\(2\) = 5 is not 1 \+ 2\^11 mod 691"):
        hecke_eigenvalue(form, 2)
    with pytest.raises(UnsupportedInput, match=r"lambda\(3\) = 1000000 violates Deligne's"):
        hecke_eigenvalue(form, 3)


def test_eigenvalue_table_prime_cap(tmp_path):
    path = tmp_path / "lam.txt"
    path.write_text("999983 1\n")  # the largest prime below the cap loads
    assert load_eigenvalue_table(str(path)) == {999983: 1}
    path.write_text(f"{MAX_PRIMES_UP_TO} 1\n")  # at the cap: primality decides
    with pytest.raises(UnsupportedInput, match=f"lam.txt:1: {MAX_PRIMES_UP_TO} is not prime"):
        load_eigenvalue_table(str(path))
    for p in (MAX_PRIMES_UP_TO + 1, 100000000000000000039):
        # rejected before trial division, which would run for minutes on the latter
        path.write_text(f"2 -24\n{p} 5\n")
        with pytest.raises(UnsupportedInput, match=f"lam.txt:2: prime {p} exceeds the cap"):
            load_eigenvalue_table(str(path))


def test_eigenvalue_table_duplicate_prime(tmp_path):
    path = tmp_path / "lam.txt"
    path.write_text("2 -24\n3 252\n2 456\n")
    with pytest.raises(ValueError, match="lam.txt:3: duplicate prime 2") as exc:
        load_eigenvalue_table(str(path))
    assert not isinstance(exc.value, UnsupportedInput)


@pytest.mark.parametrize("value", ["0.5", "1e3", "1e10000000", "1/0", "-7/0", "1/-2",
                                   "2/", "/2", "1_000", "0x10", "nan", "1" * 5000])
def test_eigenvalue_table_value_is_strict(tmp_path, value):
    # decimal integers or quotients of them only: no floats, exponents (which
    # Fraction would expand digit by digit), zero denominators or digit limits
    path = tmp_path / "lam.txt"
    path.write_text(f"2 -24\n3 {value}\n")
    with pytest.raises(ValueError, match="lam.txt:2: ") as exc:
        load_eigenvalue_table(str(path))
    assert not isinstance(exc.value, UnsupportedInput)


@pytest.mark.parametrize("prime", ["1_9", "\u0661\u0669", "\uff11\uff19"])
def test_eigenvalue_table_prime_is_strict(tmp_path, prime):
    # ASCII decimal digits with an optional sign, as for values: int() alone
    # reads each of these (underscore, Arabic-Indic, fullwidth) as 19
    path = tmp_path / "lam.txt"
    path.write_text(f"2 -24\n{prime} 5\n", encoding="utf-8")
    with pytest.raises(ValueError, match="lam.txt:2: ") as exc:
        load_eigenvalue_table(str(path))
    assert not isinstance(exc.value, UnsupportedInput)


def test_eigenvalue_table_prime_sign(tmp_path):
    path = tmp_path / "lam.txt"
    path.write_text("+19 5\n")
    assert load_eigenvalue_table(str(path)) == {19: 5}
    path.write_text("-19 5\n")
    with pytest.raises(UnsupportedInput, match="lam.txt:1: -19 is not prime"):
        load_eigenvalue_table(str(path))


def test_eigenvalue_table_value_forms(tmp_path):
    path = tmp_path / "lam.txt"
    path.write_text("2 +24\n3 -252/1\n5 10/4\n")
    with pytest.raises(UnsupportedInput, match=r"lam.txt:3: lambda\(5\) = 10/4 is not"):
        load_eigenvalue_table(str(path))
    path.write_text("2 +24\n3 -252/1\n5 504/2\n")
    assert load_eigenvalue_table(str(path)) == {2: 24, 3: -252, 5: 252}
    path.write_text("2.0 -24\n")
    with pytest.raises(ValueError, match="lam.txt:1: "):
        load_eigenvalue_table(str(path))


_KRONECKER_CASES = {
    "zero times a 10^12 coefficient": ([0, 0, 0], [10 ** 12, -(10 ** 12), 1]),
    "a 10^12 coefficient times zero": ([10 ** 12, 3, -(10 ** 12)], [0, 0, 0]),
    "length one": ([-7], [11]),
    "length one against a longer series": ([5], [2, 3, 4]),
    "all negative": ([-1, -2, -3, -4, -5], [-9, -8, -7, -6, -5]),
    "near 10^40": ([10 ** 40, -(10 ** 40) + 1, 10 ** 40 - 1], [-(10 ** 40), 10 ** 40, 7]),
    "past 64 bits": ([2 ** 63 - 1] * 6, [-(2 ** 63)] * 6),
    "one slot bound by an input alone": ([0], [32768]),
}


@pytest.mark.parametrize("case", _KRONECKER_CASES)
def test_packed_product_edge_cases(case):
    a, b = (QExpansion(4, coeffs) for coeffs in _KRONECKER_CASES[case])
    expected = schoolbook(a, b)
    assert list((a * b).coeffs) == expected
    assert list((b * a).coeffs) == expected
    assert (a * b).weight == 8
    if case == "past 64 bits":
        assert max(abs(c) for c in expected).bit_length() > 64


def test_powers_and_squares():
    x = QExpansion(6, [1, -7, 3, -(10 ** 30)])
    assert pair(power(x, 0)) == (0, (1, 0, 0, 0))
    assert pair(power(x, 1)) == pair(x)
    assert list((x * x).coeffs) == schoolbook(x, x)
    assert pair(power(x, 5)) == pair(x * x * x * x * x)
    assert power(x, 5).weight == 30
    with pytest.raises(ValueError):
        power(x, -1)
    with pytest.raises(TypeError):
        x ** 2


@pytest.mark.parametrize("coeff", [Fraction(1, 2), Fraction(6, 3), 0.5, True])
def test_qexpansion_holds_only_ints(coeff):
    # an integral Fraction and a bool are refused too, not converted
    with pytest.raises(TypeError, match="must be ints"):
        QExpansion(12, [1, coeff])


def test_qexpansion_has_no_scalar_arithmetic():
    x = QExpansion(12, [1, 2])
    for scalar in (2, Fraction(1, 2), 2.0):
        with pytest.raises(TypeError):
            x * scalar
        with pytest.raises(TypeError):
            scalar * x
        with pytest.raises(TypeError):
            x / scalar

