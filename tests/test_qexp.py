from fractions import Fraction
from functools import reduce
from math import isqrt
from operator import mul

import pytest

from liftspin.errors import (
    DeligneBoundViolation,
    EmptySpace,
    InputTooLarge,
    InsufficientPrecision,
    IrrationalEigenspace,
    NonIntegralEigenvalue,
    NonPrime,
    UnsupportedInput,
    UnsupportedWeight,
)
from liftspin.qexp import (
    MAX_PRECISION,
    MAX_PRIMES_UP_TO,
    SUPPORTED_WEIGHTS,
    EigenformData,
    QExpansion,
    bernoulli,
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
    delta,
    delta_eta_product,
    hecke_operator,
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
    # -2k/B_k is an integer at these weights only; the series stay integral
    for weight in range(4, 28, 2):
        if weight in (4, 6, 8, 10, 14):
            assert eisenstein(weight, 3).coeffs[0] == 1
        else:
            with pytest.raises(UnsupportedWeight, match="non-integral"):
                eisenstein(weight, 3)


@pytest.mark.parametrize("weight, factors", [(8, (4, 4)), (10, (4, 6)), (14, (4, 4, 6))])
def test_integral_eisenstein_series_are_products_of_e4_and_e6(weight, factors):
    # M_8, M_10 and M_14 are one-dimensional, so E8 = E4^2, E10 = E4 E6
    # and E14 = E4^2 E6; the divisor sums on the left, packed products on the right
    product = reduce(mul, [eisenstein(w, 200) for w in factors])
    assert eisenstein(weight, 200) == product


def test_eisenstein_rejects_bad_weight():
    with pytest.raises(UnsupportedWeight):
        eisenstein(2, 5)
    with pytest.raises(UnsupportedWeight):
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
    with pytest.raises(EmptySpace):
        eigenform(4, 10)
    with pytest.raises(EmptySpace):
        eigenform(11, 10)


@pytest.mark.parametrize("weight", [12, 16, 18, 20, 22, 26])
@pytest.mark.parametrize("precision", [10, 200])
def test_eigenforms_match_full_row_echelon(weight, precision):
    assert eigenform(weight, precision).qexp == victor_miller_full_rows(weight, precision)[0]


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
    assert 2 in f20.eigenvalues  # cached
    with pytest.raises(NonPrime):
        hecke_eigenvalue(g12, 1)
    with pytest.raises(InsufficientPrecision):
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
        with pytest.raises(IrrationalEigenspace if d else EmptySpace) as exc:
            eigenform(weight, 60)
        if d:
            assert f"dimension {d}" in str(exc.value) and str(SUPPORTED_WEIGHTS) in str(exc.value)
        # rejected weights fail before any series is built
        assert built == [], weight
    assert tuple(one_dimensional) == SUPPORTED_WEIGHTS
    with pytest.raises(UnsupportedWeight):
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
        product = (e4 ** a4) * (e6 ** b6) * d
        form = eigenform(weight, prec)
        assert form.qexp.coeffs[:prec + 1] == product.coeffs[:prec + 1], weight
    # first eigenvalues that fall out of the products
    assert [eigenform(w, 10).qexp.coeffs[2] for w in (12, 16, 18, 20, 22, 26)] \
        == [-24, 216, -528, 456, -288, -48]


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
    with pytest.raises(UnsupportedWeight):
        eisenstein(12, 2)


def test_delta_oracles_independent_of_eisenstein_route():
    d = delta(200)
    assert d == delta_eta_product(200)
    # Ramanujan's congruence tau(p) = 1 + p^11 (mod 691)
    tau = eigenform(12, 200).qexp.coeffs
    for p in primes_up_to(199):
        assert (tau[p] - 1 - p ** 11) % 691 == 0, p
        assert d.coeffs[p] == tau[p]


def test_deligne_bound_is_exact():
    # weight 3 at p = 2: |lambda| <= 2 * 2^1 = 4
    check_eigenvalue(4, 3, 2)
    check_eigenvalue(-4, 3, 2)
    with pytest.raises(DeligneBoundViolation):
        check_eigenvalue(Fraction(4001, 1000), 3, 2)
    # one past the integer square root of 4 p^(w-1): a float comparison
    # cannot tell these two apart, the exact one must
    bound_sq = 4 * 199 ** 25
    check_eigenvalue(isqrt(bound_sq), 26, 199)
    with pytest.raises(DeligneBoundViolation):
        check_eigenvalue(isqrt(bound_sq) + 1, 26, 199)


def test_eigenvalue_must_be_an_integer():
    # tau(3) = 252; 505/2 lies inside Deligne's bound for weight 12 at p = 3
    # but is no level-one eigenvalue; an integer written as a quotient is one
    assert Fraction(505, 2) ** 2 <= 4 * 3 ** 11
    with pytest.raises(NonIntegralEigenvalue, match=r"lambda\(3\) = 505/2"):
        check_eigenvalue(Fraction(505, 2), 12, 3)
    check_eigenvalue(Fraction(504, 2), 12, 3)
    check_eigenvalue(252, 12, 3)


def test_genuine_tables_satisfy_deligne_bound(tmp_path):
    primes = primes_up_to(199)
    for weight in SUPPORTED_WEIGHTS:
        coeffs = eigenform(weight, 200).qexp.coeffs
        path = tmp_path / f"w{weight}.txt"
        path.write_text("".join(f"{p} {coeffs[p]}\n" for p in primes))
        form = EigenformData.from_eigenvalue_table(weight, load_eigenvalue_table(str(path)))
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

    with pytest.raises(NonPrime):
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
    assert table == {2: Fraction(-24), 3: Fraction(252), 5: Fraction(4830)}

    form = EigenformData.from_eigenvalue_table(12, table)
    assert hecke_eigenvalue(form, 3) == 252
    with pytest.raises(InsufficientPrecision):
        hecke_eigenvalue(form, 7)

    bad = tmp_path / "bad.txt"
    bad.write_text("4 10\n")
    with pytest.raises(NonPrime):
        load_eigenvalue_table(str(bad))
    bad.write_text("2 1 2\n")
    with pytest.raises(ValueError):
        load_eigenvalue_table(str(bad))



def test_eigenvalue_table_prime_cap(tmp_path):
    path = tmp_path / "lam.txt"
    path.write_text("999983 1\n")  # the largest prime below the cap loads
    assert load_eigenvalue_table(str(path)) == {999983: 1}
    path.write_text(f"{MAX_PRIMES_UP_TO} 1\n")  # at the cap: primality decides
    with pytest.raises(NonPrime):
        load_eigenvalue_table(str(path))
    for p in (MAX_PRIMES_UP_TO + 1, 100000000000000000039):
        # rejected before trial division, which would run for minutes on the latter
        path.write_text(f"2 -24\n{p} 5\n")
        with pytest.raises(InputTooLarge, match=f"lam.txt:2: prime {p} exceeds the cap"):
            load_eigenvalue_table(str(path))


def test_eigenvalue_table_duplicate_prime(tmp_path):
    path = tmp_path / "lam.txt"
    path.write_text("2 -24\n3 252\n2 456\n")
    with pytest.raises(ValueError, match="lam.txt:3: duplicate prime 2") as exc:
        load_eigenvalue_table(str(path))
    assert not isinstance(exc.value, NonPrime)


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
    with pytest.raises(NonPrime, match="lam.txt:1: -19 is not prime"):
        load_eigenvalue_table(str(path))


def test_eigenvalue_table_value_forms(tmp_path):
    path = tmp_path / "lam.txt"
    path.write_text("2 +24\n3 -252/1\n5 10/4\n")
    assert load_eigenvalue_table(str(path)) == {2: 24, 3: -252, 5: Fraction(5, 2)}
    path.write_text("2.0 -24\n")
    with pytest.raises(ValueError, match="lam.txt:1: "):
        load_eigenvalue_table(str(path))

def test_qexpansion_guards():
    x = QExpansion(12, [0, 1, 2])
    with pytest.raises(ValueError):
        x - QExpansion(10, [1, 1, 1])


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
    assert x ** 0 == QExpansion(0, [1, 0, 0, 0])
    assert x ** 1 == x
    assert list((x * x).coeffs) == schoolbook(x, x)
    assert x ** 5 == x * x * x * x * x
    assert (x ** 5).weight == 30
    with pytest.raises(ValueError):
        x ** -1


@pytest.mark.parametrize("coeff", [Fraction(1, 2), Fraction(6, 3), 0.5, True])
def test_qexpansion_holds_only_ints(coeff):
    # an integral Fraction and a bool are refused too, not converted
    with pytest.raises(TypeError, match="must be ints"):
        QExpansion(12, [1, coeff])


def test_qexpansion_has_no_scalar_arithmetic():
    x = QExpansion(12, [1, 2])
    assert x == QExpansion(12, [1, 2]) and hash(x) == hash(QExpansion(12, [1, 2]))
    for scalar in (2, Fraction(1, 2), 2.0):
        with pytest.raises(TypeError):
            x * scalar
        with pytest.raises(TypeError):
            scalar * x
        with pytest.raises(TypeError):
            x / scalar

