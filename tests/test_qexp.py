from fractions import Fraction
from math import isqrt

import pytest

from liftspin.errors import (
    DeligneBoundViolation,
    EmptySpace,
    InputTooLarge,
    InsufficientPrecision,
    IrrationalEigenspace,
    NonPrime,
    UnsupportedWeight,
)
from liftspin.qexp import (
    MAX_PRIMES_UP_TO,
    SUPPORTED_WEIGHTS,
    EigenformData,
    QExpansion,
    bernoulli,
    check_deligne_bound,
    delta,
    delta_eta_product,
    dim_cusp_forms,
    eigenform,
    eigenforms,
    eisenstein,
    hecke_eigenvalue,
    hecke_operator,
    is_prime,
    load_eigenvalue_table,
    numeric_satake,
    primes_up_to,
    victor_miller_basis,
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
    for weight in range(4, 28, 2):
        assert eisenstein(weight, 3).coeffs[0] == 1


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
    vm12 = victor_miller_basis(12, 40)
    assert len(vm12) == 1
    assert vm12[0].coeffs == delta(40).coeffs

    vm20 = victor_miller_basis(20, 10)
    assert len(vm20) == 1 and vm20[0].coeffs[1] == 1

    vm24 = victor_miller_basis(24, 10)
    assert len(vm24) == 2
    for i, form in enumerate(vm24, start=1):
        assert [form.coeffs[j] for j in (1, 2)] == [1 if j == i else 0 for j in (1, 2)]

    with pytest.raises(EmptySpace):
        victor_miller_basis(4, 10)
    with pytest.raises(UnsupportedWeight):
        victor_miller_basis(11, 10)


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


def test_eigenform_unsupported_weights():
    with pytest.raises(IrrationalEigenspace):
        eigenforms(24, 60)
    with pytest.raises(EmptySpace):
        eigenform(8)
    with pytest.raises(UnsupportedWeight):
        eigenform(24, 60)


def test_all_supported_weights_are_normalized():
    for weight in (12, 16, 18, 22, 26):
        form = eigenform(weight, 30)
        assert form.qexp.coeffs[0] == 0 and form.qexp.coeffs[1] == 1


def test_eigenforms_match_eisenstein_delta_products():
    # every supported cusp space is one-dimensional and spanned by an
    # explicit E4^a E6^b delta product with leading coefficient 1, so the
    # echelon construction must reproduce it term by term
    combos = {12: (0, 0), 16: (1, 0), 18: (0, 1), 20: (2, 0), 22: (1, 1), 26: (2, 1)}
    prec = 200
    d = delta(prec)
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
    # e.g. a pivot inverse computed as 1 / int
    for series in (eisenstein(4, 200), eisenstein(6, 200), delta(200),
                   delta_eta_product(200)):
        assert _plain_ints(series)
    for weight in (12, 16, 24, 26, 36):
        assert all(_plain_ints(form) for form in victor_miller_basis(weight, 200))
    for weight in SUPPORTED_WEIGHTS:
        form = eigenform(weight, 200)
        assert _plain_ints(form.qexp), weight
        assert type(hecke_eigenvalue(form, 199)) is int
    # a non-integral Eisenstein factor keeps its exact Fraction
    assert eisenstein(12, 2).coeffs[1] == Fraction(65520, 691)


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
    check_deligne_bound(4, 3, 2)
    check_deligne_bound(-4, 3, 2)
    with pytest.raises(DeligneBoundViolation):
        check_deligne_bound(Fraction(4001, 1000), 3, 2)
    # one past the integer square root of 4 p^(w-1): a float comparison
    # cannot tell these two apart, the exact one must
    bound_sq = 4 * 199 ** 25
    check_deligne_bound(isqrt(bound_sq), 26, 199)
    with pytest.raises(DeligneBoundViolation):
        check_deligne_bound(isqrt(bound_sq) + 1, 26, 199)


def test_genuine_tables_satisfy_deligne_bound(tmp_path):
    primes = primes_up_to(199)
    for weight in SUPPORTED_WEIGHTS:
        coeffs = eigenform(weight, 200).qexp.coeffs
        path = tmp_path / f"w{weight}.txt"
        path.write_text("".join(f"{p} {coeffs[p]}\n" for p in primes))
        form = EigenformData.from_eigenvalue_table(weight, load_eigenvalue_table(str(path)))
        for p in primes:
            check_deligne_bound(hecke_eigenvalue(form, p), weight, p)


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


def test_rational_split_machinery():
    # the generic path (never taken at level one, where no space of
    # dimension >= 2 splits rationally) checked on synthetic matrices
    from liftspin.qexp import _charpoly, _left_kernel_vector, _rational_roots

    m = [[Fraction(2), Fraction(1)], [Fraction(0), Fraction(3)]]
    assert _charpoly(m) == [Fraction(6), Fraction(-5), Fraction(1)]
    assert _rational_roots(_charpoly(m)) == [Fraction(2), Fraction(3)]
    x = _left_kernel_vector(m, Fraction(2))
    assert [sum(x[i] * (m[i][j] - (2 if i == j else 0)) for i in range(2))
            for j in range(2)] == [0, 0]

    m3 = [[Fraction(1), Fraction(2), Fraction(0)],
          [Fraction(0), Fraction(4), Fraction(0)],
          [Fraction(1), Fraction(0), Fraction(-2)]]
    assert _charpoly(m3) == [Fraction(8), Fraction(-6), Fraction(-3), Fraction(1)]
    assert sorted(_rational_roots(_charpoly(m3))) == [-2, 1, 4]

    with pytest.raises(IrrationalEigenspace):
        _rational_roots([Fraction(-2), Fraction(0), Fraction(1)])  # x^2 - 2

    def left_kernel_ok(mat, lam, x):
        d = len(mat)
        return all(type(v) in (int, Fraction) for v in x) and any(x) and \
            [sum(x[i] * (mat[i][j] - (lam if i == j else 0)) for i in range(d))
             for j in range(d)] == [0] * d

    # the same machinery on plain int matrices
    assert _charpoly([[2, 1], [0, 3]]) == [6, -5, 1]
    assert _rational_roots(_charpoly([[2, 1], [0, 3]])) == [2, 3]
    assert _charpoly([[1, 2, 0], [0, 4, 0], [1, 0, -2]]) == [8, -6, -3, 1]
    # non-unit pivots: the inverse must stay exact
    m = [[4, 1], [2, 3]]
    assert sorted(_rational_roots(_charpoly(m))) == [2, 5]
    for lam in (2, 5):
        assert left_kernel_ok(m, lam, _left_kernel_vector(m, lam))
    # a pivot of 3 next to a 30-digit entry: 1/3 as a float would make
    # x^T (M - lam I) miss zero
    big = 10 ** 30 + 7
    m = [[big, 3], [0, 7]]
    x = _left_kernel_vector(m, big)
    assert x == [Fraction(big - 7, 3), 1] and left_kernel_ok(m, big, x)


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

def test_qexpansion_guards():
    x = QExpansion(12, [0, 1, 2])
    with pytest.raises(InsufficientPrecision):
        x[3]
    with pytest.raises(ValueError):
        x + QExpansion(10, [1, 1, 1])


def test_qexpansion_normalizes_to_int():
    two = QExpansion(12, [Fraction(6, 3)])
    assert two == QExpansion(12, [2])
    assert hash(two) == hash(QExpansion(12, [2]))
    assert type(two.coeffs[0]) is int
    assert type(QExpansion(12, [Fraction(1, 2)]).coeffs[0]) is Fraction
    with pytest.raises(TypeError):
        QExpansion(12, [0.5])

