"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines;
every stated runtime bound is asserted, not just observed.
"""

import random
import time
from contextlib import contextmanager

from liftspin.beta import (
    alpha_count,
    alpha_count_bruteforce,
    beta_value,
    degree_audit_ikeda,
    degree_audit_miyawaki,
)
from liftspin.identities import (
    DEG7_EPS,
    DEG7_EPS_PRIME,
    verify,
)
from liftspin.laurent import LaurentPoly
from liftspin.qexp import delta, delta_eta_product, eigenform, primes_up_to
from liftspin.satake import (
    SatakeParams,
    ikeda_satake,
    miyawaki_satake,
    weyl_permute,
    weyl_sigma,
)
from liftspin.euler import spinor_factor, standard_factor


@contextmanager
def criterion(num, label):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} [{label}]: FAIL")
        raise
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {num} [{label}]: PASS ({elapsed:.2f}s)")


def test_criterion_1_main_theorem_symbolic_grid():
    with criterion(1, "symbolic main identity, n=2..6, k=4,10,16, exact"):
        started = time.monotonic()
        for n in range(2, 7):
            assert spinor_factor(miyawaki_satake(n, 4)).degree == 2 ** (2 * n - 1)
            for k in (4, 10, 16):
                report = verify("main_theorem", n, k)
                assert report.passed, (n, k, report.witness)
        assert time.monotonic() - started < 60


def test_criterion_2_ikeda_spinor_factorization():
    with criterion(2, "symbolic genus-2n spinor factorization, n=1..4, k=4,10"):
        started = time.monotonic()
        for n in range(1, 5):
            for k in (4, 10):
                report = verify("ikeda_spinor", n, k)
                assert report.passed, (n, k, report.witness)
        assert time.monotonic() - started < 30


def test_criterion_3_standard_identities():
    with criterion(3, "symbolic standard-L identities"):
        started = time.monotonic()
        for k in (4, 10, 16):
            for n in range(1, 7):
                assert verify("ikeda_standard", n, k).passed, (n, k)
            for n in range(2, 7):
                assert verify("miyawaki_standard", n, k).passed, (n, k)
        assert time.monotonic() - started < 5


def test_criterion_4_c1_frobenius_consistency():
    with criterion(4, "C1 eigenvalue equals mu0 prod(1+mu_i), n=2..6"):
        for n in range(2, 7):
            for k in (4, 10, 16):
                assert verify("c1_frobenius", n, k).passed, (n, k)


def test_criterion_5_degree_examples_and_epsilons():
    with criterion(5, "degree-3/5/7 regrouping and expected epsilon lists"):
        for n, k in [(2, 10), (3, 10), (4, 10), (2, 4), (3, 4), (4, 4)]:
            assert verify(f"example_deg{2 * n - 1}", n, k).passed, (n, k)
        assert verify("beta_epsilon_match", 4, None).passed
        # the expected exponent lists, verbatim
        assert DEG7_EPS == {-3: 1, -2: 1, -1: 2, 0: 2, 1: 2, 2: 2, 3: 2, 4: 1, 5: 1}
        assert DEG7_EPS_PRIME == {-3: 1, -2: 1, -1: 1, 0: 2, 1: 2, 2: 2, 3: 2,
                                  4: 1, 5: 1, 6: 1}
        for i, expected in DEG7_EPS.items():
            assert beta_value(2 * (i - 1), 2, 3) == expected
        for i, expected in DEG7_EPS_PRIME.items():
            assert beta_value(2 * i - 3, 3, 3) == expected


def test_criterion_6_combinatorics_property_suite():
    with criterion(6, "beta symmetry, parity, nonnegativity, degree audits, DP=brute"):
        for n in range(1, 7):
            for m in range(0, 2 * n + 1):
                bound = m * (2 * n - m)
                for r in range(-bound, bound + 1):
                    a = alpha_count(r, m, n)
                    assert a == alpha_count(-r, m, n)
                    if (r - m) % 2:
                        assert a == 0
                    if m <= n:
                        assert beta_value(r, m, n) >= 0
            assert degree_audit_ikeda(n)
            if n >= 2:
                assert degree_audit_miyawaki(n)
        for n in range(1, 5):
            for m in range(0, 2 * n + 1):
                bound = m * (2 * n - m)
                for r in range(-bound - 1, bound + 2):
                    assert alpha_count(r, m, n) == alpha_count_bruteforce(r, m, n)


def test_criterion_7_numeric_instantiation():
    with criterion(7, "numeric (n,k)=(2,10), f weight 20, g weight 12, p<=199"):
        started = time.monotonic()
        f = eigenform(20)
        g = eigenform(12)
        for p in primes_up_to(199):
            report = verify("main_theorem", 2, 10, mode="numeric", prime=p, f=f, g=g)
            assert report.passed, (p, report.witness)
        assert time.monotonic() - started < 10


def test_criterion_8_eigenform_oracle_cross_check():
    with criterion(8, "delta dual construction and Hecke multiplicativity"):
        assert delta(200).coeffs == delta_eta_product(200).coeffs
        for weight in (12, 20):
            coeffs = eigenform(weight, 200).qexp.coeffs
            primes = primes_up_to(200)
            for i, p in enumerate(primes):
                for q in primes[i + 1:]:
                    if p * q <= 200:
                        assert coeffs[p] * coeffs[q] == coeffs[p * q], (weight, p, q)


def test_criterion_9_weyl_invariance_100_random_elements():
    with criterion(9, "spinor/standard invariance under 100 random Weyl words"):
        rng = random.Random(20260809)
        pools = {
            "ikeda": [ikeda_satake(n, 10) for n in (1, 2, 3, 4)],
            "miyawaki": [miyawaki_satake(n, 10) for n in (2, 3, 4)],
        }
        for pool in pools.values():
            for _ in range(100):
                params = rng.choice(pool)
                spin0 = spinor_factor(params).root_multiset()
                st0 = standard_factor(params).root_multiset()
                current = params
                for _ in range(rng.randint(1, 8)):
                    if rng.random() < 0.5:
                        current = weyl_sigma(current, rng.randint(1, params.genus))
                    elif rng.random() < 0.5:
                        i, j = rng.sample(range(1, params.genus + 1), 2) \
                            if params.genus > 1 else (1, 1)
                        perm = list(range(1, params.genus + 1))
                        perm[i - 1], perm[j - 1] = perm[j - 1], perm[i - 1]
                        current = weyl_permute(current, perm)
                    else:
                        perm = list(range(1, params.genus + 1))
                        rng.shuffle(perm)
                        current = weyl_permute(current, perm)
                assert spinor_factor(current).root_multiset() == spin0
                assert standard_factor(current).root_multiset() == st0
                # the factors stay term-identical after expansion too
                if params.genus <= 3:
                    assert spinor_factor(current).coefficients() \
                        == spinor_factor(params).coefficients()


def _perturbed_params(params, index, delta):
    if index == 0:
        mu0 = params.mu0 * LaurentPoly.monomial(e_q=delta)
        return SatakeParams(params.genus, mu0, params.mus,
                            params.similitude_exponent)
    mus = list(params.mus)
    mus[index - 1] = mus[index - 1] * LaurentPoly.monomial(e_q=delta)
    return SatakeParams(params.genus, params.mu0, tuple(mus),
                        params.similitude_exponent)


def test_criterion_10_negative_controls():
    with criterion(10, "every single-entry perturbation is detected with a witness"):
        from liftspin.beta import beta_value as beta0

        def bumped(r0, m0, delta):
            return lambda r, m, n: beta0(r, m, n) + (delta if (r, m) == (r0, m0) else 0)

        # beta perturbations over the full enumerated grid, both signs
        for n in (2, 3, 4):
            for m in range(1, n):
                bound = m * (2 * n - m - 2)
                for r in range(-bound, bound + 1, 2):
                    for delta in (+1, -1):
                        report = verify("main_theorem", n, 10, beta_fn=bumped(r, m, delta))
                        assert not report.passed, (n, m, r, delta)
                        assert report.witness is not None
        # one ikeda-side beta bump as well
        report = verify("ikeda_spinor", 2, 10, beta_fn=bumped(0, 2, +1))
        assert not report.passed and report.witness["t_degree"] == 1

        # Satake exponent perturbations: every slot of mu0..mu_genus, both signs
        for n in (2, 3):
            params = miyawaki_satake(n, 10)
            for index in range(0, params.genus + 1):
                for delta in (+1, -1):
                    report = verify("main_theorem", 
                        n, 10, lhs_params=_perturbed_params(params, index, delta))
                    assert not report.passed, (n, index, delta)
                    assert report.witness["t_degree"] == 1
        ik = ikeda_satake(2, 10)
        report = verify("ikeda_spinor", 2, 10, lhs_params=_perturbed_params(ik, 1, +1))
        assert not report.passed and report.witness is not None

        # shift perturbations on every factor of the product side, both signs
        for n in (2, 3):
            for m in range(1, n):
                bound = m * (2 * n - m - 2)
                for r in range(-bound, bound + 1, 2):
                    for delta in (+1, -1):
                        report = verify("main_theorem", n, 10,
                                                     shift_bump=((m, r), delta))
                        assert not report.passed, (n, m, r, delta)
                        assert report.witness["t_degree"] == 1
