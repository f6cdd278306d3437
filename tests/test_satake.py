import random

import pytest

from liftspin.identities import negative_control_hooks
from liftspin.satake import (
    SatakeParams,
    elliptic_satake,
    ikeda_satake,
    miyawaki_satake,
    mono_inv,
    mono_mul,
)
from oracles import (
    LaurentPoly,
    archimedean_exponents,
    lift_weight_holds,
    miyawaki_inverse_mu_check,
    similitude_exponent,
    similitude_holds,
    weyl_permute,
    weyl_sigma,
)


def mono(e_a=0, e_b=0, e_q=0):
    return (e_a, e_b, e_q)


def test_ikeda_n1_parameters():
    p = ikeda_satake(1, 3)
    assert p.genus == 2
    assert p.mu0 == mono(e_a=-1, e_q=5)
    assert p.mus == (mono(e_a=1, e_q=-1), mono(e_a=1, e_q=1))
    assert similitude_holds(p, similitude_exponent(2, 3, 1))


def test_ikeda_similitude_exponent():
    p = ikeda_satake(2, 10)
    assert similitude_exponent(p.genus, 10, 2) == 76  # 2 (4*12 - 10)
    assert similitude_holds(p, 76)
    # q-exponents of the mus are symmetric around zero
    product = mono()
    for mu in p.mus:
        product = mono_mul(product, mu)
    assert product == mono(e_a=4)


def test_miyawaki_n2_parameters():
    k = 10
    p = miyawaki_satake(2, k)
    assert p.genus == 3
    assert p.mu0 == mono(e_a=-1, e_b=-1, e_q=3 * k)
    assert p.mus == (mono(e_a=1, e_q=-1), mono(e_a=1, e_q=1), mono(e_b=2))


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("k", [4, 10, 16])
def test_miyawaki_similitude(n, k):
    p = miyawaki_satake(n, k)
    assert similitude_holds(p, similitude_exponent(2 * n - 1, k, n))
    # mu0^2 in closed form
    expected = mono(e_a=-2 * (n - 1), e_b=-2,
                    e_q=2 * (n - 1) * (2 * k - 1) + 2 * (k + n - 1))
    assert mono_mul(p.mu0, p.mu0) == expected


def test_elliptic_satake():
    p = elliptic_satake(12)
    assert p.mu0 == mono(e_b=-1, e_q=11)
    assert p.mus == (mono(e_b=2),)
    assert similitude_holds(p, 2 * (12 - 1))


@pytest.mark.parametrize("k", [1, 2, 5, 10, 16])
def test_parameter_sets_carry_the_lift_weight_at_the_archimedean_place(k):
    # the genus-2n and genus-(2n-1) lifts have weight k + n, and g has
    # weight k + n itself: each constructor lands on that infinitesimal
    # character, and one with mu0 moved by q does not
    sets = [(ikeda_satake(n, k), n) for n in range(1, 9)]
    sets += [(miyawaki_satake(n, k), n) for n in range(2, 9)]
    sets += [(elliptic_satake(k + n), n) for n in range(1, 9)]
    for params, n in sets:
        assert lift_weight_holds(params, k, n, k + n), (params, n)
        for shift in (1, -1):
            moved = params._replace(mu0=mono_mul(params.mu0, mono(e_q=shift)))
            assert not lift_weight_holds(moved, k, n, k + n), (params, n, shift)


def test_archimedean_exponents_example():
    # Miyawaki (2, 10): lambda = (11, 10, 9), as a q^-1, a q and b^2 give
    assert archimedean_exponents(miyawaki_satake(2, 10), 10, 2) == (0, [18, 20, 22])
    assert archimedean_exponents(elliptic_satake(12), 10, 2) == (0, [22])


def test_constructor_validation():
    with pytest.raises(ValueError):
        ikeda_satake(0, 10)
    with pytest.raises(ValueError):
        miyawaki_satake(1, 10)
    with pytest.raises(ValueError):
        SatakeParams(2, mono(), (mono(),))  # genus mismatch


def test_satake_params_are_values():
    p, q = miyawaki_satake(3, 10), miyawaki_satake(3, 10)
    assert p == q and hash(p) == hash(q) and p is not q
    assert p != miyawaki_satake(3, 4)
    for name in ("genus", "mu0", "mus"):
        with pytest.raises(AttributeError):
            setattr(p, name, getattr(q, name))
    assert repr(p) == f"SatakeParams(genus=5, mu0={p.mu0!r}, mus={p.mus!r})"


def test_every_built_parameter_set_is_checked(monkeypatch):
    # `_replace` and `_make` build a SatakeParams without running its checks
    checked = []
    init = SatakeParams.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        checked.append(self)

    monkeypatch.setattr(SatakeParams, "__init__", recording)
    built = [ikeda_satake(n, k) for n in (1, 2, 3) for k in (1, 10)]
    built += [miyawaki_satake(n, k) for n in (2, 3, 6) for k in (1, 10)]
    built += [elliptic_satake(weight) for weight in (12, 26)]
    built += [hooks["lhs_params"] for n in range(2, 7)
              for hooks in negative_control_hooks(n, 10) if "lhs_params" in hooks]
    assert len(built) == 19
    assert all(any(p is c for c in checked) for p in built)


def test_monomial_algebra():
    x = mono(2, -1, 3)
    assert mono_mul(x, mono_inv(x)) == mono()
    assert mono_mul(x, mono(e_q=-3)) == mono(2, -1, 0)


# a general polynomial, a 4-vector with T, a float and a bool are no roots
NOT_MONOMIALS = [LaurentPoly.monomial(e_a=1) + LaurentPoly.monomial(e_b=1),
                 LaurentPoly.monomial(e_a=1), (1, 0, 0, 0), 1.5, (1.0, 0, 0), True, (True, 0, 0)]


@pytest.mark.parametrize("bad", NOT_MONOMIALS)
def test_satake_params_reject_non_triples(bad):
    with pytest.raises(ValueError, match="exponent triples"):
        SatakeParams(1, bad, (mono(e_b=2),))
    with pytest.raises(ValueError, match="exponent triples"):
        SatakeParams(1, mono(e_b=-1), (bad,))


def test_weyl_sigma_involution_and_similitude():
    rng = random.Random(5)
    for params, exponent in ((ikeda_satake(2, 10), similitude_exponent(4, 10, 2)),
                             (miyawaki_satake(3, 4), similitude_exponent(5, 4, 3))):
        assert similitude_holds(params, exponent)
        for _ in range(20):
            i = rng.randint(1, params.genus)
            once = weyl_sigma(params, i)
            assert similitude_holds(once, exponent)
            assert weyl_sigma(once, i) == params
    with pytest.raises(IndexError):
        weyl_sigma(ikeda_satake(1, 4), 3)


def test_weyl_sigma_example():
    # mu0 mu1 = a^-1 q^(2k-1) a q^-1 = q^(2k-2) at k=3
    p = weyl_sigma(ikeda_satake(1, 3), 1)
    assert p.mu0 == mono(e_q=4)
    assert p.mus[0] == mono(e_a=-1, e_q=1)


def test_weyl_permute():
    params = miyawaki_satake(2, 10)
    assert weyl_permute(params, [1, 2, 3]) == params
    shuffled = weyl_permute(params, [3, 1, 2])
    assert sorted(shuffled.mus) == sorted(params.mus)
    assert shuffled.mu0 == params.mu0
    with pytest.raises(ValueError):
        weyl_permute(params, [1, 1, 2])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_miyawaki_inverse_mu_check(n):
    assert miyawaki_inverse_mu_check(n, 10)
