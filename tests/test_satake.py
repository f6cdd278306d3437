import random

import pytest

from liftspin.laurent import LaurentPoly
from liftspin.satake import (
    SatakeParams,
    elliptic_satake,
    ikeda_satake,
    miyawaki_inverse_mu_check,
    miyawaki_satake,
    weyl_permute,
    weyl_sigma,
)


def mono(e_a=0, e_b=0, e_q=0, coeff=1):
    return LaurentPoly.monomial(e_a, e_b, e_q, 0, coeff)


def test_ikeda_n1_parameters():
    p = ikeda_satake(1, 3)
    assert p.genus == 2
    assert p.mu0 == mono(e_a=-1, e_q=5)
    assert p.mus == (mono(e_a=1, e_q=-1), mono(e_a=1, e_q=1))
    assert p.similitude_holds()


def test_ikeda_similitude_exponent():
    p = ikeda_satake(2, 10)
    assert p.similitude_exponent == 76  # 2 (4*12 - 10)
    assert p.similitude_holds()
    # q-exponents of the mus are symmetric around zero
    product = LaurentPoly.one()
    for mu in p.mus:
        product = product * mu
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
    assert p.similitude_holds()
    # mu0^2 in closed form
    expected = mono(e_a=-2 * (n - 1), e_b=-2,
                    e_q=2 * (n - 1) * (2 * k - 1) + 2 * (k + n - 1))
    assert p.mu0 * p.mu0 == expected


def test_elliptic_satake():
    p = elliptic_satake(12, "b")
    assert p.mu0 == mono(e_b=-1, e_q=11)
    assert p.mus == (mono(e_b=2),)
    assert p.similitude_holds()
    with pytest.raises(ValueError):
        elliptic_satake(12, "c")


def test_constructor_validation():
    with pytest.raises(ValueError):
        ikeda_satake(0, 10)
    with pytest.raises(ValueError):
        miyawaki_satake(1, 10)
    with pytest.raises(ValueError):
        SatakeParams(2, mono(), (mono(),), 0)  # genus mismatch
    with pytest.raises(ValueError):
        SatakeParams(1, mono() + mono(e_a=1), (mono(),), 0)  # not a monomial


def test_weyl_sigma_involution_and_similitude():
    rng = random.Random(5)
    for params in (ikeda_satake(2, 10), miyawaki_satake(3, 4)):
        for _ in range(20):
            i = rng.randint(1, params.genus)
            once = weyl_sigma(params, i)
            assert once.similitude_exponent == params.similitude_exponent
            assert once.similitude_holds()
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
    assert sorted(m.single_term() for m in shuffled.mus) \
        == sorted(m.single_term() for m in params.mus)
    assert shuffled.mu0 == params.mu0
    with pytest.raises(ValueError):
        weyl_permute(params, [1, 1, 2])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_miyawaki_inverse_mu_check(n):
    assert miyawaki_inverse_mu_check(n, 10)


def test_json_round_trip():
    params = miyawaki_satake(3, 4)
    data = params.to_json_dict()
    assert data["genus"] == 5 and len(data["mus"]) == 5
    assert SatakeParams.from_json_dict(data) == params
