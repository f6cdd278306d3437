import cmath
import random

import pytest

from oracles import LaurentPoly

A = LaurentPoly.monomial(e_a=1)
B = LaurentPoly.monomial(e_b=1)
Q = LaurentPoly.monomial(e_q=1)
T = LaurentPoly.monomial(e_T=1)
AI = LaurentPoly.monomial(e_a=-1)
BI = LaurentPoly.monomial(e_b=-1)


def random_poly(rng, max_terms=6):
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        exps = (rng.randint(-4, 4), rng.randint(-3, 3),
                rng.randint(-6, 6), rng.randint(0, 5))
        terms.append((exps, rng.randint(-9, 9)))
    return LaurentPoly(terms)


def test_add_examples():
    assert (A + Q) + (-Q) == A
    x = A * B + Q * Q * Q
    assert LaurentPoly.zero() + x == x
    assert (A + AI) + (A + AI) == 2 * A + 2 * AI


def test_mul_examples():
    lhs = (1 - A * Q * T) * (1 - AI * Q * T)
    assert lhs == 1 - (A + AI) * Q * T + Q * Q * T * T
    assert A * AI == LaurentPoly.one()
    assert (1 + B * B) * BI == B + BI


def test_ring_axioms_random():
    rng = random.Random(20260809)
    for _ in range(200):
        x, y, z = (random_poly(rng) for _ in range(3))
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + LaurentPoly.zero() == x
        assert x * LaurentPoly.one() == x
        assert x - x == LaurentPoly.zero()


def test_canonical_form_and_hash():
    x = LaurentPoly([((1, 0, 0, 0), 2), ((1, 0, 0, 0), -2), ((0, 0, 0, 1), 3)])
    assert x == 3 * T
    assert hash(x) == hash(3 * T)
    assert not LaurentPoly.zero()
    assert LaurentPoly.one() == 1 and LaurentPoly.one().terms == (((0, 0, 0, 0), 1),)


def test_negative_t_exponent_rejected():
    with pytest.raises(ValueError, match="T-exponent"):
        LaurentPoly([((0, 0, 0, -1), 1)])


def test_non_integer_coefficient_rejected():
    with pytest.raises(TypeError):
        LaurentPoly([((0, 0, 0, 0), 1.5)])


def test_eval_examples():
    assert (A + AI).eval_complex(2, 1, 1, 1) == pytest.approx(2.5)
    assert (Q * Q).eval_complex(1, 1, 2 ** 0.5, 1) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ZeroDivisionError):
        AI.eval_complex(0, 1, 1, 1)


def test_eval_is_multiplicative_on_unit_circle():
    rng = random.Random(99)
    for _ in range(60):
        x, y = random_poly(rng), random_poly(rng)
        point = [cmath.exp(1j * rng.uniform(0, 2 * cmath.pi)) for _ in range(4)]
        lhs = (x * y).eval_complex(*point)
        rhs = x.eval_complex(*point) * y.eval_complex(*point)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)


def test_json_round_trip_and_order():
    x = 10 ** 30 * A * A * B - Q * T + T * T - 5
    data = x.to_json_dict()
    # canonical order: lexicographic on (e_T, e_a, e_b, e_q)
    keys = [tuple(t["e"]) for t in data["terms"]]
    assert keys == sorted(keys, key=lambda e: (e[3], e[0], e[1], e[2]))
    # big coefficients survive as decimal strings
    assert any(t["c"] == str(10 ** 30) for t in data["terms"])
    assert LaurentPoly((tuple(t["e"]), int(t["c"])) for t in data["terms"]) == x


def test_str_smoke():
    assert str(LaurentPoly.zero()) == "0"
    assert str(1 - (A + AI) * Q * T) == "1 - a^-1*q*T - a*q*T"
    assert str(-2 * B * B) == "-2*b^2"
