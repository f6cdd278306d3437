import json
import math
import random
import tracemalloc
from itertools import compress

import pytest

from liftspin.cli import MAX_N
from liftspin.errors import ExpansionTooLarge, GenusTooLarge, NumericOverflow
from liftspin import euler, laurent
from liftspin.euler import (
    EXPANSION_DEGREE_CAP,
    EXPANSION_TERM_CAP,
    LocalFactor,
    _box,
    numeric_coefficients,
    spinor_factor,
    standard_factor,
    sym_power_factor,
    tensor_factor,
)
from liftspin.identities import IDENTITIES
from liftspin.qexp import hecke_eigenvalue, numeric_satake
from liftspin.satake import SatakeParams, elliptic_satake, ikeda_satake, miyawaki_satake
from oracles import (
    LaurentPoly,
    as_poly,
    axis_slots,
    c1_eigenvalue,
    coefficients,
    decode,
    frobenius_eigenvalue,
    gp_constant,
    poly,
    shifted,
    to_json_dict,
    weyl_permute,
    weyl_sigma,
)


def mono(e_a=0, e_b=0, e_q=0, coeff=1):
    return LaurentPoly.monomial(e_a, e_b, e_q, 0, coeff)


def map_exponent(poly, index, flip):
    """Apply e[index] -> flip(e[index]) to every term (test-side helper)."""
    out = LaurentPoly.zero()
    for e, c in poly.terms:
        e = list(e)
        e[index] = flip(e[index])
        out = out + LaurentPoly.monomial(*e, coeff=c)
    return out


def collapse_a(poly):
    """Substitute a = 1 by summing coefficients over e_a."""
    return map_exponent(poly, 0, lambda _: 0)


def test_hecke_factor_expansion():
    k = 10
    fac = sym_power_factor(1, k)
    c0, c1, c2 = map(poly, coefficients(fac))
    assert c0 == LaurentPoly.one()
    assert c1 == -(mono(e_a=1, e_q=19) + mono(e_a=-1, e_q=19))
    assert c2 == mono(e_q=38)
    # a = 1 gives the double root (1 - q^19 T)^2
    assert collapse_a(c1) == -2 * mono(e_q=19)
    assert collapse_a(c2) == mono(e_q=38)


def test_hecke_factor_numeric_delta_pattern(g12):
    # 1 + 24 * 2^-s + 2^(11-2s): coefficients (1, 24, 2048)
    p = 2
    beta = numeric_satake(hecke_eigenvalue(g12, p), 12, p)[0]
    roots = tensor_factor(1, 10, 2).instantiate(0j, beta, p)
    c0, c1, c2 = numeric_coefficients(roots)
    assert c0 == pytest.approx(1.0)
    assert c1 == pytest.approx(24.0, rel=1e-12)
    assert c2 == pytest.approx(2048.0, rel=1e-12)


def test_sym_power_factor():
    k = 10
    assert coefficients(sym_power_factor(0, k)) == ([(0, 0, 0, 1)], [(0, 0, 0, -1)])
    assert sym_power_factor(1, k).roots == ((1, 0, 19), (-1, 0, 19))
    roots = set(sym_power_factor(2, k).roots)
    assert roots == {(2, 0, 38), (0, 0, 38), (-2, 0, 38)}
    with pytest.raises(ValueError):
        sym_power_factor(-1, k)


def test_tensor_factor():
    k, n = 10, 2
    assert tensor_factor(1, k, n).roots == ((0, 1, 11), (0, -1, 11))
    fac = tensor_factor(2, k, n)
    assert fac.degree == 4
    # b -> 1/b leaves the factor invariant
    flipped = sorted((e_a, -e_b, e_q) for e_a, e_b, e_q in fac.roots)
    assert flipped == sorted(fac.roots)
    with pytest.raises(ValueError):
        tensor_factor(0, k, n)


def cofactor_det(matrix):
    """Generic cofactor-expansion determinant over LaurentPoly entries."""
    size = len(matrix)
    if size == 1:
        return matrix[0][0]
    total = LaurentPoly.zero()
    for j in range(size):
        if not matrix[0][j]:
            continue
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        term = matrix[0][j] * cofactor_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def kron(x, y):
    rows = len(x) * len(y)
    out = [[LaurentPoly.zero()] * rows for _ in range(rows)]
    for i1, row1 in enumerate(x):
        for j1, v1 in enumerate(row1):
            for i2, row2 in enumerate(y):
                for j2, v2 in enumerate(row2):
                    out[i1 * len(y) + i2][j1 * len(y) + j2] = v1 * v2
    return out


@pytest.mark.parametrize("m", [1, 2, 3])
def test_tensor_factor_determinant_oracle(m):
    # det(1 - A (x) B q^((m-1)(2k-1)+(k+n-1)) T) by literal cofactor expansion
    k, n = 4, 3
    a_diag = [[mono(e_a=m - 1 - 2 * i) if i == j else LaurentPoly.zero()
               for j in range(m)] for i in range(m)]
    b_diag = [[mono(e_b=1), LaurentPoly.zero()],
              [LaurentPoly.zero(), mono(e_b=-1)]]
    scale = LaurentPoly.monomial(e_q=(m - 1) * (2 * k - 1) + (k + n - 1), e_T=1)
    product = kron(a_diag, b_diag)
    matrix = [[(LaurentPoly.one() if i == j else LaurentPoly.zero())
               - product[i][j] * scale
               for j in range(2 * m)] for i in range(2 * m)]
    assert cofactor_det(matrix) == as_poly(tensor_factor(m, k, n))


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_sym_power_determinant_oracle(m):
    k = 4
    scale = LaurentPoly.monomial(e_q=m * (2 * k - 1), e_T=1)
    matrix = [[(LaurentPoly.one() if i == j else LaurentPoly.zero())
               - (mono(e_a=m - 2 * i) * scale if i == j else LaurentPoly.zero())
               for j in range(m + 1)] for i in range(m + 1)]
    assert cofactor_det(matrix) == as_poly(sym_power_factor(m, k))


def test_spinor_factor_genus1_is_hecke():
    k = 10
    # f's genus-1 parameters: mu0 = a^-1 q^(2k-1), mu1 = a^2
    fac = spinor_factor(SatakeParams(1, (-1, 0, 2 * k - 1), ((2, 0, 0),)))
    assert fac.roots == ((-1, 0, 19), (1, 0, 19))


def test_spinor_factor_degree_and_cap():
    fac = spinor_factor(miyawaki_satake(2, 10))
    assert fac.degree == 8
    assert coefficients(fac)[0] == [(0, 0, 0, 1)]
    big = ikeda_satake(7, 4)  # genus 14
    with pytest.raises(GenusTooLarge):
        spinor_factor(big)


def test_standard_factor_genus1():
    fac = standard_factor(elliptic_satake(12))
    assert sorted(fac.roots) == [(0, -2, 0), (0, 0, 0), (0, 2, 0)]


def test_standard_factor_inverse_invariance():
    params = ikeda_satake(2, 4)
    fac = standard_factor(params)
    assert fac.degree == 2 * params.genus + 1
    for i in range(1, params.genus + 1):
        assert standard_factor(weyl_sigma(params, i)).counts \
            == fac.counts


def test_weyl_invariance_of_factors():
    rng = random.Random(17)
    for params in (ikeda_satake(1, 4), miyawaki_satake(2, 10), miyawaki_satake(3, 4)):
        spin0 = spinor_factor(params).counts
        st0 = standard_factor(params).counts
        for _ in range(15):
            current = params
            for _ in range(rng.randint(1, 6)):
                if rng.random() < 0.5:
                    current = weyl_sigma(current, rng.randint(1, params.genus))
                else:
                    perm = list(range(1, params.genus + 1))
                    rng.shuffle(perm)
                    current = weyl_permute(current, perm)
            assert spinor_factor(current).counts == spin0
            assert standard_factor(current).counts == st0


def test_ikeda_standard_polynomial_identity():
    # genus-2 standard factor equals (1 - T) times the two shifted f factors
    n, k = 1, 4
    lhs = as_poly(standard_factor(ikeda_satake(n, k)))
    rhs = LaurentPoly.one() - LaurentPoly.monomial(e_T=1)
    for i in (1, 2):
        rhs = rhs * as_poly(shifted(sym_power_factor(1, k), -2 * (k + n - i)))
    assert lhs == rhs


def test_gp_constant():
    assert gp_constant(1) == LaurentPoly.one()
    expected = (1 + mono(e_a=1, e_q=-1)) * (1 + mono(e_a=-1, e_q=-1))
    assert gp_constant(2) == expected
    for n in (2, 3, 4):
        d = gp_constant(n)
        assert map_exponent(d, 0, lambda e: -e) == d


def test_c1_eigenvalue():
    k = 10
    expected = (mono(e_b=1) + mono(e_b=-1)) * mono(e_q=3 * k + 1) \
        * (1 + mono(e_a=1, e_q=-1)) * (1 + mono(e_a=-1, e_q=-1))
    assert c1_eigenvalue(2, k) == expected
    for n in range(2, 7):
        value = c1_eigenvalue(n, k)
        assert map_exponent(value, 0, lambda e: -e) == value  # a <-> 1/a
        assert value == frobenius_eigenvalue(miyawaki_satake(n, k))


def test_shift_matches_substitution():
    fac = tensor_factor(2, 4, 3)
    # T -> q^5 T, term by term on the expanded factor
    substituted = LaurentPoly(((e_a, e_b, e_q + 5 * e_T, e_T), c)
                              for (e_a, e_b, e_q, e_T), c in as_poly(fac).terms)
    assert as_poly(LocalFactor(parts=[(fac, (0, 0, 5), 1)])) == substituted
    assert as_poly(shifted(fac, 5)) == substituted
    assert as_poly(LocalFactor(parts=[(fac, (0, 0, 0), 1)])) == as_poly(fac)
    # e copies multiply, and e = 0 contributes 1
    assert as_poly(LocalFactor(parts=[(fac, (0, 0, 5), 2), (fac, (0, 0, 3), 0)])) \
        == substituted * substituted


def test_expansion_cap():
    fac = spinor_factor(ikeda_satake(4, 4))  # degree 256
    with pytest.raises(ExpansionTooLarge):
        coefficients(fac)
    assert json.loads("".join(fac.chunks("spin", factored=True)))["degree"] == 256


def test_term_budget_counts_the_terms_written():
    # the 1-bit count of each low-half coefficient is its term count, and
    # the budget covers the mirrored top half too
    for name, n in (("main_theorem", 2), ("ikeda_spinor", 2), ("ikeda_standard", 3)):
        for side in IDENTITIES[name].sides(n, 10):
            low = side._expand()
            lengths = [len(coeff) for coeff in coefficients(side)]
            assert [packed.n_terms for packed in low] == lengths[:len(low)]
            assert lengths == lengths[::-1]


def test_term_budget_is_inclusive(monkeypatch):
    side = IDENTITIES["ikeda_spinor"].sides(2, 10)[0]
    total = sum(map(len, coefficients(side)))
    monkeypatch.setattr(euler, "EXPANSION_TERM_CAP", total)
    assert sum(map(len, coefficients(side))) == total
    monkeypatch.setattr(euler, "EXPANSION_TERM_CAP", total - 1)
    with pytest.raises(ExpansionTooLarge, match=f"has {total} terms"):
        coefficients(side)


def test_term_budget_refuses_the_largest_registry_expansion():
    # degree 63 within the slot cap, 1,713,988 terms (856,994 in the low
    # half): 240 MB of JSON before the budget
    side = IDENTITIES["miyawaki_standard"].sides(16, 1)[0]
    assert side.degree <= EXPANSION_DEGREE_CAP and _box(sorted(side.roots), side.degree // 2)
    chunks = side.chunks("m")
    with pytest.raises(ExpansionTooLarge, match=f"1713988 terms, over the term cap {2 ** 18}"):
        next(chunks)
    # the largest expansion the CLI writes stays within it
    ikeda = IDENTITIES["ikeda_spinor"].sides(3, 10)[0]
    assert sum(packed.n_terms for packed in ikeda._expand()) == 103607
    assert EXPANSION_TERM_CAP == 2 ** 18


def test_packed_low_half_of_degree_64_is_small():
    # every root of the degree-64 side has e_a + e_q even, so its lattice
    # box has 7,137 slots against the 13,237 of the axis box, which packed
    # 2,482,881 bytes
    side = IDENTITIES["ikeda_spinor"].sides(3, 10)[0]
    packed = sum(-(-c.value.bit_length() // 8) for c in side._expand())
    assert packed <= 1_400_000, packed


def test_streamed_degree_64_output_stays_small():
    # chunks holds the packed low half and one coefficient's text at a
    # time; the tuple-decoding writer it replaced peaked at 17.5 MB here, and
    # the axis-box writer that joined each coefficient's text in steps at 6.06 MB
    side = IDENTITIES["ikeda_spinor"].sides(3, 10)[0]
    tracemalloc.start()
    try:
        written = sum(map(len, side.chunks("ikeda_spinor[n=3,k=10]")))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert written > 28_000_000
    assert peak < 5 * 2 ** 20, peak


def test_streamed_degree_64_text_stays_small():
    # chunks writes each `coeff d:` line from the same walk; the text
    # path that decoded every term into a tuple and a dict first peaked at
    # 92.7 MB here, and the axis-box writer at 3.66 MB
    side = IDENTITIES["ikeda_spinor"].sides(3, 10)[0]
    tracemalloc.start()
    try:
        written = sum(map(len, side.chunks("ikeda_spinor[n=3,k=10]", fmt="text")))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert written > 8_000_000
    assert peak < 3 * 2 ** 20, peak


def test_walked_rows_keep_their_own_slots():
    # rows held past the next step of the walk still read their own
    # coefficient's slots, not those of a later one
    side = IDENTITIES["main_theorem"].sides(3, 10)[0]
    assert decode(list(side._walk())) == coefficients(side)


@pytest.mark.parametrize("name, most", [("main_theorem", 1424), ("ikeda_spinor", 1451)])
def test_equal_rows_are_formatted_once(monkeypatch, name, most):
    # the Satake parameters are defined up to a <-> 1/a and b <-> 1/b, so
    # rows (e_a, e_b) and (-e_a, e_b) of a coefficient hold equal terms, in
    # the lattice box at shifted slots; the writer builds one list of term
    # strings per distinct nonempty row of each coefficient, no more than
    # the axis-box writer built (1,424 and 1,451), and the bytes stay those
    # of the oracle
    side = IDENTITIES[name].sides(3, 10)[0]
    rows = distinct = 0
    for coeff in coefficients(side):
        terms = {}
        for e_a, e_b, e_q, c in coeff:
            terms.setdefault((e_a, e_b), []).append((e_q, c))
        rows, distinct = rows + len(terms), distinct + len(set(map(tuple, terms.values())))
    built = []
    monkeypatch.setattr(laurent, "compress", lambda *args: built.append(args) or compress(*args))
    text = "".join(side.chunks("m"))
    assert len(built) == distinct <= most and distinct < rows
    assert text == json.dumps(to_json_dict(side, "m"), indent=2)


def test_expansion_of_equal_root_multisets_is_equal():
    # both sides of an identity give the same terms in the same order, only
    # up to degree 32 // 2
    lhs, rhs = IDENTITIES["main_theorem"].sides(3, 10)
    assert lhs.roots != rhs.roots and lhs.degree == 32
    low, rhs_low = lhs._expand(), rhs._expand()
    assert len(low) == 17 and low == rhs_low
    assert [list(c) for c in low] == [list(c) for c in rhs_low]


@pytest.mark.parametrize("k", [1, 2, 4, 10, 16, 10 ** 21])
def test_registry_sides_take_the_packed_path(k):
    # every side `euler` can expand, at every --n and these --k, has a packed
    # lattice box within PACKED_SLOT_CAP and no larger than the box of one
    # gcd step per exponent
    checked = 0
    for name, identity in IDENTITIES.items():
        for n in range(MAX_N + 1):
            if identity.sides is None or identity.fixed_n not in (None, n):
                continue
            try:
                sides = identity.sides(n, k)
            except ValueError:  # n outside the identity, or the genus cap
                continue
            for side in sides:
                if side.degree <= EXPANSION_DEGREE_CAP:
                    roots = sorted(side.roots)
                    box = _box(roots, side.degree // 2)
                    assert box and box.slots <= axis_slots(roots), (name, n, k)
                    checked += 1
    assert checked == 74


def test_eval_cross_pipeline_oracle(f20, g12):
    # expanded symbolic genus-3 factor, evaluated at Satake data, matches
    # the numerically built factor coefficient by coefficient
    n, k, p = 2, 10, 7
    alpha = numeric_satake(hecke_eigenvalue(f20, p), 20, p)[0]
    beta = numeric_satake(hecke_eigenvalue(g12, p), 12, p)[0]
    symbolic = shifted(spinor_factor(miyawaki_satake(n, k)), -(3 * k))
    numeric = numeric_coefficients(symbolic.instantiate(alpha, beta, p))
    sq = p ** 0.5
    for sym_c, num_c in zip(coefficients(symbolic), numeric):
        value = poly(sym_c).eval_complex(alpha, beta, sq, 0j)
        assert abs(value - num_c) <= 1e-9 * max(abs(value), abs(num_c), 1.0)


def test_symbolic_eval_matches_numeric_on_convergence_circle(f20, g12):
    # random t with |t| = p^(-(n-1/2)k-2), inside the convergence region
    import cmath
    import random as _random
    rng = _random.Random(11)
    n, k, p = 2, 10, 3
    alpha = numeric_satake(hecke_eigenvalue(f20, p), 20, p)[0]
    beta = numeric_satake(hecke_eigenvalue(g12, p), 12, p)[0]
    symbolic = spinor_factor(miyawaki_satake(n, k))
    roots = symbolic.instantiate(alpha, beta, p)
    poly = as_poly(symbolic)
    radius = float(p) ** (-(n - 0.5) * k - 2)
    for _ in range(10):
        t = radius * cmath.exp(1j * rng.uniform(0, 2 * cmath.pi))
        direct = poly.eval_complex(alpha, beta, p ** 0.5, t)
        via_roots = math.prod((1 - r * t for r in roots), start=1 + 0j)
        assert abs(direct - via_roots) <= 1e-9 * max(abs(direct), abs(via_roots))


def test_numeric_root_product_matches_expansion(g12):
    p = 3
    beta = numeric_satake(hecke_eigenvalue(g12, p), 12, p)[0]
    roots = tensor_factor(1, 10, 2).instantiate(0.3 + 0.2j, beta, p)
    t = 0.01 + 0.003j
    horner = sum(c * t ** d for d, c in enumerate(numeric_coefficients(roots)))
    assert math.prod(1 - r * t for r in roots) == pytest.approx(horner, rel=1e-12)


def test_numeric_coefficients_past_double_range():
    # finite roots whose product is not: T^2 is 1e400, T^1 stays finite
    with pytest.raises(NumericOverflow, match="degree-2 factor leaves double range"):
        numeric_coefficients([1e200 + 0j, 1e200 + 0j])
    assert numeric_coefficients([1e200 + 0j, -1e-200 + 0j])[2] == pytest.approx(-1.0)


# a general polynomial, a 4-vector (with T or without), a float and a bool
NOT_ROOTS = [LaurentPoly.one() + LaurentPoly.monomial(e_a=1), LaurentPoly.monomial(e_a=1),
             (1, 0, 0, 1), (1, 0, 0, 0), 1.5, (0.5, 0, 0), True, (0, False, 0)]


@pytest.mark.parametrize("bad", NOT_ROOTS)
def test_local_factor_rejects_non_triples(bad):
    with pytest.raises(ValueError, match="exponent triples"):
        LocalFactor(((1, 0, 0), bad))


def test_chunks():
    fac = sym_power_factor(1, 4)
    data = json.loads("".join(fac.chunks("hecke[f]")))
    assert data["label"] == "hecke[f]" and data["degree"] == 2
    assert len(data["coeffs"]) == 3
    assert data["coeffs"][0] == {"terms": [{"e": [0, 0, 0, 0], "c": "1"}]}


@pytest.mark.parametrize("p", [2, 199])
def test_instantiate_bit_identical_to_eval_complex(p, f20, g12):
    # every root of both sides of the four factor equalities over their
    # suite grids, against the polynomial evaluator as the reference
    from liftspin.identities import IDENTITIES

    alpha = numeric_satake(hecke_eigenvalue(f20, p), 20, p)[0]
    beta = numeric_satake(hecke_eigenvalue(g12, p), 12, p)[0]
    roots = sorted({root for name in ("main_theorem", "ikeda_spinor", "ikeda_standard",
                                      "miyawaki_standard")
                    for n, k in IDENTITIES[name].grid
                    for side in IDENTITIES[name].sides(n, k) for root in side.roots})
    got = LocalFactor(roots).instantiate(alpha, beta, p)
    for root, value in zip(roots, got):
        want = LaurentPoly.monomial(*root).eval_complex(alpha, beta, p ** 0.5, 0j)
        assert (value.real.hex(), value.imag.hex()) == (want.real.hex(), want.imag.hex()), root
    assert len(got) == len(roots) > 1000
