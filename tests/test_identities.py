import pytest

from liftspin.beta import beta_value
from liftspin.errors import GenusTooLarge
from liftspin.identities import (
    IDENTITIES,
    compare_symbolic,
    example_display_rhs,
    full_symbolic_suite,
    ikeda_spinor_sides,
    ikeda_standard_sides,
    main_theorem_rhs,
    miyawaki_spinor_lhs,
    miyawaki_standard_sides,
    negative_control_reports,
    verify,
)
from liftspin.laurent import LaurentPoly
from liftspin.satake import SatakeParams, miyawaki_satake


@pytest.mark.parametrize("n", [2, 3, 4])
def test_main_theorem_symbolic(n):
    report = verify("main_theorem", n, 10)
    assert report.passed and report.witness is None
    assert report.to_json_dict()["identity"] == "main_theorem"


@pytest.mark.parametrize("n", [2, 3])
def test_main_theorem_coefficients_really_agree(n):
    # ground the root-multiset shortcut: expand both sides (degrees 8, 32)
    # and compare literal coefficient lists
    lhs = miyawaki_spinor_lhs(n, 10)
    rhs = main_theorem_rhs(n, 10)
    assert lhs.coefficients() == rhs.coefficients()


def test_main_theorem_n2_regroups_to_g_factors():
    # L(s-k, g) L(s-k+1, g) L(s, g x f) at n = 2
    assert verify("example_deg3", 2, 10).passed
    display = example_display_rhs(2, 10)
    assert display.degree == 8
    ok, witness = compare_symbolic(display, miyawaki_spinor_lhs(2, 10))
    assert ok and witness is None


@pytest.mark.parametrize("n,degree", [(3, 32), (4, 128)])
def test_example_regroup_higher(n, degree):
    assert example_display_rhs(n, 10).degree == degree
    assert verify(f"example_deg{2 * n - 1}", n, 10).passed


def test_example_regroup_rejects_other_n():
    with pytest.raises(ValueError):
        example_display_rhs(5, 10)


@pytest.mark.parametrize("n", [1, 2])
def test_ikeda_spinor_with_coefficients(n):
    report = verify("ikeda_spinor", n, 10)
    assert report.passed
    lhs, rhs = ikeda_spinor_sides(n, 10)
    assert lhs.coefficients() == rhs.coefficients()


@pytest.mark.parametrize("n", [3, 4])
def test_ikeda_spinor_larger(n):
    assert verify("ikeda_spinor", n, 4).passed


def test_genus_caps():
    with pytest.raises(GenusTooLarge):
        verify("main_theorem", 7, 4)
    with pytest.raises(GenusTooLarge):
        verify("ikeda_spinor", 5, 4)
    with pytest.raises(GenusTooLarge):
        verify("ikeda_standard", 7, 4)


@pytest.mark.parametrize("n", range(1, 7))
def test_ikeda_standard(n):
    report = verify("ikeda_standard", n, 10)
    assert report.passed
    lhs, rhs = ikeda_standard_sides(n, 10)
    assert lhs.degree == 4 * n + 1 == rhs.degree
    if n <= 3:
        assert lhs.coefficients() == rhs.coefficients()


@pytest.mark.parametrize("n", range(2, 7))
def test_miyawaki_standard(n):
    report = verify("miyawaki_standard", n, 10)
    assert report.passed
    lhs, rhs = miyawaki_standard_sides(n, 10)
    assert lhs.degree == 4 * n - 1 == rhs.degree
    if n <= 3:
        assert lhs.coefficients() == rhs.coefficients()


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("k", [4, 10])
def test_c1_frobenius(n, k):
    assert verify("c1_frobenius", n, k).passed


def test_deg7_epsilons():
    report = verify("beta_epsilon_match", 4, None)
    assert report.passed
    assert report.identity_id == "beta_epsilon_match"


def test_full_symbolic_suite():
    reports = full_symbolic_suite()
    assert reports and all(r.passed for r in reports)
    ids = {r.identity_id for r in reports}
    assert "main_theorem" in ids and "beta_epsilon_match" in ids


# -- numeric mode -------------------------------------------------------------

@pytest.mark.parametrize("p", [2, 3, 5])
def test_main_theorem_numeric(p, f20, g12):
    report = verify("main_theorem", 2, 10, mode="numeric", prime=p, f=f20, g=g12)
    assert report.passed, report.witness


def test_ikeda_standard_numeric(f20):
    report = verify("ikeda_standard", 2, 10, mode="numeric", prime=2, f=f20)
    assert report.passed, report.witness


def test_numeric_invariant_under_root_swap(f20, g12):
    # swapping either Satake pair (alpha <-> 1/alpha, beta <-> 1/beta) must
    # leave the compared factors unchanged
    from liftspin.identities import satake_values

    p = 5
    alpha, beta = satake_values(f20, g12, 2, 10, p)
    base = miyawaki_spinor_lhs(2, 10).shift(-30)
    reference = base.instantiate(alpha, beta, p ** 0.5, p).coefficients()
    for a, b in ((1 / alpha, beta), (alpha, 1 / beta), (1 / alpha, 1 / beta)):
        swapped = base.instantiate(a, b, p ** 0.5, p).coefficients()
        for x, y in zip(reference, swapped):
            assert abs(x - y) <= 1e-9 * max(abs(x), abs(y), 1.0)


def test_numeric_mode_validation(f20, g12):
    with pytest.raises(ValueError):
        verify("main_theorem", 3, 10, mode="numeric", prime=2, f=f20, g=g12)  # k+n odd
    with pytest.raises(ValueError):
        verify("main_theorem", 2, 10, mode="numeric", prime=2, f=f20)  # g missing
    with pytest.raises(ValueError):
        verify("main_theorem", 2, 10, mode="bogus")
    with pytest.raises(ValueError):
        verify("main_theorem", 2, 10, mode="numeric", prime=2, f=g12, g=g12)  # wrong weight


# -- mutation detection ---------------------------------------------------------

def bumped_beta(r0, m0, delta):
    def fn(r, m, n):
        return beta_value(r, m, n) + (delta if (r, m) == (r0, m0) else 0)
    return fn


def test_corrupted_beta_fails_with_witness():
    report = verify("main_theorem", 2, 10, beta_fn=bumped_beta(1, 1, +1))
    assert not report.passed
    assert report.witness["t_degree"] == 1
    assert report.witness["lhs"] != report.witness["rhs"]


def test_negative_beta_is_structural_failure():
    report = verify("main_theorem", 2, 10, beta_fn=lambda r, m, n: -1)
    assert not report.passed
    assert "reason" in report.witness


def test_shift_bump_fails():
    report = verify("main_theorem", 3, 10, shift_bump=((1, 1), -1))
    assert not report.passed and report.witness is not None


def test_perturbed_satake_fails():
    params = miyawaki_satake(2, 10)
    mus = list(params.mus)
    mus[1] = mus[1] * LaurentPoly.monomial(e_q=1)
    perturbed = SatakeParams(params.genus, params.mu0, tuple(mus),
                             params.similitude_exponent)
    report = verify("main_theorem", 2, 10, lhs_params=perturbed)
    assert not report.passed and report.witness["t_degree"] == 1


def test_no_numeric_only_pass(f20, g12):
    # a perturbation that kills the symbolic identity also fails numerically
    symbolic = verify("main_theorem", 2, 10, beta_fn=bumped_beta(1, 1, +1))
    numeric = verify("main_theorem", 2, 10, mode="numeric", prime=5, f=f20, g=g12,
                                  beta_fn=bumped_beta(1, 1, +1))
    assert not symbolic.passed and not numeric.passed


def test_negative_control_reports():
    for report in negative_control_reports():
        assert not report.passed
        assert report.witness is not None


def test_ikeda_spinor_mutations():
    report = verify("ikeda_spinor", 2, 10, beta_fn=bumped_beta(0, 2, +1))
    assert not report.passed and report.witness["t_degree"] == 1
    report = verify("ikeda_spinor", 2, 10, shift_bump=((1, 1), +1))
    assert not report.passed


def test_report_json_shape():
    data = verify("main_theorem", 2, 10).to_json_dict()
    assert set(data) == {"identity", "parameters", "verdict", "witness"}
    assert data["verdict"] == "pass"
    assert data["parameters"]["n"] == 2


# -- the registry -----------------------------------------------------------------

def test_full_symbolic_suite_order():
    # the grid of each identity, in registry order, as the CLI has always printed it
    expected = [("main_theorem", n, k) for k in (4, 10, 16) for n in range(2, 7)]
    expected += [("ikeda_spinor", n, k) for k in (4, 10) for n in range(1, 5)]
    expected += [("ikeda_standard", n, 10) for n in range(1, 7)]
    expected += [(name, n, 10) for name in ("miyawaki_standard", "c1_frobenius")
                 for n in range(2, 7)]
    expected += [(f"example_deg{2 * n - 1}", n, 10) for n in (2, 3, 4)]
    expected += [("beta_epsilon_match", 4, None)]
    reports = full_symbolic_suite()
    assert len(reports) == 43
    assert [(r.identity_id, r.parameters["n"], r.parameters["k"]) for r in reports] == expected


def test_registry_fixed_n_and_unused_k():
    # a fixed-n identity runs its own case whatever n is asked for
    report = verify("example_deg3", 5, 10)
    assert report.passed and report.parameters["n"] == 2
    report = verify("beta_epsilon_match", 2, 10)
    assert report.passed and report.parameters == {"n": 4, "k": None, "mode": "symbolic",
                                                   "prime": None}


def test_symbolic_only_identities_refuse_numeric(f20, g12):
    for name, identity in IDENTITIES.items():
        if not identity.numeric_max_n:
            with pytest.raises(ValueError, match="symbolic mode only"):
                verify(name, 2, 10, mode="numeric", prime=2, f=f20, g=g12)
    assert {name for name, i in IDENTITIES.items() if i.numeric_max_n} \
        == {"main_theorem", "ikeda_standard"}
