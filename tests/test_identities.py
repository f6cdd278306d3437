import json
import time

import pytest

from liftspin import euler, identities, laurent, satake
from liftspin.beta import beta_value
from liftspin.errors import GenusTooLarge
from liftspin.euler import LocalFactor, numeric_coefficients
from liftspin.identities import (
    IDENTITIES,
    _c1_eigenvalue,
    compare_factored,
    compare_symbolic,
    example_display_rhs,
    full_symbolic_suite,
    ikeda_spinor_sides,
    ikeda_standard_sides,
    main_theorem_rhs,
    miyawaki_spinor_lhs,
    miyawaki_standard_sides,
    negative_control_hooks,
    negative_control_reports,
    verify,
)
from liftspin.qexp import eigenform
from liftspin.satake import SatakeParams, check_units, miyawaki_satake, mono_inv, mono_mul
from oracles import c1_eigenvalue, coefficients, frobenius_eigenvalue, shifted, weyl_sigma


@pytest.mark.parametrize("n", [2, 3, 4])
def test_main_theorem_symbolic(n):
    report = verify("main_theorem", n, 10)
    assert report.passed and report.witness is None
    assert report.identity_id == "main_theorem"


@pytest.mark.parametrize("n", [2, 3])
def test_main_theorem_coefficients_really_agree(n):
    # ground the root-multiset shortcut: expand both sides (degrees 8, 32)
    # and compare literal coefficient lists
    lhs = miyawaki_spinor_lhs(n, 10)
    rhs = main_theorem_rhs(n, 10)
    assert coefficients(lhs) == coefficients(rhs)


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
    assert coefficients(lhs) == coefficients(rhs)


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
        assert coefficients(lhs) == coefficients(rhs)


@pytest.mark.parametrize("n", range(2, 7))
def test_miyawaki_standard(n):
    report = verify("miyawaki_standard", n, 10)
    assert report.passed
    lhs, rhs = miyawaki_standard_sides(n, 10)
    assert lhs.degree == 4 * n - 1 == rhs.degree
    if n <= 3:
        assert coefficients(lhs) == coefficients(rhs)


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("k", [4, 10])
def test_c1_frobenius(n, k):
    assert verify("c1_frobenius", n, k).passed


def _c1_variants(params):
    """The Satake set, one Weyl image of it (same value) and three single
    perturbations (other values)."""
    mus = params.mus
    return [params, weyl_sigma(params, 1),
            SatakeParams(params.genus, mono_mul(params.mu0, (0, 0, 1)), mus),
            SatakeParams(params.genus, params.mu0, (mono_mul(mus[0], (0, 0, 1)),) + mus[1:]),
            SatakeParams(params.genus, params.mu0, (mono_inv(mus[0]),) + mus[1:])]


@pytest.mark.parametrize("n", [2, 3, 6, 10])
@pytest.mark.parametrize("k", [1, 10, 10 ** 21])
def test_factored_c1_matches_the_expanded_oracle(n, k):
    lhs, oracle = _c1_eigenvalue(n, k), c1_eigenvalue(n, k)
    verdicts = []
    for params in _c1_variants(miyawaki_satake(n, k)):
        ok, witness = compare_factored(lhs, (params.mu0, params.mus))
        assert ok == (oracle == frobenius_eigenvalue(params))
        assert (witness is None) == ok
        verdicts.append(ok)
    assert verdicts == [True, True, False, False, False]


def test_c1_bumped_mu0_fails_with_witness():
    n, k = 3, 10
    params = miyawaki_satake(n, k)
    ok, witness = compare_factored(_c1_eigenvalue(n, k),
                                   (mono_mul(params.mu0, (0, 0, 1)), params.mus))
    assert not ok and set(witness) == {"lhs", "rhs"}
    lhs, rhs = witness["lhs"], witness["rhs"]
    assert lhs["units"] == rhs["units"] and len(lhs["units"]) == 2 * n - 1
    (lm,), (rm,) = (json.loads(laurent.dumps(side["monomial"]))["terms"] for side in (lhs, rhs))
    assert rm["e"] == [lm["e"][0], lm["e"][1], lm["e"][2] + 1, 0] and rm["c"] == "1"


def test_c1_frobenius_at_the_n_cap_is_fast():
    started = time.perf_counter()
    assert verify("c1_frobenius", 32, 10).passed
    assert time.perf_counter() - started < 0.05


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
    from liftspin.qexp import numeric_satake

    p = 5
    lam_f, lam_g = satake_values(f20, g12, 2, 10, p)
    alpha, beta = numeric_satake(lam_f, 20, p)[0], numeric_satake(lam_g, 12, p)[0]
    base = shifted(miyawaki_spinor_lhs(2, 10), -30)
    reference = numeric_coefficients(base.instantiate(alpha, beta, p))
    for a, b in ((1 / alpha, beta), (alpha, 1 / beta), (1 / alpha, 1 / beta)):
        swapped = numeric_coefficients(base.instantiate(a, b, p))
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


def test_float_shift_bump_is_refused_as_a_root():
    with pytest.raises(ValueError, match="exponent triples"):
        verify("main_theorem", 3, 10, shift_bump=((1, 1), 1.5))


def test_bool_shift_bump_moves_by_one():
    bumped = verify("main_theorem", 3, 10, shift_bump=((1, 1), True))
    assert not bumped.passed
    assert bumped.witness == verify("main_theorem", 3, 10, shift_bump=((1, 1), 1)).witness


@pytest.mark.parametrize("build", [main_theorem_rhs, ikeda_spinor_sides, miyawaki_spinor_lhs])
def test_float_k_is_refused_as_a_root(build):
    with pytest.raises(ValueError, match="exponent triples"):
        build(3, 10.5)


def test_roots_are_checked_where_they_enter(monkeypatch):
    # the sides are sums of checked ints: only the Satake parameters and the
    # small factors the product repeats are checked, not the 2048 roots
    seen = []

    def counting(items, what):
        items = list(items)
        seen.append(len(items))
        check_units(items, what)

    monkeypatch.setattr(satake, "check_units", counting)
    monkeypatch.setattr(euler, "check_units", counting)
    monkeypatch.setattr(identities, "check_units", counting)
    assert verify("main_theorem", 6, 10).passed
    assert 0 < sum(seen) <= 100
    seen.clear()
    assert not any(report.passed for report in negative_control_reports(6, 10))
    assert 0 < sum(seen) <= 300
    # the standard and displayed sides repeat small factors as well
    for identity, n, cap in (("ikeda_standard", 6, 30), ("example_deg7", 4, 200)):
        seen.clear()
        assert verify(identity, n, 10).passed
        assert 0 < sum(seen) <= cap, identity
    seen.clear()
    assert all(report.passed for report in full_symbolic_suite())
    assert 0 < sum(seen) <= 1100


def test_hooks_are_refused_where_an_identity_takes_none():
    with pytest.raises(ValueError, match=r"'c1_frobenius' takes no hook shift_bump; "
                                         r"it accepts none"):
        verify("c1_frobenius", 2, 10, shift_bump=((1, 1), 1))
    with pytest.raises(ValueError, match=r"'ikeda_standard' takes no hook beta_fn; "
                                         r"it accepts none"):
        verify("ikeda_standard", 2, 10, beta_fn=None)
    with pytest.raises(ValueError, match=r"'main_theorem' takes no hook bogus; "
                                         r"it accepts beta_fn, shift_bump, lhs_params"):
        verify("main_theorem", 2, 10, bogus=1)
    # the spinor identities take all three
    assert not verify("ikeda_spinor", 2, 10, shift_bump=((1, 1), -1)).passed


def test_perturbed_satake_fails():
    params = miyawaki_satake(2, 10)
    mus = list(params.mus)
    mus[1] = mono_mul(mus[1], (0, 0, 1))
    perturbed = SatakeParams(params.genus, params.mu0, tuple(mus))
    report = verify("main_theorem", 2, 10, lhs_params=perturbed)
    assert not report.passed and report.witness["t_degree"] == 1


def test_no_numeric_only_pass(f20, g12):
    # a perturbation that kills the symbolic identity also fails numerically
    symbolic = verify("main_theorem", 2, 10, beta_fn=bumped_beta(1, 1, +1))
    numeric = verify("main_theorem", 2, 10, mode="numeric", prime=5, f=f20, g=g12,
                                  beta_fn=bumped_beta(1, 1, +1))
    assert not symbolic.passed and not numeric.passed


def test_symbolic_witness_counts_repeated_roots():
    # a twice against a and b: the T^1 coefficients are -2a and -a - b
    lhs = LocalFactor(((1, 0, 0), (1, 0, 0)))
    ok, witness = compare_symbolic(lhs, LocalFactor(((1, 0, 0), (0, 1, 0))))
    assert not ok and laurent.dumps(witness) == json.dumps({
        "t_degree": 1, "lhs": {"terms": [{"e": [1, 0, 0, 0], "c": "-2"}]},
        "rhs": {"terms": [{"e": [0, 1, 0, 0], "c": "-1"}, {"e": [1, 0, 0, 0], "c": "-1"}]}},
        indent=2)
    assert compare_symbolic(lhs, LocalFactor(lhs.roots)) == (True, None)


def test_negative_control_reports():
    for report in negative_control_reports():
        assert not report.passed
        assert report.witness is not None


def test_ikeda_spinor_mutations():
    report = verify("ikeda_spinor", 2, 10, beta_fn=bumped_beta(0, 2, +1))
    assert not report.passed and report.witness["t_degree"] == 1
    report = verify("ikeda_spinor", 2, 10, shift_bump=((1, 1), +1))
    assert not report.passed


def test_report_json_shape(capsys):
    from liftspin.cli import main

    assert main(["verify", "--identity", "main_theorem", "--n", "2", "--witness"]) == 0
    (data,) = json.loads(capsys.readouterr().out)
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
    # numeric mode is offered exactly for the factor equalities
    refused = {"c1_frobenius", "example_deg3", "example_deg5", "example_deg7",
               "beta_epsilon_match"}
    for name in refused:
        with pytest.raises(ValueError, match="symbolic mode only"):
            verify(name, 2, 10, mode="numeric", prime=2, f=f20, g=g12)
    assert {name for name, i in IDENTITIES.items() if i.check is not None} == refused


@pytest.fixture(scope="module")
def forms():
    return {w: eigenform(w) for w in (12, 16, 18, 20, 22)}


@pytest.mark.parametrize("p", [2, 199])
@pytest.mark.parametrize("name,n", [("main_theorem", 6), ("ikeda_spinor", 4),
                                    ("ikeda_standard", 6), ("miyawaki_standard", 6)])
def test_factor_equalities_pass_numerically_at_top_n(forms, name, n, p):
    # degree 2048 for main_theorem: far past where expanded coefficients
    # lose double precision
    assert IDENTITIES[name].n_range[1] == n
    g = forms[10 + n] if IDENTITIES[name].needs_g else None
    report = verify(name, n, 10, mode="numeric", prime=p, f=forms[20], g=g)
    assert report.passed, report.witness


def test_numeric_comparison_stays_in_double_range(tmp_path):
    # at the largest table prime the roots of the degree-2048 sides reach
    # p^67, past double range.  Each table value is the one residue the
    # Eisenstein congruence allows.
    p = 999983
    forms = []
    for w, n in ((20, 174611), (16, 3617)):
        path = tmp_path / f"w{w}.txt"
        path.write_text(f"{p} {(1 + pow(p, w - 1, n)) % n}\n")
        forms.append(eigenform(w, table=str(path)))
    f, g = forms
    report = verify("main_theorem", 6, 10, mode="numeric", prime=p, f=f, g=g)
    assert report.passed, report.witness


def test_numeric_verdict_is_exact_at_a_zero_eigenvalue(tmp_path):
    # lambda_g(1381) = 0 passes every check on the data (0 = 1 + 1381^11
    # mod 691), and puts beta = i on the unit circle.  Moving mu0 by b^4
    # then changes the left side's roots but, at that beta, not their
    # values: a comparison at the data cannot see the change, the root
    # counts do.
    p = 1381
    forms = []
    for w, value in ((20, (1 + pow(p, 19, 174611)) % 174611), (12, 0)):
        path = tmp_path / f"w{w}.txt"
        path.write_text(f"{p} {value}\n")
        forms.append(eigenform(w, table=str(path)))
    f, g = forms
    params = miyawaki_satake(2, 10)
    bad = SatakeParams(3, mono_mul(params.mu0, (0, 4, 0)), params.mus)
    report = verify("main_theorem", 2, 10, mode="numeric", prime=p, f=f, g=g,
                    lhs_params=bad)
    assert not report.passed
    assert report.witness == verify("main_theorem", 2, 10, lhs_params=bad).witness
    assert verify("main_theorem", 2, 10, mode="numeric", prime=p, f=f, g=g).passed


def test_comparison_of_degree_zero_factors():
    empty = LocalFactor(())
    assert compare_symbolic(empty, empty) == (True, None)
    assert compare_symbolic(empty, LocalFactor(((0, 0, 0),)))[0] is False


@pytest.mark.parametrize("n,k", [(2, 10), (3, 9), (4, 8), (5, 11), (6, 10)])
def test_negative_controls_fail_numerically(forms, n, k):
    for p in (2, 199):
        for hooks in negative_control_hooks(n, k):
            report = verify("main_theorem", n, k, mode="numeric", prime=p,
                            f=forms[2 * k], g=forms[k + n], **hooks)
            assert not report.passed, (p, hooks)
            # the symbolic verdict's witness, not a near miss of two floats
            assert report.witness == verify("main_theorem", n, k, **hooks).witness
