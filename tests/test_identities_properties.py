"""Every random single perturbation of a spinor identity is detected, and
the witness is always the T^1 coefficient.

With +1-coefficient unit-monomial roots, the T^1 coefficient is minus the
root sum and so determines the root multiset; `compare_symbolic` relies on
that instead of searching deeper coefficients.  The perturbations are the
three mutation hooks: one beta multiplicity, one shift, one Satake exponent.
"""

import pytest

from liftspin.beta import beta_value
from liftspin.identities import verify
from liftspin.satake import SatakeParams, ikeda_satake, miyawaki_satake, mono_mul

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# identity -> (n range, N of beta(r, m, N) as a function of n, Satake set)
CASES = {
    "main_theorem": (range(2, 5), lambda n: n - 1, miyawaki_satake),
    "ikeda_spinor": (range(1, 4), lambda n: n, ikeda_satake),
}


def _enumerated(N):
    """(m, r, beta) of every factor the product side enumerates."""
    return [(m, r, beta_value(r, m, N)) for m in range(N + 1)
            for r in range(-m * (2 * N - m), m * (2 * N - m) + 1, 2)]


@st.composite
def perturbations(draw):
    identity = draw(st.sampled_from(sorted(CASES)))
    n_range, big_n, satake = CASES[identity]
    n = draw(st.sampled_from(n_range))
    N = big_n(n)
    kind = draw(st.sampled_from(("beta", "shift", "satake")))
    delta = draw(st.sampled_from((1, -1)))
    if kind == "beta":
        m0, r0, base = draw(st.sampled_from(_enumerated(N)))
        if base == 0:
            delta = 1  # a negative multiplicity is a structural failure instead
        hooks = {"beta_fn": lambda r, m, n_: beta_value(r, m, n_)
                 + (delta if (r, m, n_) == (r0, m0, N) else 0)}
    elif kind == "shift":
        m0, r0, _ = draw(st.sampled_from([e for e in _enumerated(N) if e[2] > 0]))
        hooks = {"shift_bump": ((m0, r0), delta)}
    else:
        params = satake(n, 10)
        index = draw(st.integers(0, params.genus))
        bump = (0, 0, delta)
        mus = list(params.mus)
        mu0 = mono_mul(params.mu0, bump) if index == 0 else params.mu0
        if index:
            mus[index - 1] = mono_mul(mus[index - 1], bump)
        hooks = {"lhs_params": SatakeParams(params.genus, mu0, tuple(mus))}
    return identity, n, hooks


@settings(max_examples=150, deadline=None)
@given(perturbations())
def test_single_perturbation_fails_at_t_degree_1(case):
    identity, n, hooks = case
    report = verify(identity, n, 10, **hooks)
    assert not report.passed
    assert report.witness["t_degree"] == 1
    assert report.witness["lhs"] != report.witness["rhs"]
