"""Every random single perturbation of a spinor identity is detected, and
the witness is always the T^1 coefficient.

With +1-coefficient unit-monomial roots, the T^1 coefficient is minus the
root sum and so determines the root multiset; `compare_symbolic` relies on
that instead of searching deeper coefficients.  The perturbations are the
three mutation hooks: one beta multiplicity, one shift, one Satake exponent.

`compare_symbolic` and the factored writers count each distinct root once;
on root lists full of repeats, their verdict, witness and bytes equal those
built from the sorted roots one at a time.

`LocalFactor(parts=...)`, the one builder of every product side, lists the
roots of each part's shifted copies in part order, exactly as shifting and
concatenating them one by one does.
"""

import json

import pytest

from liftspin import laurent
from liftspin.beta import beta_value
from liftspin.euler import LocalFactor
from liftspin.identities import compare_symbolic, verify
from liftspin.satake import SatakeParams, ikeda_satake, miyawaki_satake, mono_mul
from oracles import factored_json_dict, symbolic_witness, text_lines

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


# 27 distinct roots, so lists of up to 40 repeat some
_roots = st.lists(st.tuples(*[st.integers(-1, 1)] * 3), max_size=40)


@st.composite
def sides(draw):
    lhs = draw(_roots)
    rhs = draw(st.one_of(st.permutations(lhs), _roots))
    return LocalFactor(lhs), LocalFactor(rhs)


@settings(max_examples=200, deadline=None)
@given(sides())
def test_counted_roots_match_sorted_roots(case):
    lhs, rhs = case
    ok, witness = compare_symbolic(lhs, rhs)
    assert ok == (sorted(lhs.roots) == sorted(rhs.roots))
    assert laurent.dumps(witness) == json.dumps(None if ok else symbolic_witness(lhs, rhs),
                                                indent=2)
    for side in case:
        factored = factored_json_dict(side, "x")
        assert "".join(side.chunks("x", factored=True)) == json.dumps(factored, indent=2)
        assert "".join(side.chunks("x", True, "text")) == text_lines(factored, "roots")


# parts (factor, shift, e): factors of up to 3 roots, shift exponents past
# 2^64 of either sign, and multiplicities from 0
_parts = st.lists(st.tuples(st.lists(st.tuples(*[st.integers(-2, 2)] * 3), max_size=3)
                            .map(LocalFactor),
                            st.tuples(*[st.integers(-2 ** 70, 2 ** 70)] * 3),
                            st.integers(0, 3)), max_size=6)


@settings(max_examples=200, deadline=None)
@given(_parts)
def test_product_concatenates_shifted_copies_in_order(parts):
    product = LocalFactor(parts=parts)
    assert product.roots == tuple(mono_mul(root, shift) for factor, shift, e in parts
                                  for _ in range(e) for root in factor.roots)
    assert product.degree == sum(e * factor.degree for factor, _, e in parts)
