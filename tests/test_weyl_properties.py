"""Spinor and standard factors depend only on the Weyl orbit of their Satake
set: random words in the generators sigma_i and the permutations of
mu_1..mu_g leave both root multisets, and the factored T(p)-eigenvalue
mu0 prod (1 + mu_i), unchanged.  Acceptance criterion 9 checks 100 words
from one fixed seed; this draws them freely, for n <= 4."""

import pytest

from liftspin.euler import spinor_factor, standard_factor
from liftspin.identities import compare_factored
from liftspin.satake import ikeda_satake, miyawaki_satake
from oracles import weyl_permute, weyl_sigma

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_SETS = st.one_of(st.builds(ikeda_satake, st.integers(1, 4), st.integers(1, 30)),
                  st.builds(miyawaki_satake, st.integers(2, 4), st.integers(1, 30)))


@st.composite
def _weyl_words(draw):
    """A Satake set and a word of up to 8 generators, applied in turn."""
    params = draw(_SETS)
    genus = params.genus
    move = st.one_of(st.integers(1, genus),
                     st.permutations(range(1, genus + 1)).map(list))
    return params, draw(st.lists(move, max_size=8))


@settings(max_examples=60, deadline=None)
@given(_weyl_words())
def test_weyl_words_keep_the_factors(case):
    params, word = case
    current = params
    for move in word:
        current = weyl_sigma(current, move) if isinstance(move, int) \
            else weyl_permute(current, move)
    assert spinor_factor(current).counts == spinor_factor(params).counts
    assert standard_factor(current).counts == standard_factor(params).counts
    assert compare_factored((current.mu0, current.mus), (params.mu0, params.mus)) == (True, None)
