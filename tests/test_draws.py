"""The minimal samples computed for all trials at once are numpy's per-trial
draws bit for bit, and are refused as numpy refuses them."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conic_purge import modelfit

import reference_draws

# word-count edges of the seed's uint32 entropy
SEEDS = [0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 64 + 12345]


def assert_matches_reference(n, size, seed, count):
    drawn = modelfit._minimal_samples(n, size, seed, count)
    expected = reference_draws._minimal_samples(n, size, seed, count)
    assert drawn.dtype == expected.dtype == np.int64
    assert drawn.shape == (count, size)
    assert np.array_equal(drawn, expected)


@st.composite
def populations(draw):
    n = draw(st.integers(1, 600))
    return n, draw(st.integers(1, min(n, 20)))


@pytest.mark.parametrize("seed", SEEDS)
@settings(max_examples=30, deadline=None, derandomize=True)
@given(population=populations(), count=st.integers(1, 1100))
def test_matches_per_trial_draws(seed, population, count):
    n, size = population
    assert_matches_reference(n, size, seed, count)


@pytest.mark.parametrize("seed", [SEEDS[0], SEEDS[-1]])
@pytest.mark.parametrize("n", [10000, 10001])
@pytest.mark.parametrize("offset", [0, 1])
def test_floyd_and_tail_shuffle_branches(n, offset, seed):
    # choice shuffles a tail of arange(n) once n > 10000 and size > n // 50
    assert_matches_reference(n, n // 50 + offset, seed, 60)


@pytest.mark.parametrize("n, size", [
    (5, 5),                  # the first step's bound is 0: nothing drawn
    (2 ** 31 + 5, 5),        # 32-bit bounds that reject about half the words
    (3 * 2 ** 30, 8),
    (2 ** 32, 4),            # the bound 2**32 - 1 takes one word as it is
    (2 ** 32 + 1, 4),        # 32-bit draws, then 64-bit ones
    (2 ** 62 + 5, 7),        # 64-bit bounds that reject a quarter
    (2 ** 63 - 1, 6),
])
def test_bound_edges(n, size):
    assert_matches_reference(n, size, 7, 200)


@pytest.mark.parametrize("args, error", [
    ((40, 5, -1, 3), ValueError),
    ((40, 5, 5.0, 3), TypeError),
    ((40, 5.0, 0, 3), TypeError),
    ((40, 41, 0, 3), ValueError),
    ((0, 1, 0, 3), ValueError),
])
def test_refusals_are_numpys(args, error):
    with pytest.raises(error):
        reference_draws._minimal_samples(*args)
    with pytest.raises(error):
        modelfit._minimal_samples(*args)


def test_cached_draw_refuses_a_float_size():
    # the rescue's cache is typed, so 5.0 is drawn, and refused, on its own
    with pytest.raises(TypeError):
        modelfit._rescue_samples(150, 5.0)
