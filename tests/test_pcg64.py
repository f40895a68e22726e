"""`grfsq._pcg64` draws what `numpy.random.default_rng(seed)` draws, bit for
bit: the SeedSequence words, `random()` and `integers(n)` on both of
numpy's Lemire paths, in any interleaving. Only tests import numpy.random."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from grfsq._pcg64 import PCG64, seed_words

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**128, 2**130]
SEEDS = st.integers(0, 2**130) | st.sampled_from(EDGE_SEEDS)
# bounds on each side of the 32-bit path's end, and the largest int64 bound
EDGE_BOUNDS = [1, 2, 1600, 2**32 - 1, 2**32, 2**32 + 1, 2**63 - 1, 2**63]
BOUNDS = st.sampled_from(EDGE_BOUNDS) | st.integers(1, 2**32) | st.integers(1, 2**63)


@given(seed=SEEDS, count=st.integers(0, 12))
@settings(max_examples=300)
def test_seed_words_match_seed_sequence(seed, count):
    assert seed_words(seed, count) == np.random.SeedSequence(seed).generate_state(count).tolist()


@given(seed=SEEDS, draws=st.lists(st.none() | BOUNDS, max_size=50))
@settings(max_examples=300)
def test_interleaved_draws_match_default_rng(seed, draws):
    """None is a `random()` call, an int n an `integers(n)` call."""
    ours, theirs = PCG64(seed), np.random.default_rng(seed)
    for n in draws:
        if n is None:
            assert ours.random() == theirs.random()
        else:
            assert ours.integers(n) == theirs.integers(n)


def test_integers_after_random_take_the_buffered_upper_half():
    # integers(2**32) is one raw 32-bit draw: the lower half of a 64-bit
    # word, whose upper half the next 32-bit draw takes, after any random()
    word = int(np.random.default_rng(7).bit_generator.random_raw())
    ours, theirs = PCG64(7), np.random.default_rng(7)
    assert ours.integers(2**32) == theirs.integers(2**32) == word & (2**32 - 1)
    assert ours.random() == theirs.random()
    assert ours.random() == theirs.random()
    assert ours.integers(2**32) == theirs.integers(2**32) == word >> 32
    assert ours.integers(1600) == theirs.integers(1600)
    assert ours.random() == theirs.random()


def test_a_one_value_range_draws_nothing():
    ours, theirs = PCG64(3), np.random.default_rng(3)
    assert [ours.integers(1) for _ in range(5)] == [0] * 5
    assert ours.random() == theirs.random()
