"""The batched seeding path equals numpy's SeedSequence and default_rng,
compared as uint64 bits."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sitscreen.errors import ConfigError
from sitscreen.seeding import derive_seed, derive_seeds, reseed, rng_from_seed, seed_words

EDGES = (0, 2**32 - 1, 2**32, 2**64 - 1)
seeds64 = st.one_of(
    st.sampled_from(EDGES), st.integers(0, 2**32 - 1), st.integers(0, 2**64 - 1)
)


@settings(max_examples=60, deadline=None)
@given(master=seeds64, p=st.integers(0, 40))
@example(master=0, p=3)
@example(master=2**32 - 1, p=3)
@example(master=2**32, p=3)
@example(master=2**64 - 1, p=3)
def test_derive_seeds_equals_derive_seed(master, p):
    expected = np.array([derive_seed(master, k) for k in range(p)], dtype=np.uint64)
    got = derive_seeds(master, p)
    assert got.dtype == np.uint64
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("master", EDGES + (7, 2**32 + 5))
def test_derive_seeds_far_along_the_columns(master):
    seeds = derive_seeds(master, 70_000)
    for k in (0, 2**16 - 1, 2**16, 69_999):
        assert int(seeds[k]) == derive_seed(master, k)


def test_derive_seeds_refuses_a_master_outside_64_bits():
    for master in (-1, 2**64):
        with pytest.raises(ConfigError):
            derive_seeds(master, 3)


@settings(max_examples=60, deadline=None)
@given(st.lists(seeds64, min_size=1, max_size=12))
@example([0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1])
def test_seed_words_equal_seed_sequence(seeds):
    words = seed_words(np.array(seeds, dtype=np.uint64))
    assert words.shape == (len(seeds), 4) and words.dtype == np.uint64
    for s, row in zip(seeds, words):
        expected = np.random.SeedSequence(s).generate_state(4, np.uint64)
        assert row.tobytes() == expected.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    st.lists(seeds64, min_size=1, max_size=6),
    st.integers(2, 300),
    st.data(),
)
def test_reseeded_generator_draws_like_default_rng(seeds, n, data):
    # one generator serves every seed in turn, as one worker's does
    gen = rng_from_seed(0)
    for s, words in zip(seeds, seed_words(np.array(seeds, dtype=np.uint64)).tolist()):
        rem = data.draw(st.integers(0, n - 1))
        reference = np.random.default_rng(s)
        reseed(gen, words)
        assert gen.bit_generator.state == reference.bit_generator.state
        drop = gen.choice(n, size=rem, replace=False)
        assert drop.tobytes() == reference.choice(n, size=rem, replace=False).tobytes()
        assert gen.random(n - rem).tobytes() == reference.random(n - rem).tobytes()
