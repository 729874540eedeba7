"""The batched seeding path equals numpy's SeedSequence and default_rng,
compared as uint64 bits, and the vectorised trimming draw equals
``Generator.choice``."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sitscreen import seeding
from sitscreen.errors import ConfigError, UnsupportedNumpy
from sitscreen.seeding import (
    check_trim_draws,
    derive_seed,
    derive_seeds,
    reseed,
    rng_from_seed,
    seed_words,
    trim_draws,
)

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


def assert_draws_like_choice(seeds, n, rem):
    drops, used = trim_draws(seed_words(np.array(seeds, dtype=np.uint64)), n, rem)
    assert drops.shape == (len(seeds), rem) and drops.dtype == np.int64
    for s, row, skip in zip(seeds, drops, used.tolist()):
        reference = np.random.default_rng(s)
        assert row.tolist() == reference.choice(n, size=rem, replace=False).tolist()
        advanced = np.random.default_rng(s)
        advanced.bit_generator.advance(skip)
        assert advanced.random(8).tobytes() == reference.random(8).tobytes()


# Floyd's regime small and large; the partial shuffle (n > 10,000 and
# rem > n // 50); bounds near 2**31, where Lemire rejects about half the time.
DRAW_SIZES = st.one_of(
    st.integers(3, 200).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1))),
    st.tuples(st.integers(301, 10_000), st.integers(1, 300)),
    st.integers(10_001, 30_000).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(n // 50 + 1, n // 50 + 40))
    ),
    st.tuples(st.integers(2**31 - 50, 2**31 + 2**30), st.integers(1, 12)),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(seeds64, min_size=1, max_size=40), DRAW_SIZES)
@example(seeds=[0, 2**64 - 1] * 10, sizes=(1000, 1))
@example(seeds=[0, 2**64 - 1] * 10, sizes=(2**31 + 2**30, 3))
@example(seeds=[0, 2**64 - 1], sizes=(10_499, 299))
@example(seeds=[0, 2**64 - 1] * 10, sizes=(10_499, 299))
@example(seeds=list(range(20)), sizes=(10_001, 5_000))
@example(seeds=list(range(20)), sizes=(10, 9))
def test_trim_draws_equal_choice(seeds, sizes):
    # in Floyd's regime 16 rows or more take the array path; fewer rows and
    # the partial shuffle take numpy's draw, whose word count must be right
    assert_draws_like_choice(seeds, *sizes)


@pytest.mark.parametrize("rows", [1, 40])
def test_trim_draws_with_rejections(rows):
    # at n = 3 * 2**30 + 1 a Lemire draw is rejected a quarter of the time
    seeds = list(range(rows))
    assert_draws_like_choice(seeds, 3 * 2**30 + 1, 5)
    _, used = trim_draws(seed_words(seeds), 3 * 2**30 + 1, 5)
    assert used.max() > 5


class _ReversedChoice(np.random.Generator):
    def choice(self, *args, **kwargs):
        return super().choice(*args, **kwargs)[::-1]


def test_a_numpy_whose_choice_differs_is_refused(monkeypatch):
    monkeypatch.setattr(
        np.random, "default_rng", lambda seed: _ReversedChoice(np.random.PCG64(seed))
    )
    check_trim_draws.cache_clear()
    try:
        with pytest.raises(UnsupportedNumpy, match=f"numpy {np.__version__}") as raised:
            check_trim_draws()
        assert raised.value.exit_code == 4
    finally:
        check_trim_draws.cache_clear()


class _WastefulChoice(np.random.Generator):
    def choice(self, *args, **kwargs):
        drops = super().choice(*args, **kwargs)
        self.bit_generator.random_raw(1000)
        return drops


def test_a_choice_using_unexpected_words_is_refused(monkeypatch):
    # a row drawn by numpy itself counts the raw words its choice used
    monkeypatch.setattr(
        np.random, "default_rng", lambda seed: _WastefulChoice(np.random.PCG64(seed))
    )
    with pytest.raises(UnsupportedNumpy, match="raw PCG64 words"):
        trim_draws(seed_words([5]), 1000, 8)


def test_the_choice_check_covers_both_regimes_and_large_bounds():
    regimes = {seeding._floyd(n, rem) for n, rem, _ in seeding._CHOICE_CHECKS}
    assert regimes == {True, False}
    assert max(n for n, _, _ in seeding._CHOICE_CHECKS) > 2**31
    assert max(len(seeds) for _, _, seeds in seeding._CHOICE_CHECKS) >= seeding._VECTOR_ROWS
