"""A derived seed is a SplitMix64 tie key, as are the column seeds of a
screen; the vectorised tie-break keys equal SplitMix64 and order ties
uniformly, and the dropped rows equal a literal Floyd's sample."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sitscreen import estimator, screening
from sitscreen.errors import ConfigError
from sitscreen.seeding import (
    derive_seed,
    dropped_rows,
    tie_counters,
    tie_key,
    tie_keys,
)

from conftest import key_sort

EDGES = (0, 2**32 - 1, 2**32, 2**64 - 1)
seeds64 = st.one_of(
    st.sampled_from(EDGES), st.integers(0, 2**32 - 1), st.integers(0, 2**64 - 1)
)


@settings(max_examples=60, deadline=None)
@given(master=seeds64, k=seeds64)
def test_derive_seed_is_a_tie_key(master, k):
    assert derive_seed(master, k) == tie_key(master, k)


@pytest.mark.parametrize("master", EDGES)
def test_derive_seed_is_a_tie_key_at_the_edges(master):
    for k in EDGES:
        assert derive_seed(master, k) == tie_key(master, k)


@pytest.mark.parametrize("master", EDGES + (7, 2**32 + 5))
def test_screen_all_seeds_column_k_with_derive_seed(master, monkeypatch):
    # the seed vector screen_all hands the kernel, far along the columns
    taken, omegas = [], screening._omegas

    def spy(x, kept, counts, seeds, *rest):
        taken.append(seeds)
        return omegas(x, kept, counts, seeds, *rest)

    monkeypatch.setattr(screening, "_omegas", spy)
    x = np.tile(np.array([[0], [1], [1], [2]], dtype=np.int8), 70_000)
    data = screening.Dataset(x, np.arange(4.0))
    screening.screen_all(data, estimator.SliceConfig(2, master), threads=1)
    (seeds,) = taken
    assert seeds.dtype == np.uint64 and seeds.shape == (70_000,)
    for k in (0, 2**16 - 1, 2**16, 69_999):
        assert int(seeds[k]) == derive_seed(master, k)


def test_derive_seed_is_pinned():
    # literal values, so that a change to every seed of the package is
    # deliberate; the last tuple's first part takes two 64-bit words
    assert derive_seed(42, 1) == 2949826092126892291
    assert derive_seed(7, 3, 2) == 7932748853614185806
    assert derive_seed(2**64 - 1, 2**32) == 14243228784026351428
    assert derive_seed(2**70, 0, 1) == 17698095295879809526
    # tie_key(s, k) is SplitMix64's (k + 1)-th output from s, and 2**70's
    # words are 0 and 64: output 2 from output 1 from output 65 from 0
    state = next(itertools.islice(splitmix64(0), 64, None))
    state = next(splitmix64(state))
    assert derive_seed(2**70, 0, 1) == list(itertools.islice(splitmix64(state), 2))[1]


def test_derive_seed_gives_distinct_seeds():
    grid = itertools.product((0, 1, 42, 2**32, 2**64 - 1, 2**70), range(20), range(3))
    seeds = [derive_seed(*parts) for parts in grid]
    assert len(set(seeds)) == len(seeds) and all(0 <= s < 2**64 for s in seeds)


def test_derive_seed_refuses_a_negative_part():
    for parts in ((-1,), (0, -1), (2**70, 3, -2)):
        with pytest.raises(ConfigError, match=f"non-negative integers, got {parts[-1]}"):
            derive_seed(*parts)


MASK64 = 2**64 - 1


def splitmix64(seed):
    """SplitMix64 as a generator of Python ints (Steele, Lea & Flood 2014)."""
    state = seed
    while True:
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & MASK64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK64
        yield z ^ (z >> 31)


@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
def test_tie_keys_equal_splitmix64(seed):
    # from 2**64 - 1 the counter wraps at the first key
    expected = list(itertools.islice(splitmix64(seed), 300))
    assert tie_keys(np.uint64(seed), tie_counters(np.arange(300))).tolist() == expected
    rows = np.array([[299, 0, 7], [1, 1, 2]])
    got = tie_keys(np.array([[seed], [seed]], dtype=np.uint64), tie_counters(rows))
    assert got.tolist() == [[expected[i] for i in row] for row in rows.tolist()]
    assert got.dtype == np.uint64
    # into given buffers, in place
    out, shifted = np.empty((2, 3), dtype=np.uint64), np.empty((2, 3), dtype=np.uint64)
    seeds = np.array([[seed], [seed]], dtype=np.uint64)
    assert tie_keys(seeds, tie_counters(rows), out, shifted) is out
    assert out.tolist() == got.tolist()


def floyd(n, rem):
    """Floyd's sample of rem of range(n) from a set, one pick at a time,
    from the outputs n..n + rem - 1 of SplitMix64 from 0 (its state jumped
    n steps), which are tie_key(0, n..n + rem - 1)."""
    keys = list(itertools.islice(splitmix64(n * 0x9E3779B97F4A7C15 & MASK64), rem))
    assert keys == [tie_key(0, n + t) for t in range(rem)]
    picked = set()
    order = []
    for t, j in enumerate(range(n - rem, n)):
        v = keys[t] * (j + 1) >> 64
        order.append(j if v in picked else v)
        picked.add(order[-1])
    return order


@pytest.mark.parametrize(
    "n, rem", [(7, 3), (1000, 8), (1023, 31), (10_499, 299), (2**31 + 7, 3)]
)
def test_trim_drops_equal_a_literal_floyd(n, rem):
    drops = dropped_rows(n, rem)
    assert drops == floyd(n, rem)
    assert len(set(drops)) == rem and all(0 <= i < n for i in drops)


# chi-squared with 23 degrees of freedom: scipy.stats.chi2.ppf(0.999, 23)
CHI2_999_23 = 49.7282


def chi_squared(counts, total):
    expected = total / len(counts)
    return sum((k - expected) ** 2 / expected for k in counts)


def test_tie_orders_are_uniform():
    # a 4-way tie among 8 rows, c = 4: the 24 orders of the tied rows
    x = np.array([0.0, 1.0, 1.0, 2.0, 1.0, 3.0, 1.0, 4.0])
    sample = estimator.PairedSample(x, np.arange(8.0))
    orders = {}
    for seed in range(24_000):
        ordered = estimator.arrange_by_covariate(sample, estimator.SliceConfig(4, seed))
        key = tuple(ordered[1:5].tolist())
        orders[key] = orders.get(key, 0) + 1
    assert len(orders) == 24
    assert chi_squared(list(orders.values()), 24_000) < CHI2_999_23


@pytest.mark.parametrize("n", [8, 33])
def test_tie_order_falls_back_to_the_lexsort(n):
    # rows 0 and 1 hold keys equal in their top 53 - b bits, which the packed
    # sort cannot tell apart (its order would follow the positions); row 2
    # holds full keys.  Levels are given in x's own order, as float ranks and
    # as an int8 row's own bits.
    b = (n - 1).bit_length()
    rng = np.random.default_rng(n)
    top = np.uint64(rng.integers(0, 2 ** (53 - b))) << np.uint64(11 + b)
    key = top | rng.integers(0, 2 ** (11 + b), (3, n)).astype(np.uint64)
    key[2] = rng.integers(0, 2**63, n).astype(np.uint64) << np.uint64(1)
    x = np.array([np.zeros(n), *rng.integers(0, 3, (2, n)).astype(float)])
    expected = np.lexsort((key, x), axis=1).tolist()
    assert key_sort(x, x.astype(np.uint32), key).tolist() == expected
    assert key_sort(x.astype(np.int8), x.astype(np.int8), key).tolist() == expected
