"""Deterministic seed derivation, the tie-break keys of a seeded column,
and the rows a trimmed sample drops.

All randomness in the package flows through explicit integer seeds, and
one hash stands behind every derived seed, tie key and trim: SplitMix64
(Steele, Lea & Flood 2014), used counter-based (Salmon et al. 2011,
"Parallel random numbers: as easy as 1, 2, 3").  For tie seed s,

    key_s(i) = mix64(s + (i + 1) gamma mod 2**64),

with gamma = 0x9E3779B97F4A7C15 and mix64 SplitMix64's output function,
so key_s(i) is the (i + 1)-th output of a SplitMix64 generator seeded with
s.  mix64 is a bijection and gamma is odd, so a column's keys are all
distinct.  Keys 0..n_eff - 1 break ties among equal covariate values
(:func:`tie_keys`), each key arithmetic on whole arrays: the counters
(i + 1) gamma are shared by every seed (:func:`tie_counters`), and the mix
runs in place in buffers the caller may supply.

A derived seed folds its parts through the same keys
(:func:`derive_seed`): derive_seed(s, k) = key_s(k), so column k of a
screen with master seed s takes the seed key_s(k), and a screen builds
its p column seeds in one :func:`tie_keys` call.  The rem = n mod c rows a
sample drops depend on (n, rem) alone: Floyd's sample (Bentley & Floyd
1987, "A sample of brilliance") from seed 0's keys n..n + rem - 1
(:func:`dropped_rows`), shared by every column.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ConfigError

# Fixed master seed used by the CLI when --seed is not given (never time-based).
DEFAULT_MASTER_SEED = 42

_MASK64 = 2**64 - 1

# SplitMix64's increment and the multipliers of its output function.
_GAMMA, _MIX_A, _MIX_B = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def _is_integer(value) -> bool:
    """An int or a numpy integer, but not a bool (numpy's is no np.integer)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _seed(part) -> int:
    """A non-negative integer seed as an int; a float or bool is refused."""
    if not _is_integer(part) or part < 0:
        raise ConfigError(f"seeds must be non-negative integers, got {part}")
    return int(part)


def derive_seed(*parts: int) -> int:
    """Fold one or more non-negative integers (ints or numpy integers, not
    floats or bools) into a 64-bit seed: their 64-bit words, low word
    first, go through seed = tie_key(seed, word) from the first word on, so
    derive_seed(s, k) = tie_key(s, k) for s and k below 2**64."""
    words = []
    for part in map(_seed, parts):
        words += [part >> at & _MASK64 for at in range(0, max(part.bit_length(), 1), 64)]
    return functools.reduce(tie_key, words)


def rng_from_seed(seed: int) -> np.random.Generator:
    """Canonical generator construction: one PCG64 stream per seed."""
    return np.random.default_rng(_seed(seed))


def tie_key(seed: int, i: int) -> int:
    """key_s(i) of tie seed s = ``seed`` in Python ints, the reference
    :func:`~sitscreen.estimator.arrange_by_covariate` takes its keys from."""
    z = (seed + (i + 1) * _GAMMA) & _MASK64
    z = (z ^ z >> 30) * _MIX_A & _MASK64
    z = (z ^ z >> 27) * _MIX_B & _MASK64
    return z ^ z >> 31


def tie_counters(rows) -> np.ndarray:
    """The counters (i + 1) gamma mod 2**64 of the rows i of ``rows``, as
    uint64: the part of a tie key that every seed shares."""
    return (np.asarray(rows, dtype=np.uint64) + np.uint64(1)) * np.uint64(_GAMMA)


def tie_keys(seeds, counters, out=None, shifted=None) -> np.ndarray:
    """key_s(i) = mix64(s + (i + 1) gamma mod 2**64) for each tie seed s of
    ``seeds`` and counter (i + 1) gamma of ``counters`` (:func:`tie_counters`),
    broadcast against each other, as uint64: SplitMix64's (i + 1)-th output
    from seed s.  The keys are written into ``out`` (a new array when None)
    in a few in-place passes, which take their shifts in ``shifted``, a
    uint64 buffer of the keys' shape (a new one when None)."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    if out is None:
        out = np.empty(np.broadcast_shapes(seeds.shape, np.shape(counters)), dtype=np.uint64)
    # a copy and one broadcast add: one of numpy's 64 KB buffers, not two
    np.copyto(out, counters)
    keys = np.add(out, seeds, out=out)
    shifted = np.empty_like(keys) if shifted is None else shifted
    for shift, mult in ((30, _MIX_A), (27, _MIX_B), (31, None)):
        np.right_shift(keys, np.uint64(shift), out=shifted)
        keys ^= shifted
        if mult is not None:
            keys *= np.uint64(mult)
    return keys


def dropped_rows(n: int, rem: int) -> list[int]:
    """The rem rows of range(n) a sample of n drops, in pick order: Floyd's
    sample from seed 0's keys, whose pick t takes
    v_t = floor(key_0(n + t) (j_t + 1) / 2**64) <= j_t, j_t = n - rem + t,
    or j_t itself when an earlier pick holds v_t."""
    picks = []
    for t in range(rem):
        j = n - rem + t
        v = tie_key(0, n + t) * (j + 1) >> 64
        picks.append(j if v in picks else v)
    return picks
