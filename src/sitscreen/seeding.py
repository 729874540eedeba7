"""Deterministic seed derivation, the tie-break keys of a seeded column,
and the rows a trimmed sample drops.

All randomness in the package flows through explicit integer seeds.  Derived
seeds are produced by hashing a tuple of integers through
``numpy.random.SeedSequence``, which guarantees well-mixed, collision-resistant
streams that do not depend on scheduling or thread count.  A screen needs
one seed per column, so :func:`derive_seeds` runs SeedSequence's documented
uint32 hash/mix (pool of 4 words) on whole arrays at once, equal bit for
bit to ``derive_seed``.

A column's tie-breaks come from one counter-based key per row (Salmon et
al. 2011, "Parallel random numbers: as easy as 1, 2, 3"): for tie seed s,

    key_s(i) = mix64(s + (i + 1) gamma mod 2**64),

with gamma = 0x9E3779B97F4A7C15 and mix64 SplitMix64's output function
(Steele, Lea & Flood 2014), so key_s(i) is the (i + 1)-th output of a
SplitMix64 generator seeded with s.  mix64 is a bijection and gamma is odd,
so a column's keys are all distinct.  Keys 0..n_eff - 1 break ties among
equal covariate values (:func:`tie_keys`), each key arithmetic on whole
arrays: the counters (i + 1) gamma are shared by every seed
(:func:`tie_counters`), and the mix runs in place in buffers the caller
may supply.  The rem = n mod c rows a sample drops depend on (n, rem) alone:
Floyd's sample (Bentley & Floyd 1987, "A sample of brilliance") from seed
0's keys n..n + rem - 1 (:func:`dropped_rows`), shared by every column.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

# Fixed master seed used by the CLI when --seed is not given (never time-based).
DEFAULT_MASTER_SEED = 42

# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32, _MASK64 = 2**32 - 1, 2**64 - 1

# SplitMix64's increment and the multipliers of its output function.
_GAMMA, _MIX_A, _MIX_B = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def derive_seed(*parts: int) -> int:
    """Hash a tuple of non-negative integers into a fresh 64-bit seed."""
    entropy = tuple(int(p) for p in parts)
    for part in entropy:
        if part < 0:
            raise ConfigError(f"seeds must be non-negative integers, got {part}")
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def rng_from_seed(seed: int) -> np.random.Generator:
    """Canonical generator construction: one PCG64 stream per seed."""
    return np.random.default_rng(int(seed))


def _hash_consts(value: int, mult: int, count: int) -> np.ndarray:
    """SeedSequence's running hash constant and its next ``count`` values,
    one uint32 per row."""
    consts = [value]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


# Hash k of the pool (4 fill it, 12 mix it) xors with row k and multiplies by
# row k + 1; output word i does the same with _OUT_CONSTS.
_MIX_CONSTS = _hash_consts(_INIT_A, _MULT_A, 16)
_OUT_CONSTS = _hash_consts(_INIT_B, _MULT_B, 2)


def _xorshift(value: np.ndarray) -> np.ndarray:
    return value ^ (value >> np.uint32(16))


def _generate_state(entropy: list) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(1, np.uint64)[0]`` for up to
    4 uint32 entropy words, each an int or an array with one entry per
    seed; one uint64 per seed.

    A missing word hashes as 0, because SeedSequence runs ``hashmix(0)`` out
    to the pool size: ``[lo]`` and ``[lo, 0]`` give the same state.
    """
    pool = np.zeros((4, np.size(entropy[-1])), dtype=np.uint32)
    for i, word in enumerate(entropy):
        pool[i] = word
    pool = _xorshift((pool ^ _MIX_CONSTS[:4]) * _MIX_CONSTS[1:5])
    k = 4
    for src in range(4):
        for dst in range(4):
            if src != dst:
                hashed = _xorshift((pool[src] ^ _MIX_CONSTS[k]) * _MIX_CONSTS[k + 1])
                pool[dst] = _xorshift(_MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashed)
                k += 1
    state = _xorshift((pool[:2] ^ _OUT_CONSTS[:2]) * _OUT_CONSTS[1:3])
    # a little-endian pair of uint32 words, as SeedSequence joins them
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8")[:, 0].astype(np.uint64)


def derive_seeds(master: int, p: int) -> np.ndarray:
    """``[derive_seed(master, k) for k in range(p)]`` as a uint64 array,
    for a master below 2**64 and p at most 2**32."""
    master = int(master)
    if not 0 <= master < 2**64:
        raise ConfigError(f"master seed must fit in 64 bits, got {master}")
    words = [master & _MASK32] + ([master >> 32] if master >> 32 else [])
    return _generate_state(words + [np.arange(p, dtype=np.uint32)])


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
