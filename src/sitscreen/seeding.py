"""Deterministic seed derivation.

All randomness in the package flows through explicit integer seeds.  Derived
seeds are produced by hashing a tuple of integers through
``numpy.random.SeedSequence``, which guarantees well-mixed, collision-resistant
streams that do not depend on scheduling or thread count.

A screen needs one seed per column, so :func:`derive_seeds` and
:func:`seed_words` run SeedSequence's documented uint32 hash/mix (pool of 4
words) on whole arrays at once, equal bit for bit to ``derive_seed`` and to
``SeedSequence(seed).generate_state(4, np.uint64)``.  :func:`reseed` then puts
one reusable PCG64 generator in the state ``default_rng(seed)`` starts from.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

# Fixed master seed used by the CLI when --seed is not given (never time-based).
DEFAULT_MASTER_SEED = 42

# SeedSequence's hash constants (numpy/random/bit_generator.pyx) and PCG64's
# 128-bit LCG multiplier.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1


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
_OUT_CONSTS = _hash_consts(_INIT_B, _MULT_B, 8)


def _xorshift(value: np.ndarray) -> np.ndarray:
    return value ^ (value >> np.uint32(16))


def _generate_state(entropy: list, n_words: int) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(n_words, np.uint64)`` for up
    to 4 uint32 entropy words, each an int or an array with one entry per
    seed; one row of n_words / 2 words per seed.

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
    u32 = 2 * n_words
    cycled = pool[np.arange(u32) % 4]
    state = _xorshift((cycled ^ _OUT_CONSTS[:u32]) * _OUT_CONSTS[1 : u32 + 1])
    # little-endian pairs of uint32 words, as SeedSequence joins them
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


def derive_seeds(master: int, p: int) -> np.ndarray:
    """``[derive_seed(master, k) for k in range(p)]`` as a uint64 array,
    for a master below 2**64 and p at most 2**32."""
    master = int(master)
    if not 0 <= master < 2**64:
        raise ConfigError(f"master seed must fit in 64 bits, got {master}")
    words = [master & _MASK32] + ([master >> 32] if master >> 32 else [])
    return _generate_state(words + [np.arange(p, dtype=np.uint32)], 1)[:, 0]


def seed_words(seeds) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for each uint64 seed
    s, one row of 4 words per seed: what ``default_rng(s)`` seeds PCG64 from."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    return _generate_state([seeds & np.uint64(_MASK32), seeds >> np.uint64(32)], 4)


def reseed(gen: np.random.Generator, words) -> np.random.Generator:
    """Put ``gen``'s PCG64 in the state ``default_rng(s)`` starts from, given
    ``words``, the four Python ints of ``seed_words(s)``: PCG64's two-step
    seeding of the 128-bit state words[0:2] with increment words[2:4]."""
    w0, w1, w2, w3 = words
    inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
    state = ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _MASK128
    gen.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen
