"""Deterministic seed derivation, and the trimming draw of a seeded column.

All randomness in the package flows through explicit integer seeds.  Derived
seeds are produced by hashing a tuple of integers through
``numpy.random.SeedSequence``, which guarantees well-mixed, collision-resistant
streams that do not depend on scheduling or thread count.

A screen needs one seed per column, so :func:`derive_seeds` and
:func:`seed_words` run SeedSequence's documented uint32 hash/mix (pool of 4
words) on whole arrays at once, equal bit for bit to ``derive_seed`` and to
``SeedSequence(seed).generate_state(4, np.uint64)``.  :func:`reseed` then puts
one reusable PCG64 generator in the state ``default_rng(seed)`` starts from.

A trimmed column first draws ``default_rng(seed).choice(n, rem,
replace=False)``.  :func:`trim_draws` makes that draw for many seeds at once,
bit for bit.  numpy runs it in one of two regimes, both integer arithmetic on
the PCG64 stream: Floyd's sampling (Bentley & Floyd 1987, "A sample of
brilliance") followed by a shuffle of the picks, for n <= 10,000 or
rem <= n // 50, and otherwise a partial shuffle of ``arange(n)``.  Every
bound takes Lemire's rejection method on one uint32 draw (Lemire 2019, "Fast
random integer generation in an interval").  Floyd's regime runs on whole
arrays: PCG64's 128-bit LCG in uint64 limbs, jumped ahead to each raw word,
all Lemire draws at once, and the sequential steps (Floyd's replaced picks,
the shuffle's swaps) resolved as short chains.  Rows that reject a draw,
calls with few rows, and the partial shuffle (which needs c > 200 and
n > 10,000) are drawn by numpy's ``choice`` itself, one column at a time.
Each draw also reports how many raw words it used, so a generator advanced
by that count continues as numpy's would after ``choice``.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ConfigError, UnsupportedNumpy

# Fixed master seed used by the CLI when --seed is not given (never time-based).
DEFAULT_MASTER_SEED = 42

# SeedSequence's hash constants (numpy/random/bit_generator.pyx) and PCG64's
# 128-bit LCG multiplier.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK64, _MASK128 = 2**32 - 1, 2**64 - 1, 2**128 - 1


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


def _pcg_seed(words) -> tuple[int, int]:
    """PCG64's (state, increment) as ``default_rng(s)`` leaves them, from
    the four words of ``seed_words(s)``: the two-step seeding of the 128-bit
    state words[0:2] with increment words[2:4]."""
    w0, w1, w2, w3 = (int(w) for w in words)
    inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
    return ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _MASK128, inc


def reseed(gen: np.random.Generator, words) -> np.random.Generator:
    """Put ``gen``'s PCG64 in the state ``default_rng(s)`` starts from, given
    ``words``, the four words of ``seed_words(s)``."""
    state, inc = _pcg_seed(words)
    gen.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


def _floyd(n: int, rem: int) -> bool:
    """Whether numpy's ``choice(n, rem, replace=False)`` takes Floyd's
    sampling rather than the partial shuffle."""
    return n <= 10_000 or rem <= n // 50


def _choice_one(words, n: int, rem: int) -> tuple[np.ndarray, int]:
    """``default_rng(s).choice(n, rem, replace=False)``, drawn by numpy, and
    the raw words it used: the steps of the 128-bit LCG from the seeded
    state to the state ``choice`` leaves (rem in Floyd's regime, about
    rem / 2 in the partial shuffle, more after rejected draws)."""
    gen = reseed(rng_from_seed(0), words)
    drops = gen.choice(n, size=rem, replace=False)
    after = gen.bit_generator.state["state"]["state"]
    state, inc = _pcg_seed(words)
    for used in range(1, 2 * rem + 64):
        state = (state * _PCG_MULT + inc) & _MASK128
        if state == after:
            return drops, used
    raise UnsupportedNumpy(
        f"numpy {np.__version__}: Generator.choice({n}, {rem}, replace=False) "
        f"used more than {2 * rem + 63} raw PCG64 words"
    )


def _limbs(values) -> tuple[np.ndarray, ...]:
    """128-bit constants as uint64 limbs: the high word, the low word's high
    and low 32-bit halves, and the low word."""
    lo = np.array([v & _MASK64 for v in values], dtype=np.uint64)
    hi = np.array([v >> 64 for v in values], dtype=np.uint64)
    return hi, lo >> np.uint64(32), lo & np.uint64(_MASK32), lo


@functools.cache
def _jump_table(count: int):
    """Limbs of A_k and B_k for raw words k = 1..count, where raw word k
    comes from state_k = A_k w + B_k inc (mod 2**128), w the seeded state
    words: A_k = M**(k+1) and B_k = M**(k+1) + ... + M + 1."""
    power, total, a, b = _PCG_MULT, 1 + _PCG_MULT, [], []
    for _ in range(count):
        power = power * _PCG_MULT & _MASK128
        total = (total + power) & _MASK128
        a.append(power)
        b.append(total)
    return _limbs(a), _limbs(b)


_U32 = np.uint64(32)
_LOW32 = np.uint64(_MASK32)


def _mul128(hi, lo, const):
    """(hi, lo) times a 128-bit constant in limbs, mod 2**128: the column
    limbs of every row times the row limbs of every raw word."""
    c_hi, c_lo1, c_lo0, c_lo = const
    lo0, lo1 = lo & _LOW32, lo >> _U32
    # the high word of lo * c_lo, from four 32-bit partial products
    cross, mid = lo0 * c_lo1, lo1 * c_lo0
    carry = ((lo0 * c_lo0) >> _U32) + (cross & _LOW32) + (mid & _LOW32)
    top = lo1 * c_lo1 + (cross >> _U32) + (mid >> _U32) + (carry >> _U32)
    return top + lo * c_hi + hi * c_lo, lo * c_lo


def _raw_words(words: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` raw PCG64 words of ``default_rng(s)`` for each
    row of seed words, one row each, by jump-ahead from the seeding."""
    w0, w1, w2, w3 = (words[:, i, None] for i in range(4))
    one = np.uint64(1)
    a, b = _jump_table(count)
    hi_a, lo_a = _mul128(w0, w1, a)
    hi_b, lo_b = _mul128(w2 << one | w3 >> np.uint64(63), w3 << one | one, b)
    lo = lo_a + lo_b
    hi = hi_a + hi_b + (lo < lo_a)
    mixed, rot = hi ^ lo, hi >> np.uint64(58)
    return mixed >> rot | mixed << ((np.uint64(64) - rot) & np.uint64(63))


def _earlier_equal(v: np.ndarray) -> np.ndarray:
    """For each entry of each row, the latest earlier column of the row
    holding the same value, or -1."""
    first = np.argsort(v, axis=1, kind="stable")
    ranked = np.take_along_axis(v, first, axis=1)
    earlier = np.full(v.shape, -1)
    same = ranked[:, 1:] == ranked[:, :-1]
    np.put_along_axis(earlier, first[:, 1:], np.where(same, first[:, :-1], -1), axis=1)
    return earlier


def _floyd_picks(v: np.ndarray, n: int, rem: int) -> np.ndarray:
    """Floyd's sampling from each row's bounded draws: pick t draws
    v_t <= j_t = n - rem + t and takes j_t instead when an earlier pick
    holds v_t; the draws from column rem on shuffle the picks, with bounds
    rem - 1, ..., 1.

    Pick t is replaced when v_t repeats an earlier draw, or equals j_s of
    an earlier replaced pick s: a chain toward lower t, followed until no
    flag changes."""
    picks, js = v[:, :rem], n - rem + np.arange(rem)
    repeat = _earlier_equal(picks) >= 0
    source = picks - (n - rem)
    chained = (source >= 0) & (picks < js)
    source[~chained] = 0
    replaced = repeat
    while True:
        grown = repeat | (chained & np.take_along_axis(replaced, source, axis=1))
        if (grown == replaced).all():
            break
        replaced = grown
    drops = np.where(replaced, js, picks)
    every = np.arange(v.shape[0])
    for i in range(rem - 1, 0, -1):
        k = v[:, 2 * rem - 1 - i]
        held = drops[every, k]
        drops[every, k] = drops[:, i]
        drops[:, i] = held
    return drops


# Below about this many rows numpy's draw, one column at a time, is faster
# (at rem = 100; at rem = 8 the array path wins from about 6 rows).
_VECTOR_ROWS = 16


def trim_draws(words, n: int, rem: int) -> tuple[np.ndarray, np.ndarray]:
    """``default_rng(s).choice(n, rem, replace=False)`` for each row of seed
    words (``seed_words(s)``) as one (rows, rem) int64 array, and the raw
    PCG64 words each draw used.  ``reseed`` then ``advance(used)`` leaves a
    generator where numpy's is after ``choice``; 0 < rem < n < 2**32.

    In Floyd's regime, 16 rows or more take the array path: without a
    rejected draw a row takes one uint32 draw per bound, n - rem, ..., n - 1
    for the picks, then rem - 1, ..., 1 for their shuffle, from rem raw
    words.  Rows that reject a draw, fewer rows, and the partial shuffle
    are drawn by numpy, one column at a time.
    """
    words = np.asarray(words, dtype=np.uint64).reshape(-1, 4)
    rows = words.shape[0]
    drops = np.empty((rows, rem), dtype=np.int64)
    used = np.full(rows, rem, dtype=np.int64)
    slow = np.arange(rows)
    if _floyd(n, rem) and rows >= _VECTOR_ROWS:
        bounds = np.r_[n - rem : n, rem - 1 : 0 : -1].astype(np.uint64)
        draws = _raw_words(words, rem).astype("<u8", copy=False).view("<u4")
        scaled = draws[:, : bounds.size] * (bounds + np.uint64(1))
        floor = (_LOW32 - bounds) % (bounds + np.uint64(1))
        slow = np.flatnonzero(((scaled & _LOW32) < floor).any(axis=1))
        v = (scaled >> _U32).astype(np.int64)
        drops[:] = _floyd_picks(v, n, rem)
    for j in slow.tolist():
        drops[j], used[j] = _choice_one(words[j].tolist(), n, rem)
    return drops, used


# (n, rem, seeds): Floyd's regime on the array path, the partial shuffle
# (numpy's draw, whose word count is checked), and bounds near 2**31, where
# Lemire rejects about half of the draws (those rows take numpy's draw).
_CHOICE_CHECKS = (
    (1000, 8, range(_VECTOR_ROWS)),
    (10_499, 299, range(2)),
    (2**31 + 7, 3, range(_VECTOR_ROWS)),
)


@functools.cache
def check_trim_draws() -> None:
    """Refuse, once per process, a numpy whose ``Generator.choice`` draws
    differently from :func:`trim_draws`: compare the drops and the next
    ``random()`` on fixed draws of both regimes."""
    for n, rem, seeds in _CHOICE_CHECKS:
        drops, used = trim_draws(seed_words(list(seeds)), n, rem)
        for seed, row, skip in zip(seeds, drops, used.tolist()):
            reference = np.random.default_rng(seed)
            expected = reference.choice(n, size=rem, replace=False)
            ours = np.random.default_rng(seed)
            ours.bit_generator.advance(skip)
            if (expected.tolist() != row.tolist()
                    or reference.random() != ours.random()):
                raise UnsupportedNumpy(
                    f"numpy {np.__version__}: Generator.choice({n}, {rem}, "
                    "replace=False) draws differently from sitscreen's trimming "
                    "draw, so screens would no longer match arrange_by_covariate"
                )
