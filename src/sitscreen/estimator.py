"""Sliced dependence statistic for one covariate/response pair.

The statistic measures how strongly a response Y depends on a covariate X,
on a scale where 0 corresponds to independence and 1 to Y being a function
of X.  It is computed from ranks only:

1. discard the n mod c observations every sample of n discards (a fixed
   random subset), order the rest by X (ties broken by seeded random keys,
   one per kept row),
2. cut the ordered sample into H = floor(n / c) slices of c observations,
3. compare, within each slice, the response ranks r of the slice members,
4. normalise by the global rank dispersion sum R_i (n - R_i).

With ``num`` the within-slice sum of absolute rank differences and ``den``
the dispersion sum, the statistic is

    1 - (n - 1) * num / ((c - 1) * den),

evaluated here as a single correctly rounded division of exact integers:
one float64 division when (c - 1) * den and (n - 1) * num are both below
2**53, so that float64 holds both operands exactly, and Python-int
division otherwise.  Everything depends on orderings alone, so the value
is invariant under strictly increasing transformations of either
variable.

The kernel evaluates a block of covariates at once, and one driver
(:func:`_omegas`) feeds it the columns of :func:`sliced_estimate` and of
each ``screen_all`` worker alike.  The response is sorted once, by one
``np.unique`` into a level table (each observation's level, each level's
size); the calibration, the rank counts r and the one dispersion sum
follow from it.  A trimmed sample drops the same rows from every column
(:func:`~sitscreen.seeding.dropped_rows`) and screens as the untrimmed
sample of its kept rows, whose level table follows from the full one
without another sort (:func:`_trim`).  So each :func:`_omegas` call
fixes its workspace (:class:`_Workspace`), rank counts and dispersion sum
once, and every block reuses them.

A column of an int8 or int16 design (an integer design held by
``Dataset`` at one or two bytes a cell, such as genotypes or counts) is
ordered by one in-place sort of integer keys that pack each value's level
(its bits), its tie-break key and its position; the design's dtype is the
only integer test.  Float columns take one in-place float sort per block
first: each value carries its row position in its low mantissa bits,
which leaves values in distinct buckets in value order, so a column
without near neighbours needs nothing more.  Only columns with ties (or
values within a bucket's width of each other) are gathered and checked,
and the tied ones take the key sort, their dense ranks as levels.  Only
the columns that take the key sort compute tie-break keys, the
counter-based keys of :func:`~sitscreen.seeding.tie_keys`.  Ranks go into
the workspace, each slice is sorted in place and the numerators are taken
by one ``np.einsum``.  A block of tie-free float columns, or of an int8
or int16 design, allocates no block-sized array beyond the workspace and,
when trimmed, its gathered kept rows.

Under independence of X and Y the scaled statistic

    z = sqrt(n (c - 1)) * value / sigma

is asymptotically standard normal; for a continuous response sigma^2 = 4/5
exactly, and for tied responses the tie-aware plug-in of
:meth:`VarianceCalibration.from_counts` estimates sigma^2 from the response's
level table: 2 for any binary response, whatever its share of ones.  Asked
for a tie-free response (``--sigma plugin``), the plug-in gives a value near
4/5 but not equal to it.  Its upper-tail p-value comes from the normal tail
(Cephes ``ndtr`` port) below, which matches scipy.special.ndtr bit for bit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ConfigError,
    DegenerateResponse,
    InvalidCalibration,
    SampleTooSmall,
)
from .seeding import _is_integer, dropped_rows, tie_counters, tie_key, tie_keys

# sigma^2 for a continuous (tie-free) response.
FIXED_SIGMA_SQ = 4.0 / 5.0
# The modes VarianceCalibration.from_counts (and --sigma) takes.
SIGMA_MODES = ("auto", "fixed", "plugin")
# Cells per kernel block (32 columns at n = 1024); every block of a worker
# reuses one workspace of 16 bytes a cell (512 KB).  Timed at one thread
# (medians of 30 calls taking turns in one process; 2**14 / 2**15 / 2**16):
# 1024 x 5000 Gaussian 0.091 / 0.087 / 0.083 s, 1000 x 1000 genotypes
# 0.075 / 0.070 / 0.071 s.  2**16 gains little over 2**15.
BLOCK_CELLS = 2**15


def _check_integer(value, name: str, low: int | None = None) -> None:
    """Refuse ``value`` unless it is an integer (an int or a numpy integer,
    not a bool, a float or None) of at least ``low``, when given: the one
    place an integer argument's type and lower bound are worded."""
    if not _is_integer(value):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ConfigError(f"{name} must be at least {low}")


_BEYOND_2_53 = "integer entries must lie within +-2**53, where float64 holds every integer"


def _exact_entry(v) -> float:
    """One entry of an object array as the float64 that holds it exactly;
    anything else, a complex number included, is refused."""
    if not isinstance(v, numbers.Real):
        raise ConfigError(f"entries must be real numbers, got {type(v).__name__} {v!r}")
    if isinstance(v, numbers.Integral) and abs(int(v)) > 2**53:
        raise ConfigError(_BEYOND_2_53)
    f = float(v)
    if f != v and f == f:  # NaN is left to the finiteness checks
        raise ConfigError(f"entry {v!r} is not held exactly by float64")
    return f


def _exact(a) -> np.ndarray:
    """``a`` as an array, refused unless float64 holds each entry exactly:
    complex input would lose its imaginary part, and integers beyond
    +-2**53 or a longdouble's extra mantissa bits may round (64 distinct
    int64 values near 2**60 to one).  An object array (Python ints beyond
    int64, say) is read entry by entry into float64 (:func:`_exact_entry`),
    a float array wider than 8 bytes is cast whole and compared back, and
    text or any other non-numeric dtype is refused."""
    a = np.asarray(a)
    if a.dtype.kind == "O":
        a = np.array([_exact_entry(v) for v in a.ravel().tolist()]).reshape(a.shape)
    elif a.dtype.kind == "f" and a.dtype.itemsize > 8:
        with np.errstate(over="ignore"):
            f = a.astype(np.float64)
        rounded = (f != a) & (f == f)  # NaN is left to the finiteness checks
        if rounded.any():
            v = a.flat[np.argmax(rounded)]
            raise ConfigError(f"entry {v!r} is not held exactly by float64")
        a = f
    if a.dtype.kind == "c":
        raise ConfigError("entries must be real: float64 would drop the imaginary part")
    if a.dtype.kind not in "biuf":
        raise ConfigError(f"entries must be real numbers, got {a.dtype} entries")
    wide = a.dtype.kind in "iu" and a.dtype.itemsize == 8 and a.size
    if wide and (a.min() < -(2**53) or a.max() > 2**53):
        raise ConfigError(_BEYOND_2_53)
    return a


def _vector(a, name: str) -> np.ndarray:
    """``a`` as a 1-D float64 vector of finite entries, each held exactly
    (:func:`_exact`); a float64 input is not copied."""
    v = np.asarray(_exact(a), dtype=np.float64)
    if v.ndim != 1:
        raise ConfigError(f"{name} must be one-dimensional")
    if not np.isfinite(v).all():
        raise ConfigError(f"all entries of {name} must be finite")
    return v


@dataclass(frozen=True)
class SliceConfig:
    """The caller's slicing choices: c observations per slice, a tie seed.

    Before ordering, ``n mod c`` observations are always discarded: the
    rows :func:`~sitscreen.seeding.dropped_rows` fixes for (n, n mod c),
    whatever the seed.  The rest form H = floor(n / c) slices (see
    :meth:`slices`), so the effective sample size is H * c.  ``c`` and
    ``tie_seed`` are integers, not bools; ``tie_seed`` is in [0, 2**64).
    """

    c: int
    tie_seed: int = 0

    def __post_init__(self):
        if not _is_integer(self.c) or self.c < 2:
            raise ConfigError(f"slice size c must be an integer >= 2, got {self.c!r}")
        if not _is_integer(self.tie_seed) or not (0 <= self.tie_seed < 2**64):
            raise ConfigError(
                f"tie_seed must be an integer in [0, 2**64), got {self.tie_seed!r}"
            )

    def slices(self, n: int) -> int:
        """Slice count H for a sample of size ``n``; refuses fewer than two."""
        n_eff = n - n % self.c
        if n_eff < 2 * self.c:
            raise SampleTooSmall(
                f"need at least two slices: n={n} leaves {n_eff} observations "
                f"for slices of {self.c}"
            )
        if int(n_eff) * int(self.c) * int(n) >= 2**64:
            raise ConfigError(
                f"n={n} with c={self.c} is too large for the exact int64 spread "
                "sum: n_effective * c * n must stay below 2**64"
            )
        return n_eff // self.c


@dataclass(frozen=True)
class PairedSample:
    """One covariate/response pair of equal-length finite float vectors;
    entries float64 cannot hold exactly are refused (:func:`_vector`)."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x, y = _vector(self.x, "x"), _vector(self.y, "y")
        if x.shape[0] != y.shape[0]:
            raise ConfigError(f"length mismatch: {x.shape[0]} vs {y.shape[0]}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class RankCounts:
    """The response's level table: each observation's dense ``level`` (0 for
    the smallest value; -0.0 and 0.0 share a level) and each level's size.

    The rank counts follow from it: r_i = #{y_j <= y_i} is the cumulative
    size at y_i's level, and R_i = #{y_j >= y_i} is n less the sizes below.
    A constant response, one level, has no ranks to screen by and is refused.
    """

    level: np.ndarray
    sizes: np.ndarray

    def __post_init__(self):
        if self.sizes.shape[0] == 1:
            raise DegenerateResponse("response is constant")

    @cached_property
    def r(self) -> np.ndarray:
        """Each observation's right count r_i = #{y_j <= y_i}, int32 below
        2**31 observations."""
        n = self.level.shape[0]
        return np.cumsum(self.sizes, dtype=np.int32 if n < 2**31 else np.int64)[self.level]

    @cached_property
    def dispersion(self) -> int:
        """Exact sum of R_i (n - R_i) over the sample, taken on first use:
        sum_l m_l R_l (n - R_l), R_l = n - cumsum(m)_l + m_l."""
        n, m = self.level.shape[0], self.sizes
        R = n - np.cumsum(m) + m
        return _exact_sum(m, R, n - R)

    @property
    def tie_free(self) -> bool:
        """No two responses are equal: every level holds one observation."""
        return self.sizes.shape[0] == self.level.shape[0]


@dataclass(frozen=True)
class VarianceCalibration:
    """Variance scale sigma^2 for the null z statistic.

    ``fixed`` mode pins sigma^2 = 4/5 (exact for a continuous response);
    ``plugin`` mode estimates sigma^2 = 2 * theta1 / theta2^2 from the
    response ranks and is the fallback when the response carries ties.
    """

    mode: str
    sigma_sq: float
    theta1: float | None = None
    theta2: float | None = None

    def __post_init__(self):
        if self.mode not in ("fixed", "plugin"):
            raise InvalidCalibration(f"unknown calibration mode {self.mode!r}")
        if not (self.sigma_sq > 0):
            raise InvalidCalibration(f"sigma_sq must be positive, got {self.sigma_sq}")
        if self.mode == "fixed" and self.sigma_sq != FIXED_SIGMA_SQ:
            raise InvalidCalibration("fixed mode requires sigma_sq = 4/5 exactly")
        if self.mode == "plugin":
            if self.theta1 is None or self.theta2 is None:
                raise InvalidCalibration("plugin mode requires theta1 and theta2")
            if self.sigma_sq != 2.0 * self.theta1 / self.theta2**2:
                raise InvalidCalibration("plugin sigma_sq must equal 2*theta1/theta2^2")

    @classmethod
    def fixed(cls) -> "VarianceCalibration":
        return cls(mode="fixed", sigma_sq=FIXED_SIGMA_SQ)

    @classmethod
    def from_counts(cls, counts: RankCounts, mode: str = "auto") -> "VarianceCalibration":
        """The calibration ``mode`` (``--sigma``) asks for, from the response's
        level table: ``fixed``, ``plugin``, or ``auto``, which is fixed for a
        tie-free response and the plug-in otherwise.

        The plug-in is sigma^2 = 2 theta1 / theta2^2 with theta2 the mean of
        G(y_i) (1 - G(y_i)), G the empirical right-tail function, and the
        tie-aware theta1 = E phi^2 - 2 E g^2 + (E g)^2 of Chatterjee (2021,
        Theorem 2.2), phi(y, y') = min(F(y), F(y')), g(y) = E phi(y, Y) and
        F the empirical CDF.  With r_i = n F(y_i), S_i = sum_j min(r_i, r_j)
        and A = sum_ij min(r_i, r_j)^2, theta1 is the exact integer
        n^2 A - 2 n sum S_i^2 + (sum S_i)^2 over n^6, divided once.  It is
        near 1/90 without ties, and sigma^2 = 2 for any binary response.
        """
        if mode not in SIGMA_MODES:
            raise InvalidCalibration(f"unknown calibration mode {mode!r}")
        if mode == "fixed" or (mode == "auto" and counts.tie_free):
            return cls.fixed()
        # per level l of size m_l and right count r_l, in O(levels):
        # S_l = sum_{k<=l} m_k r_k + r_l (n - r_l), and m_l (m_l + 2 (n - r_l))
        # of A's pairs have their minimum at level l, each adding r_l^2
        n, m = counts.level.shape[0], counts.sizes
        r = np.cumsum(m)
        s = np.cumsum(m * r) + r * (n - r)
        A = _exact_sum(m, r * r, m + 2 * (n - r))
        num = n * n * A - 2 * n * _exact_sum(m, s, s) + _exact_sum(m, s, 1) ** 2
        theta1, theta2 = num / n**6, counts.dispersion / n**3
        return cls(
            mode="plugin", sigma_sq=2.0 * theta1 / theta2**2, theta1=theta1, theta2=theta2
        )

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma_sq)


@dataclass(frozen=True)
class DependenceEstimate:
    """Statistic value plus its normal z score and upper-tail p-value."""

    omega_hat: float
    z: float
    p_value: float
    n_effective: int
    c: int


def arrange_by_covariate(sample: PairedSample, config: SliceConfig) -> np.ndarray:
    """Trim the sample to a multiple of c and order the response by X.

    The rem = n mod c dropped rows are those of
    :func:`~sitscreen.seeding.dropped_rows`, the same for every seed.  The
    kept rows, in row order, take the keys key_s(j) of the tie seed s by
    their kept position j (:func:`~sitscreen.seeding.tie_key`, Python
    ints), and are ordered by (x, key_s(j)); a column's keys are distinct,
    so no other tie-break is needed.  So a trimmed sample arranges as the
    untrimmed sample of its kept rows.  Returns the H * c response values in
    slice order, a pure function of (sample, config).

    The brute-force reference uses this arrangement directly, and the fast
    kernel reproduces it bit for bit: both paths must see the same
    tie-broken ordering for exact-equality checks to be meaningful.
    """
    config.slices(sample.n)  # refuses samples with fewer than two slices
    n, s = sample.n, int(config.tie_seed)
    dropped = set(dropped_rows(n, n % config.c))
    kept = [i for i in range(n) if i not in dropped]
    slots = sorted(range(len(kept)), key=lambda j: (float(sample.x[kept[j]]), tie_key(s, j)))
    return sample.y[[kept[j] for j in slots]]


def rank_counts(y: np.ndarray) -> RankCounts:
    """The level table of a response vector, in the order ``y`` is given:
    its one sort, from which every rank count is read."""
    _, level, sizes = np.unique(
        np.asarray(y, dtype=np.float64), return_inverse=True, return_counts=True
    )
    return RankCounts(level=level, sizes=sizes)


def _exact_sum(m, a, b) -> int:
    """Exact sum of m_l a_l b_l, a Python int, for 1-D level sizes m summing
    to n < 2^31 and non-negative a, b below 2^63.  With 32-bit halves
    a = a1 2^32 + a0 and b likewise, a b = a1 b1 2^64 + (a1 b0 + a0 b1) 2^32
    + a0 b0, each part below 2^64; each part's m-weighted sum is taken in
    uint64 by halves, and the halves are combined as Python ints.  When
    every a b is below 2^64 (R (n - R) always, each of the plug-in's sums
    for n < 2^16) a b is the one part.  At millions of levels the passes run
    out of cache (ROADMAP item 8)."""
    m, a, b = np.broadcast_arrays(*(np.asarray(v, dtype=np.uint64) for v in (m, a, b)))
    if int(a.max()) * int(b.max()) < 2**64:
        parts = ((0, a * b),)
    else:
        a1, a0, b1, b0 = a >> 32, a & 0xFFFFFFFF, b >> 32, b & 0xFFFFFFFF
        parts = ((64, a1 * b1), (32, a1 * b0 + a0 * b1), (0, a0 * b0))
    total = 0
    for shift, part in parts:
        for half, at in ((part >> 32, shift + 32), (part & 0xFFFFFFFF, shift)):
            total += int(np.einsum("l,l->", m, half)) << at
    return total


def _flat(idx):
    """The positions ``idx`` within each row of a C-ordered array of
    ``idx``'s shape, as flat indices."""
    return idx + idx.shape[1] * np.arange(idx.shape[0])[:, None]


def _nearest(keys, xor):
    """Each row's smallest XOR of neighbouring sorted ``keys`` (uint64),
    taken through the contiguous buffer ``xor`` of the same shape: one XOR
    of the flat keys with themselves shifted by one, whose first column
    pairs the rows' ends and is skipped, then one ``np.minimum.reduce``."""
    flat = keys.reshape(-1)
    np.bitwise_xor(flat[1:], flat[:-1], out=xor.reshape(-1)[1:])
    return np.minimum.reduce(xor[:, 1:], axis=1)


class _Workspace:
    """The buffers of one :func:`_omegas` call (so of one ``screen_all``
    worker), reused by every block: at most ``rows`` columns of ``n_eff``
    kept rows each, 16 bytes a cell.

    ``keys`` holds a float block's packed keys, sorted in place, and once
    the order is read from them, ``ranks``: the gathered rank counts,
    slice-sorted in place.  For the rows that take the integer key sort
    (:func:`_tie_order`) it is the shift buffer: the tie-break keys' mix
    shifts, then the levels, then the sorted keys' neighbour XOR.
    ``order`` holds the float keys' neighbour XOR, then each row's order;
    the integer key sort mixes its tie-break keys, packs and sorts its keys
    and reads its order there, in place.  ``num`` takes each row's
    numerator; ``w`` holds the slice weights 2j - c + 1, ``pos`` the row
    positions 0..n_eff - 1, ``low`` their mask 2**b - 1 (2**b >= n_eff)
    and ``counters`` their tie-key counters
    (:func:`~sitscreen.seeding.tie_counters`).  Ranks, weights and
    numerators are int32 when n_eff^2 c < 2**31: ranks are at most n_eff
    and the weights' magnitudes sum to at most c^2 / 2, so every partial
    sum of a row's ``num`` is at most n_eff^2 c / 2 in magnitude and the
    int32 contraction is exact.  Otherwise they are int64, which
    ``SliceConfig.slices`` keeps exact.
    """

    def __init__(self, rows: int, n_eff: int, c: int):
        dtype = np.int32 if n_eff * c * n_eff < 2**31 else np.int64
        self.keys = np.empty((rows, n_eff))
        self.order = np.empty((rows, n_eff), dtype=np.int64)
        self.ranks = self.keys.reshape(-1).view(dtype)[: rows * n_eff].reshape(rows, n_eff)
        self.num = np.empty(rows, dtype=dtype)
        self.w = (2 * np.arange(c) - (c - 1)).astype(dtype)
        self.pos = np.arange(n_eff, dtype=np.uint64)
        self.low = np.uint64((1 << (n_eff - 1).bit_length()) - 1)
        self.counters = tie_counters(self.pos)


def _tie_order(levels, seeds, ws: _Workspace, keys=None, shifted=None):
    """``np.lexsort((key, levels), axis=1)`` for rows with tie seeds
    ``seeds``, ``key`` their tie-break keys
    (:func:`~sitscreen.seeding.tie_keys`), given each value's integer level
    in row order: an int8 or int16 row is its own levels, its bits with the
    sign bit flipped, x + 2**7 or x + 2**15 (an int8 level gains 2**8 as
    well, x + 384); a float row's are its dense ranks from
    :func:`_packed_order` (uint32).  Levels order as their values do, so
    this is the rows' ``np.lexsort((key, x))``.

    One in-place sort of integer keys: level << 48 | key >> 16 with its low
    b bits replaced by the position (``ws.low`` masks them).  The tie-break
    keys are mixed in ``keys`` with ``shifted`` as the shift buffer (uint64
    buffers of the levels' shape; by default ``ws.order`` and ``ws.keys``),
    the levels are written into ``shifted``, shifted and joined, and the
    keys are sorted in place, an int8 row's as float64: with levels
    256..511 its keys are the bits of positive normal doubles, which order
    as their integers do (and no flush of subnormals to zero can tie two of
    them).  The sorted keys' low bits are the order, returned in the
    ``keys`` buffer.  It stands unless two neighbours share their high
    64 - b bits (tie-break keys equal in their top 48 - b bits) or a level
    reaches 2**16 (a float row of more than 2**16 distinct values; an int8
    or int16 level never does): those rows take the lexsort, their
    tie-break keys computed again.  A row's tie-break keys are distinct, so
    either way no position decides the order.
    """
    t = levels.shape[0]
    keys = ws.order[:t].view(np.uint64) if keys is None else keys
    shifted = ws.keys[:t].view(np.uint64) if shifted is None else shifted
    tie_keys(seeds[:, None], ws.counters, keys, shifted)
    keys >>= np.uint64(16)
    keys &= ~ws.low
    # the sign flip (and an int8 level's 2**8) rides in on the positions,
    # the level field still zero
    base = {1: 0x180, 2: 0x8000}[levels.itemsize] if levels.dtype.kind == "i" else 0
    keys |= ws.pos | np.uint64(base << 48)
    np.copyto(shifted, levels.view(f"u{levels.itemsize}"))
    shifted <<= np.uint64(48)
    keys ^= shifted
    # an int8 level's keys are the bits of positive normal doubles, which
    # sort as their integers do, and numpy sorts float64 faster than uint64
    (keys.view(np.float64) if base == 0x180 else keys).sort(axis=1)
    fallback = _nearest(keys, shifted) <= ws.low
    if levels.itemsize > 2:
        fallback |= levels.max(axis=1) >= 2**16
    keys &= ws.low
    out = keys.view(np.int64)
    if fallback.any():
        key = tie_keys(seeds[fallback, None], ws.counters)
        out[fallback] = np.lexsort((key, levels[fallback]), axis=1)
    return out


def _packed_order(xt, ws: _Workspace):
    """Each row's argsort order, the rows with ties, and those rows' dense
    levels in row order (uint32, 0 for the smallest value).

    One in-place float sort per block: the keys are xt + 0.0 (which turns
    -0.0 into 0.0) with their low b mantissa bits (``ws.low``) replaced by
    the position; ``SliceConfig.slices`` keeps b <= 32, inside the 52-bit
    mantissa.  A finite key stays in its value's bucket, the values sharing
    the high 64 - b bits, and buckets sort as their values do.  So a row whose
    sorted keys have no two neighbours in one bucket (the smallest XOR of
    neighbours above ``ws.low``) has no ties, and the positions read back
    are its unique argsort order.  Only the other (``near``) rows, with
    exact ties or values within 2**b ulps, are gathered by that order (the
    block itself when every row is near), by one flat ``np.take``: it
    stands if it sorts the row, and a row it does not sort (positions
    inside a bucket follow the row, not the values) takes argsort and sort.
    A tied row's dense ranks, taken in sorted order, are scattered back to
    row order in one pass.  Every float row comes here, a row of integers
    too; an int8 or int16 block never does (:func:`_omega_block`).  The
    keys, the XOR and the order are written into the workspace ``ws``, and
    the returned order is a view of it.
    """
    p, n = xt.shape
    keys = ws.keys[:p]
    np.copyto(keys, xt)
    keys += 0.0
    bits = keys.view(np.uint64)
    bits &= ~ws.low
    bits |= ws.pos
    keys.sort(axis=1)
    order = ws.order[:p]
    near = np.flatnonzero(_nearest(bits, order.view(np.uint64)) <= ws.low)
    np.bitwise_and(bits, ws.low, out=order.view(np.uint64))
    if not near.size:
        return order, near, None
    every = near.size == p
    rows = xt if every else xt[near]
    flat = _flat(order if every else order[near])  # all in range
    ordered = np.take(np.ascontiguousarray(rows), flat, mode="clip")
    redo = np.flatnonzero((ordered[:, 1:] < ordered[:, :-1]).any(axis=1))
    if redo.size:
        order[near[redo]] = np.argsort(rows[redo], axis=1)
        ordered[redo] = np.sort(rows[redo], axis=1)
    # != keeps -0.0 and 0.0 on one level, as the lexsort ties them
    steps = ordered[:, 1:] != ordered[:, :-1]
    tied = ~steps.all(axis=1)
    if not tied.all():
        near, steps = near[tied], steps[tied]
    ranked = np.zeros((near.size, n), dtype=np.uint32)
    np.cumsum(steps, axis=1, dtype=np.uint32, out=ranked[:, 1:])
    levels = np.empty_like(ranked)
    levels.reshape(-1)[_flat(order[near])] = ranked
    return order, near, levels


def _ratio(num, den, c, n_eff, out) -> None:
    """omega = ((c - 1) den - (n_eff - 1) num) / ((c - 1) den) of each row,
    ``den`` the response's dispersion sum (a Python int), into ``out``.

    When (c - 1) den and (n_eff - 1) max(num) are both below 2**53, every
    operand is an integer float64 holds exactly, and so is the difference:
    one float division then gives the correctly rounded quotient of the
    exact integers, which is the Python-int quotient.  Otherwise each row
    takes that quotient in Python ints.
    """
    cd = (c - 1) * den
    if cd < 2**53 and (n_eff - 1) * int(num.max()) < 2**53:
        np.multiply(num, -(n_eff - 1.0), out=out)
        out += cd
        out /= cd
    else:
        out[:] = [(cd - (n_eff - 1) * s) / cd for s in num.tolist()]


def _omega_block(xt, r, den, seeds, c, ws, out) -> None:
    """Statistic of each row of a (columns, n_eff) covariate block against
    the response of rank counts ``r`` (in the workspace's rank dtype) and
    dispersion sum ``den``, written into ``out``.

    ``xt`` may be any view of the block, a transposed slice of the design
    included: a float block is copied only into the workspace's keys by
    :func:`_packed_order`.  ``seeds[j]`` is row j's tie seed.  Rows take the
    keys :func:`arrange_by_covariate` takes, but tie-break keys only when
    they use them.  The block's dtype is the one integer decision.  Every
    row of an int8 or int16 block (an integer design as ``Dataset`` holds
    it) takes one integer key sort (:func:`_tie_order`), its bits its
    levels; its keys cannot change the order of a row without ties.  Every
    row of a float block takes one float sort of packed keys
    (:func:`_packed_order`), and those with ties then the key sort, their
    dense ranks as levels.  Tied rows of a float block that also has
    untied rows sort in ``ws.keys`` with a buffer of their own, since
    ``ws.order`` holds the untied rows' order.

    Then the ranks are gathered by ``np.take`` into ``ws.ranks``, each
    slice sorted in place, and for sorted slice ranks a_(j) the pairwise
    spread sum_j (2j - c + 1) a_(j) is one ``np.einsum`` into ``ws.num``;
    :func:`_ratio` divides.
    """
    p, n_eff = xt.shape
    if xt.dtype.kind == "i":
        order = _tie_order(xt, seeds, ws)
    else:
        order, tied, levels = _packed_order(xt, ws)
        if tied.size == p:
            _tie_order(levels, seeds, ws)
        elif tied.size:
            keys = ws.keys[: tied.size].view(np.uint64)
            order[tied] = _tie_order(levels, seeds[tied], ws, keys, np.empty_like(keys))
    sliced = np.take(r, order, out=ws.ranks[:p], mode="clip")  # every index is in range
    slices = sliced.reshape(p, n_eff // c, c)
    slices.sort(axis=2)
    num = np.einsum("phc,c->p", slices, ws.w, out=ws.num[:p])
    # exact integers and one final rounding, as in the brute-force reference
    _ratio(num, den, c, n_eff, out)


def _trim(counts: RankCounts, c: int):
    """The rows a sample of n keeps in slices of c, ascending (None when c
    divides n), and the kept response's level table.

    Every sample of n drops the rows of
    :func:`~sitscreen.seeding.dropped_rows`.  The kept table comes from the
    full one without another sort: each level's size less its dropped
    rows, the levels left empty removed.  A kept response of one level is
    refused.
    """
    n, sizes = counts.level.shape[0], counts.sizes
    dropped = dropped_rows(n, n % c)
    if not dropped:
        return None, counts
    sizes = sizes - np.bincount(counts.level[dropped], minlength=sizes.shape[0])
    left = sizes > 0
    if np.count_nonzero(left) == 1:
        raise DegenerateResponse("response is constant after trimming")
    kept = np.delete(np.arange(n), dropped)
    level = (np.cumsum(left) - 1)[counts.level[kept]]
    return kept, RankCounts(level=level, sizes=sizes[left])


def _omegas(x, kept, counts: RankCounts, seeds, c, start, stop) -> np.ndarray:
    """Statistic of columns ``start:stop`` of the (n, p) float64, int8 or
    int16 design ``x``, column k with the tie seed ``seeds[k]`` (a uint64 array),
    on the rows ``kept`` of :func:`_trim` (every row when None), whose
    response has the level table ``counts``.

    What is fixed for the call is decided here once: the :class:`_Workspace`,
    the rank counts in its rank dtype and the dispersion sum.  The columns
    go to :func:`_omega_block` about BLOCK_CELLS cells at a time, each block
    a transposed view of ``x``, or of its kept rows when trimmed, gathered
    by ``np.take`` into one buffer of x's dtype (numpy copies the column
    slice first, so a transient block stands beside the buffer).  Blocks
    only group the work: each column's value is what it gives alone.
    """
    n_eff = counts.level.shape[0]
    step = max(1, BLOCK_CELLS // n_eff)
    rows = min(step, stop - start)
    ws = _Workspace(rows, n_eff, c)
    r, den = counts.r.astype(ws.ranks.dtype, copy=False), counts.dispersion
    gathered = None if kept is None else np.empty(rows * n_eff, dtype=x.dtype)
    out = np.empty(stop - start, dtype=np.float64)
    for lo in range(start, stop, step):
        hi = min(lo + step, stop)
        block = x[:, lo:hi]
        if kept is not None:
            into = gathered[: (hi - lo) * n_eff].reshape(n_eff, hi - lo)
            block = np.take(block, kept, axis=0, out=into, mode="clip")
        _omega_block(block.T, r, den, seeds[lo:hi], c, ws, out[lo - start : hi - start])
    return out


def sliced_estimate(
    sample: PairedSample,
    config: SliceConfig,
    calibration: VarianceCalibration | None = None,
) -> DependenceEstimate:
    """Estimate the dependence of Y on X with slice size ``config.c``.

    The calibration defaults to ``auto`` (:meth:`VarianceCalibration.from_counts`)
    of the full (untrimmed) response.  Deterministic given (sample, config):
    the same tie seed always yields the same bits.
    """
    c, H = config.c, config.slices(sample.n)
    counts = rank_counts(sample.y)
    if calibration is None:
        calibration = VarianceCalibration.from_counts(counts)
    kept, kept_counts = _trim(counts, c)
    seeds = np.array([config.tie_seed], dtype=np.uint64)
    (value,) = _omegas(sample.x[:, None], kept, kept_counts, seeds, c, 0, 1).tolist()
    z = z_statistic(value, H * c, c, calibration)
    return DependenceEstimate(
        omega_hat=value, z=z, p_value=p_value_from_z(z), n_effective=H * c, c=c
    )


def z_statistic(
    estimate_value: float, n_effective: int, c: int, cal: VarianceCalibration
) -> float:
    """Scale a statistic value (or an array of them) to its asymptotic
    standard-normal z score."""
    _check_integer(c, "slice size c", 2)
    if not (cal.sigma_sq > 0):
        raise InvalidCalibration(f"sigma_sq must be positive, got {cal.sigma_sq}")
    return math.sqrt(n_effective * (c - 1)) * estimate_value / cal.sigma


# Cephes ndtr.c coefficients, highest power first: erfc = exp(-x^2) P(x)/Q(x)
# for 1 <= x < 8 and R(x)/S(x) from 8 on; erf = x T(x^2)/U(x^2) below 1.  The
# leading 1.0 of Q, S, U is implicit in Cephes (p1evl); 1.0 * x is exact.
# np.polyval is Cephes' polevl run from 0: 0 * x + c0 = c0 for finite x.
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
      7.46321056442269912687e0, 4.86371970985681366614e1,
      1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3,
      5.57535335369399327526e2)
_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1,
      3.54937778887819891062e2, 9.75708501743205489753e2,
      1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0,
      5.01905042251180477414e0, 6.16021097993053585195e0,
      7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0,
      1.20489539808096656605e1, 1.70814450747565897222e1,
      9.60896809063285878198e0, 3.36907645100081516050e0)
_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
      2.23200534594684319226e3, 7.00332514112805075473e3,
      5.55923013010394962768e4)
_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2,
      4.59432382970980127987e3, 2.26290000613890934246e4,
      4.92673942608635921086e4)
_SQRT1_2 = 0.70710678118654752440
_MAXLOG = 7.09782712893383996843e2  # log(2**1024): exp(-x^2) underflows past it


def _ndtr(a):
    """Standard normal CDF, bit for bit as Cephes ndtr (scipy.special.ndtr).

    With x = a / sqrt(2): 0.5 + 0.5 erf(x) for |x| < sqrt(1/2), else
    0.5 erfc(|x|), reflected as 1 - y for x > 0.  Every + and * rounds as
    in C; the exponential is math.exp (the libm exp Cephes calls), since
    np.exp rounds differently on some inputs.  A scalar gives np.float64.
    """
    x = np.asarray(a, dtype=np.float64) * _SQRT1_2
    z = np.abs(x)
    with np.errstate(over="ignore"):
        zz = z * z
    erfc = np.full_like(z, np.nan)  # erfc(|x|); NaN stays NaN
    erfc[zz > _MAXLOG] = 0.0
    near = z < 1.0
    erf = x[near] * np.polyval(_T, zz[near]) / np.polyval(_U, zz[near])
    erfc[near] = 1.0 - np.abs(erf)
    far = (z >= 1.0) & (zz <= _MAXLOG)
    v = z[far]
    low = v < 8.0
    num = np.where(low, np.polyval(_P, v), np.polyval(_R, v))
    den = np.where(low, np.polyval(_Q, v), np.polyval(_S, v))
    exp = np.array([math.exp(-t) for t in zz[far].tolist()])
    erfc[far] = exp * num / den
    y = 0.5 * erfc
    y = np.where(x > 0, 1.0 - y, y)
    inner = z < _SQRT1_2
    y[inner] = 0.5 + 0.5 * erf[inner[near]]
    return y[()]


def p_value_from_z(z: float | np.ndarray) -> np.float64 | np.ndarray:
    """Upper-tail p-value 1 - Phi(z) of a z score or an array of them;
    negative z gives p > 0.5, untruncated."""
    return _ndtr(-z)


def auto_calibration(y: np.ndarray) -> VarianceCalibration:
    """Fixed 4/5 calibration for tie-free responses, plug-in otherwise.  A
    response that is not a finite 1-D vector (:func:`_vector`) or under 2
    values is refused."""
    y = _vector(y, "the response")
    if y.shape[0] < 2:
        raise SampleTooSmall("need at least 2 observations")
    return VarianceCalibration.from_counts(rank_counts(y))
