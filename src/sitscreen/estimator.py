"""Sliced dependence statistic for one covariate/response pair.

The statistic measures how strongly a response Y depends on a covariate X,
on a scale where 0 corresponds to independence and 1 to Y being a function
of X.  It is computed from ranks only:

1. discard n mod c observations at random, order the rest by X (ties
   broken by a seeded random permutation),
2. cut the ordered sample into H = floor(n / c) slices of c observations,
3. compare, within each slice, the response ranks r of the slice members,
4. normalise by the global rank dispersion sum R_i (n - R_i).

With ``num`` the within-slice sum of absolute rank differences and ``den``
the dispersion sum, the statistic is

    1 - (n - 1) * num / ((c - 1) * den),

evaluated here as a single correctly rounded division of exact integers.
Everything depends on orderings alone, so the value is invariant under
strictly increasing transformations of either variable.

The kernel evaluates a block of covariates at once.  One in-place float
sort orders the whole block: each value carries its row position in its
low mantissa bits, which leaves values in distinct buckets in value order,
so a row without near neighbours needs nothing more.  Only rows with ties
(or values within a bucket's width of each other) are gathered and
checked, and only tied rows draw tie-break keys.  The response is sorted
once, by one ``np.unique`` into a level table (each observation's level,
each level's size); the kernel's rank counts r and dispersion sums, a
trimmed column's included, and the calibration all follow from it.

Under independence of X and Y the scaled statistic

    z = sqrt(n (c - 1)) * value / sigma

is asymptotically standard normal; for a continuous response sigma^2 = 4/5
exactly, and for tied responses a plug-in calibration estimates sigma^2 from
the response ranks.  Its upper-tail p-value comes from the normal tail
(Cephes ``ndtr`` port) below, which matches scipy.special.ndtr bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ConfigError,
    DegenerateResponse,
    InvalidCalibration,
    SampleTooSmall,
)
from .seeding import reseed, rng_from_seed, seed_words

# sigma^2 for a continuous (tie-free) response.
FIXED_SIGMA_SQ = 4.0 / 5.0


@dataclass(frozen=True)
class SliceConfig:
    """The caller's slicing choices: c observations per slice, a tie seed.

    Before ordering, ``n mod c`` observations are always discarded, chosen
    uniformly at random from ``tie_seed``; the rest form H = floor(n / c)
    slices (see :meth:`slices`), so the effective sample size is H * c.
    """

    c: int
    tie_seed: int = 0

    def __post_init__(self):
        if not isinstance(self.c, (int, np.integer)) or self.c < 2:
            raise ConfigError(f"slice size c must be an integer >= 2, got {self.c!r}")
        if not (0 <= int(self.tie_seed) < 2**64):
            raise ConfigError("tie_seed must fit in 64 bits")

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
    """One covariate/response pair of equal-length finite float vectors."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        if x.ndim != 1 or y.ndim != 1:
            raise ConfigError("x and y must be one-dimensional")
        if x.shape[0] != y.shape[0]:
            raise ConfigError(f"length mismatch: {x.shape[0]} vs {y.shape[0]}")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ConfigError("all values must be finite")
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
    """

    level: np.ndarray
    sizes: np.ndarray

    @cached_property
    def r(self) -> np.ndarray:
        """Each observation's right count r_i = #{y_j <= y_i}."""
        return np.cumsum(self.sizes)[self.level]

    @cached_property
    def dispersion(self) -> int:
        """Exact sum of R_i (n - R_i) over the sample, taken on first use."""
        return _dispersion_sums(self.sizes, self.level.shape[0])[0]

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

    Randomness (remainder trimming, then tie-break keys for equal X values)
    is drawn from ``config.tie_seed`` in that fixed order, so the arrangement
    is a pure function of (sample, config).  Returns the H * c response
    values in slice order.

    The brute-force reference uses this arrangement directly, and the fast
    kernel reproduces it draw for draw: both paths must see the same
    tie-broken ordering for exact-equality checks to be meaningful.
    """
    config.slices(sample.n)  # refuses samples with fewer than two slices
    rng = rng_from_seed(config.tie_seed)
    x, y = sample.x, sample.y
    rem = sample.n % config.c
    if rem:
        drop = rng.choice(sample.n, size=rem, replace=False)
        keep = np.setdiff1d(np.arange(sample.n), drop)
        x, y = x[keep], y[keep]
    u = rng.random(x.shape[0])
    order = np.lexsort((u, x))
    return y[order]


def rank_counts(y: np.ndarray) -> RankCounts:
    """The level table of a response vector, in the order ``y`` is given:
    its one sort, from which every rank count is read."""
    _, level, sizes = np.unique(
        np.asarray(y, dtype=np.float64), return_inverse=True, return_counts=True
    )
    return RankCounts(level=level, sizes=sizes)


def _dispersion_sums(m: np.ndarray, n: int) -> list[int]:
    """Exact sum of R_i (n - R_i) over each sample whose level sizes are a
    row of ``m``, one Python int per row: sum_l m_l R_l (n - R_l) with
    R_l = n - cumsum(m)_l + m_l the count at or above level l.

    A plain int64 sum wraps once n^3 / 6 passes 2^63 (n above about 4M), so
    each term (at most n^2 / 4) is split into 32-bit halves; each half sums
    in int64 for n < 2^31, the sizes summing to n, and the halves are
    combined as Python ints.
    """
    m = np.atleast_2d(m)
    R = n - np.cumsum(m, axis=1) + m
    terms = R * (n - R)
    high = np.sum(m * (terms >> 32), axis=1)
    low = np.sum(m * (terms & 0xFFFFFFFF), axis=1)
    return [(int(h) << 32) + int(l) for h, l in zip(high, low)]


def _kept_counts(counts, keep, n_eff) -> tuple[np.ndarray, list[int]]:
    """Rank counts r and dispersion sum of each row's kept subsample.

    With m_l the kept size of response level l (its full size less the
    row's drops there), a kept observation's r is the cumulative m at its
    level, and the dispersion sum is :func:`_dispersion_sums` of m.
    Tie-free, the kept R are a permutation of 1..n_eff and the sum is
    n_eff (n_eff^2 - 1) / 6.
    """
    rows, L = keep.shape[0], counts.sizes.shape[0]
    drop_rows, drop_cols = np.nonzero(~keep)
    dropped = np.bincount(drop_rows * L + counts.level[drop_cols], minlength=rows * L)
    m = counts.sizes - dropped.reshape(rows, L)
    at_most = np.cumsum(m, axis=1)
    level = np.broadcast_to(counts.level, keep.shape)[keep].reshape(rows, n_eff)
    ranks = np.take_along_axis(at_most, level, axis=1)
    if counts.tie_free:
        return ranks, [n_eff * (n_eff**2 - 1) // 6] * rows
    return ranks, _dispersion_sums(m, n_eff)


def _tie_order(x, order, ordered, u):
    """``np.lexsort((u, x), axis=1)`` of tied rows, given each row's argsort
    ``order`` and sorted values ``ordered``.

    One argsort of the exact keys level << 53 | u * 2**53, with level the
    dense rank of x in its row (``!=`` keeps -0.0 and 0.0 on one level) and
    u * 2**53 an integer, since random() returns multiples of 2**-53.  A row
    with two equal keys, or with 2**11 levels or more, takes the lexsort.
    """
    steps = np.zeros(x.shape, dtype=np.uint64)
    np.cumsum(ordered[:, 1:] != ordered[:, :-1], axis=1, out=steps[:, 1:])
    level = np.empty_like(steps)
    np.put_along_axis(level, order, steps, axis=1)
    keys = level << np.uint64(53) | (u * 2.0**53).astype(np.uint64)
    out = np.argsort(keys, axis=1)
    ranked = np.take_along_axis(keys, out, axis=1)
    fallback = (steps[:, -1] >= 2**11) | (ranked[:, 1:] == ranked[:, :-1]).any(axis=1)
    if fallback.any():
        out[fallback] = np.lexsort((u[fallback], x[fallback]), axis=1)
    return out


def _packed_order(xt):
    """Each row's argsort order, the rows with ties, and those rows sorted.

    One in-place float sort per block: the keys are xt + 0.0 (which turns
    -0.0 into 0.0) with their low b mantissa bits replaced by the position,
    2**b >= n; ``SliceConfig.slices`` keeps b <= 32, inside the 52-bit
    mantissa.  A finite key stays in its value's bucket, the values sharing
    the high 64 - b bits, and buckets sort as their values do.  So a row whose
    sorted keys have no two neighbours in one bucket has no ties, and the
    positions read back are its unique argsort order.  Only the other
    (``near``) rows, with exact ties or values within 2**b ulps, are
    gathered by that order: it stands if it sorts the row, and a row it
    does not sort (positions inside a bucket follow the row, not the
    values) takes argsort and sort.
    """
    n = xt.shape[1]
    low = np.uint64((1 << (n - 1).bit_length()) - 1)
    keys = np.add(xt, 0.0, order="C")
    bits = keys.view(np.uint64)
    bits &= ~low
    bits |= np.arange(n, dtype=np.uint64)
    keys.sort(axis=1)
    order = (bits & low).view(np.int64)
    near = np.flatnonzero(((bits[:, 1:] ^ bits[:, :-1]) <= low).any(axis=1))
    if not near.size:
        return order, near, None
    ordered = np.take_along_axis(xt[near], order[near], axis=1)
    redo = np.flatnonzero((ordered[:, 1:] < ordered[:, :-1]).any(axis=1))
    if redo.size:
        rows = xt[near[redo]]
        order[near[redo]] = np.argsort(rows, axis=1)
        ordered[redo] = np.sort(rows, axis=1)
    # == also pairs -0.0 with 0.0, which the lexsort treats as a tie
    tied = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
    return order, near[tied], ordered[tied]


def _omega_block(xt, counts: RankCounts, words, gen, c, H) -> list[float]:
    """Statistic of each row of a (columns, n) covariate block against y.

    ``xt`` may be any view of the block, a transposed slice of the design
    included: an untrimmed block is copied only by the key build of
    :func:`_packed_order`.  ``counts`` is the full response's level table,
    which gives a trimmed row its kept r and ``den`` through
    :func:`_kept_counts`; ``words[j]`` row j's tie seed as its four
    :func:`~sitscreen.seeding.seed_words`, and ``gen`` one PCG64 generator
    that :func:`~sitscreen.seeding.reseed` puts in each row's
    ``default_rng(tie seed)`` state.  Rows draw what
    :func:`arrange_by_covariate` draws, in order, but tie-break keys only
    for rows with ties; a tie-free row's order is unique, and one float
    sort of packed keys gives it.  For sorted slice ranks a_(j) the
    pairwise spread is sum_j (2j - c + 1) a_(j), one sort per slice.
    """
    p, n = xt.shape
    n_eff = H * c
    if n_eff == n:
        drawn, ranks = None, counts.r
        den = [counts.dispersion] * p
    else:
        drawn = []  # each row's generator state after its choice
        keep = np.ones((p, n), dtype=bool)
        for j, row in enumerate(words.tolist()):
            keep[j, reseed(gen, row).choice(n, size=n - n_eff, replace=False)] = False
            drawn.append(gen.bit_generator.state)
        xt = np.ascontiguousarray(xt)[keep].reshape(p, n_eff)
        ranks, den = _kept_counts(counts, keep, n_eff)
    if 0 in den:
        raise DegenerateResponse("response is constant after trimming")
    order, tied, ordered = _packed_order(xt)
    if tied.size:
        u = np.empty((tied.size, n_eff))
        for i, j in enumerate(tied):
            if drawn is None:
                reseed(gen, words[j].tolist())
            else:
                gen.bit_generator.state = drawn[j]
            u[i] = gen.random(n_eff)
        order[tied] = _tie_order(xt[tied], order[tied], ordered, u)
    # a shared rank vector takes a plain gather, several times faster
    sliced = ranks[order] if ranks.ndim == 1 else np.take_along_axis(ranks, order, 1)
    w = 2 * np.arange(c, dtype=np.int64) - (c - 1)
    num = (np.sort(sliced.reshape(p, H, c), axis=2) @ w).sum(axis=1)
    # exact integers and one final rounding, as in the brute-force reference
    return [
        ((c - 1) * d - (n_eff - 1) * int(s)) / ((c - 1) * d) for s, d in zip(num, den)
    ]


def sliced_estimate(
    sample: PairedSample,
    config: SliceConfig,
    calibration: VarianceCalibration | None = None,
) -> DependenceEstimate:
    """Estimate the dependence of Y on X with slice size ``config.c``.

    The calibration defaults to :func:`auto_calibration` of the full
    (untrimmed) response.  Deterministic given (sample, config): the same
    tie seed always yields the same bits.
    """
    c, H = config.c, config.slices(sample.n)
    counts = rank_counts(sample.y)
    if counts.sizes.shape[0] == 1:
        raise DegenerateResponse("response is constant")
    if calibration is None:
        calibration = _auto_from_counts(counts)
    words = seed_words([config.tie_seed])
    (value,) = _omega_block(sample.x[None, :], counts, words, rng_from_seed(0), c, H)
    z = z_statistic(value, H * c, c, calibration)
    return DependenceEstimate(
        omega_hat=value, z=z, p_value=p_value_from_z(z), n_effective=H * c, c=c
    )


def z_statistic(
    estimate_value: float, n_effective: int, c: int, cal: VarianceCalibration
) -> float:
    """Scale a statistic value (or an array of them) to its asymptotic
    standard-normal z score."""
    if c < 2:
        raise ConfigError(f"slice size c must be >= 2, got {c}")
    if not (cal.sigma_sq > 0):
        raise InvalidCalibration(f"sigma_sq must be positive, got {cal.sigma_sq}")
    return math.sqrt(n_effective * (c - 1)) * estimate_value / cal.sigma


# Cephes ndtr.c coefficients, highest power first: erfc = exp(-x^2) P(x)/Q(x)
# for 1 <= x < 8 and R(x)/S(x) from 8 on; erf = x T(x^2)/U(x^2) below 1.  The
# leading 1.0 of Q, S, U is implicit in Cephes (p1evl); 1.0 * x is exact.
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


def _horner(x, coef):
    """Cephes polevl: the polynomial with coefficients ``coef`` at x."""
    y = coef[0]
    for c in coef[1:]:
        y = y * x + c
    return y


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
    erf = x[near] * _horner(zz[near], _T) / _horner(zz[near], _U)
    erfc[near] = 1.0 - np.abs(erf)
    far = (z >= 1.0) & (zz <= _MAXLOG)
    v = z[far]
    low = v < 8.0
    num = np.where(low, _horner(v, _P), _horner(v, _R))
    den = np.where(low, _horner(v, _Q), _horner(v, _S))
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


def plugin_calibration(y: np.ndarray) -> VarianceCalibration:
    """Estimate the variance calibration from the response ranks.

    theta2_hat = mean of G(y_i) (1 - G(y_i)) with G the empirical
    right-tail function, and theta1_hat averages
    (F(min(y_j, y_l)) - F(y_j) F(y_l))^2 over ordered pairs j != l with F
    the empirical CDF.  Both reduce to sorted prefix sums, O(n log n) total.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape[0] < 2:
        raise SampleTooSmall("need at least 2 observations")
    return _plugin_from_counts(rank_counts(y))


def _plugin_from_counts(counts: RankCounts) -> VarianceCalibration:
    """:func:`plugin_calibration` of the response with these rank counts."""
    n = counts.level.shape[0]
    if counts.sizes.shape[0] == 1:
        raise DegenerateResponse("response is constant")
    theta2 = counts.dispersion / n**3
    # With u = F(y) sorted ascending (each level's r repeated by its size),
    # min(u_j, u_l) = u_j for j < l, so the pair sum collapses to
    # sum_l (1-u_l)^2 * prefix_sum(u^2).
    u = np.repeat(np.cumsum(counts.sizes), counts.sizes) / n
    head = np.cumsum(u**2)[:-1]
    tail = (1.0 - u[1:]) ** 2
    theta1 = 2.0 * float(tail @ head) / (n * (n - 1))
    sigma_sq = 2.0 * theta1 / theta2**2
    if sigma_sq <= 0.0:
        raise DegenerateResponse(
            "response carries too little variation to calibrate sigma"
        )
    return VarianceCalibration(
        mode="plugin", sigma_sq=sigma_sq, theta1=theta1, theta2=theta2
    )


def auto_calibration(y: np.ndarray) -> VarianceCalibration:
    """Fixed 4/5 calibration for tie-free responses, plug-in otherwise."""
    return _auto_from_counts(rank_counts(y))


def _auto_from_counts(counts: RankCounts) -> VarianceCalibration:
    """:func:`auto_calibration` of the response with these rank counts."""
    if counts.tie_free:
        return VarianceCalibration.fixed()
    return _plugin_from_counts(counts)
