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
from .seeding import rng_from_seed

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
        if x.shape[0] < 4:
            raise ConfigError("need at least 4 paired observations")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ConfigError("all values must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class RankCounts:
    """Per-observation right counts r_i = #{y_j <= y_i} and R_i = #{y_j >= y_i}."""

    r: np.ndarray
    R: np.ndarray

    @cached_property
    def dispersion(self) -> int:
        """Exact sum of R_i (n - R_i) over the sample, taken on first use."""
        return _dispersion_sums(self.R, self.R.shape[0])[0]


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
    """Right counts of a response vector against its own values.

    ``r[i]`` counts values <= y[i], ``R[i]`` counts values >= y[i]; both are
    taken over the full vector, in the order ``y`` is given.
    """
    y = np.asarray(y, dtype=np.float64)
    ys = np.sort(y)
    r = np.searchsorted(ys, y, side="right").astype(np.int64)
    R = (y.shape[0] - np.searchsorted(ys, y, side="left")).astype(np.int64)
    return RankCounts(r=r, R=R)


def _dispersion_sums(R: np.ndarray, n: int) -> list[int]:
    """Exact sum of R_i (n - R_i) along the last axis, one Python int per row.

    A plain int64 sum wraps once n^3 / 6 passes 2^63 (n above about 4M).
    Each term (at most n^2 / 4) is split into its high and low 32-bit
    halves; each half sums in int64 without overflow for n < 2^31, and the
    two partial sums are combined as Python ints.
    """
    terms = np.atleast_2d(R * (n - R))
    high = np.sum(terms >> 32, axis=1)
    low = np.sum(terms & 0xFFFFFFFF, axis=1)
    return [(int(h) << 32) + int(l) for h, l in zip(high, low)]


def _kept_counts(full: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Rank counts over each row's kept subsample, from full-sample counts.

    Counts are strictly monotone in y, so a row's kept r_i is r_i minus
    #{dropped j : r_j <= r_i}, read off a cumulative histogram of the row's
    dropped counts; exact with ties, and the same holds for R.
    """
    rows, n = keep.shape
    drop_rows, drop_cols = np.nonzero(~keep)
    hist = np.bincount(drop_rows * (n + 1) + full[drop_cols], minlength=rows * (n + 1))
    at_most = hist.reshape(rows, n + 1).cumsum(axis=1)
    kept = np.broadcast_to(full, keep.shape)[keep].reshape(rows, -1)
    return kept - np.take_along_axis(at_most, kept, axis=1)


def _omega_block(xt, counts: RankCounts, seed_of, c, H) -> list[float]:
    """Statistic of each row of a (columns, n) covariate block against y.

    ``counts`` are the full response's rank counts, ``seed_of(j)`` row j's
    tie seed.  Rows draw what :func:`arrange_by_covariate` draws, in order,
    but tie-break keys only for rows with ties: a tie-free row's argsort
    order is unique.  For sorted slice ranks a_(j) the pairwise spread is
    sum_j (2j - c + 1) a_(j), one sort per slice.
    """
    p, n = xt.shape
    n_eff = H * c
    if n_eff == n:
        rngs, ranks = None, counts.r
        den = [counts.dispersion] * p
    else:
        rngs = [rng_from_seed(seed_of(j)) for j in range(p)]
        keep = np.ones((p, n), dtype=bool)
        for j, rng in enumerate(rngs):
            keep[j, rng.choice(n, size=n - n_eff, replace=False)] = False
        xt = xt[keep].reshape(p, n_eff)
        ranks = _kept_counts(counts.r, keep)
        den = _dispersion_sums(_kept_counts(counts.R, keep), n_eff)
    if 0 in den:
        raise DegenerateResponse("response is constant after trimming")
    order = np.argsort(xt, axis=1)
    ordered = np.sort(xt, axis=1)  # cheaper than gathering xt by order
    # == also pairs -0.0 with 0.0, which the lexsort treats as a tie
    tied = np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1))
    if tied.size:
        u = np.stack([
            (rng_from_seed(seed_of(j)) if rngs is None else rngs[j]).random(n_eff)
            for j in tied
        ])
        order[tied] = np.lexsort((u, xt[tied]), axis=1)
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
    if calibration is None:
        calibration = auto_calibration(sample.y)
    c, H = config.c, config.slices(sample.n)
    (value,) = _omega_block(sample.x[None, :], rank_counts(sample.y),
                            lambda j: config.tie_seed, c, H)
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
    n = y.shape[0]
    if n < 2:
        raise SampleTooSmall("need at least 2 observations")
    counts = rank_counts(y)
    theta2 = counts.dispersion / n**3
    if theta2 == 0.0:
        raise DegenerateResponse("response is constant")
    # With u = F(y) sorted ascending, min(u_j, u_l) = u_j for j < l, so the
    # pair sum collapses to sum_l (1-u_l)^2 * prefix_sum(u^2).
    u = np.sort(counts.r) / n
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
    y = np.asarray(y, dtype=np.float64)
    if np.unique(y).shape[0] == y.shape[0]:
        return VarianceCalibration.fixed()
    return plugin_calibration(y)

