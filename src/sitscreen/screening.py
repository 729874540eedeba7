"""Marginal screening of a covariate matrix against a response.

Applies the sliced dependence statistic column by column and ranks
covariates by the resulting utilities; the selection rules built on that
ranking live in :mod:`sitscreen.fdr`.  Also holds the ranking diagnostic
(minimum model size) and the noise augmentation used by the simulation
studies and the stability check.

Every column is cut into the H slices of ``SliceConfig.slices``, the one
row floor.  Every column drops the same n mod c rows
(:func:`~sitscreen.seeding.dropped_rows`), and the kept response's level
table is built once per screen.  Each worker hands its span of columns to
the statistic's one column driver (``estimator._omegas``), which walks
them in kernel blocks; a screen of one worker runs it in the calling
thread.  Column k's tie-break randomness comes from the counter-based
keys of its seed tie_key(master_seed, k), itself key k of the master
seed (:func:`~sitscreen.seeding.tie_keys`).  The keys are computed only for
the columns that take the integer key sort (every column of an int8 or
int16 design, and a float column with ties among its kept values), so
results are identical for any worker count and any chunking of the
columns.  All p seeds come from one :func:`~sitscreen.seeding.tie_keys`
call per screen.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .errors import AllColumnsConstant, ConfigError, EmptyActiveSet
from .estimator import (
    RankCounts,
    SliceConfig,
    VarianceCalibration,
    _check_integer,
    _exact,
    _omegas,
    _trim,
    p_value_from_z,
    rank_counts,
    z_statistic,
)
from .seeding import rng_from_seed, tie_counters, tie_keys

THREADS_ENV_VAR = "SIT_SCREEN_THREADS"

# Cells per chunk of a Dataset's checks of x, its int8 and int16 probes and
# its finiteness scan (a 64 KB boolean).
FINITE_CELLS = 2**16

@dataclass(frozen=True)
class Dataset:
    """An n x p covariate matrix with a paired response vector.

    ``names`` is optional; when present it must list one unique label per
    covariate column.  All entries must be finite, and held exactly by
    float64: complex entries, integers beyond +-2**53 and longdouble
    entries that float64 would round are refused.
    ``y`` is a read-only float64 copy of the response given.  ``x`` is int8
    when every entry is an integer in [-128, 127] (a genotype design, 1 byte
    a cell), else int16 when every entry is an integer in [-32768, 32767]
    (counts, 2 bytes a cell): an int8 or int16 input as it is, anything else
    as a C-ordered copy, -0.0 read as 0.  Every other design is float64, a
    float64 input uncopied.  All three screen to the same bits: the
    statistic reads orderings alone.
    """

    x: np.ndarray
    y: np.ndarray
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        x = _exact(self.x)
        # a read-only copy, so the cached level table cannot go stale
        y = np.array(_exact(self.y), dtype=np.float64)
        y.setflags(write=False)
        if x.ndim != 2:
            raise ConfigError("covariates must form a 2-D matrix")
        if y.ndim != 1 or y.shape[0] != x.shape[0]:
            raise ConfigError("response length must match the number of rows")
        if x.shape[0] < 1 or x.shape[1] < 1:
            raise ConfigError("need at least one row and one column")
        if not np.isfinite(y).all():
            raise ConfigError("all entries must be finite")
        x = _design(x)
        if self.names is not None:
            names = tuple(str(v) for v in self.names)
            if len(names) != x.shape[1]:
                raise ConfigError("names must list one label per covariate")
            if len(set(names)) != len(names):
                raise ConfigError("covariate names must be unique")
            object.__setattr__(self, "names", names)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    @cached_property
    def counts(self) -> RankCounts:
        """The response's level table, taken on first use: its one sort,
        shared by the calibration and every screen of this dataset."""
        return rank_counts(self.y)


def _design(x: np.ndarray) -> np.ndarray:
    """The 2-D design ``x`` (bool, integer or float) as int8 when every
    entry is an integer in [-128, 127], else as int16 when every entry is
    an integer in [-32768, 32767], an int8 or int16 ``x`` as it is; else as
    float64, refused unless every entry is finite.

    Both checks take FINITE_CELLS cells at a time, so their temporaries stay
    small.  For each of int8 and int16 in turn, the first row turns a float
    design away for one row's test.  Otherwise x is cast into the integer
    buffer a chunk at a time and each chunk compared back: a value out of
    range or not an integer differs from its cast, and so do NaN and inf,
    which compare equal to nothing, so an integer result needs no
    finiteness scan.  The casts of such values would warn.
    """
    if x.dtype in (np.int8, np.int16):
        return x
    rows = max(1, FINITE_CELLS // x.shape[1])
    with np.errstate(invalid="ignore"):
        for dtype in (np.int8, np.int16):
            if (x[0].astype(dtype) == x[0]).all():
                small = np.empty(x.shape, dtype=dtype)
                for lo in range(0, x.shape[0], rows):
                    chunk = small[lo : lo + rows]
                    np.copyto(chunk, x[lo : lo + rows], casting="unsafe")
                    if not (chunk == x[lo : lo + rows]).all():
                        break
                else:
                    return small
    x = np.asarray(x, dtype=np.float64)
    if not all(np.isfinite(x[lo : lo + rows]).all() for lo in range(0, x.shape[0], rows)):
        raise ConfigError("all entries must be finite")
    return x


@dataclass(frozen=True)
class ScreeningResult:
    """Per-covariate utilities, z scores, p-values, and the descending order.

    ``order`` sorts covariate indices by utility, largest first, ties broken
    by smaller index.  ``config`` is the caller's slicing configuration,
    ``n_effective`` the H * c observations each column kept after trimming,
    and ``calibration`` the single variance scale behind every z.
    """

    omega: np.ndarray
    z: np.ndarray
    p_values: np.ndarray
    order: np.ndarray
    config: SliceConfig
    n_effective: int
    calibration: VarianceCalibration

    @property
    def p(self) -> int:
        return self.omega.shape[0]

    def ranks(self) -> np.ndarray:
        """1-based rank of each covariate in the descending utility order."""
        ranks = np.empty(self.p, dtype=np.int64)
        ranks[self.order] = np.arange(1, self.p + 1)
        return ranks


def resolve_threads(requested: int | None = None) -> int:
    """Worker count: the explicit request, else SIT_SCREEN_THREADS, else the
    CPU count; SIT_SCREEN_THREADS, if set, also caps a request."""
    cap = os.environ.get(THREADS_ENV_VAR)
    try:
        cap = int(cap) if cap else None
    except ValueError:
        raise ConfigError(
            f"{THREADS_ENV_VAR} must be an integer, got {cap!r}"
        ) from None
    if requested is not None:
        _check_integer(requested, "threads")
    threads = requested if requested else (cap or os.cpu_count() or 1)
    if cap is not None:
        threads = min(threads, cap)
    return max(threads, 1)


def screen_all(
    data: Dataset,
    config: SliceConfig,
    calibration: VarianceCalibration | None = None,
    threads: int | None = None,
) -> ScreeningResult:
    """Compute the dependence statistic of every covariate against y.

    ``config.tie_seed`` acts as the master seed s; column k is evaluated
    with the seed tie_key(s, k) (= ``derive_seed(s, k)``), exactly as if
    ``sliced_estimate`` were called on that column alone, and a trimmed
    sample screens as the untrimmed sample of its kept rows.  Results do
    not depend on ``threads``.
    The calibration defaults to ``auto``
    (:meth:`~sitscreen.estimator.VarianceCalibration.from_counts`) of the
    dataset's level table.  Too few rows for two slices raise SampleTooSmall
    before any other check.
    """
    c, H = config.c, config.slices(data.n)
    counts = data.counts
    # a calibration that objects does so before the column check, under every --sigma
    if calibration is None:
        calibration = VarianceCalibration.from_counts(counts)
    # Rows 0 and 1 differ in nearly every real design; only a tie there needs
    # the full n x p comparison.  `!=` keeps -0.0 equal to 0.0, as `==` does.
    x = data.x
    if not (x[1] != x[0]).any() and np.all(x == x[0:1, :]):
        raise AllColumnsConstant("every covariate column is constant")
    kept, kept_counts = _trim(counts, c)
    p = data.p
    seeds = tie_keys(np.uint64(config.tie_seed), tie_counters(np.arange(p)))
    bounds = np.linspace(0, p, min(resolve_threads(threads), p) + 1).astype(int)
    work = partial(_omegas, x, kept, kept_counts, seeds, c)
    if len(bounds) == 2:  # one worker runs here: a pool thread costs 5-20%
        omega = work(0, p)
    else:
        with ThreadPoolExecutor(max_workers=len(bounds) - 1) as pool:
            omega = np.concatenate(list(pool.map(work, bounds[:-1], bounds[1:])))

    z = z_statistic(omega, H * c, c, calibration)
    p_values = p_value_from_z(z)
    order = np.lexsort((np.arange(p), -omega))
    return ScreeningResult(
        omega=omega,
        z=z,
        p_values=p_values,
        order=order,
        config=config,
        n_effective=H * c,
        calibration=calibration,
    )


def minimum_model_size(result: ScreeningResult, active) -> int:
    """Smallest top-of-ranking prefix that covers all ``active`` covariates."""
    active = list(active)
    for index in active:
        _check_integer(index, "active index")
    active = np.asarray(active, dtype=np.intp)
    if active.size == 0:
        raise EmptyActiveSet("active set must be non-empty")
    if active.min() < 0 or active.max() >= result.p:
        raise ConfigError("active indices outside [0, p)")
    return int(result.ranks()[active].max())


def augment_with_noise(
    data: Dataset, keep, num_aux: int, seed: int
) -> Dataset:
    """Kept columns plus ``num_aux`` fresh standard-normal auxiliary columns.

    Used for threshold-stability checks: screen, keep the selected columns,
    replace the rest with independent noise, and screen again.  Auxiliary
    columns are appended after the kept ones and labelled ``aux_####`` when
    the dataset carries names.
    """
    keep = np.asarray(sorted(int(k) for k in keep), dtype=np.intp)
    if keep.size and (keep.min() < 0 or keep.max() >= data.p):
        raise ConfigError("keep indices outside [0, p)")
    _check_integer(num_aux, "num_aux")
    if num_aux < 0:
        raise ConfigError("num_aux must be >= 0")
    rng = rng_from_seed(seed)
    blocks = [data.x[:, keep]] if keep.size else []
    if num_aux:
        blocks.append(rng.standard_normal((data.n, num_aux)))
    if not blocks:
        raise ConfigError("augmented dataset would have no columns")
    x = np.hstack(blocks)
    names = None
    if data.names is not None:
        kept_names = [data.names[k] for k in keep]
        taken = set(kept_names)
        aux_names = []
        i = 1
        while len(aux_names) < num_aux:
            candidate = f"aux_{i:04d}"
            if candidate not in taken:
                aux_names.append(candidate)
                taken.add(candidate)
            i += 1
        names = tuple(kept_names + aux_names)
    augmented = Dataset(x=x, y=data.y, names=names)
    # the same response: share its level table, so it is sorted once
    object.__setattr__(augmented, "counts", data.counts)
    return augmented
