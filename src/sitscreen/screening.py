"""Marginal screening of a covariate matrix against a response.

Applies the sliced dependence statistic column by column and ranks
covariates by the resulting utilities; the selection rules built on that
ranking live in :mod:`sitscreen.fdr`.  Also holds the ranking diagnostic
(minimum model size) and the noise augmentation used by the simulation
studies and the stability check.

Every column is cut into the H slices of ``SliceConfig.slices``, the one
row floor.  Each worker walks its span of columns in blocks of about
BLOCK_CELLS cells and hands each block, as a transposed view of the design,
to one batched kernel, which copies it as it builds its sort keys.  Column k's
trimming and tie-break randomness comes from the seed hash(master_seed, k),
drawn only when the column needs it (trimming, or ties among its values), so
results are identical for any worker count and any chunking of the columns.
All p seeds are hashed in one batched call per screen, and each worker
reseeds one generator for every column that draws.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (
    AllColumnsConstant,
    ConfigError,
    DegenerateResponse,
    EmptyActiveSet,
)
from .estimator import (
    SliceConfig,
    VarianceCalibration,
    _auto_from_counts,
    _omega_block,
    p_value_from_z,
    rank_counts,
    z_statistic,
)
from .seeding import derive_seeds, rng_from_seed, seed_words

THREADS_ENV_VAR = "SIT_SCREEN_THREADS"

# Cells per kernel call (8 columns at n = 1024): 64 KB per working array, so
# each thread's working set stays near 1 MB and peak memory barely moves.
BLOCK_CELLS = 2**13

@dataclass(frozen=True)
class Dataset:
    """An n x p covariate matrix with a paired response vector.

    ``names`` is optional; when present it must list one unique label per
    covariate column.  All entries must be finite.
    """

    x: np.ndarray
    y: np.ndarray
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        if x.ndim != 2:
            raise ConfigError("covariates must form a 2-D matrix")
        if y.ndim != 1 or y.shape[0] != x.shape[0]:
            raise ConfigError("response length must match the number of rows")
        if x.shape[0] < 1 or x.shape[1] < 1:
            raise ConfigError("need at least one row and one column")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ConfigError("all entries must be finite")
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
    """Worker count: explicit request, capped by SIT_SCREEN_THREADS if set."""
    cap = os.environ.get(THREADS_ENV_VAR)
    try:
        cap = int(cap) if cap else None
    except ValueError:
        raise ConfigError(
            f"{THREADS_ENV_VAR} must be an integer, got {cap!r}"
        ) from None
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

    ``config.tie_seed`` acts as the master seed; column k is evaluated with
    the derived seed hash(master, k), exactly as if ``sliced_estimate`` were
    called on that column alone.  Results do not depend on ``threads``.
    Too few rows for two slices raise SampleTooSmall before any other check.
    """
    c, H = config.c, config.slices(data.n)
    counts = rank_counts(data.y)  # the screen's one sort of the response
    if counts.sizes.shape[0] == 1:
        raise DegenerateResponse("response is constant")
    # a calibration that objects does so before the column check, under every --sigma
    if calibration is None:
        calibration = _auto_from_counts(counts)
    if np.all(data.x == data.x[0:1, :]):
        raise AllColumnsConstant("every covariate column is constant")
    p = data.p
    step = max(1, BLOCK_CELLS // data.n)
    omega = np.empty(p, dtype=np.float64)
    words = seed_words(derive_seeds(config.tie_seed, p))

    def work(start, stop):
        gen = rng_from_seed(0)  # reseeded for every column that draws
        for lo in range(start, stop, step):
            hi = min(lo + step, stop)
            xt = data.x[:, lo:hi].T  # a view: the kernel's key build copies it
            omega[lo:hi] = _omega_block(xt, counts, words[lo:hi], gen, c, H)

    bounds = np.linspace(0, p, min(resolve_threads(threads), p) + 1).astype(int)
    with ThreadPoolExecutor(max_workers=len(bounds) - 1) as pool:
        list(pool.map(work, bounds[:-1], bounds[1:]))

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
    active = np.asarray(list(active), dtype=np.intp)
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
    return Dataset(x=x, y=data.y, names=names)
