"""Brute-force reference implementations used by the test suite.

These transcribe the defining formulas literally (loops, no prefix tricks)
and exist to validate the optimized paths by exact comparison: any mismatch
is a bug, never a tolerance case.  The machinery shared with the fast path
is the tie-broken arrangement of the sample (same seed, same ordering),
without which exact equality would be ill-posed, the seeded normal draws
of :func:`oracle_design`, and, in the estimated-FDP curve :func:`fdp_hat`,
the scaling ``z_statistic``/``p_value_from_z``.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DegenerateResponse, NonPositiveThreshold
from .estimator import (
    PairedSample,
    SliceConfig,
    arrange_by_covariate,
    p_value_from_z,
    z_statistic,
)
from .fdr import RULE_BY, FdrConfig, harmonic_number
from .screening import ScreeningResult
from .seeding import rng_from_seed


def oracle_estimate(sample: PairedSample, config: SliceConfig) -> float:
    """Literal triple-loop evaluation of the sliced statistic, O(n^2 c).

    Counts r and R by direct comparison loops, sums within-slice pairs
    explicitly, and finishes with the same exact-integer ratio as the fast
    path.  Intended for n up to about 2,000.
    """
    values = [float(v) for v in arrange_by_covariate(sample, config)]
    n_eff, c = len(values), config.c

    r = [sum(1 for t in values if v >= t) for v in values]
    num = 0
    for h in range(n_eff // c):
        for j in range(c):
            for l in range(j + 1, c):
                num += abs(r[h * c + j] - r[h * c + l])

    den = 0
    for t in values:
        R_i = sum(1 for v in values if v >= t)
        den += R_i * (n_eff - R_i)
    if den == 0:
        raise DegenerateResponse("response is constant after trimming")

    num_total = (n_eff - 1) * num
    den_total = (c - 1) * den
    return (den_total - num_total) / den_total


def oracle_theta1(y) -> float:
    """Tie-aware plug-in theta1 of a response by its double sums, O(n^2).

    Counts r_i = #{y_j <= y_i} by comparison loops, sums
    S_i = sum_j min(r_i, r_j) and A = sum_ij min(r_i, r_j)^2 pair by pair,
    and divides the exact integer n^2 A - 2 n sum S_i^2 + (sum S_i)^2 by n^6
    once, as the fast path does.
    """
    values = [float(v) for v in y]
    n = len(values)
    r = [sum(1 for t in values if t <= v) for v in values]
    S = [sum(min(a, b) for b in r) for a in r]
    A = sum(min(a, b) ** 2 for a in r for b in r)
    return (n * n * A - 2 * n * sum(s * s for s in S) + sum(S) ** 2) / n**6


def oracle_design(spec) -> np.ndarray:
    """The AR(1) design from a separate draw buffer, one column at a time.

    ``spec`` is a ``simlab.DesignSpec``.  Each column is formed as
    ``rho * x[:, k-1] + carry * eps[:, k]`` into a fresh C-ordered output,
    the reference for the in-place recursion of ``generate_design``.
    """
    rng = rng_from_seed(spec.seed)
    eps = rng.standard_normal((spec.n, spec.p))
    x = np.empty((spec.n, spec.p))
    x[:, 0] = eps[:, 0]
    carry = np.sqrt(1.0 - spec.rho**2)
    for k in range(1, spec.p):
        x[:, k] = spec.rho * x[:, k - 1] + carry * eps[:, k]
    return x


def oracle_threshold(
    omega: np.ndarray,
    p_values: np.ndarray,
    q: float,
    adjustment: str = "by",
) -> np.ndarray:
    """Selected index set of the data-adaptive threshold, by direct scan.

    Evaluates the estimated-FDP bound at every observed positive statistic
    value, takes the smallest qualifying value as the threshold, and keeps
    every covariate at or above it.  O(p^2); intended for p up to about 200.
    """
    omega = np.asarray(omega, dtype=np.float64)
    p_values = np.asarray(p_values, dtype=np.float64)
    p = omega.shape[0]
    if adjustment == "by":
        harmonic = sum(1.0 / l for l in range(1, p + 1))
    elif adjustment == "bh":
        harmonic = 1.0
    else:
        raise ConfigError(f"unknown adjustment {adjustment!r}")

    qualifying = []
    for k in range(p):
        t = omega[k]
        if t <= 0.0:
            continue
        count = sum(1 for v in omega if v >= t)
        fdp_bound = harmonic * p * p_values[k] / max(count, 1)
        if fdp_bound <= q:
            qualifying.append(t)
    if not qualifying:
        return np.array([], dtype=np.intp)
    threshold = min(qualifying)
    return np.flatnonzero(omega >= threshold)


def fdp_hat(t: float, result: ScreeningResult, config: FdrConfig) -> float:
    """Estimated false-discovery proportion of the selection at level t."""
    if not (t > 0.0):
        raise NonPositiveThreshold(f"threshold must be positive, got {t}")
    harmonic = harmonic_number(result.p) if config.adjustment == RULE_BY else 1.0
    z = z_statistic(t, result.n_effective, result.config.c, result.calibration)
    tail = float(p_value_from_z(z))
    count = int(np.count_nonzero(result.omega >= t))
    return harmonic * result.p * tail / max(count, 1)
