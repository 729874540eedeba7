"""Selection rules on a screening result: hard cuts and FDR thresholds.

Every rule returns a :class:`Selection`.  ``hard-size`` keeps the top d
covariates and ``hard-level`` those with a utility of at least a fixed
level; :class:`ThresholdRule` is the one dispatcher over all four kinds.

The data-adaptive threshold is the smallest positive statistic value t at
which the estimated false-discovery proportion

    S(p) * p * (1 - Phi(z(t))) / max(#{k: omega_k >= t}, 1)

drops to the nominal level q, where z(t) scales t like the per-covariate
z statistic and S(p) = 1 + 1/2 + ... + 1/p is the harmonic adjustment that
makes the bound valid under arbitrary dependence across covariates.  With
S(p) = 1 the rule is the classical step-up procedure that assumes positive
dependence; both variants are exposed.

The infimum over t > 0 is attained at an observed statistic value, so the
implementation runs the equivalent step-up scan over sorted p-values in
O(p log p) instead of scanning the estimated-FDP curve (kept as the
reference ``sitscreen.oracle.fdp_hat``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvalidSize
from .screening import ScreeningResult

RULE_HARD_SIZE = "hard-size"
RULE_HARD_LEVEL = "hard-level"
RULE_BY = "by"
RULE_BH = "bh"

ADJUSTMENTS = (RULE_BY, RULE_BH)


@dataclass(frozen=True)
class Selection:
    """Outcome of a threshold rule: sorted selected indices, rule, threshold.

    ``realized_threshold`` is +inf when an FDR rule selects nothing.
    ``harmonic_constant`` is the FDR adjustment S(p) (1 for bh) and ``None``
    for the hard rules.
    """

    selected: np.ndarray
    rule: str
    realized_threshold: float
    harmonic_constant: float | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "selected", np.asarray(self.selected, dtype=np.intp)
        )

    @property
    def num_selected(self) -> int:
        return int(self.selected.shape[0])


def hard_threshold_select(result: ScreeningResult, d: int) -> Selection:
    """Keep the d covariates with the largest utilities (ties by index)."""
    if not (1 <= d <= result.p):
        raise InvalidSize(f"model size d={d} outside [1, {result.p}]")
    top = result.order[:d]
    return Selection(
        selected=np.sort(top),
        rule=RULE_HARD_SIZE,
        realized_threshold=float(result.omega[result.order[d - 1]]),
    )


def level_threshold_select(result: ScreeningResult, threshold: float) -> Selection:
    """Keep every covariate whose utility is at least ``threshold``."""
    if np.isnan(threshold):
        raise ConfigError("threshold must not be NaN")
    return Selection(
        selected=np.flatnonzero(result.omega >= threshold),
        rule=RULE_HARD_LEVEL,
        realized_threshold=float(threshold),
    )


def harmonic_number(p: int) -> float:
    """S(p) = sum_{l=1..p} 1/l, the dependence adjustment constant."""
    return float(sum(1.0 / l for l in range(1, p + 1)))


@dataclass(frozen=True)
class FdrConfig:
    """Nominal FDR level q in (0, 1) and the adjustment variant."""

    q: float
    adjustment: str = RULE_BY

    def __post_init__(self):
        if self.q is None or not (0.0 < self.q < 1.0):
            raise ConfigError(f"q must lie in (0, 1), got {self.q}")
        if self.adjustment not in ADJUSTMENTS:
            raise ConfigError(f"adjustment must be one of {ADJUSTMENTS}")


def by_threshold(result: ScreeningResult, config: FdrConfig) -> Selection:
    """Data-adaptive selection via the step-up form of the threshold rule.

    Walk covariates in increasing p-value order (equivalently decreasing
    utility) and find the largest position k whose p-value is at most
    k * q / (p * S(p)); the utility at that position is the realized
    threshold.  Only positive utilities are candidates, so covariates with
    omega <= 0 are never selected.  An empty selection is a valid outcome,
    with threshold +inf; otherwise the selected set is exactly
    {k: omega_k >= threshold}, closed under ties.
    """
    p = result.p
    harmonic = harmonic_number(p) if config.adjustment == RULE_BY else 1.0
    order = result.order
    omega_sorted = result.omega[order]
    pvals_sorted = result.p_values[order]
    positions = np.arange(1, p + 1)
    bounds = positions * (config.q / (p * harmonic))
    qualifies = (omega_sorted > 0.0) & (pvals_sorted <= bounds)
    hits = np.flatnonzero(qualifies)
    if hits.size == 0:
        threshold = math.inf
        selected = np.array([], dtype=np.intp)
    else:
        threshold = float(omega_sorted[hits[-1]])
        selected = np.flatnonzero(result.omega >= threshold)
    return Selection(
        selected=selected,
        rule=config.adjustment,
        realized_threshold=threshold,
        harmonic_constant=harmonic,
    )


@dataclass(frozen=True)
class ThresholdRule:
    """One selection rule and its parameter; the only rule dispatcher.

    ``hard-size`` keeps the top ``d`` covariates, ``hard-level`` keeps those
    with omega >= ``level``, and ``by``/``bh`` run the FDR step-up at level
    ``q``.  Parameters of the other kinds are ignored.
    """

    kind: str
    d: int | None = None
    q: float | None = None
    level: float | None = None

    def __post_init__(self):
        if self.kind == RULE_HARD_SIZE:
            if self.d is None or self.d < 1:
                raise ConfigError("hard-size rule needs a model size d >= 1")
        elif self.kind == RULE_HARD_LEVEL:
            if self.level is None:
                raise ConfigError("hard-level rule needs a level")
            if not math.isfinite(self.level):
                raise ConfigError(
                    f"hard-level rule needs a finite level, got {self.level}"
                )
        elif self.kind in ADJUSTMENTS:
            FdrConfig(q=self.q, adjustment=self.kind)  # validates q
        else:
            raise ConfigError(f"unknown rule kind {self.kind!r}")

    @property
    def label(self) -> str:
        if self.kind == RULE_HARD_SIZE:
            return f"hard-size(d={self.d})"
        if self.kind == RULE_HARD_LEVEL:
            return f"hard-level(level={self.level:g})"
        return f"{self.kind}(q={self.q:g})"

    def apply(self, result: ScreeningResult) -> Selection:
        """Run the rule on a screening result."""
        if self.kind == RULE_HARD_SIZE:
            return hard_threshold_select(result, self.d)
        if self.kind == RULE_HARD_LEVEL:
            return level_threshold_select(result, self.level)
        return by_threshold(result, FdrConfig(q=self.q, adjustment=self.kind))


def evaluate_selection(selected, active) -> tuple[float, int]:
    """False-discovery proportion and true-positive count of a selection.

    The FDP uses the max(|selected|, 1) guard, so an empty selection scores
    zero false discoveries.
    """
    selected = set(int(k) for k in selected)
    active = set(int(k) for k in active)
    false_hits = len(selected - active)
    true_hits = len(selected & active)
    return false_hits / max(len(selected), 1), true_hits
