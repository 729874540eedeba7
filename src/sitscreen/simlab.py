"""Simulation laboratory: synthetic designs, response models, study runner.

Covariates are drawn from a mean-zero Gaussian with covariance
rho^|k - l| between columns k and l, realized by the exact AR(1) recursion
X_1 = e_1, X_k = rho X_{k-1} + sqrt(1 - rho^2) e_k at O(np) cost.  The
recursion runs in place in the buffer the normals are drawn into, so a
replication holds one n x p array.  Twelve response models are available
in three families:

  a1  y = x' beta + 2 e          (normal noise)        active: first s
  a2  y = x' beta + 2 e          (t3 noise)
  a3  y = exp(x' beta) + 4 e     (normal noise)
  a4  y = exp(x' beta) + 4 e     (t3 noise)
  b1  y = 4 x1 x2 + exp{5 (x20 + x21) 1(x20 + x21 <= 3)} e   active: 1,2,20,21
  b2  y = 4 x1 x2 + 3 x3^2 + exp{5 x20 1(x20 <= 3)} e        active: 1,2,3,20
  b3  y = 4 x1 + 5 x2 + 3 x3^2 + exp{5 x20 1(x20 <= 4)} e    active: 1,2,3,20
  b4  y = 2 x1 x2 + 3 x11 x12 + e                            active: 1,2,11,12
  c1  y = 2 x' beta + e          (normal noise)        active: first s
  c2  y = 2 x' beta + e          (t3 noise)
  c3  y = exp(x' beta / 5) + e   (normal noise)
  c4  y = exp(x' beta / 5) + e   (t3 noise)

(The covariate numbering above is 1-based; the API is 0-based throughout.)
beta puts weight 1 on the first s covariates and 0 elsewhere; e is drawn
once per replication, standard normal or Student t with 3 degrees of
freedom as listed.

``run_study`` repeats generate -> screen -> select for a given slice size
and list of threshold rules and aggregates the usual criteria: per-covariate
selection proportions, the all-active proportion, minimum-model-size
quantiles, average model size, and mean false-discovery proportion.
Replication i takes its design, response and tie seeds from
derive_seed(master_seed, i, tag), which is tie_key(tie_key(master_seed, i),
tag) for a master below 2**64, so reports are reproducible regardless of
scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, IncompatibleDimensions, InvalidRho, InvalidSize
# ThresholdRule is re-exported: simulation callers build their rules from here.
from .fdr import RULE_HARD_SIZE, ThresholdRule, evaluate_selection  # noqa: F401
from .screening import Dataset, minimum_model_size, screen_all
from .estimator import SliceConfig, _check_integer
from .seeding import derive_seed, rng_from_seed

MMS_QUANTILES = (25, 50, 75, 95)

# Seed-derivation tags for the three random draws of one replication.
_TAG_DESIGN, _TAG_RESPONSE, _TAG_SCREEN = 0, 1, 2


@dataclass(frozen=True)
class DesignSpec:
    """Size and correlation of the synthetic Gaussian design."""

    n: int
    p: int
    rho: float
    seed: int = 0

    def __post_init__(self):
        _check_integer(self.n, "n")
        if self.n < 4:
            raise ConfigError("n must be at least 4")
        _check_integer(self.p, "p")
        if self.p < 1:
            raise ConfigError("p must be at least 1")
        if not abs(self.rho) < 1.0:
            raise InvalidRho(f"rho must lie in (-1, 1), got {self.rho}")


def _model_a(x, beta, eps):
    return x @ beta + 2.0 * eps


def _model_a_exp(x, beta, eps):
    return np.exp(x @ beta) + 4.0 * eps


def _model_b1(x, beta, eps):
    s = x[:, 19] + x[:, 20]
    return 4.0 * x[:, 0] * x[:, 1] + np.exp(5.0 * s * (s <= 3.0)) * eps


def _model_b2(x, beta, eps):
    v = x[:, 19]
    return (
        4.0 * x[:, 0] * x[:, 1]
        + 3.0 * x[:, 2] ** 2
        + np.exp(5.0 * v * (v <= 3.0)) * eps
    )


def _model_b3(x, beta, eps):
    v = x[:, 19]
    return (
        4.0 * x[:, 0]
        + 5.0 * x[:, 1]
        + 3.0 * x[:, 2] ** 2
        + np.exp(5.0 * v * (v <= 4.0)) * eps
    )


def _model_b4(x, beta, eps):
    return 2.0 * x[:, 0] * x[:, 1] + 3.0 * x[:, 10] * x[:, 11] + eps


def _model_c(x, beta, eps):
    return 2.0 * (x @ beta) + eps


def _model_c_exp(x, beta, eps):
    return np.exp((x @ beta) / 5.0) + eps


# id -> (response fn, noise kind, default s, fixed active set or None)
_MODELS = {
    "a1": (_model_a, "normal", 4, None),
    "a2": (_model_a, "t3", 4, None),
    "a3": (_model_a_exp, "normal", 4, None),
    "a4": (_model_a_exp, "t3", 4, None),
    "b1": (_model_b1, "normal", None, (0, 1, 19, 20)),
    "b2": (_model_b2, "normal", None, (0, 1, 2, 19)),
    "b3": (_model_b3, "normal", None, (0, 1, 2, 19)),
    "b4": (_model_b4, "normal", None, (0, 1, 10, 11)),
    "c1": (_model_c, "normal", 20, None),
    "c2": (_model_c, "t3", 20, None),
    "c3": (_model_c_exp, "normal", 20, None),
    "c4": (_model_c_exp, "t3", 20, None),
}

MODEL_IDS = tuple(_MODELS)


@dataclass(frozen=True)
class ModelSpec:
    """A response model id plus its sparsity s (first-s models only)."""

    id: str
    s: int | None = None

    def __post_init__(self):
        if self.id not in _MODELS:
            raise ConfigError(f"unknown model {self.id!r}; choose from {MODEL_IDS}")
        _, _, default_s, fixed_active = _MODELS[self.id]
        if fixed_active is None:
            s = self.s if self.s is not None else default_s
            _check_integer(s, "sparsity s")
            if s < 1:
                raise ConfigError("sparsity s must be >= 1")
            object.__setattr__(self, "s", s)
        elif self.s is not None:
            raise ConfigError(f"model {self.id!r} has a fixed active set; drop s")

    @property
    def active_set(self) -> tuple[int, ...]:
        fixed_active = _MODELS[self.id][3]
        if fixed_active is not None:
            return fixed_active
        return tuple(range(self.s))

    def min_p(self) -> int:
        return max(self.active_set) + 1

    def check_width(self, p: int) -> None:
        """Refuse a design with fewer than ``min_p`` columns."""
        if p < self.min_p():
            raise IncompatibleDimensions(
                f"model {self.id} needs p >= {self.min_p()}, got {p}"
            )


def generate_design(spec: DesignSpec) -> np.ndarray:
    """Draw the n x p Gaussian design with correlation rho^|k-l|.

    The recursion overwrites the draws column by column, and each element
    takes the same two roundings as ``rho * x[:, k-1] + sqrt(1 - rho^2) *
    e[:, k]`` computed from a separate buffer of draws e.
    """
    x = rng_from_seed(spec.seed).standard_normal((spec.n, spec.p))
    x[:, 1:] *= np.sqrt(1.0 - spec.rho**2)
    for k in range(1, spec.p):
        x[:, k] += spec.rho * x[:, k - 1]
    return x


def generate_response(x: np.ndarray, model: ModelSpec, seed: int) -> np.ndarray:
    """Draw the response for a design matrix under one of the twelve models.

    The noise vector is drawn before the formula is applied, so two calls
    with the same seed and sample size share identical noise regardless of x.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise IncompatibleDimensions("design must be a 2-D matrix")
    n, p = x.shape
    model.check_width(p)
    fn, noise, _, fixed_active = _MODELS[model.id]
    rng = rng_from_seed(seed)
    eps = rng.standard_normal(n) if noise == "normal" else rng.standard_t(3, n)
    beta = None
    if fixed_active is None:
        beta = np.zeros(p)
        beta[: model.s] = 1.0
    return fn(x, beta, eps)


@dataclass(frozen=True)
class ReplicationOutcome:
    """Per-replication selections and criteria, one entry per rule label."""

    rep_index: int
    mms: int
    rank_consistent: bool
    selections: dict
    fdp: dict
    all_active: dict


@dataclass(frozen=True)
class RuleSummary:
    """Aggregated criteria for one threshold rule."""

    selection_proportions: dict
    p_all: float
    ams: float
    mean_fdp: float


@dataclass(frozen=True)
class SimulationReport:
    """Aggregate of a replicated study; ``per_rule`` maps rule labels."""

    model_id: str
    active_set: tuple
    reps: int
    mms_quantiles: dict
    rank_consistent_proportion: float
    per_rule: dict
    p_a: float | None = None


def run_replication(
    design: DesignSpec,
    model: ModelSpec,
    c: int,
    rules,
    rep_index: int,
    master_seed: int,
    threads: int | None = None,
) -> ReplicationOutcome:
    """Generate, screen, and select once; seeds derive from (master, rep)."""
    spec = replace(design, seed=derive_seed(master_seed, rep_index, _TAG_DESIGN))
    x = generate_design(spec)
    y = generate_response(x, model, derive_seed(master_seed, rep_index, _TAG_RESPONSE))
    result = screen_all(
        Dataset(x=x, y=y),
        SliceConfig(c=c, tie_seed=derive_seed(master_seed, rep_index, _TAG_SCREEN)),
        threads=threads,
    )
    active = model.active_set
    inactive = np.ones(design.p, dtype=bool)
    inactive[list(active)] = False
    rank_consistent = bool(
        result.omega[list(active)].min() > result.omega[inactive].max()
    )
    mms = minimum_model_size(result, active)

    selections, fdp, all_active = {}, {}, {}
    for rule in rules:
        selected = rule.apply(result).selected
        fdp[rule.label], true_hits = evaluate_selection(selected, active)
        selections[rule.label] = selected
        all_active[rule.label] = true_hits == len(active)
    return ReplicationOutcome(
        rep_index=rep_index,
        mms=mms,
        rank_consistent=rank_consistent,
        selections=selections,
        fdp=fdp,
        all_active=all_active,
    )


def aggregate(
    outcomes,
    model: ModelSpec,
    design: DesignSpec,
    c: int,
    rules,
    master_seed: int,
) -> SimulationReport:
    """Fold replication outcomes into a report.

    Outcomes are sorted by replication index before folding, so any
    permutation of the input yields the identical report.  ``design``,
    ``c`` and ``master_seed`` are accepted but not used.
    """
    outcomes = sorted(outcomes, key=lambda o: o.rep_index)
    reps = len(outcomes)
    active = model.active_set
    mms_values = np.array([o.mms for o in outcomes], dtype=np.float64)
    quantiles = {
        str(level): float(np.percentile(mms_values, level)) for level in MMS_QUANTILES
    }
    per_rule = {}
    for rule in rules:
        label = rule.label
        proportions = {
            int(k): float(
                np.mean([1.0 if k in o.selections[label] else 0.0 for o in outcomes])
            )
            for k in active
        }
        per_rule[label] = RuleSummary(
            selection_proportions=proportions,
            p_all=float(np.mean([o.all_active[label] for o in outcomes])),
            ams=float(np.mean([len(o.selections[label]) for o in outcomes])),
            mean_fdp=float(np.mean([o.fdp[label] for o in outcomes])),
        )
    p_a = None
    for rule in rules:
        if rule.kind == RULE_HARD_SIZE:
            p_a = per_rule[rule.label].p_all
            break
    return SimulationReport(
        model_id=model.id,
        active_set=tuple(active),
        reps=reps,
        mms_quantiles=quantiles,
        rank_consistent_proportion=float(
            np.mean([o.rank_consistent for o in outcomes])
        ),
        per_rule=per_rule,
        p_a=p_a,
    )


def run_study(
    design: DesignSpec,
    model: ModelSpec,
    c: int,
    rules,
    reps: int,
    master_seed: int,
    outcome_hook=None,
) -> SimulationReport:
    """Run ``reps`` independent replications and aggregate the criteria.

    ``outcome_hook``, when given, receives each ReplicationOutcome as it
    completes (used by the CLI to stream per-replication CSV rows).
    """
    _check_integer(reps, "reps")
    if reps < 1:
        raise ConfigError("reps must be >= 1")
    rules = list(rules)
    if not rules:
        raise ConfigError("need at least one threshold rule")
    labels = [rule.label for rule in rules]
    if len(set(labels)) != len(labels):
        raise ConfigError("rule labels must be unique")
    # refuse what generate_response, screen_all and the rules would, before any design
    model.check_width(design.p)
    SliceConfig(c=c).slices(design.n)
    for rule in rules:
        if rule.kind == RULE_HARD_SIZE and rule.d > design.p:
            raise InvalidSize(f"model size d={rule.d} outside [1, {design.p}]")
    outcomes = []
    for i in range(reps):
        outcome = run_replication(design, model, c, rules, i, master_seed)
        if outcome_hook is not None:
            outcome_hook(outcome)
        outcomes.append(outcome)
    return aggregate(outcomes, model, design, c, rules, master_seed)
