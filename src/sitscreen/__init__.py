"""Feature screening with the sliced dependence statistic.

Rank covariates of an n x p dataset by a rank/slice-based dependence
statistic, then select either a fixed number of top covariates or a
data-adaptive, FDR-controlling subset.  Includes a simulation laboratory
for replicated synthetic studies and a CSV-driven CLI.
"""

from .errors import (
    AllColumnsConstant,
    ConfigError,
    DegenerateResponse,
    EmptyActiveSet,
    EmptyData,
    IncompatibleDimensions,
    InvalidCalibration,
    InvalidRho,
    InvalidSize,
    MissingResponse,
    NonNumericColumn,
    NonPositiveThreshold,
    ParseError,
    SampleTooSmall,
    SitScreenError,
)
from .estimator import (
    FIXED_SIGMA_SQ,
    DependenceEstimate,
    PairedSample,
    RankCounts,
    SliceConfig,
    VarianceCalibration,
    arrange_by_covariate,
    auto_calibration,
    p_value_from_z,
    plugin_calibration,
    rank_counts,
    sliced_estimate,
    z_statistic,
)
from .fdr import (
    FdrConfig,
    ThresholdRule,
    by_threshold,
    evaluate_selection,
    fdp_hat,
    harmonic_number,
)
from .io import ingest_csv, standardize_columns
from .oracle import oracle_estimate, oracle_threshold
from .screening import (
    Dataset,
    ScreeningResult,
    Selection,
    augment_with_noise,
    hard_threshold_select,
    level_threshold_select,
    minimum_model_size,
    screen_all,
)
from .seeding import DEFAULT_MASTER_SEED, derive_seed
from .simlab import (
    DesignSpec,
    ModelSpec,
    ReplicationOutcome,
    SimulationReport,
    generate_design,
    generate_response,
    run_study,
)

__version__ = "0.1.0"

__all__ = [
    "AllColumnsConstant",
    "ConfigError",
    "Dataset",
    "DEFAULT_MASTER_SEED",
    "DegenerateResponse",
    "DependenceEstimate",
    "DesignSpec",
    "EmptyActiveSet",
    "EmptyData",
    "FdrConfig",
    "FIXED_SIGMA_SQ",
    "IncompatibleDimensions",
    "InvalidCalibration",
    "InvalidRho",
    "InvalidSize",
    "MissingResponse",
    "ModelSpec",
    "NonNumericColumn",
    "NonPositiveThreshold",
    "PairedSample",
    "ParseError",
    "RankCounts",
    "ReplicationOutcome",
    "SampleTooSmall",
    "ScreeningResult",
    "Selection",
    "SimulationReport",
    "SitScreenError",
    "SliceConfig",
    "ThresholdRule",
    "VarianceCalibration",
    "arrange_by_covariate",
    "augment_with_noise",
    "auto_calibration",
    "by_threshold",
    "derive_seed",
    "evaluate_selection",
    "fdp_hat",
    "generate_design",
    "generate_response",
    "hard_threshold_select",
    "harmonic_number",
    "ingest_csv",
    "level_threshold_select",
    "minimum_model_size",
    "oracle_estimate",
    "oracle_threshold",
    "p_value_from_z",
    "plugin_calibration",
    "rank_counts",
    "run_study",
    "screen_all",
    "sliced_estimate",
    "standardize_columns",
    "z_statistic",
]
