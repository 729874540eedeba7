"""Feature screening with the sliced dependence statistic.

Rank covariates of an n x p dataset by a rank/slice-based dependence
statistic, then select either a fixed number of top covariates or a
data-adaptive, FDR-controlling subset.  Includes a simulation laboratory
for replicated synthetic studies and a CSV-driven CLI.

The top level exports the user API; every other name lives in its module
(``sitscreen.errors``, ``.estimator``, ``.fdr``, ``.io``, ``.oracle`` ...).
"""

from .errors import ConfigError, DegenerateData, InputError, SitScreenError
from .estimator import PairedSample, SliceConfig, VarianceCalibration, sliced_estimate
from .fdr import (
    FdrConfig,
    Selection,
    ThresholdRule,
    by_threshold,
    hard_threshold_select,
)
from .screening import Dataset, screen_all
from .simlab import DesignSpec, ModelSpec, run_study

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "Dataset",
    "DegenerateData",
    "DesignSpec",
    "FdrConfig",
    "InputError",
    "ModelSpec",
    "PairedSample",
    "Selection",
    "SitScreenError",
    "SliceConfig",
    "ThresholdRule",
    "VarianceCalibration",
    "by_threshold",
    "hard_threshold_select",
    "run_study",
    "screen_all",
    "sliced_estimate",
]
