"""Exception hierarchy for the sitscreen package.

Every library error derives from :class:`SitScreenError` and carries the CLI
exit code of its family in ``exit_code``: :class:`InputError` 2 (data files,
selectors), :class:`DegenerateData` 3 (data the statistic cannot use) and
:class:`ConfigError` 4 (invalid parameters; also a ``ValueError``).  The
CLI maps an ``OSError`` to 2; any other exception is a bug and surfaces as
one.
"""


class SitScreenError(Exception):
    """Base class for all sitscreen errors."""

    exit_code = 4


class InputError(SitScreenError):
    """Problems with user-supplied data files (CSV parsing, selectors)."""

    exit_code = 2


class ParseError(InputError):
    """Malformed CSV content; the message names the offending row/column."""


class MissingResponse(InputError):
    """The requested response column does not exist."""


class NonNumericColumn(InputError):
    """A covariate column contains a value that cannot be read as a number."""


class EmptyData(InputError):
    """The input file has no header, no data rows or no covariate column."""


class DegenerateData(SitScreenError):
    """Data that is structurally unusable for the statistic."""

    exit_code = 3


class DegenerateResponse(DegenerateData):
    """The response carries no usable variation (constant, or effectively so)."""


class SampleTooSmall(DegenerateData):
    """Fewer than two slices after trimming, or too few rows to calibrate."""


class AllColumnsConstant(DegenerateData):
    """Every covariate column is constant; screening would be meaningless."""


class ConfigError(SitScreenError, ValueError):
    """Invalid configuration values (slice size, FDR level, rule parameters)."""


class InvalidCalibration(ConfigError):
    """A variance calibration with non-positive sigma squared."""


class InvalidSize(ConfigError):
    """A hard-threshold model size outside [1, p]."""


class InvalidRho(ConfigError):
    """An autoregressive correlation outside (-1, 1)."""


class IncompatibleDimensions(ConfigError):
    """A design matrix too narrow for the requested response model."""


class NonPositiveThreshold(ConfigError):
    """The estimated-FDP curve is only defined for thresholds t > 0."""


class EmptyActiveSet(ConfigError):
    """Minimum model size is undefined for an empty active set."""
