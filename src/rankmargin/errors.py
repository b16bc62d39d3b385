"""Exception and warning types shared across the package, and the helper that
emits one fallback warning per predicting call.

Every error the package raises is a RankMarginError, and the CLI exits 2 on
any of them. Beyond the base class there are four: ParameterError for a
value the caller chose, DataError for data that cannot support the
operation, RowParseError (a DataError) for the CSV row that failed to parse,
and RankDeficientError, which the LOESS collinear fallback catches.
"""

import warnings


class RankMarginError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(RankMarginError, ValueError):
    """A hyperparameter, flag, split request or model-file value is out of
    its legal range."""


class DataError(RankMarginError):
    """The data cannot support the requested operation: an unusable or empty
    CSV, too few games or distinct ranks for a fit, no replicated rank pair
    for pure error, a GAM band from a fit that did not converge, an SSE
    that cannot belong to the data, or a report whose GAM did not converge."""


class RowParseError(DataError):
    """A single CSV data row could not be parsed.

    Attributes:
        row: 1-based index of the offending data row (header excluded).
    """

    def __init__(self, row: int, message: str):
        super().__init__(f"row {row}: {message}")
        self.row = row


class RankDeficientError(RankMarginError):
    """A regression design matrix is numerically rank deficient."""


class DegeneratePredictionWarning(UserWarning):
    """A prediction fell back to a weighted mean or nearest neighbor."""


class RankRangeWarning(UserWarning):
    """Ranks beyond the usual Division I range (1..351) were accepted."""


def warn_fallbacks(model: str, fallbacks, total: int) -> None:
    """One DegeneratePredictionWarning for a predicting call whose `fallbacks`
    (a Counter of predictions by reason) are not all zero, attributed to the
    code that made that call."""
    count = sum(fallbacks.values())
    if count:
        reasons = "; ".join(f"{k} {why}" for why, k in fallbacks.items() if k)
        warnings.warn(
            f"{count} of {total} {model} predictions fell back: {reasons}",
            DegeneratePredictionWarning,
            stacklevel=3,
        )
