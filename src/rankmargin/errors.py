"""Exception and warning types shared across the package, and the helper that
emits one fallback warning per predicting call."""

import warnings


class RankMarginError(Exception):
    """Base class for every error raised by this package."""


class CsvFormatError(RankMarginError):
    """The CSV file as a whole is unusable (missing columns, bad header)."""


class EmptyInputError(CsvFormatError):
    """The CSV contained no game rows."""


class RowParseError(CsvFormatError):
    """A single data row could not be parsed.

    Attributes:
        row: 1-based index of the offending data row (header excluded).
    """

    def __init__(self, row: int, message: str):
        super().__init__(f"row {row}: {message}")
        self.row = row


class InvalidSplitError(RankMarginError):
    """A train/validation split request cannot be applied."""


class ParameterError(RankMarginError, ValueError):
    """A hyperparameter or configuration value is out of its legal range."""


class DataError(RankMarginError):
    """The dataset cannot support the requested operation."""


class NoReplicationError(DataError):
    """No rank pair occurs more than once, so pure error is undefined."""


class RankDeficientError(RankMarginError):
    """A regression design matrix is numerically rank deficient."""


class NotConvergedError(RankMarginError):
    """An iterative fit did not converge and the result refuses this use."""


class InconsistencyError(RankMarginError):
    """An internal consistency check failed; indicates a bug upstream."""


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
