"""Margin-of-victory models for ranked college basketball teams.

Predicts the road-minus-home score margin of a game from the two teams'
national rankings, and benchmarks four regression families against the
replication-based noise floor of the data: a quadratic fit, an additive
model with smoothing splines, local linear regression, and Gaussian
kernel smoothing (isotropic and anisotropic in rotated coordinates).
"""

from .additive import AdditiveFit, component_band, fit_additive, predict_additive, predict_additive_arrays
from .data import (
    CUSTOMARY_MAX_RANK,
    Dataset,
    SplitSpec,
    fold_assignments,
    parse_games,
    rotate_arrays,
    split,
    write_games,
)
from .errors import (
    CsvFormatError,
    DataError,
    DegeneratePredictionWarning,
    EmptyInputError,
    InconsistencyError,
    InvalidSplitError,
    NoReplicationError,
    NotConvergedError,
    ParameterError,
    RankDeficientError,
    RankMarginError,
    RankRangeWarning,
    RowParseError,
)
from .evaluate import (
    BenchmarkReport,
    LackOfFitResult,
    PureErrorSummary,
    benchmark,
    kfold_cv,
    lack_of_fit,
    pure_error,
    rmse,
)
from .kernel import (
    KernelSmootherSpec,
    anisotropic_smoother,
    isotropic_smoother,
    predict_kernel,
    predict_kernel_arrays,
    select_aniso_cv,
    select_sigma_loo,
)
from .loess import LoessFit, fit_loess, predict_loess, predict_loess_arrays, select_span_cv
from .numerics import (
    SmoothFunction,
    SplineSmoother,
    WlsSolution,
    evaluate_smooth,
    evaluation_weights,
    f_cdf,
    weighted_least_squares,
)
from .quadratic import (
    QuadraticFit,
    fit_quadratic,
    predict_quadratic,
    predict_quadratic_arrays,
    studentized_residuals,
)
from .synth import generate_synthetic

__version__ = "0.1.0"

__all__ = [
    "AdditiveFit",
    "BenchmarkReport",
    "CUSTOMARY_MAX_RANK",
    "CsvFormatError",
    "DataError",
    "Dataset",
    "DegeneratePredictionWarning",
    "EmptyInputError",
    "InconsistencyError",
    "InvalidSplitError",
    "KernelSmootherSpec",
    "LackOfFitResult",
    "LoessFit",
    "NoReplicationError",
    "NotConvergedError",
    "ParameterError",
    "PureErrorSummary",
    "QuadraticFit",
    "RankDeficientError",
    "RankMarginError",
    "RankRangeWarning",
    "RowParseError",
    "SmoothFunction",
    "SplineSmoother",
    "SplitSpec",
    "WlsSolution",
    "anisotropic_smoother",
    "benchmark",
    "component_band",
    "evaluate_smooth",
    "evaluation_weights",
    "f_cdf",
    "fit_additive",
    "fit_loess",
    "fit_quadratic",
    "fold_assignments",
    "generate_synthetic",
    "isotropic_smoother",
    "kfold_cv",
    "lack_of_fit",
    "parse_games",
    "predict_additive",
    "predict_additive_arrays",
    "predict_kernel",
    "predict_kernel_arrays",
    "predict_loess",
    "predict_loess_arrays",
    "predict_quadratic",
    "predict_quadratic_arrays",
    "pure_error",
    "rmse",
    "rotate_arrays",
    "select_aniso_cv",
    "select_sigma_loo",
    "select_span_cv",
    "split",
    "studentized_residuals",
    "weighted_least_squares",
    "write_games",
]
