"""Margin-of-victory models for ranked college basketball teams.

Predicts the road-minus-home score margin of a game from the two teams'
national rankings, and benchmarks four regression families against the
replication-based noise floor of the data: a quadratic fit, an additive
model with smoothing splines, local linear regression, and Gaussian
kernel smoothing (isotropic and anisotropic in rotated coordinates).

The top level exports the names of the README's library use; every other
name is imported from its submodule (`rankmargin.loess`, `rankmargin.errors`,
...).
"""

from . import models
from .additive import component_band
from .data import Dataset, parse_games, split
from .errors import RankMarginError
from .evaluate import benchmark, table_text
from .quadratic import fit_quadratic, predict_quadratic

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "RankMarginError",
    "benchmark",
    "component_band",
    "fit_quadratic",
    "models",
    "parse_games",
    "predict_quadratic",
    "split",
    "table_text",
    "__version__",
]
