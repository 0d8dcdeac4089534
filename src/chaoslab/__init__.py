"""chaoslab: exact finite-dimensional Malliavin calculus, fractional Brownian
path generation, weighted Hermite variation statistics, and Monte Carlo
verification of their Gaussian and mixed-Gaussian limits.

The package namespace holds the names of the README quick tour; everything
else is imported from its own module (``chaoslab.fbm``, ``chaoslab.limits``,
...)."""

__version__ = "0.1.0"

from .polyrv import wick_expectation
from .space import GaussianSpace
from .malliavin import PolyTensor, derivative, skorohod
from .fbm import FbmGrid, sample_paths
from .weights import WeightFunction
from .variations import full_variation

__all__ = [
    "FbmGrid",
    "GaussianSpace",
    "PolyTensor",
    "WeightFunction",
    "derivative",
    "full_variation",
    "sample_paths",
    "skorohod",
    "wick_expectation",
    "__version__",
]
