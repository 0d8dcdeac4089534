"""chaoslab: exact finite-dimensional Malliavin calculus, fractional Brownian
path generation, weighted Hermite variation statistics, and Monte Carlo
verification of their Gaussian and mixed-Gaussian limits."""

__version__ = "0.1.0"

from .hermite import hermite_eval
from .polyrv import PolyRV, wick_expectation
from .space import GaussianSpace, HilbertVec, inner_product
from .tensors import SymTensor, contract
from .malliavin import (
    PolyTensor,
    derivative,
    multiple_integral,
    ou_generator,
    skorohod,
)
from .identities import run_identity_suite
from .rng import derive_seed, normal_rows
from .fbm import (
    FbmGrid,
    FbmPathBatch,
    alpha,
    beta,
    bounds_suite,
    cov_rh,
    eps_del,
    load_paths,
    rho,
    sample_paths,
    save_paths,
)
from .weights import WeightFunction, parse_weight
from .variations import (
    RegimeSpec,
    VariationResult,
    a_n_statistic,
    classify_regime,
    correction_term,
    decompose_gn,
    full_variation,
    sigma_hq,
    skorohod_weighted_closed_form,
    weighted_variation,
)
from .limits import (
    MixtureSpec,
    berry_esseen_check,
    brownian_example_run,
    chaos2_fourth_moment_exact,
    conditional_cf_test,
    ks_two_sample,
    sample_mixture_limit,
)
from .experiments import mixture_comparison, riemann_comparison
from .report import TestReport, canonical_json, report_payload, without_meta

__all__ = [
    "FbmGrid",
    "FbmPathBatch",
    "GaussianSpace",
    "HilbertVec",
    "MixtureSpec",
    "PolyRV",
    "PolyTensor",
    "RegimeSpec",
    "SymTensor",
    "TestReport",
    "VariationResult",
    "WeightFunction",
    "a_n_statistic",
    "alpha",
    "berry_esseen_check",
    "beta",
    "bounds_suite",
    "brownian_example_run",
    "canonical_json",
    "chaos2_fourth_moment_exact",
    "classify_regime",
    "conditional_cf_test",
    "contract",
    "correction_term",
    "cov_rh",
    "decompose_gn",
    "derivative",
    "derive_seed",
    "eps_del",
    "full_variation",
    "hermite_eval",
    "inner_product",
    "ks_two_sample",
    "load_paths",
    "mixture_comparison",
    "multiple_integral",
    "normal_rows",
    "ou_generator",
    "parse_weight",
    "report_payload",
    "rho",
    "riemann_comparison",
    "run_identity_suite",
    "sample_mixture_limit",
    "sample_paths",
    "save_paths",
    "sigma_hq",
    "skorohod",
    "skorohod_weighted_closed_form",
    "weighted_variation",
    "wick_expectation",
    "without_meta",
    "__version__",
]
