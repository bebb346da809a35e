"""Estimation and influence analysis for length-biased right-censored data.

The package fits product-limit estimators that exploit the shared marginal
of entry delays and residual lifetimes under stationary length-biased
sampling, evaluates the associated per-subject influence functions in oracle
and plugin modes, and ships a seeded simulation harness that measures the
empirical decay rates of the representation remainders.
"""

from .data import Dataset
from .empirical import EmpiricalProcesses, build_empirical
from .errors import (
    ComputeError,
    ConfigError,
    InvalidDataError,
    LbrcError,
    WindowError,
)
from .estimators import (
    FittedCurves,
    classic_cumulative_hazard,
    combined_cumulative_hazard,
    estimate_combined_risk,
    estimate_entry_survival,
    exit_order,
    fit,
    hazard_steps,
    huang_qin_cdf,
    pooled_entry_cumhaz,
    safeguarded_cdf,
    tjw_product_limit,
)
from .influence import (
    DIVERGENCE_CAP,
    LilCurves,
    OracleContext,
    PluginContext,
    RepresentationReport,
    assumption3_diagnostic,
    influence_means,
    lil_quantities,
    make_oracle_context,
    make_plugin_context,
    plugin_variance,
    residual_cdf,
    residual_entry_survival,
    residual_hazard,
    subject_influence,
)
from .io import parse_dataset, write_dataset_csv
from .simulate import (
    RateReport,
    TARGET_EXPONENTS,
    WHICH_CHOICES,
    consistency_check,
    rate_experiment,
    sample_lbrc,
)
from .stepfun import EvalGrid, StepFunction, sup_diff_vs_smooth, sup_norm_diff
from .truth import ExponentialModel, TruthModel, WeibullModel, make_model

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "EmpiricalProcesses",
    "build_empirical",
    "LbrcError",
    "InvalidDataError",
    "ConfigError",
    "WindowError",
    "ComputeError",
    "FittedCurves",
    "fit",
    "estimate_entry_survival",
    "estimate_combined_risk",
    "hazard_steps",
    "exit_order",
    "classic_cumulative_hazard",
    "combined_cumulative_hazard",
    "pooled_entry_cumhaz",
    "tjw_product_limit",
    "huang_qin_cdf",
    "safeguarded_cdf",
    "DIVERGENCE_CAP",
    "OracleContext",
    "PluginContext",
    "make_oracle_context",
    "make_plugin_context",
    "subject_influence",
    "influence_means",
    "RepresentationReport",
    "residual_hazard",
    "residual_cdf",
    "residual_entry_survival",
    "LilCurves",
    "lil_quantities",
    "plugin_variance",
    "assumption3_diagnostic",
    "parse_dataset",
    "write_dataset_csv",
    "RateReport",
    "WHICH_CHOICES",
    "TARGET_EXPONENTS",
    "sample_lbrc",
    "rate_experiment",
    "consistency_check",
    "EvalGrid",
    "StepFunction",
    "sup_norm_diff",
    "sup_diff_vs_smooth",
    "ExponentialModel",
    "WeibullModel",
    "TruthModel",
    "make_model",
]
