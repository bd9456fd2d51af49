"""Kernel density and distribution estimation for dependent Gaussian data.

The package pairs exact estimators (finite kernel sums, exact
expectations) with a deterministic simulation harness that checks
distributional limits, convergence rates, almost-sure uniform bounds, and
block-moment inequalities for iid, AR(1), and moving-average sequences.
"""

__version__ = "0.1.0"

from .bandwidth import BandwidthSchedule, ConditionVerdict, bandwidth_at, check_conditions
from .blocking import BlockPartition, bracket_threshold, build_partition
from .estimator import (
    DEFAULT_GRID,
    EstimateCurve,
    Grid,
    bias,
    cdf_clt_statistic,
    cdf_estimate,
    clt_statistic,
    density_estimate,
    expected_cdf,
    expected_density,
    sup_deviation,
)
from .experiments import (
    ExperimentConfig,
    ExperimentReport,
    GateError,
    check_gates,
    fit_loglog_slope,
    ks_statistic,
    moment_bound_check,
    run_experiment,
)
from .kernels import (
    EPANECHNIKOV,
    GAUSSIAN,
    TRIANGULAR,
    UNIFORM,
    KernelSpec,
    evaluate,
    kernel_cdf,
    kernel_from_name,
)
from .processes import (
    ProcessModel,
    SamplePath,
    conditional_mean,
    generate_path,
    indicator_long_run_variance,
    marginal_cdf,
    marginal_density,
    rho_mixing_coefficient,
)

__all__ = [
    "BandwidthSchedule",
    "BlockPartition",
    "ConditionVerdict",
    "DEFAULT_GRID",
    "EPANECHNIKOV",
    "EstimateCurve",
    "ExperimentConfig",
    "ExperimentReport",
    "GAUSSIAN",
    "GateError",
    "Grid",
    "KernelSpec",
    "ProcessModel",
    "SamplePath",
    "TRIANGULAR",
    "UNIFORM",
    "bandwidth_at",
    "bias",
    "bracket_threshold",
    "build_partition",
    "cdf_clt_statistic",
    "cdf_estimate",
    "check_conditions",
    "check_gates",
    "clt_statistic",
    "conditional_mean",
    "density_estimate",
    "evaluate",
    "expected_cdf",
    "expected_density",
    "fit_loglog_slope",
    "generate_path",
    "indicator_long_run_variance",
    "kernel_cdf",
    "kernel_from_name",
    "ks_statistic",
    "marginal_cdf",
    "marginal_density",
    "moment_bound_check",
    "rho_mixing_coefficient",
    "run_experiment",
    "sup_deviation",
]
