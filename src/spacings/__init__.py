"""Random sequential placement of k-blocks on a discrete row.

Blocks of k adjacent hooks are placed uniformly among all feasible
positions until no k free hooks remain adjacent; the package computes the
law and moments of the leftover spacing counts exactly, simulates the
process at scale, and evaluates the limiting per-hook constants by two
independent routes.
"""

from .model import (
    GapCounts,
    ProcessParams,
    single_spacing_state,
    vacancy,
    validate_counts,
    validate_counts_batch,
)
from .exact import (
    CapExceededError,
    ExactMoments,
    Pmf,
    chi_square_gof,
    moments_from_pmf,
    pmf_direct,
    pmf_split,
    total_variation_empirical,
)
from .moments import (
    AveragingLimitResult,
    CrossMomentTable,
    DriftBoundResult,
    MeanTable,
    ProjectedMomentTable,
    averaging_recursion_limit,
    cross_moment_recursion,
    cross_moment_recursion_exact,
    mean_drift_bound,
    mean_recursion,
    mean_recursion_exact,
    projected_moment_recursion,
    projected_moment_recursion_exact,
)
from .asymptotics import (
    AsymptoticConstants,
    GaussLegendreRule,
    cf_fixed_point_residual,
    cf_residual,
    constants_by_extrapolation,
    constants_by_quadrature,
    cov_kernel,
    cov_rates_by_quadrature,
    exp_weight,
    mean_gf,
    rates_by_quadrature,
    vacancy_rate_by_quadrature,
)
from .simulate import (
    GapPool,
    SampleStats,
    SimConfig,
    iter_state_chunks,
    sample_gap,
    sample_states,
    simulate_batch,
    simulate_once,
    state_counter,
)

__version__ = "0.1.0"

__all__ = [
    "ProcessParams",
    "GapCounts",
    "single_spacing_state",
    "validate_counts",
    "validate_counts_batch",
    "vacancy",
    "Pmf",
    "ExactMoments",
    "CapExceededError",
    "pmf_split",
    "pmf_direct",
    "moments_from_pmf",
    "total_variation_empirical",
    "chi_square_gof",
    "MeanTable",
    "CrossMomentTable",
    "ProjectedMomentTable",
    "AveragingLimitResult",
    "DriftBoundResult",
    "mean_recursion",
    "mean_recursion_exact",
    "cross_moment_recursion",
    "cross_moment_recursion_exact",
    "projected_moment_recursion",
    "projected_moment_recursion_exact",
    "averaging_recursion_limit",
    "mean_drift_bound",
    "GaussLegendreRule",
    "AsymptoticConstants",
    "exp_weight",
    "rates_by_quadrature",
    "mean_gf",
    "cov_kernel",
    "cov_rates_by_quadrature",
    "vacancy_rate_by_quadrature",
    "cf_fixed_point_residual",
    "cf_residual",
    "constants_by_quadrature",
    "constants_by_extrapolation",
    "SimConfig",
    "SampleStats",
    "GapPool",
    "sample_gap",
    "simulate_once",
    "simulate_batch",
    "iter_state_chunks",
    "sample_states",
    "state_counter",
    "__version__",
]
