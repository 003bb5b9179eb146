"""Lognormal variability estimation from arithmetic and harmonic sample means.

The squared coefficient of variation of a lognormal population equals the
population arithmetic-to-harmonic mean ratio minus one.  This package
estimates it from the matching ratio of sample means (with a small-sample
bias correction), predicts the estimator's sampling variance in closed form,
cross-checks those predictions against an exact covariance enumeration, and
ships a seeded Monte Carlo harness plus a CLI for the whole workflow.
"""

__version__ = "0.2.0"

from .errors import (
    BudgetExceededError,
    DegenerateDistributionError,
    DomainError,
    EmptySampleError,
    LnvarError,
    SampleTooSmallError,
)
from .estimator import (
    EstimateReport,
    SampleAccumulator,
    expected_k_n,
    large_sample_efficiency,
    measurement_cost,
    sd_k_hat,
    sd_k_n,
    var_k_hat,
    var_k_n,
)
from .model import (
    DerivedMoments,
    LogNormalParams,
    derive_moments,
    params_from_gk,
    pdf,
    pdf_gk,
    sample,
)
from .montecarlo import (
    GridConfig,
    SimulationCell,
    derive_cell_seed,
    efficiency_curve,
    resolve_runs,
    run_cell,
    run_grid,
)
from .oracle import (
    TermKind,
    brute_force_class_counts,
    covariance_term,
    exact_mean_kn,
    exact_var_kn,
    run_verification,
    term_multiplicity,
)

__all__ = [
    "__version__",
    "LnvarError",
    "DomainError",
    "EmptySampleError",
    "SampleTooSmallError",
    "DegenerateDistributionError",
    "BudgetExceededError",
    "LogNormalParams",
    "DerivedMoments",
    "derive_moments",
    "params_from_gk",
    "pdf",
    "pdf_gk",
    "sample",
    "SampleAccumulator",
    "EstimateReport",
    "expected_k_n",
    "var_k_n",
    "sd_k_n",
    "var_k_hat",
    "sd_k_hat",
    "large_sample_efficiency",
    "measurement_cost",
    "TermKind",
    "covariance_term",
    "term_multiplicity",
    "exact_mean_kn",
    "exact_var_kn",
    "brute_force_class_counts",
    "run_verification",
    "SimulationCell",
    "GridConfig",
    "resolve_runs",
    "derive_cell_seed",
    "run_cell",
    "run_grid",
    "efficiency_curve",
]
