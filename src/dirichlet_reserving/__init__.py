"""Dirichlet loss reserving for run-off triangles.

A scaled Dirichlet model of incremental loss ratios that unifies the
Chain-Ladder and Bornhuetter-Ferguson reserving methods: maximum
likelihood with bias-corrected parametric bootstrap prediction intervals,
a bootstrap-calibrated goodness-of-fit test, Bayesian hierarchical
inference with an optional tail constraint, industry benchmarks, and a
hold-out validation harness.
"""

__version__ = "0.1.0"

from importlib.resources import files as _files

from .benchmarks import ClFit, bf_predict, cl_fit, cl_predict_incremental, expected_method
from .bootstrap import (
    BiasCorrection,
    PredictiveDistribution,
    bias_corrected_bootstrap,
    bootstrap_once,
    summarize,
)
from .bayes import BayesSpec, BayesState, PosteriorSample, log_posterior, posterior_predict, run_mcmc
from .errors import InputError, NumericalError
from .gof import GofResult, gof_test, ks_statistic, pit_transform
from .mle import FitResult, fit_mle, profile_phi, profiled_gradient, profiled_hessian, profiled_loglik
from .model import (
    DirichletParams,
    ReservePrediction,
    conditional_allocation,
    credibility_weight,
    cumulative_moments,
    dev_factor,
    dev_quota,
    predict_dirichlet,
    row_log_density,
    sample_future_row,
    sample_row,
    tail_factor,
    total_loglik,
    unpaid_totals,
)
from .triangle import (
    LossRatioTriangle,
    RunOffTriangle,
    TriangleError,
    cumulative,
    load_triangle,
    most_recent_years,
    restrict_years,
    to_loss_ratios,
)
from .validation import EvalReport, PredictionRecord, evaluate, load_holdout, run_panel


def example_insurer_path() -> str:
    """Path of the bundled workers' compensation triangle (18 accident
    years, 10 development years)."""
    return str(_files("dirichlet_reserving").joinpath("data/example_insurer.csv"))


def example_holdout_path() -> str:
    """Path of the bundled hold-out file with the realized lower-triangle
    payments of the example insurer."""
    return str(_files("dirichlet_reserving").joinpath("data/example_insurer_holdout.csv"))
