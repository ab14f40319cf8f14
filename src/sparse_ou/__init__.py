"""Sparse drift estimation for multivariate mean-reverting diffusions.

Simulate dX = -A X dt + dW exactly, reduce paths to likelihood
sufficient statistics, and estimate a row-sparse drift A by maximum
likelihood or l1-penalized likelihood (Lasso / Adaptive Lasso), with
hold-out cross-validation, support-recovery scoring and diagnostics for
the theoretical error bounds.
"""

from .errors import (
    ConditioningError,
    GenerationError,
    IngestionError,
    NumericError,
    StabilityError,
)
from .linops import solve_lyapunov
from .model import (
    DriftMatrix,
    generate_shifted_antisymmetric,
    generate_sparse_drift,
    generate_two_group,
    make_drift,
)
from .sim import (
    Trajectory,
    derive_seed,
    sample_trajectory,
    subsample,
)
from .stats import (
    LambdaConfig,
    SufficientStats,
    grad_neg_log_likelihood,
    neg_log_likelihood,
    sufficient_stats,
    theoretical_lambda,
)
from .estimators import (
    Estimate,
    SolverOptions,
    lasso,
    mle,
)
from .modelsel import CvResult, cross_validate, cross_validate_sigma, default_lambda_grid
from .metrics import (
    ErrorReport,
    SupportReport,
    deviation_bounds,
    eigen_floor,
    error_report,
    restricted_sparse_min,
    support_report,
)
from .finance import (
    PricePanel,
    ema_log_returns,
    estimate_mean_sigma,
    load_prices,
    sample_sigma_trajectory,
)

__version__ = "0.1.0"
