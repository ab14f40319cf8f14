"""A setting is rejected with ``UsageError``, a ``ValueError``, by the code that uses it."""

import math

import numpy as np
import pytest

from sparse_ou import (
    LambdaConfig,
    PricePanel,
    SolverOptions,
    adaptive_lasso,
    default_lambda_grid,
    ema_log_returns,
    generate_sparse_drift,
    lasso,
    oracle_coverage,
    sample_trajectory,
)
from sparse_ou.errors import UsageError
from sparse_ou.experiments import ExperimentConfig
from sparse_ou.sim import step_count

from conftest import random_stats

DRIFT = generate_sparse_drift(3, 1, 0)
STATS = random_stats(np.random.default_rng(0), 3)
PANEL = PricePanel(tickers=["A", "B"], dates=["d0", "d1", "d2"], prices=np.ones((3, 2)))

OWNERS = {
    "SolverOptions(max_iters=0)": lambda: SolverOptions(max_iters=0),
    "SolverOptions(rel_tol=0)": lambda: SolverOptions(rel_tol=0.0),
    "LambdaConfig(gamma=0.5)": lambda: LambdaConfig(gamma=0.5),
    "LambdaConfig(epsilon0=1)": lambda: LambdaConfig(epsilon0=1.0),
    "default_lambda_grid(0)": lambda: default_lambda_grid(0),
    "default_lambda_grid(low=-1)": lambda: default_lambda_grid(5, -1.0, 1.0),
    "default_lambda_grid(low=nan)": lambda: default_lambda_grid(5, math.nan, 1.0),
    "default_lambda_grid(high=inf)": lambda: default_lambda_grid(5, 1.0, math.inf),
    "adaptive gamma=-1": lambda: adaptive_lasso(STATS, 0.1, gamma=-1.0),
    "adaptive gamma=inf": lambda: adaptive_lasso(STATS, 0.1, gamma=math.inf),
    "lambda=-1": lambda: lasso(STATS, -1.0),
    "lambda=nan": lambda: lasso(STATS, math.nan),
    "ema span=0": lambda: ema_log_returns(PANEL, span=0),
    "oracle_coverage reps=0": lambda: oracle_coverage(DRIFT, 1, 1.0, 0, LambdaConfig(), 0),
    "step_count dt=0": lambda: step_count(1.0, 0.0),
    "step_count T < dt / 2": lambda: step_count(0.004, 0.01),
    "sample_trajectory T=inf": lambda: sample_trajectory(DRIFT, math.inf, 0.01, 0),
    "ExperimentConfig gamma=-1": lambda: ExperimentConfig(kind="d_sweep", gamma=-1.0),
    "ExperimentConfig grid_size=0": lambda: ExperimentConfig(kind="d_sweep", grid_size=0),
}


def test_usage_error_is_a_value_error():
    assert issubclass(UsageError, ValueError)


@pytest.mark.parametrize("call", OWNERS.values(), ids=OWNERS.keys())
def test_owner_rejects_a_bad_setting_with_usage_error(call):
    with pytest.raises(UsageError):
        call()


@pytest.mark.parametrize("T, dt, n", [(1.0, 0.01, 100), (0.006, 0.01, 1), (0.014, 0.01, 1), (2.5, 1.0, 2)])
def test_step_count_rounds_the_horizon_to_whole_steps(T, dt, n):
    assert step_count(T, dt) == n
    assert sample_trajectory(DRIFT, T, dt, 0).n_steps == n
