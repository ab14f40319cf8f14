"""A setting is rejected with ``UsageError``, a ``ValueError``, by the code that uses it; bad data with a plain error."""

import math

import numpy as np
import pytest

from sparse_ou import (
    LambdaConfig,
    PricePanel,
    SolverOptions,
    Trajectory,
    TransitionKernel,
    adaptive_lasso,
    default_lambda_grid,
    dense_baseline_f1,
    ema_log_returns,
    generate_shifted_antisymmetric,
    generate_sparse_drift,
    lasso,
    load_prices,
    oracle_coverage,
    sample_trajectory,
    solve_lyapunov,
    subsample,
)
from sparse_ou.errors import IngestionError, UsageError
from sparse_ou.experiments import ExperimentConfig
from sparse_ou.model import load_drift_json
from sparse_ou.sim import load_trajectory_csv, step_count

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
    "oracle_coverage reps=0": lambda: oracle_coverage(DRIFT, 1.0, 0, LambdaConfig(), 0),
    "generate_shifted_antisymmetric s=d": lambda: generate_shifted_antisymmetric(3, 0.5, 1.0, 3, 0),
    "step_count dt=0": lambda: step_count(1.0, 0.0),
    "step_count T < dt / 2": lambda: step_count(0.004, 0.01),
    "sample_trajectory T=inf": lambda: sample_trajectory(DRIFT, math.inf, 0.01, 0),
    "ExperimentConfig gamma=-1": lambda: ExperimentConfig(kind="sweep", gamma=-1.0),
    "ExperimentConfig grid_size=0": lambda: ExperimentConfig(kind="sweep", grid_size=0),
    "ExperimentConfig kind=x": lambda: ExperimentConfig(kind="x"),
    "ExperimentConfig reps=0": lambda: ExperimentConfig(kind="sweep", reps=0),
    "ExperimentConfig reps='2'": lambda: ExperimentConfig(kind="sweep", reps="2"),
    "ExperimentConfig seed=1.5": lambda: ExperimentConfig(kind="sweep", seed=1.5),
    "ExperimentConfig d_values=[]": lambda: ExperimentConfig(kind="sweep", d_values=[]),
    "ExperimentConfig jobs=None": lambda: ExperimentConfig(kind="sweep", jobs=None),
    "ExperimentConfig d_values=[3, 3]": lambda: ExperimentConfig(kind="sweep", d_values=[3, 3]),
}

NAN = np.full((3, 3), np.nan)
NAN_KERNEL = TransitionKernel(dt=0.1, phi=NAN, noise_chol=NAN)


def write(tmp_path, text):
    path = tmp_path / "input"
    path.write_text(text)
    return path


# id: (error, message, call of the test's tmp_path)
DATA_CHECKS = {
    "lasso weights (2, 3)": (ValueError, r"weights must have shape \(3, 3\)",
                             lambda tmp: lasso(STATS, 0.1, weights=np.ones((2, 3)))),
    "sampled path with NaN states": (ValueError, "states contain non-finite values",
                                     lambda tmp: sample_trajectory(DRIFT, 1.0, 0.1, 0, kernel=NAN_KERNEL)),
    "Trajectory dt=0": (ValueError, "dt must be > 0", lambda tmp: Trajectory(dt=0.0, states=np.zeros((2, 3)))),
    "subsample factor 1.5": (ValueError, "factor must be a positive integer",
                             lambda tmp: subsample(sample_trajectory(DRIFT, 1.0, 0.1, 0), 1.5)),
    "trajectory CSV header only": (ValueError, "needs a header and >= 2 states",
                                   lambda tmp: load_trajectory_csv(write(tmp, "t,x0\n"))),
    "trajectory CSV uneven steps": (ValueError, "not uniformly spaced",
                                    lambda tmp: load_trajectory_csv(write(tmp, "t,x0\n0,1\n0.1,1\n0.3,1\n"))),
    "trajectory CSV no state column": (ValueError, r"input is not a trajectory CSV file: .* d >= 1, got \(2, 0\)",
                                       lambda tmp: load_trajectory_csv(write(tmp, "t\n0\n0.1\n"))),
    "drift file in CSV": (ValueError, "input is not a drift JSON file: JSONDecodeError",
                          lambda tmp: load_drift_json(write(tmp, "2\n1.0,0.0\n0.0,1.0\n"))),
    "drift JSON list": (ValueError, "input is not a drift JSON file: TypeError",
                        lambda tmp: load_drift_json(write(tmp, "[2, [1, 0, 0, 1]]"))),
    "drift JSON no dim": (ValueError, "input is not a drift JSON file: KeyError: 'dim'",
                          lambda tmp: load_drift_json(write(tmp, '{"entries": [1, 0, 0, 1]}'))),
    "drift JSON 3 entries at dim 2": (ValueError, "expected 4 entries, got 3",
                                      lambda tmp: load_drift_json(write(tmp, '{"dim": 2, "entries": [1, 0, 1]}'))),
    "solve_lyapunov (2, 3)": (ValueError, "must be a square 2-d array", lambda tmp: solve_lyapunov(np.ones((2, 3)))),
    "dense_baseline_f1(1.5)": (ValueError, r"density must be in \[0, 1\]", lambda tmp: dense_baseline_f1(1.5)),
    "load_prices no valid row": (IngestionError, "no valid price rows",
                                 lambda tmp: load_prices(write(tmp, "date,A,B\nd0,1.0\nd1,-1.0,2.0\n"))),
}


def test_usage_error_is_a_value_error():
    assert issubclass(UsageError, ValueError)


@pytest.mark.parametrize("call", OWNERS.values(), ids=OWNERS.keys())
def test_owner_rejects_a_bad_setting_with_usage_error(call):
    with pytest.raises(UsageError):
        call()


@pytest.mark.filterwarnings("ignore:dropped")
@pytest.mark.parametrize("error, message, call", DATA_CHECKS.values(), ids=DATA_CHECKS.keys())
def test_bad_data_is_rejected_where_it_is_read(tmp_path, error, message, call):
    with pytest.raises(error, match=message):
        call(tmp_path)


@pytest.mark.parametrize("T, dt, n", [(1.0, 0.01, 100), (0.006, 0.01, 1), (0.014, 0.01, 1), (2.5, 1.0, 2)])
def test_step_count_rounds_the_horizon_to_whole_steps(T, dt, n):
    assert step_count(T, dt) == n
    assert sample_trajectory(DRIFT, T, dt, 0).n_steps == n
