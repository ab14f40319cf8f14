"""Pin the seed layout of ``experiments.run_benchmark``.

Each case rebuilds one replication's rows from public functions and the
seed rule in the ``experiments`` module docstring, and compares every
column except ``wall_time`` exactly, so a refactor of the runner cannot
move a seed unnoticed.
"""

import csv

import numpy as np

from sparse_ou import (
    LambdaConfig,
    SolverOptions,
    Trajectory,
    cross_validate,
    cross_validate_sigma,
    default_lambda_grid,
    derive_seed,
    error_report,
    estimate_mean_sigma,
    generate_sparse_drift,
    lasso,
    mle,
    sample_sigma_trajectory,
    sample_trajectory,
    sufficient_stats,
    support_report,
    theoretical_lambda,
)
from sparse_ou.experiments import ExperimentConfig, run_benchmark
from sparse_ou.metrics import oracle_bound
from sparse_ou.model import symmetrized_drift

GRID = default_lambda_grid(5, 1e-2, 1e3)
OPTS = SolverOptions(max_iters=10000, rel_tol=1e-7, acceleration=True)


def benchmark_rows(tmp_path, **fields) -> list:
    cfg = ExperimentConfig(grid_size=5, out=str(tmp_path / "bench.csv"), **fields)
    run_benchmark(cfg)
    with open(cfg.out) as fh:
        return [{k: v for k, v in row.items() if k != "wall_time"} for row in csv.DictReader(fh)]


def expected_row(method, truth, matrix, stats, d, T, dt, rep, **extra) -> dict:
    err = error_report(matrix, truth, stats)
    row = {"method": method, "d": d, "T": T, "dt": dt, "rep": rep,
           "frobenius": err.frobenius, "l1": err.l1, "f1": support_report(matrix, truth).f1, **extra}
    return {k: str(v) for k, v in row.items()}


def test_d_sweep_seed_layout(tmp_path):
    rows = benchmark_rows(tmp_path, kind="d_sweep", d_values=[4, 6], t_values=[10.0], reps=3, seed=3)
    assert len(rows) == 2 * 3 * 3
    # sweep point i = 1 (d = 6), replication r = 1: path seed derive_seed(seed, i * reps + r)
    truth = generate_sparse_drift(6, 1, derive_seed(3, 900006))
    traj = sample_trajectory(truth, 10.0, 0.01, derive_seed(3, 1 * 3 + 1))
    stats = sufficient_stats(traj)
    fits = {
        "mle": mle(stats),
        "lasso": cross_validate(traj, "lasso", grid=GRID, opts=OPTS).best_estimate,
        "adalasso": cross_validate(traj, "adaptive_lasso", gamma=1.0, grid=GRID, opts=OPTS).best_estimate,
    }
    expected = [expected_row(m, truth, fit.matrix, stats, 6, 10.0, 0.01, 1) for m, fit in fits.items()]
    first = (1 * 3 + 1) * 3  # three method rows per replication
    assert rows[first:first + 3] == expected


def test_oracle_coverage_seed_layout(tmp_path):
    rows = benchmark_rows(tmp_path, kind="oracle_coverage", d_values=[4], t_values=[30.0], reps=2, seed=6)
    assert len(rows) == 2
    truth = symmetrized_drift(generate_sparse_drift(4, 1, derive_seed(6, 900004)))
    stats = sufficient_stats(sample_trajectory(truth, 30.0, 0.01, derive_seed(6, 1)))
    lam = theoretical_lambda(stats, LambdaConfig(gamma=2.0, epsilon0=0.1))
    fit = lasso(stats, lam, opts=OPTS)
    holds = bool(error_report(fit.matrix, truth, stats).empirical <= oracle_bound(truth, lam, 2.0, 1))
    assert rows[1] == expected_row("lasso_theory", truth, fit.matrix, stats, 4, 30.0, 0.01, 1, _bound_holds=holds)


def test_finance_seed_layout(tmp_path):
    rows = benchmark_rows(tmp_path, kind="finance", d_values=[4], t_values=[50.0], reps=2, seed=2)
    assert len(rows) == 2
    drift = generate_sparse_drift(4, 1, derive_seed(2, 900004))
    rng = np.random.default_rng(derive_seed(2, 900002))
    m = rng.normal(size=4) * 0.5
    w = rng.normal(size=(4, 4))
    sigma = np.linalg.cholesky(0.02 * np.eye(4) + 0.01 * (w @ w.T) / 4)
    traj = sample_sigma_trajectory(drift.matrix, m, sigma, 50.0, 0.01, derive_seed(2, 1))
    m_hat, sigma_hat = estimate_mean_sigma(traj)
    fit = cross_validate_sigma(traj, m_hat, sigma_hat, gamma=1.0, grid=GRID, opts=OPTS).best_estimate
    stats = sufficient_stats(Trajectory(dt=traj.dt, states=traj.states - m_hat))
    s_true = sigma @ sigma.T
    extra = {
        "_m_err": float(np.linalg.norm(m_hat - m)),
        "_sigma_rel_err": float(np.linalg.norm(sigma_hat @ sigma_hat.T - s_true) / np.linalg.norm(s_true)),
    }
    assert rows[1] == expected_row("sigma_adalasso_cv", drift, fit.matrix, stats, 4, 50.0, 0.01, 1, **extra)
