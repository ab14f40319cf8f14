"""Pin the seed layout of ``experiments.run_benchmark``.

Each case rebuilds one replication's rows from public functions and the
seed rule in the ``experiments`` module docstring, and compares every
column except ``wall_time`` exactly, so a refactor of the runner cannot
move a seed unnoticed.
"""

import csv
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from sparse_ou import metrics
from sparse_ou.errors import UsageError
from sparse_ou.experiments import ExperimentConfig, run_benchmark
from sparse_ou.metrics import oracle_bound
from sparse_ou.model import symmetrized_drift
from sparse_ou.sim import subsample

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
    holds = bool(error_report(fit.matrix, truth, stats).empirical <= oracle_bound(truth, lam, 2.0))
    assert rows[1] == expected_row("lasso_theory", truth, fit.matrix, stats, 4, 30.0, 0.01, 1, _bound_holds=holds)


def test_oracle_coverage_equals_the_benchmark_bound_column(tmp_path, monkeypatch):
    # each replication's bound sits at the empirical norm of its Lasso fit with the default SolverOptions,
    # met for even r and missed by one ulp for odd r: the two routines agree only on bit-identical fits
    d, T, dt, reps, seed = 4, 1000.0, 0.1, 4, 0
    truth = symmetrized_drift(generate_sparse_drift(d, 1, derive_seed(seed, 900000 + d)))
    bounds = {}
    for r in range(reps):
        stats = sufficient_stats(sample_trajectory(truth, T, dt, derive_seed(seed, r)))
        lam = theoretical_lambda(stats, LambdaConfig())
        fit = lasso(stats, lam)
        assert np.count_nonzero(fit.matrix) > 0
        norm = error_report(fit.matrix, truth, stats).empirical
        bounds[lam] = norm if r % 2 == 0 else np.nextafter(norm, 0.0)
    monkeypatch.setattr(metrics, "oracle_bound", lambda truth, lam, gamma: bounds[lam])
    rows = benchmark_rows(tmp_path, kind="oracle_coverage", d_values=[d], t_values=[T], dt=dt, reps=reps, seed=seed)
    holds = [row["_bound_holds"] == "True" for row in rows]
    assert holds == [True, False, True, False]
    assert metrics.oracle_coverage(truth, T, reps, LambdaConfig(), seed, dt=dt) == np.mean(holds)


def test_config_resolves_zero_jobs_to_all_cores_and_rejects_negative():
    assert ExperimentConfig(kind="d_sweep", jobs=0).jobs == (os.cpu_count() or 1)
    assert ExperimentConfig(kind="d_sweep", jobs=3).jobs == 3
    with pytest.raises(UsageError, match="jobs must be >= 0"):
        ExperimentConfig(kind="d_sweep", jobs=-1)


def test_config_solver_defaults_are_those_of_solver_options():
    cfg = ExperimentConfig(kind="d_sweep")
    assert SolverOptions(max_iters=cfg.max_iters, rel_tol=cfg.rel_tol) == SolverOptions()
    assert SolverOptions() == SolverOptions(max_iters=10000, rel_tol=1e-7, acceleration=True)


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


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    T=st.floats(min_value=0.01, max_value=5.0),
    step=st.floats(min_value=0.05, max_value=1.0),
    factors=st.lists(st.integers(min_value=1, max_value=4), max_size=3),
    dt_study=st.booleans(),
)
def test_config_accepts_a_horizon_iff_its_paths_can_be_sampled(T, step, factors, dt_study):
    # dt_study samples one path at the smallest step and subsamples it to every dt_values entry
    dt_values = [step * f for f in [1, *factors]]
    steps = dt_values if dt_study else [step]
    try:
        ExperimentConfig(kind="dt_study" if dt_study else "d_sweep", t_values=[T], dt=step, dt_values=dt_values)
        accepted = True
    except UsageError:
        accepted = False
    try:
        path = sample_trajectory(generate_sparse_drift(2, 1, 0), T, step, 0)
        for dt in steps:
            subsample(path, round(dt / step))
        sampled = True
    except ValueError:
        sampled = False
    assert accepted == sampled
