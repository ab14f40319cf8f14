"""End-to-end acceptance gate.

Each test exercises one exit criterion at its stated tolerance and prints
a single PASS/FAIL line (visible with ``pytest -s`` or in captured output
on failure).  Monte Carlo criteria run at the replication counts stated
in the criterion; all randomness is seeded, so outcomes are stable.
"""

import math
import time

import numpy as np
import pytest

from sparse_ou import (
    LambdaConfig,
    SolverOptions,
    cross_validate,
    cross_validate_sigma,
    default_lambda_grid,
    dense_baseline_f1,
    eigen_floor,
    estimate_mean_sigma,
    generate_shifted_antisymmetric,
    generate_sparse_drift,
    grad_neg_log_likelihood,
    lasso,
    make_drift,
    mle,
    neg_log_likelihood,
    oracle_coverage,
    sample_sigma_trajectory,
    sample_trajectory,
    solve_lyapunov,
    subsample,
    sufficient_stats,
    support_report,
    transition_kernel,
)
from sparse_ou.sim import derive_seed

from conftest import random_stable_matrix, random_stats

CV_OPTS = SolverOptions(rel_tol=1e-7)
TIGHT = SolverOptions(rel_tol=1e-10, max_iters=100_000)
GRID = default_lambda_grid()


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"\nacceptance {num:02d} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_01_lyapunov_oracle():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 21))
        a = random_stable_matrix(rng, d)
        c = solve_lyapunov(a)
        worst = max(worst, np.linalg.norm(a @ c + c @ a.T - np.eye(d)) / d)
    alpha = 0.8
    anti = generate_shifted_antisymmetric(10, alpha=alpha, w=1.3, s=3, seed=2)
    gap = np.linalg.norm(solve_lyapunov(anti.matrix) - np.eye(10) / (2 * alpha))
    elapsed = time.time() - t0
    ok = worst <= 1e-10 and gap <= 1e-10 and elapsed < 10.0
    report(1, "lyapunov oracle", ok, f"max residual/d {worst:.2e}, antisym gap {gap:.2e}, {elapsed:.1f}s")


def test_02_mle_asymptotic_normality():
    t0 = time.time()
    drift = make_drift(np.array([[1.0]]))
    kernel = transition_kernel(drift, 0.01)
    vals = []
    for rep in range(400):
        traj = sample_trajectory(drift, 50.0, 0.01, derive_seed(7, rep), kernel=kernel)
        st = sufficient_stats(traj)
        vals.append(math.sqrt(st.horizon) * (mle(st).matrix[0, 0] - 1.0))
    var = float(np.var(vals, ddof=1))
    elapsed = time.time() - t0
    ok = 1.4 <= var <= 2.6 and elapsed < 60.0
    report(2, "mle asymptotic normality", ok, f"var {var:.3f} in [1.4, 2.6], {elapsed:.1f}s")


def test_03_gradient_check():
    t0 = time.time()
    rng = np.random.default_rng(303)
    h = 1e-6
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(2, 6))
        st = random_stats(rng, d)
        a = rng.normal(size=(d, d))
        grad = grad_neg_log_likelihood(a, st)
        fd = np.zeros_like(grad)
        for i in range(d):
            for j in range(d):
                e = np.zeros((d, d))
                e[i, j] = h
                fd[i, j] = (neg_log_likelihood(a + e, st) - neg_log_likelihood(a - e, st)) / (2 * h)
        worst = max(worst, np.linalg.norm(fd - grad) / np.linalg.norm(grad))
    elapsed = time.time() - t0
    ok = worst <= 1e-5 and elapsed < 5.0
    report(3, "gradient finite differences", ok, f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_04_solver_correctness():
    rng = np.random.default_rng(404)
    worst_gap, worst_kkt = 0.0, 0.0
    zero_ok = True
    for _ in range(20):
        st = random_stats(rng, int(rng.integers(2, 6)))
        fit = lasso(st, 0.0, opts=TIGHT)
        ref = mle(st)
        worst_gap = max(worst_gap, float(np.linalg.norm(fit.matrix - ref.matrix)))
        if fit.converged:
            worst_kkt = max(worst_kkt, fit.kkt_residual)
        big = lasso(st, float(np.max(np.abs(st.g_hat))))
        zero_ok &= bool(np.array_equal(big.matrix, np.zeros_like(big.matrix)))
        if big.converged:
            worst_kkt = max(worst_kkt, big.kkt_residual)
    ok = worst_gap <= 1e-6 and worst_kkt <= 1e-6 and zero_ok
    report(4, "solver correctness", ok,
           f"max |lasso0 - mle| {worst_gap:.2e}, max KKT {worst_kkt:.2e}, zero-at-lambda-max {zero_ok}")


def _cv_lasso_vs_mle(d, s, T, reps, drift_seed, seed_base):
    drift = generate_sparse_drift(d, s, seed=drift_seed)
    kernel = transition_kernel(drift, 0.01)
    lasso_err, mle_err = [], []
    for rep in range(reps):
        traj = sample_trajectory(drift, T, 0.01, derive_seed(seed_base, rep), kernel=kernel)
        st = sufficient_stats(traj)
        cv = cross_validate(traj, "lasso", grid=GRID, opts=CV_OPTS)
        lasso_err.append(float(np.linalg.norm(cv.best_estimate.matrix - drift.matrix)))
        mle_err.append(float(np.linalg.norm(mle(st).matrix - drift.matrix)))
    return float(np.mean(lasso_err)), float(np.mean(mle_err))


def test_05_penalization_beats_mle():
    t0 = time.time()
    l10, m10 = _cv_lasso_vs_mle(d=20, s=4, T=10.0, reps=50, drift_seed=303, seed_base=88)
    l100, m100 = _cv_lasso_vs_mle(d=20, s=4, T=100.0, reps=50, drift_seed=303, seed_base=89)
    elapsed = time.time() - t0
    ok = l10 < m10 and l100 < m100 and elapsed < 600.0
    report(5, "cv-lasso beats mle", ok,
           f"T=10: {l10:.2f} < {m10:.2f}; T=100: {l100:.2f} < {m100:.2f}; {elapsed:.0f}s")


def test_06_rate_direction():
    drift = generate_sparse_drift(10, 2, seed=404)
    kernel = transition_kernel(drift, 0.01)
    errs = {10.0: [], 100.0: []}
    for T, seed_base in ((10.0, 99), (100.0, 991)):
        for rep in range(30):
            traj = sample_trajectory(drift, T, 0.01, derive_seed(seed_base, rep), kernel=kernel)
            cv = cross_validate(traj, "lasso", grid=GRID, opts=CV_OPTS)
            errs[T].append(float(np.linalg.norm(cv.best_estimate.matrix - drift.matrix)))
    ratio = float(np.mean(errs[100.0]) / np.mean(errs[10.0]))
    ok = 0.16 <= ratio <= 0.63
    report(6, "sqrt-T rate direction", ok, f"err(T=100)/err(T=10) = {ratio:.3f} in [0.16, 0.63]")


def test_07_support_recovery_ordering():
    t0 = time.time()
    d, s, T, reps, gamma = 40, 4, 100.0, 30, 3.0
    drift = generate_sparse_drift(d, s, seed=2024)
    kernel = transition_kernel(drift, 0.01)
    f1_l, f1_a = [], []
    for rep in range(reps):
        traj = sample_trajectory(drift, T, 0.01, derive_seed(77, rep), kernel=kernel)
        cv_l = cross_validate(traj, "lasso", grid=GRID, opts=CV_OPTS)
        cv_a = cross_validate(traj, "adaptive_lasso", gamma=gamma, grid=GRID, opts=CV_OPTS)
        f1_l.append(support_report(cv_l.best_estimate.matrix, drift).f1)
        f1_a.append(support_report(cv_a.best_estimate.matrix, drift).f1)
    baseline = dense_baseline_f1(s / d)
    mean_l, mean_a = float(np.mean(f1_l)), float(np.mean(f1_a))
    elapsed = time.time() - t0
    ok = mean_a > mean_l > baseline and mean_a >= 0.8 and elapsed < 1200.0
    report(7, "support recovery ordering", ok,
           f"adalasso {mean_a:.3f} > lasso {mean_l:.3f} > dense {baseline:.3f}, adalasso >= 0.8; {elapsed:.0f}s")


def test_08_dense_baseline_formula():
    truth = make_drift(1.5 * np.eye(10))  # exactly one non-zero per row
    rep = support_report(np.ones((10, 10)), truth)
    gap = abs(rep.f1 - 2.0 / 11.0)
    ok = gap <= 1e-12
    report(8, "dense baseline f1 formula", ok, f"|f1 - 2/11| = {gap:.2e}")


def test_09_time_step_study():
    dt_fine = 1e-3
    drift = generate_sparse_drift(10, 2, seed=21)
    kernel = transition_kernel(drift, dt_fine)
    errs = {0.1: [], 0.01: [], 0.001: []}
    for rep in range(20):
        fine = sample_trajectory(drift, 50.0, dt_fine, derive_seed(500, rep), kernel=kernel)
        for dt in errs:
            sub = subsample(fine, int(round(dt / dt_fine)))
            cv = cross_validate(sub, "lasso", grid=GRID, opts=CV_OPTS)
            errs[dt].append(float(np.sum(np.abs(cv.best_estimate.matrix - drift.matrix))))
    m = {dt: float(np.mean(v)) for dt, v in errs.items()}
    fine_gap = abs(m[0.01] - m[0.001])
    coarse_gap = abs(m[0.1] - m[0.01])
    ok = fine_gap < coarse_gap
    report(9, "time-step study", ok,
           f"|e(1e-2)-e(1e-3)| = {fine_gap:.3f} < |e(1e-1)-e(1e-2)| = {coarse_gap:.3f}")


def test_10_oracle_bound_coverage():
    base = np.diag([1.5, 1.2, 1.8, 1.4, 1.6])
    base[0, 1] = base[1, 0] = 0.3
    base[2, 3] = base[3, 2] = -0.25
    truth = make_drift(base)
    cfg = LambdaConfig(gamma=2.0, epsilon0=0.1)
    frac = oracle_coverage(truth, 2, T=200.0, reps=50, cfg=cfg, seed=909)
    ok = frac >= 0.9
    report(10, "oracle bound coverage", ok, f"coverage {frac:.2f} >= 0.9")


def test_11_re_constant_diagnostic():
    # sqrt(lambda_min(C)) bounds every restricted-eigenvalue cone constant from below
    drift = generate_sparse_drift(8, 2, seed=66)
    kernel = transition_kernel(drift, 0.01)
    kappa = math.sqrt(float(np.linalg.eigvalsh(drift.stationary_cov)[0]) / 2.0)
    reps = 40
    floors = [
        eigen_floor(sufficient_stats(sample_trajectory(drift, 200.0, 0.01, derive_seed(31, rep), kernel=kernel)))
        for rep in range(reps)
    ]
    hits = sum(f >= kappa for f in floors)
    ok = hits >= math.ceil(0.95 * reps)
    report(11, "restricted eigenvalue diagnostic", ok,
           f"certified floor sqrt(lambda_min(C)) >= kappa {kappa:.3f} on {hits}/{reps} paths (min {min(floors):.3f}),"
           " so no restricted-eigenvalue assumption is needed")


def test_12_finance_pipeline_recovery():
    t0 = time.time()
    d, T, reps = 5, 500.0, 20
    a_true = generate_sparse_drift(d, 1, seed=8).matrix
    truth = make_drift(a_true)
    rng = np.random.default_rng(77)
    m_true = rng.normal(size=d) * 0.5
    w = rng.normal(size=(d, d))
    sigma_true = np.linalg.cholesky(0.02 * np.eye(d) + 0.01 * (w @ w.T) / d)
    s_true = sigma_true @ sigma_true.T
    m_errs, s_errs, f1s = [], [], []
    for rep in range(reps):
        traj = sample_sigma_trajectory(a_true, m_true, sigma_true, T, 0.01, derive_seed(900, rep))
        m_hat, sigma_hat = estimate_mean_sigma(traj)
        m_errs.append(float(np.linalg.norm(m_hat - m_true)))
        s_errs.append(float(np.linalg.norm(sigma_hat @ sigma_hat.T - s_true) / np.linalg.norm(s_true)))
        cv = cross_validate_sigma(traj, m_hat, sigma_hat, gamma=2.0, grid=GRID, opts=CV_OPTS)
        f1s.append(support_report(cv.best_estimate.matrix, truth).f1)
    m_tol = 0.05 * float(np.linalg.norm(m_true)) + 0.05
    mean_m, mean_s, mean_f1 = map(lambda v: float(np.mean(v)), (m_errs, s_errs, f1s))
    elapsed = time.time() - t0
    ok = mean_m <= m_tol and mean_s <= 0.1 and mean_f1 >= 0.8
    report(12, "finance pipeline recovery", ok,
           f"m err {mean_m:.3f} <= {m_tol:.3f}, sigma rel {mean_s:.3f} <= 0.1, f1 {mean_f1:.2f} >= 0.8; {elapsed:.0f}s")
