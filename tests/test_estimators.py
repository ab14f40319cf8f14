import json
import math
from dataclasses import replace

import numpy as np
import pytest

from sparse_ou import (
    SolverOptions,
    SufficientStats,
    Trajectory,
    adaptive_lasso,
    generate_shifted_antisymmetric,
    lasso,
    mle,
    sample_trajectory,
    sufficient_stats,
)
from sparse_ou.errors import ConditioningError, UsageError
from sparse_ou.estimators import _centered, _precision, _Problem, _shrink, save_estimate_json
from sparse_ou.modelsel import cross_validate, cross_validate_sigma, default_lambda_grid
from sparse_ou.sim import derive_seed

from conftest import random_stats

FAST = SolverOptions(rel_tol=1e-10, max_iters=100_000)


@pytest.mark.parametrize("kwargs, message", [
    ({"max_iters": 0}, "max_iters must be >= 1"),
    ({"rel_tol": 0.0}, "rel_tol must be > 0"),
    ({"rel_tol": math.nan}, "rel_tol must be > 0"),
    ({"rel_tol": math.inf}, "rel_tol must be > 0"),
    ({"acceleration": False}, "acceleration must be True"),
], ids=["max_iters=0", "rel_tol=0", "rel_tol=nan", "rel_tol=inf", "acceleration=False"])
def test_solver_options_rejects_bad_settings(kwargs, message):
    with pytest.raises(ValueError, match=message):
        SolverOptions(**kwargs)


def restricted_least_squares(stats, support_mask):
    """Oracle: rowwise exact minimizer of the likelihood restricted to a support."""
    d = stats.dim
    out = np.zeros((d, d))
    for i in range(d):
        cols = np.nonzero(support_mask[i])[0]
        if cols.size:
            sub = stats.c_hat[np.ix_(cols, cols)]
            out[i, cols] = -np.linalg.solve(sub, stats.g_hat[i, cols])
    return out


def soft_threshold(m, threshold) -> np.ndarray:
    """The kernel's prox ``_shrink`` at one threshold for every entry."""
    m = np.asarray(m, dtype=float)
    th = np.full(m.shape, float(threshold))
    return _shrink(m, th, -th, np.empty_like(m))


class TestSoftThreshold:
    def test_values(self):
        assert soft_threshold(np.array([[1.5]]), 1.0)[0, 0] == pytest.approx(0.5)
        assert soft_threshold(np.array([[-0.3]]), 1.0)[0, 0] == 0.0
        assert soft_threshold(np.array([[-1.4]]), 1.0)[0, 0] == pytest.approx(-0.4)

    def test_zero_threshold_is_identity(self, rng):
        m = rng.normal(size=(3, 3))
        assert np.array_equal(soft_threshold(m, 0.0), m)


class TestMle:
    def test_scalar(self):
        st = SufficientStats(c_hat=np.array([[2.0]]), g_hat=np.array([[0.6]]), horizon=1.0)
        assert mle(st).matrix[0, 0] == pytest.approx(-0.3)

    def test_gradient_stationarity(self, rng):
        st = random_stats(rng, 5)
        fit = mle(st)
        grad = st.g_hat + fit.matrix @ st.c_hat
        assert np.linalg.norm(grad) <= 1e-8 * np.linalg.norm(st.g_hat)

    def test_support_is_everything(self, rng):
        st = random_stats(rng, 3)
        assert np.count_nonzero(mle(st).matrix) == 9

    def test_singular_covariance_rejected(self):
        st = SufficientStats(c_hat=np.zeros((2, 2)), g_hat=np.eye(2), horizon=1.0)
        with pytest.raises(ConditioningError):
            mle(st)

    def test_consistency_monte_carlo(self):
        # d=5, T=500: the MLE lands within 0.5 Frobenius in >= 90% of reps
        drift = generate_shifted_antisymmetric(5, alpha=0.5, w=1.0, s=2, seed=1)
        hits = 0
        reps = 20
        for rep in range(reps):
            traj = sample_trajectory(drift, 500.0, 0.01, derive_seed(41, rep))
            fit = mle(sufficient_stats(traj))
            hits += np.linalg.norm(fit.matrix - drift.matrix) <= 0.5
        assert hits >= 0.9 * reps


class TestLasso:
    def test_lambda_zero_matches_mle(self, rng):
        for _ in range(20):
            st = random_stats(rng, int(rng.integers(2, 6)))
            fit = lasso(st, 0.0, opts=FAST)
            ref = mle(st)
            assert np.linalg.norm(fit.matrix - ref.matrix) <= 1e-6

    def test_large_lambda_gives_exact_zero(self, rng):
        st = random_stats(rng, 4)
        lam = float(np.max(np.abs(st.g_hat)))
        fit = lasso(st, lam)
        assert np.array_equal(fit.matrix, np.zeros((4, 4)))
        assert fit.converged
        assert np.count_nonzero(fit.matrix) == 0

    def test_diagonal_covariance_closed_form(self, rng):
        # separable problem: each entry solves a scalar lasso exactly
        c = np.diag([1.5, 0.7])
        g = rng.normal(size=(2, 2))
        st = SufficientStats(c_hat=c, g_hat=g, horizon=1.0)
        lam = 0.3
        fit = lasso(st, lam, opts=FAST)
        z = -g / np.diag(c)  # entry (i, j) is -g_ij / c_jj
        expected = np.sign(z) * np.maximum(np.abs(z) - lam / np.diag(c), 0.0)
        assert np.linalg.norm(fit.matrix - expected) <= 1e-8

    def test_kkt_certificate(self, rng):
        for lam in (0.0, 0.01, 0.1, 1.0):
            st = random_stats(rng, 4)
            opts = SolverOptions(rel_tol=1e-8, max_iters=100_000)
            fit = lasso(st, lam, opts=opts)
            if fit.converged:
                assert fit.kkt_residual <= 10 * opts.rel_tol * np.max(np.abs(st.g_hat))

    def test_initialization_invariance(self, rng):
        st = random_stats(rng, 4)
        problem = _Problem.of(st.c_hat, st.g_hat, None, None, FAST)
        a = problem.fit(0.05)
        b = problem.fit(0.05, init=mle(st).matrix)
        assert np.linalg.norm(a.matrix - b.matrix) <= 1e-6

    def test_support_path_endpoints(self, rng):
        st = random_stats(rng, 4)
        dense = lasso(st, 0.0, opts=FAST)
        empty = lasso(st, 10 * float(np.max(np.abs(st.g_hat))))
        assert np.count_nonzero(dense.matrix) == 16
        assert np.count_nonzero(empty.matrix) == 0

    def test_invalid_inputs(self, rng):
        st = random_stats(rng, 3)
        with pytest.raises(ValueError):
            lasso(st, -1.0)
        with pytest.raises(ValueError, match="lambda must be >= 0"):
            lasso(st, float("nan"))
        with pytest.raises(UsageError, match="lambda must be >= 0 and finite, got inf"):
            lasso(st, math.inf)
        with pytest.raises(ValueError):
            lasso(st, 1.0, weights=np.zeros((3, 3)))
        with pytest.raises(ValueError):
            lasso(st, 1.0, weights=np.full((3, 3), np.inf))

    def test_nonconvergence_is_flagged_not_raised(self, rng):
        st = random_stats(rng, 4)
        fit = lasso(st, 0.01, opts=SolverOptions(max_iters=3, rel_tol=1e-14))
        assert not fit.converged
        assert fit.iterations == 3


class TestAdaptiveLasso:
    def test_gamma_zero_equals_plain_lasso(self, rng):
        st = random_stats(rng, 3)
        ada = adaptive_lasso(st, 0.05, gamma=0.0, opts=FAST)
        plain = lasso(st, 0.05, opts=FAST)
        # same objective, different warm starts: equal up to solver tolerance
        assert np.linalg.norm(ada.matrix - plain.matrix) <= 1e-6
        assert ada.gamma == 0.0

    @pytest.mark.parametrize("gamma", [-1.0, float("nan")])
    def test_bad_gamma_rejected(self, rng, gamma):
        with pytest.raises(ValueError, match="gamma must be >= 0"):
            adaptive_lasso(random_stats(rng, 3), 0.05, gamma=gamma)

    def test_strong_entries_match_restricted_mle(self):
        # huge-|MLE| entries are effectively unpenalized at high gamma
        c = np.eye(2)
        mle_target = np.array([[10.0, 0.01], [-0.01, -10.0]])
        g = -mle_target  # MLE = -G C^{-1}
        st = SufficientStats(c_hat=c, g_hat=g, horizon=1.0)
        fit = adaptive_lasso(st, 0.1, gamma=4.0, opts=FAST)
        assert np.array_equal(fit.matrix == 0.0, np.array([[False, True], [True, False]]))
        restricted = restricted_least_squares(st, np.abs(mle_target) > 1.0)
        on = np.abs(mle_target) > 1.0
        assert np.max(np.abs(fit.matrix[on] - restricted[on])) <= 1e-4

    def test_cv_support_recovery_monte_carlo(self):
        # d=20, s=2, T=200: CV-tuned adaptive fits recover the exact
        # support in >= 80% of replications (consistency of selection);
        # the high weight exponent widens the admissible penalty window
        from sparse_ou import generate_sparse_drift, transition_kernel

        drift = generate_sparse_drift(20, 2, seed=55)
        kernel = transition_kernel(drift, 0.01)
        true_support = np.argwhere(drift.matrix)
        opts = SolverOptions(rel_tol=1e-7)
        hits = 0
        reps = 50
        for rep in range(reps):
            traj = sample_trajectory(drift, 200.0, 0.01, derive_seed(2000, rep), kernel=kernel)
            cv = cross_validate(traj, "adaptive_lasso", gamma=5.0, grid=default_lambda_grid(), opts=opts)
            hits += np.array_equal(np.argwhere(cv.best_estimate.matrix), true_support)
        assert hits >= 0.8 * reps


class TestFitSigmaModel:
    """The Sigma-aware fit: P = (Sigma Sigma^T)^{-1} on the path centred at m, as ``cross_validate_sigma`` runs it."""

    def test_identity_sigma_reduces_to_lasso(self):
        drift = generate_shifted_antisymmetric(3, alpha=0.5, w=1.0, s=2, seed=2)
        traj = sample_trajectory(drift, 20.0, 0.02, seed=8)
        st = sufficient_stats(traj)
        direct = lasso(st, 0.05, opts=FAST)
        viasigma = _Problem.of(st.c_hat, st.g_hat, _precision(np.eye(3), 3), None, FAST).fit(0.05)
        assert np.allclose(viasigma.matrix, direct.matrix, atol=1e-12)

    def test_singular_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma is singular"):
            _precision(np.zeros((2, 2)), 2)

    @pytest.mark.parametrize("lam", [-0.1, float("nan")])
    def test_bad_lambda_rejected(self, lam):
        drift = generate_shifted_antisymmetric(2, alpha=0.5, w=1.0, s=1, seed=2)
        st = sufficient_stats(sample_trajectory(drift, 5.0, 0.05, seed=1))
        problem = _Problem.of(st.c_hat, st.g_hat, _precision(np.eye(2), 2), None, FAST)
        with pytest.raises(ValueError, match="lambda must be >= 0"):
            problem.fit(lam)

    def test_scalar_sigma_rescales_lambda(self):
        # P = I / 4 scales the smooth part by 1/4, so the penalty lam acts as 4 lam does in the Lasso
        drift = generate_shifted_antisymmetric(3, alpha=0.5, w=1.0, s=2, seed=2)
        traj = sample_trajectory(drift, 20.0, 0.02, seed=9)
        c_scale = 2.0
        lam = 0.08
        scaled = cross_validate_sigma(traj, np.zeros(3), c_scale * np.eye(3), grid=[lam], opts=FAST)
        equivalent = cross_validate(traj, "lasso", grid=[lam * c_scale**2], opts=FAST)
        assert np.linalg.norm(scaled.best_estimate.matrix - equivalent.best_estimate.matrix) <= 1e-6

    def test_recovers_drift_monte_carlo(self):
        from sparse_ou import sample_sigma_trajectory

        rng = np.random.default_rng(5)
        a_true = generate_shifted_antisymmetric(5, alpha=1.0, w=1.0, s=2, seed=6).matrix
        m_true = rng.normal(size=5)
        sigma_true = np.linalg.cholesky(0.04 * np.eye(5) + 0.01 * np.ones((5, 5)))
        hits = 0
        reps = 10
        for rep in range(reps):
            traj = sample_sigma_trajectory(a_true, m_true, sigma_true, 500.0, 0.01, derive_seed(3, rep))
            st = sufficient_stats(_centered(traj, m_true))
            fit = _Problem.of(st.c_hat, st.g_hat, _precision(sigma_true, 5), None, FAST).fit(0.0)
            hits += np.linalg.norm(fit.matrix - a_true) <= 0.5
        assert hits >= 0.9 * reps


class TestEstimateSerialization:
    def test_json_roundtrip(self, rng, tmp_path):
        st = random_stats(rng, 3)
        matrix = np.array([[1.5, 0.0, -0.0], [0.0, -2.0, 0.0], [1e-300, -0.0, 3.0]])
        fit = replace(lasso(st, 0.1, opts=FAST), matrix=matrix)
        path = tmp_path / "estimate.json"
        save_estimate_json(path, fit, extra={"note": "test"})
        with open(path) as fh:
            loaded = json.load(fh)
        assert np.array_equal(np.reshape(loaded["matrix"], (loaded["dim"], loaded["dim"])), fit.matrix)
        assert loaded["lambda"] == fit.lam
        assert loaded["kkt_residual"] == fit.kkt_residual
        # row-major non-zero entries; exact zeros of either sign are not in the support
        assert loaded["support"] == [[0, 0], [1, 1], [2, 0], [2, 2]]
        assert loaded["note"] == "test"
