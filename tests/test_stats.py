import math

import numpy as np
import pytest

from sparse_ou import (
    LambdaConfig,
    SufficientStats,
    Trajectory,
    grad_neg_log_likelihood,
    make_drift,
    neg_log_likelihood,
    sample_trajectory,
    sufficient_stats,
    theoretical_lambda,
)
from sparse_ou.sim import derive_seed

from conftest import random_stats


def _synthetic_stats(rng, d, T=3.0):
    w = rng.normal(size=(d, d))
    return SufficientStats(c_hat=w @ w.T + 0.2 * np.eye(d), g_hat=rng.normal(size=(d, d)), horizon=T)


class TestSufficientStats:
    def test_constant_path(self):
        v = np.array([1.0, -2.0, 0.5])
        states = np.tile(v, (6, 1))
        st = sufficient_stats(Trajectory(dt=0.2, states=states))
        assert np.allclose(st.c_hat, np.outer(v, v), atol=1e-14)
        assert np.array_equal(st.g_hat, np.zeros((3, 3)))

    def test_1d_two_step_path(self):
        st = sufficient_stats(Trajectory(dt=1.0, states=np.array([[1.0], [2.0]])))
        assert st.horizon == pytest.approx(1.0)
        assert st.c_hat[0, 0] == pytest.approx(1.0)
        assert st.g_hat[0, 0] == pytest.approx(1.0)

    def test_requires_two_states(self):
        with pytest.raises(ValueError):
            Trajectory(dt=0.1, states=np.zeros((1, 2)))

    def test_c_hat_symmetric_psd(self, rng):
        st = random_stats(rng, 4)
        assert np.linalg.norm(st.c_hat - st.c_hat.T) <= 1e-12
        assert np.linalg.eigvalsh(st.c_hat).min() >= -1e-12

    def test_c_hat_converges_to_stationary_cov(self):
        # ergodic theorem: the long-horizon empirical covariance is closer
        drift = make_drift(np.array([[1.0, 0.4], [0.0, 1.5]]))
        c_inf = drift.stationary_cov
        errs = {10.0: [], 1000.0: []}
        for T in errs:
            for rep in range(50):
                traj = sample_trajectory(drift, T, 0.05, derive_seed(17, rep))
                errs[T].append(np.linalg.norm(sufficient_stats(traj).c_hat - c_inf))
        assert np.mean(errs[1000.0]) < np.mean(errs[10.0])


class TestNegLogLikelihood:
    def test_zero_drift(self, rng):
        st = _synthetic_stats(rng, 3)
        assert neg_log_likelihood(np.zeros((3, 3)), st) == 0.0

    def test_scalar_expansion(self):
        st = SufficientStats(c_hat=np.array([[2.0]]), g_hat=np.array([[0.7]]), horizon=1.0)
        a = -1.3
        assert neg_log_likelihood([[a]], st) == pytest.approx(a * 0.7 + a**2 * 2.0 / 2.0)

    def test_mle_minimizes_over_grid(self):
        st = SufficientStats(c_hat=np.array([[1.5]]), g_hat=np.array([[-0.9]]), horizon=1.0)
        a_mle = 0.9 / 1.5
        best = min(neg_log_likelihood([[a]], st) for a in np.linspace(-3, 3, 301))
        assert neg_log_likelihood([[a_mle]], st) <= best + 1e-12

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            neg_log_likelihood(np.zeros((2, 2)), _synthetic_stats(rng, 3))

    def test_decomposition_identity(self, rng):
        # L(A) - L(A0) = <A - A0, G + A0 C> + 1/2 tr((A - A0) C (A - A0)^T)
        for _ in range(10):
            st = _synthetic_stats(rng, 4)
            a = rng.normal(size=(4, 4))
            a0 = rng.normal(size=(4, 4))
            eps = st.g_hat + a0 @ st.c_hat
            u = a - a0
            rhs = np.sum(u * eps) + 0.5 * np.sum((u @ st.c_hat) * u)
            lhs = neg_log_likelihood(a, st) - neg_log_likelihood(a0, st)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


    def test_precision_weighted(self, rng):
        # <A, P G> + 1/2 tr(P A C A^T); P = I is the plain likelihood, bit for bit
        for _ in range(10):
            st = _synthetic_stats(rng, 4)
            w = rng.normal(size=(4, 4))
            p = w @ w.T + 0.1 * np.eye(4)
            a = rng.normal(size=(4, 4))
            expected = np.trace(a.T @ p @ st.g_hat) + 0.5 * np.trace(p @ a @ st.c_hat @ a.T)
            assert neg_log_likelihood(a, st, p) == pytest.approx(expected, rel=1e-10, abs=1e-12)
            assert neg_log_likelihood(a, st, np.eye(4)) == neg_log_likelihood(a, st)

    def test_mle_minimizes_every_precision_weighting(self, rng):
        # L_P(A) - L_P(A_mle) = 1/2 tr(P U C U^T) >= 0 with U = A - A_mle, for any P > 0
        for _ in range(10):
            st = _synthetic_stats(rng, 4)
            w = rng.normal(size=(4, 4))
            p = w @ w.T + 0.1 * np.eye(4)
            a_mle = -np.linalg.solve(st.c_hat, st.g_hat.T).T
            u = rng.normal(size=(4, 4))
            lhs = neg_log_likelihood(a_mle + u, st, p) - neg_log_likelihood(a_mle, st, p)
            rhs = 0.5 * np.trace(p @ u @ st.c_hat @ u.T)
            assert rhs > 0
            assert lhs == pytest.approx(rhs, rel=1e-8)


class TestGradient:
    def test_stationarity_at_mle(self, rng):
        st = _synthetic_stats(rng, 3)
        a = -np.linalg.solve(st.c_hat, st.g_hat.T).T
        assert np.linalg.norm(grad_neg_log_likelihood(a, st)) <= 1e-10 * np.linalg.norm(st.g_hat)

    def test_scalar_formula(self):
        st = SufficientStats(c_hat=np.array([[2.0]]), g_hat=np.array([[0.7]]), horizon=1.0)
        assert grad_neg_log_likelihood([[1.1]], st)[0, 0] == pytest.approx(0.7 + 1.1 * 2.0)

    def test_finite_difference_oracle(self, rng):
        # central differences, entry by entry, on 20 random instances
        h = 1e-6
        for _ in range(20):
            d = int(rng.integers(2, 5))
            st = _synthetic_stats(rng, d)
            a = rng.normal(size=(d, d))
            grad = grad_neg_log_likelihood(a, st)
            fd = np.zeros_like(grad)
            for i in range(d):
                for j in range(d):
                    e = np.zeros((d, d))
                    e[i, j] = h
                    fd[i, j] = (neg_log_likelihood(a + e, st) - neg_log_likelihood(a - e, st)) / (2 * h)
            assert np.linalg.norm(fd - grad) / np.linalg.norm(grad) <= 1e-5


class TestTheoreticalLambda:
    def test_regression_pin(self):
        # frozen from an independent transcription of the closed form
        st = SufficientStats(c_hat=np.array([[1.0]]), g_hat=np.array([[0.0]]), horizon=1.0)
        cfg = LambdaConfig(gamma=2.0, epsilon0=0.1)
        assert theoretical_lambda(st, cfg) == pytest.approx(11.0085938962053, rel=1e-12)

    def test_decreasing_in_horizon(self):
        cfg = LambdaConfig(gamma=2.0, epsilon0=0.1)
        c = np.array([[1.0]])
        vals = [
            theoretical_lambda(SufficientStats(c_hat=c, g_hat=np.zeros((1, 1)), horizon=T), cfg)
            for T in (1.0, 2.0, 4.0, 8.0)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_gamma_is_a_prefactor(self, rng):
        st = random_stats(rng, 3)
        v2 = theoretical_lambda(st, LambdaConfig(gamma=2.0, epsilon0=0.1))
        v5 = theoretical_lambda(st, LambdaConfig(gamma=5.0, epsilon0=0.1))
        assert v5 == pytest.approx(2.5 * v2, rel=1e-12)

    def test_nonpositive_diagonal_rejected(self):
        st = SufficientStats(c_hat=np.array([[0.0]]), g_hat=np.zeros((1, 1)), horizon=1.0)
        with pytest.raises(ValueError):
            theoretical_lambda(st, LambdaConfig())


class TestTheta:
    """The deviation scale theta(x) = sqrt(4e/T |diag C|_inf (x + log(2 + |log(T diag C)|_inf))) inside the penalty."""

    @staticmethod
    def theta(x, stats):
        """The deviation scale as a function of its own, in the order the penalty evaluates it."""
        diag = np.diag(stats.c_hat)
        T = stats.horizon
        d_max = float(np.max(diag))
        log_term = math.log(2.0 + float(np.max(np.abs(np.log(T * diag)))))
        return math.sqrt(4.0 * math.e * d_max / T * (x + log_term))

    def test_lambda_relation(self, rng):
        st = random_stats(rng, 4)
        cfg = LambdaConfig(gamma=3.0, epsilon0=0.2)
        x = 0.5 * math.log(2 * math.pi**2 * st.dim**2 / (3 * cfg.epsilon0))
        assert theoretical_lambda(st, cfg) == pytest.approx(cfg.gamma * self.theta(x, st), rel=1e-14)

    @pytest.mark.parametrize("d", [1, 3, 10, 40])
    @pytest.mark.parametrize("cfg", [LambdaConfig(), LambdaConfig(gamma=3.5, epsilon0=0.73)], ids=["default", "gamma=3.5"])
    def test_penalty_bits_match_theta(self, d, cfg):
        # the penalty is gamma * theta(x) at x = 1/2 log(2 pi^2 d^2 / (3 eps0)), bit for bit
        rng = np.random.default_rng(d)
        w = rng.normal(size=(d, d))
        st = SufficientStats(c_hat=w @ w.T / d + 0.1 * np.eye(d), g_hat=rng.normal(size=(d, d)), horizon=37.5)
        x = 0.5 * math.log(2.0 * math.pi**2 * d**2 / (3.0 * cfg.epsilon0))
        assert theoretical_lambda(st, cfg) == cfg.gamma * self.theta(x, st)

    def test_decreasing_in_epsilon0(self, rng):
        # x = 1/2 log(2 pi^2 d^2 / (3 eps0)) falls as eps0 grows, and theta rises with x
        st = random_stats(rng, 3)
        vals = [theoretical_lambda(st, LambdaConfig(epsilon0=e)) for e in np.linspace(0.01, 0.99, 20)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_unit_case(self):
        st = SufficientStats(c_hat=np.array([[1.0]]), g_hat=np.zeros((1, 1)), horizon=1.0)
        cfg = LambdaConfig(gamma=2.0, epsilon0=0.1)
        x = 0.5 * math.log(2 * math.pi**2 / (3 * cfg.epsilon0))
        assert theoretical_lambda(st, cfg) == pytest.approx(2.0 * math.sqrt(4 * math.e * (x + math.log(2))), rel=1e-12)


class TestLambdaConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            LambdaConfig(gamma=1.0)
        with pytest.raises(ValueError):
            LambdaConfig(epsilon0=1.0)
        LambdaConfig(gamma=2.0, epsilon0=0.5)
