import math

import numpy as np
import pytest

from sparse_ou import (
    LambdaConfig,
    SolverOptions,
    SufficientStats,
    dense_baseline_f1,
    deviation_bounds,
    error_report,
    generate_sparse_drift,
    lasso,
    make_drift,
    eigen_floor,
    oracle_coverage,
    restricted_sparse_min,
    sample_trajectory,
    sufficient_stats,
    support_report,
    theoretical_lambda,
    transition_kernel,
)

from sparse_ou import metrics, sim
from sparse_ou.errors import UsageError
from sparse_ou.metrics import oracle_bound
from sparse_ou.sim import derive_seed

from conftest import random_stats


@pytest.fixture(scope="module")
def truth():
    return generate_sparse_drift(5, 2, seed=17)


@pytest.fixture(scope="module")
def stats5(truth):
    traj = sample_trajectory(truth, T=50.0, dt=0.02, seed=3)
    return sufficient_stats(traj)


class TestErrorReport:
    def test_zero_gap(self, truth, stats5):
        rep = error_report(truth.matrix, truth, stats5)
        assert rep.l1 == 0.0 and rep.frobenius == 0.0 and rep.empirical == 0.0

    def test_empirical_dominates_scaled_frobenius(self, rng, truth, stats5):
        est = truth.matrix + rng.normal(size=(5, 5))
        rep = error_report(est, truth, stats5)
        sigma_min = np.linalg.eigvalsh(stats5.c_hat)[0]
        assert rep.empirical >= math.sqrt(max(sigma_min, 0.0)) * rep.frobenius - 1e-12

    def test_without_stats_only_the_empirical_norm_is_missing(self, rng, truth, stats5):
        est = truth.matrix + rng.normal(size=(5, 5))
        rep, bare = error_report(est, truth, stats5), error_report(est, truth, None)
        assert math.isnan(bare.empirical)
        assert (bare.l1, bare.frobenius) == (rep.l1, rep.frobenius)


@pytest.mark.parametrize("shape", [(5,), (1, 5), (4, 4)], ids=["d", "1xd", "d-1xd-1"])
@pytest.mark.parametrize("score", [lambda est, truth: error_report(est, truth, None), support_report],
                         ids=["error_report", "support_report"])
def test_wrongly_shaped_estimate_is_rejected_before_broadcasting(truth, score, shape):
    # a (d,) or (1, d) estimate broadcasts over the truth's rows; the shape is compared before any arithmetic
    with pytest.raises(ValueError, match=rf"estimate has shape \({shape[0]},"):
        score(np.ones(shape), truth)


class TestSupportReport:
    def test_perfect_recovery(self, truth):
        rep = support_report(truth.matrix, truth)
        assert rep.f1 == 1.0 and rep.precision == 1.0 and rep.recall == 1.0
        assert rep.false_positives == 0 and rep.false_negatives == 0

    def test_dense_baseline_formula(self):
        # truth with exactly one non-zero per row: density 0.1 at d=10
        truth = make_drift(np.eye(10) * 1.5)
        rep = support_report(np.ones((10, 10)), truth)
        assert rep.f1 == pytest.approx(2.0 / 11.0, abs=1e-12)
        assert rep.f1 == pytest.approx(dense_baseline_f1(0.1), abs=1e-12)

    def test_zero_estimate_convention(self, truth):
        rep = support_report(np.zeros((5, 5)), truth)
        assert rep.precision == 0.0 and rep.recall == 0.0 and rep.f1 == 0.0

    def test_count_identities(self, rng, truth):
        est = rng.normal(size=(5, 5)) * (rng.random(size=(5, 5)) > 0.5)
        rep = support_report(est, truth)
        assert rep.true_positives + rep.false_negatives == np.count_nonzero(truth.matrix)
        assert rep.true_positives + rep.false_positives == np.count_nonzero(np.abs(est) > 1e-10)

    def test_zero_tol_masks_small_entries(self, truth):
        # an entry counts as detected when its magnitude exceeds metrics.ZERO_TOL = 1e-10
        off_support = np.argwhere(truth.matrix == 0.0)[0]
        for magnitude, detected in [(1e-11, 0), (1e-9, 1)]:
            est = truth.matrix.copy()
            est[tuple(off_support)] = -magnitude
            assert support_report(est, truth).false_positives == detected


class TestDeviationBounds:
    def test_vanish_at_origin(self):
        c = np.eye(3) * 2.0
        u = np.array([1.0, 0.0, 0.0])
        h1, h2 = deviation_bounds(1e-10, u, c)
        assert h1 == pytest.approx(0.0, abs=1e-12)
        assert h2 == pytest.approx(0.0, abs=1e-12)

    def test_infinite_branch(self):
        c = np.eye(2)
        u = np.array([1.0, 0.0])
        _, h2 = deviation_bounds(1.0, u, c)  # R == u^T C u
        assert h2 == math.inf
        _, h2b = deviation_bounds(0.99, u, c)
        assert math.isfinite(h2b)

    def test_monotone_in_R(self):
        c = np.array([[1.0]])
        u = np.array([1.0])
        grid = np.linspace(0.05, 0.95, 19)
        h1s, h2s = zip(*(deviation_bounds(float(r), u, c) for r in grid))
        assert all(v >= 0 for v in h1s) and all(v >= 0 for v in h2s)
        assert all(a < b for a, b in zip(h1s, h1s[1:]))
        assert all(a < b for a, b in zip(h2s, h2s[1:]))

    def test_rank_one_logdet_shortcut(self, rng):
        # h1 must equal the full d x d determinant evaluation
        w = rng.normal(size=(4, 4))
        c = w @ w.T + 0.5 * np.eye(4)
        u = rng.normal(size=4)
        u /= np.linalg.norm(u) * 1.01
        r = 0.3
        quad = u @ c @ u
        full = np.linalg.slogdet(np.eye(4) + r * np.outer(c @ u, u) / quad**2)[1]
        h1, _ = deviation_bounds(r, u, c)
        assert h1 == pytest.approx((r / quad - full) / 8.0, rel=1e-10)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            deviation_bounds(-1.0, np.array([1.0]), np.eye(1))
        with pytest.raises(ValueError):
            deviation_bounds(0.5, np.array([2.0]), np.eye(1))
        with pytest.raises(ValueError):
            deviation_bounds(0.5, np.zeros(2), np.eye(2))


class TestReConstant:
    def _stats_from_cov(self, c):
        return SufficientStats(c_hat=np.asarray(c, dtype=float), g_hat=np.zeros_like(c), horizon=1.0)

    def test_identity_covariance(self):
        st = self._stats_from_cov(np.eye(6))
        assert eigen_floor(st) == 1.0
        assert restricted_sparse_min(st, 2) == pytest.approx(1.0, abs=1e-12)

    def test_weak_coordinate(self):
        eps = 0.04
        st = self._stats_from_cov(np.diag([eps, 1.0, 1.0, 1.0]))
        assert restricted_sparse_min(st, 1) == pytest.approx(math.sqrt(eps), abs=1e-12)

    def test_floor_is_zero_on_indefinite_covariance(self):
        # a negative smallest eigenvalue (rounding in C) certifies no positive bound
        assert eigen_floor(self._stats_from_cov(np.diag([-1e-3, 1.0, 2.0]))) == 0.0

    def test_floor_below_sparse_min_on_random_stats(self, rng):
        # Cauchy interlacing: lambda_min(C) <= lambda_min(C_SS) for every support S
        for _ in range(5):
            st = random_stats(rng, 6)
            for s in range(1, 7):
                assert eigen_floor(st) <= restricted_sparse_min(st, s) + 1e-12

    def test_floor_below_sparse_min_on_ou_stats(self):
        drift = generate_sparse_drift(8, 2, seed=66)
        for rep in range(8):
            st = sufficient_stats(sample_trajectory(drift, 200.0, 0.01, derive_seed(1000, rep)))
            assert 0.0 < eigen_floor(st) <= restricted_sparse_min(st, 2) + 1e-12

    def test_enumeration_limit(self, rng):
        st = random_stats(rng, 13)
        with pytest.raises(ValueError):
            restricted_sparse_min(st, 2)


class TestOracleCoverage:
    def test_bound_at_diagonal_truth(self):
        # A = 2 I gives C_inf = I / 4, so kappa = sqrt(1/8), and one nonzero per row, so s = 1
        truth = make_drift(2.0 * np.eye(3))
        expected = (1.0 + 2.0) / (2.0 * math.sqrt(1.0 / 8.0)) * 0.3 * math.sqrt(3 * 1)
        assert oracle_bound(truth, 0.3, 2.0) == pytest.approx(expected, rel=1e-14)

    def test_fraction_range_and_symmetric_warning(self, truth):
        cfg = LambdaConfig(gamma=2.0, epsilon0=0.1)
        with pytest.warns(UserWarning):
            frac = oracle_coverage(truth, T=20.0, reps=3, cfg=cfg, seed=1)
        assert 0.0 <= frac <= 1.0

    @pytest.mark.parametrize("T, dt", [(0.004, 0.01), (1.0, 0.0), (math.inf, 0.01)])
    def test_bad_horizon_is_usage_error_before_any_kernel(self, monkeypatch, T, dt):
        def fail(*args):
            raise AssertionError("transition_kernel ran")

        monkeypatch.setattr(sim, "transition_kernel", fail)
        truth = make_drift(2.0 * np.eye(3))
        with pytest.raises(UsageError, match="T / dt must be finite and round to at least 1"):
            oracle_coverage(truth, T=T, reps=2, cfg=LambdaConfig(), seed=0, dt=dt)

    def test_coverage_nondecreasing_in_horizon(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(4, 4)) * 0.1
        truth = make_drift(np.eye(4) + 0.5 * (w + w.T))
        cfg = LambdaConfig(gamma=2.0, epsilon0=0.1)
        short = oracle_coverage(truth, T=50.0, reps=10, cfg=cfg, seed=5)
        long = oracle_coverage(truth, T=500.0, reps=10, cfg=cfg, seed=5)
        assert long >= short

    def test_coverage_tests_the_empirical_norm(self, monkeypatch):
        # a bound between the replications' ||(A_hat - A0) X||_L shows which norm is tested;
        # at A0 = 2 I, C is near I / 4, so the Frobenius norm is about twice as large
        truth = make_drift(2.0 * np.eye(3))
        cfg = LambdaConfig(gamma=2.0, epsilon0=0.1)
        kernel = transition_kernel(truth, 0.01)
        norms = []
        for rep in range(4):
            st = sufficient_stats(sample_trajectory(truth, 20.0, 0.01, derive_seed(3, rep), kernel=kernel))
            delta = lasso(st, theoretical_lambda(st, cfg), opts=SolverOptions()).matrix - truth.matrix
            norms.append(math.sqrt(np.trace(delta @ st.c_hat @ delta.T)))
        bound = float(np.median(norms))
        monkeypatch.setattr(metrics, "oracle_bound", lambda *args: bound)
        assert oracle_coverage(truth, T=20.0, reps=4, cfg=cfg, seed=3) == np.mean(np.array(norms) <= bound) == 0.5
