import json
import warnings

import numpy as np
import pytest

from sparse_ou import (
    SolverOptions,
    cross_validate,
    cross_validate_sigma,
    default_lambda_grid,
    generate_shifted_antisymmetric,
    generate_sparse_drift,
    mle,
    neg_log_likelihood,
    sample_trajectory,
    sufficient_stats,
)
from sparse_ou.cli import _cv_payload, _write_json
from sparse_ou.errors import ConditioningError
from sparse_ou.estimators import _Problem
from sparse_ou.modelsel import _hold_out, split_trajectory
from sparse_ou.sim import Trajectory

FAST = SolverOptions(rel_tol=1e-10, max_iters=100_000)


@pytest.fixture(scope="module")
def traj():
    drift = generate_shifted_antisymmetric(3, alpha=0.7, w=1.0, s=2, seed=12)
    return sample_trajectory(drift, T=50.0, dt=0.02, seed=30)


class TestSplit:
    def test_split_shares_boundary_state(self, traj):
        train, valid = split_trajectory(traj)
        n = traj.n_steps
        k = int(np.floor(0.8 * n))
        assert train.states.shape[0] == k + 1
        assert valid.states.shape[0] == n - k + 1
        assert np.array_equal(train.states[-1], valid.states[0])
        assert np.array_equal(np.vstack([train.states[:-1], valid.states]), traj.states)

    def test_training_never_sees_validation(self, traj):
        # cross_validate fits on the head states[:k+1] alone and scores on the tail states[k:] alone
        k = int(np.floor(0.8 * traj.n_steps))
        head = sufficient_stats(Trajectory(dt=traj.dt, states=traj.states[: k + 1]))
        tail = sufficient_stats(Trajectory(dt=traj.dt, states=traj.states[k:]))
        grid = default_lambda_grid(num=6, low=1e-3, high=10.0)
        for method, gamma in (("lasso", None), ("adaptive_lasso", 1.0)):
            got = cross_validate(traj, method, gamma=1.0, grid=grid, opts=FAST)
            want = _hold_out(grid, head, tail, None, gamma, FAST)
            assert [f.lam for f in got.fits] == [f.lam for f in want.fits] == grid.tolist()
            for a, b in zip(got.fits, want.fits):
                assert np.array_equal(a.matrix, b.matrix)
                assert (a.iterations, a.restarts, a.final_objective, a.kkt_residual, a.converged, a.gamma) == (
                    b.iterations, b.restarts, b.final_objective, b.kkt_residual, b.converged, b.gamma)
            assert np.array_equal(got.validation_scores, want.validation_scores)
            assert got.best_estimate.lam == want.best_estimate.lam
            assert np.array_equal(got.best_estimate.matrix, want.best_estimate.matrix)

    def test_too_short_rejected(self):
        short = Trajectory(dt=0.1, states=np.zeros((2, 1)))
        with pytest.raises(ValueError):
            split_trajectory(short)


class TestCrossValidate:
    def test_single_element_grid(self, traj):
        res = cross_validate(traj, "lasso", grid=[0.05], opts=FAST)
        assert [f.lam for f in res.fits] == [0.05]
        assert res.best_estimate.lam == 0.05

    def test_endpoint_semantics(self, traj):
        # lambda = 0 scores the training MLE; a huge lambda scores the zero
        # matrix (held-out likelihood of 0 is exactly 0)
        train, valid = split_trajectory(traj)
        valid_stats = sufficient_stats(valid)
        train_mle = mle(sufficient_stats(train))
        res = cross_validate(traj, "lasso", grid=[0.0, 1e9], opts=FAST)
        assert res.validation_scores[0] == pytest.approx(
            neg_log_likelihood(train_mle.matrix, valid_stats), rel=1e-6, abs=1e-9
        )
        assert res.validation_scores[1] == 0.0
        assert res.best_estimate is res.fits[int(np.argmin(res.validation_scores))]

    def test_default_grid(self):
        grid = default_lambda_grid()
        assert len(grid) == 40
        assert grid[0] == pytest.approx(1e-2)
        assert grid[-1] == pytest.approx(1e3)
        assert np.allclose(np.diff(np.log(grid)), np.log(grid[1] / grid[0]))
        # the bounds pass through log10, which is exact at these powers of ten
        assert np.array_equal(grid, np.logspace(-2.0, 3.0, 40))
        custom = default_lambda_grid(5, 1e-3, 10.0)
        assert len(custom) == 5 and custom[0] == pytest.approx(1e-3) and custom[-1] == pytest.approx(10.0)

    def test_non_converged_selection_warns(self, traj):
        one_step = SolverOptions(max_iters=1)
        with pytest.warns(RuntimeWarning, match=r"lambda=0\.01 did not converge: 1 iterations, KKT residual") as rec:
            res = cross_validate(traj, "lasso", grid=[0.01], opts=one_step)
        assert not res.best_estimate.converged
        with pytest.warns(RuntimeWarning, match="did not converge") as rec_sigma:
            cross_validate_sigma(traj, np.zeros(3), np.eye(3), grid=[0.01], opts=one_step)
        # the warning points at the caller of the public routine
        assert [w.filename for w in rec.list + rec_sigma.list] == [__file__, __file__]

    def test_converged_selection_is_silent(self, traj):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = cross_validate(traj, "lasso", grid=[0.01, 0.1], opts=FAST)
        assert res.best_estimate.converged

    def test_lasso_path_certifies_where_the_mle_does_not_exist(self):
        # n = 15 steps for d = 20 states: C is singular on the path and on its training part
        short = sample_trajectory(generate_sparse_drift(20, 4, 2), T=0.15, dt=0.01, seed=0)
        train_stats = sufficient_stats(split_trajectory(short)[0])
        for st in (sufficient_stats(short), train_stats):
            with pytest.raises(ConditioningError):
                mle(st)
        problem = _Problem.of(train_stats.c_hat, train_stats.g_hat, None, None, None)
        # sigma is zero up to rounding, so the momentum cap never binds: FISTA with restarts
        assert problem.beta > 1.0 - 1e-6
        res = cross_validate(short, "lasso")
        assert all(f.converged and f.kkt_residual <= problem.kkt_tol for f in res.fits)

    def test_deterministic(self, traj):
        a = cross_validate(traj, "adaptive_lasso", gamma=1.0, grid=[0.01, 0.1, 1.0])
        b = cross_validate(traj, "adaptive_lasso", gamma=1.0, grid=[0.01, 0.1, 1.0])
        assert a.best_estimate.lam == b.best_estimate.lam
        assert np.array_equal(a.validation_scores, b.validation_scores)
        assert np.array_equal(a.best_estimate.matrix, b.best_estimate.matrix)

    def test_scores_finite_and_aligned(self, traj):
        grid = default_lambda_grid(num=10)
        res = cross_validate(traj, "lasso", grid=grid)
        assert res.validation_scores.shape == grid.shape
        assert np.all(np.isfinite(res.validation_scores))
        assert res.best_estimate.lam in grid

    def test_best_attains_minimum(self, traj):
        res = cross_validate(traj, "lasso", grid=[0.01, 0.1, 1.0, 10.0])
        i = [f.lam for f in res.fits].index(res.best_estimate.lam)
        assert res.validation_scores[i] == res.validation_scores.min()

    def test_fits_follow_the_grid(self, traj):
        res = cross_validate(traj, "lasso", grid=[10.0, 0.01, 1.0, 0.1])
        assert [f.lam for f in res.fits] == [0.01, 0.1, 1.0, 10.0]
        assert res.fits[int(np.argmin(res.validation_scores))] is res.best_estimate

    def test_adaptive_estimate_carries_gamma(self, traj):
        res = cross_validate(traj, "adaptive_lasso", gamma=2.0, grid=[0.1])
        assert res.best_estimate.gamma == 2.0
        res = cross_validate_sigma(traj, np.zeros(3), np.eye(3), gamma=2, grid=[0.1])
        assert res.best_estimate.gamma == 2.0 and isinstance(res.best_estimate.gamma, float)
        assert cross_validate_sigma(traj, np.zeros(3), np.eye(3), grid=[0.1]).best_estimate.gamma is None

    def test_adaptive_path_starts_at_training_mle(self, traj):
        # -G C^{-1} minimizes the smooth part for every P > 0, so at lambda = 0 one step certifies it
        sigma = np.array([[1.0, 0.0, 0.0], [0.3, 0.8, 0.0], [0.0, -0.2, 1.2]])
        for res in (
            cross_validate(traj, "adaptive_lasso", gamma=1.0, grid=[0.0], opts=FAST),
            cross_validate_sigma(traj, np.zeros(3), sigma, gamma=1.0, grid=[0.0], opts=FAST),
        ):
            assert res.best_estimate.iterations == 1 and res.best_estimate.converged

    @pytest.mark.parametrize("gamma", [-1.0, float("nan")])
    def test_negative_gamma_rejected_before_any_fit(self, traj, monkeypatch, gamma):
        fits = []
        monkeypatch.setattr(_Problem, "fit", lambda self, *args, **kwargs: fits.append(args))
        with pytest.raises(ValueError, match="gamma must be >= 0"):
            cross_validate(traj, "adaptive_lasso", gamma=gamma, grid=[0.1])
        with pytest.raises(ValueError, match="gamma must be >= 0"):
            cross_validate_sigma(traj, np.zeros(3), np.eye(3), gamma=gamma, grid=[0.1])
        assert fits == []

    def test_bad_inputs(self, traj):
        with pytest.raises(ValueError):
            cross_validate(traj, "ridge", grid=[0.1])
        with pytest.raises(ValueError):
            cross_validate(traj, "lasso", grid=[])
        with pytest.raises(ValueError):
            cross_validate(traj, "lasso", grid=[-0.1, 0.1])
        with pytest.raises(ValueError, match="lambda grid entries must be >= 0"):
            cross_validate(traj, "lasso", grid=[float("nan"), 0.1])


class TestCrossValidateSigma:
    @pytest.mark.parametrize("method, gamma", [("lasso", None), ("adaptive_lasso", 2.0)])
    def test_identity_sigma_matches_plain_scores(self, traj, method, gamma):
        # P = I and m = 0 change no arithmetic: one path, bit for bit
        grid = default_lambda_grid(num=8, low=1e-3, high=10.0)
        plain = cross_validate(traj, method, gamma=gamma, grid=grid, opts=FAST)
        sig = cross_validate_sigma(traj, np.zeros(traj.dim), np.eye(traj.dim), gamma=gamma, grid=grid, opts=FAST)
        assert np.array_equal(sig.validation_scores, plain.validation_scores)
        assert sig.best_estimate.lam == plain.best_estimate.lam
        assert np.array_equal(sig.best_estimate.matrix, plain.best_estimate.matrix)
        assert sig.best_estimate.iterations == plain.best_estimate.iterations
        assert sig.best_estimate.gamma == plain.best_estimate.gamma

    def test_singular_sigma_rejected_before_any_fit(self, traj, monkeypatch):
        fits = []
        monkeypatch.setattr(_Problem, "fit", lambda self, *args, **kwargs: fits.append(args))
        with pytest.raises(ValueError, match="singular"):
            cross_validate_sigma(traj, np.zeros(3), np.diag([1.0, 1.0, 0.0]), gamma=1.0, grid=[0.1, 1.0])
        assert fits == []

    def test_shapes_rejected(self, traj):
        with pytest.raises(ValueError, match="m must have shape"):
            cross_validate_sigma(traj, np.zeros(2), np.eye(3), grid=[0.1])
        with pytest.raises(ValueError, match="sigma must have shape"):
            cross_validate_sigma(traj, np.zeros(3), np.eye(2), grid=[0.1])

    def test_non_finite_score_rejected(self, traj):
        # an overflowing validation segment: its statistics, hence every score, are not finite
        train, _ = split_trajectory(traj)
        states = traj.states.copy()
        states[train.states.shape[0]:] = 1e170
        blown = Trajectory(dt=traj.dt, states=states)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="non-finite"):
            cross_validate_sigma(blown, np.zeros(3), np.eye(3), grid=[0.1, 1.0])


class TestCvSerialization:
    def test_json_contents(self, traj, tmp_path):
        res = cross_validate(traj, "lasso", grid=[0.05, 0.5])
        path = tmp_path / "cv.json"
        _write_json(path, _cv_payload(res))
        payload = json.loads(path.read_text())
        assert payload["best_lambda"] == res.best_estimate.lam
        assert payload["lambda_grid"] == [0.05, 0.5]
        assert len(payload["validation_scores"]) == 2
        assert payload["iterations"] == [f.iterations for f in res.fits]
        assert payload["restarts"] == [f.restarts for f in res.fits]
        assert payload["kkt_residual"] == [f.kkt_residual for f in res.fits]
        assert payload["converged"] == [f.converged for f in res.fits]
        assert res.best_estimate.matrix.any() and payload["selected_zero"] is False

    def test_json_flags_a_zero_selection(self, traj):
        # every fit at a penalty beyond lambda_max is the zero matrix, so the selected one is too
        res = cross_validate(traj, "lasso", grid=[1e6, 1e7])
        assert _cv_payload(res)["selected_zero"] is True

    def test_json_is_byte_stable(self, traj, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            _write_json(path, _cv_payload(cross_validate(traj, "adaptive_lasso", grid=default_lambda_grid(8), opts=FAST)))
        assert paths[0].read_bytes() == paths[1].read_bytes()
