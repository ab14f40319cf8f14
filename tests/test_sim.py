import math

import numpy as np
import pytest
from scipy.stats import ttest_ind

from sparse_ou import (
    Trajectory,
    generate_shifted_antisymmetric,
    generate_sparse_drift,
    make_drift,
    sample_trajectory,
    subsample,
    transition_kernel,
)
from sparse_ou.errors import NumericError
from sparse_ou.sim import (
    TransitionKernel,
    _cholesky_psd,
    derive_seed,
    load_trajectory_csv,
    save_trajectory_csv,
)


@pytest.fixture(scope="module")
def drift3():
    return generate_shifted_antisymmetric(3, alpha=0.5, w=1.0, s=2, seed=4)


def noise_cov(k: TransitionKernel) -> np.ndarray:
    """Q as the sampler draws it, L L^T."""
    return k.noise_chol @ k.noise_chol.T


def exact_noise_cov(drift, dt: float) -> np.ndarray:
    """Q = C - phi C phi^T from the stationary covariance, formed independently of the kernel's factor."""
    phi = transition_kernel(drift, dt).phi
    c = drift.stationary_cov
    return c - phi @ c @ phi.T


class TestTransitionKernel:
    def test_scalar_formulas(self):
        drift = make_drift(np.array([[1.0]]))
        k = transition_kernel(drift, 0.1)
        assert k.phi[0, 0] == pytest.approx(np.exp(-0.1), rel=1e-12)
        assert noise_cov(k)[0, 0] == pytest.approx((1 - np.exp(-0.2)) / 2.0, rel=1e-12)

    def test_isotropic_drift(self):
        alpha = 0.5
        drift = make_drift(alpha * np.eye(3))
        k = transition_kernel(drift, 1.0)
        assert np.allclose(k.phi, np.exp(-0.5) * np.eye(3), rtol=1e-12)
        assert np.allclose(noise_cov(k), (1 - np.exp(-1.0)) / (2 * alpha) * np.eye(3), rtol=1e-12)

    def test_small_dt_noise_is_dt_identity(self, rng, drift3):
        # Q = dt I - dt^2 (A + A^T)/2 + O(dt^3): fit the quadratic constant
        # at the coarsest step, then check it bounds the finer ones
        resid = {}
        for dt in (0.05, 0.02, 0.01, 0.005):
            q = noise_cov(transition_kernel(drift3, dt))
            resid[dt] = np.linalg.norm(q - dt * np.eye(3))
        c_fit = resid[0.05] / 0.05**2
        for dt in (0.02, 0.01, 0.005):
            assert resid[dt] <= 2.0 * c_fit * dt**2

    def test_semigroup(self, drift3):
        dt = 0.3
        k1 = transition_kernel(drift3, dt)
        k2 = transition_kernel(drift3, 2 * dt)
        assert np.linalg.norm(k2.phi - k1.phi @ k1.phi) <= 1e-10

    @pytest.mark.parametrize("dt", [0.0, -0.1, math.inf, math.nan])
    def test_step_must_be_positive_and_finite(self, drift3, dt):
        with pytest.raises(ValueError, match="dt must be > 0 and finite"):
            transition_kernel(drift3, dt)

    def test_chol_consistency(self, drift3):
        k = transition_kernel(drift3, 0.2)
        assert np.linalg.norm(noise_cov(k) - exact_noise_cov(drift3, 0.2)) <= 1e-10

    def test_cholesky_psd_jitter_and_failure(self):
        singular = np.array([[1.0, 1.0], [1.0, 1.0]])
        chol = _cholesky_psd(singular)
        assert np.allclose(chol @ chol.T, singular, atol=1e-5)
        with pytest.raises(NumericError):
            _cholesky_psd(np.array([[-1.0, 0.0], [0.0, 1.0]]))


class TestSampleTrajectory:
    def test_seed_determinism(self, drift3):
        a = sample_trajectory(drift3, T=1.0, dt=0.01, seed=10)
        b = sample_trajectory(drift3, T=1.0, dt=0.01, seed=10)
        assert np.array_equal(a.states, b.states)
        c = sample_trajectory(drift3, T=1.0, dt=0.01, seed=11)
        assert not np.array_equal(a.states, c.states)

    def test_horizon_and_shape(self, drift3):
        traj = sample_trajectory(drift3, T=10.0, dt=0.01, seed=0)
        assert traj.states.shape == (1001, 3)
        assert traj.horizon == pytest.approx(10.0, rel=1e-12)

    def test_zero_noise_kernel_follows_phi_from_the_stationary_draw(self, drift3):
        k = transition_kernel(drift3, 0.1)
        frozen = TransitionKernel(dt=k.dt, phi=k.phi, noise_chol=np.zeros((3, 3)))
        traj = sample_trajectory(drift3, T=1.0, dt=0.1, seed=5, kernel=frozen)
        x0 = _cholesky_psd(drift3.stationary_cov) @ np.random.default_rng(5).standard_normal(3)
        expected = [x0]
        for _ in range(10):
            expected.append(k.phi @ expected[-1])
        assert np.array_equal(traj.states, np.array(expected))

    def test_sampler_matches_kernel_recursion_exactly(self, drift3):
        # the path must be exactly X_{k+1} = phi X_k + L xi_k for the
        # generator's draw sequence
        dt, n, seed = 0.2, 5, 99
        k = transition_kernel(drift3, dt)
        traj = sample_trajectory(drift3, T=n * dt, dt=dt, seed=seed, kernel=k)
        rng = np.random.default_rng(seed)
        x0 = _cholesky_psd(drift3.stationary_cov) @ rng.standard_normal(3)
        noise = rng.standard_normal((n, 3)) @ k.noise_chol.T
        expected = [x0]
        for step in range(n):
            expected.append(k.phi @ expected[-1] + noise[step])
        assert np.array_equal(traj.states, np.array(expected))

    def test_stationary_marginal_covariance(self, drift3):
        # the law of X_k is N(0, C) for every k
        k = transition_kernel(drift3, 0.05)
        ends = np.array(
            [
                sample_trajectory(drift3, T=0.15, dt=0.05, seed=derive_seed(7, rep), kernel=k).states[-1]
                for rep in range(10_000)
            ]
        )
        sample_cov = ends.T @ ends / len(ends)
        c = drift3.stationary_cov
        assert np.linalg.norm(sample_cov - c) / np.linalg.norm(c) <= 0.05

    def test_one_step_conditional_covariance(self, drift3):
        # from X_0 = 0 the law of X_1 is N(0, Q); 1e5 vectorized draws
        k = transition_kernel(drift3, 0.3)
        rng = np.random.default_rng(123)
        draws = rng.standard_normal((100_000, 3)) @ k.noise_chol.T
        sample_cov = draws.T @ draws / len(draws)
        q = exact_noise_cov(drift3, 0.3)
        assert np.linalg.norm(sample_cov - q) / np.linalg.norm(q) <= 0.05

    def test_1d_stationary_variance(self):
        drift = make_drift(np.array([[1.0]]))
        traj = sample_trajectory(drift, T=1000.0, dt=0.01, seed=2)
        assert abs(np.var(traj.states) - 0.5) <= 0.05

    def test_invalid_args(self, drift3):
        with pytest.raises(ValueError):
            sample_trajectory(drift3, T=0.001, dt=0.01, seed=0)
        for T in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="T / dt must be finite"):
                sample_trajectory(drift3, T=T, dt=0.01, seed=0)

    def test_kernel_for_another_step_is_rejected(self, drift3):
        with pytest.raises(ValueError, match="kernel was built for dt=0.01, not dt=0.1"):
            sample_trajectory(drift3, T=1.0, dt=0.1, seed=1, kernel=transition_kernel(drift3, 0.01))


def reference_sample_states(drift, T, dt, seed, kernel=None):
    """The per-step loop `sample_trajectory` ran before its in-place rewrite, from the stationary start."""
    n = int(round(T / dt))
    if kernel is None:
        kernel = transition_kernel(drift, dt)
    d = drift.dim
    rng = np.random.default_rng(seed)
    c_chol = _cholesky_psd(drift.stationary_cov)
    x0 = c_chol @ rng.standard_normal(d)
    noise = rng.standard_normal((n, d)) @ kernel.noise_chol.T
    states = np.empty((n + 1, d))
    states[0] = x0
    phi = kernel.phi
    for k in range(n):
        states[k + 1] = phi @ states[k] + noise[k]
    return states


class TestInPlaceRecursionParity:
    """The in-place sampler must reproduce the allocating loop bit for bit."""

    DT = 0.01

    @pytest.fixture(scope="class", params=[(10, 2000), (40, 500)], ids=["d10", "d40"])
    def case(self, request):
        d, n = request.param
        drift = generate_sparse_drift(d, 3, seed=d)
        return drift, n * self.DT, transition_kernel(drift, self.DT)

    @pytest.mark.parametrize("pass_kernel", [False, True], ids=["own_kernel", "given_kernel"])
    def test_bit_identical(self, case, pass_kernel):
        drift, T, k = case
        kernel = k if pass_kernel else None
        traj = sample_trajectory(drift, T=T, dt=self.DT, seed=17, kernel=kernel)
        expected = reference_sample_states(drift, T, self.DT, 17, kernel=kernel)
        assert np.array_equal(traj.states, expected)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_bit_identical_for_phi_memory_order(self, case, order):
        drift, T, k = case
        phi = np.asarray(k.phi, order=order)
        assert phi.flags[f"{order}_CONTIGUOUS"]
        kernel = TransitionKernel(dt=k.dt, phi=phi, noise_chol=k.noise_chol)
        traj = sample_trajectory(drift, T=T, dt=self.DT, seed=23, kernel=kernel)
        expected = reference_sample_states(drift, T, self.DT, 23, kernel=kernel)
        assert np.array_equal(traj.states, expected)


class TestSubsample:
    def test_identity_factor(self, drift3):
        traj = sample_trajectory(drift3, T=1.0, dt=0.01, seed=1)
        sub = subsample(traj, 1)
        assert np.array_equal(sub.states, traj.states)
        assert sub.dt == traj.dt

    def test_counting(self, drift3):
        traj = sample_trajectory(drift3, T=1.0, dt=0.01, seed=1)
        sub = subsample(traj, 10)
        assert sub.states.shape[0] == 11
        assert sub.dt == pytest.approx(0.1)
        assert np.array_equal(sub.states, traj.states[::10])

    def test_composition(self, drift3):
        traj = sample_trajectory(drift3, T=10.0, dt=0.01, seed=1)
        once = subsample(subsample(traj, 10), 10)
        direct = subsample(traj, 100)
        assert np.array_equal(once.states, direct.states)
        assert once.dt == direct.dt

    def test_non_divisible_factor(self, drift3):
        traj = sample_trajectory(drift3, T=1.0, dt=0.01, seed=1)  # 100 steps
        with pytest.raises(ValueError):
            subsample(traj, 7)

    def test_subsampled_path_matches_coarse_sampling_in_law(self):
        # exactness: statistics of a thinned fine path and a directly
        # coarse-sampled path must agree in distribution
        drift = generate_shifted_antisymmetric(2, alpha=0.5, w=1.0, s=1, seed=0)
        fine = sample_trajectory(drift, T=4000.0, dt=0.1, seed=21)
        thinned = subsample(fine, 10)
        coarse = sample_trajectory(drift, T=4000.0, dt=1.0, seed=22)
        # decorrelate: keep states 10 time units apart (mixing time ~ 2)
        xs = thinned.states[::10]
        ys = coarse.states[::10]
        for u in (np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0]) / np.sqrt(2)):
            _, p = ttest_ind((xs @ u) ** 2, (ys @ u) ** 2, equal_var=False)
            assert p > 0.01


class TestTrajectoryIO:
    def test_csv_roundtrip_bit_exact(self, drift3, tmp_path):
        traj = sample_trajectory(drift3, T=2.0, dt=0.01, seed=3)
        path = tmp_path / "traj.csv"
        save_trajectory_csv(path, traj)
        loaded = load_trajectory_csv(path)
        assert np.array_equal(loaded.states, traj.states)
        assert loaded.dt == traj.dt

    def test_header_format(self, drift3, tmp_path):
        traj = sample_trajectory(drift3, T=0.1, dt=0.01, seed=3)
        path = tmp_path / "traj.csv"
        save_trajectory_csv(path, traj)
        assert path.read_text().splitlines()[0] == "t,x0,x1,x2"


class TestDeriveSeed:
    def test_deterministic_and_spread(self):
        seeds = {derive_seed(5, i) for i in range(1000)}
        assert len(seeds) == 1000
        assert derive_seed(5, 3) == derive_seed(5, 3)
        assert derive_seed(5, 3) != derive_seed(6, 3)
        assert all(0 <= s < 2**64 for s in seeds)
