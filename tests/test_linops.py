import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad_vec

from sparse_ou import StabilityError, generate_sparse_drift, linops, solve_lyapunov
from sparse_ou.errors import NumericError
from sparse_ou.linops import _THETA, as_square_matrix, expm

from conftest import random_stable_matrix


class TestSolveLyapunov:
    def test_scalar(self):
        a = 1.7
        assert np.allclose(solve_lyapunov([[a]]), [[1.0 / (2.0 * a)]], atol=1e-14)

    def test_shifted_antisymmetric(self):
        alpha = 0.8
        b = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 1.0], [0.0, -1.0, 0.0]])
        c = solve_lyapunov(alpha * np.eye(3) + b)
        assert np.linalg.norm(c - np.eye(3) / (2 * alpha)) <= 1e-10

    def test_spd_matrix_gives_half_inverse(self, rng):
        w = rng.normal(size=(4, 4))
        a = w @ w.T + 0.5 * np.eye(4)
        c = solve_lyapunov(a)
        assert np.allclose(c, np.linalg.inv(a) / 2.0, atol=1e-10)

    def test_residual_on_random_stable(self, rng):
        for _ in range(100):
            d = int(rng.integers(1, 21))
            a = random_stable_matrix(rng, d)
            c = solve_lyapunov(a)
            residual = np.linalg.norm(a @ c + c @ a.T - np.eye(d))
            assert residual / d <= 1e-10
            assert np.linalg.norm(c - c.T) <= 1e-12
            assert np.linalg.eigvalsh(c).min() > 0.0

    def test_quadrature_cross_check(self, rng):
        # independent oracle: numerically integrate exp(-At) exp(-A^T t)
        for _ in range(5):
            a = random_stable_matrix(rng, 4)
            upper = 40.0 / np.linalg.eigvals(a).real.min()
            integral, _ = quad_vec(
                lambda t: scipy.linalg.expm(a * -t) @ scipy.linalg.expm(a.T * -t),
                0.0,
                upper,
                epsabs=1e-10,
                epsrel=1e-10,
            )
            assert np.linalg.norm(integral - solve_lyapunov(a)) <= 1e-6

    def test_non_finite_matrix_rejected(self):
        with pytest.raises(ValueError, match="contains non-finite entries"):
            solve_lyapunov(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_unstable_matrix_rejected(self):
        with pytest.raises(StabilityError):
            solve_lyapunov(np.array([[-0.1, 0.0], [0.0, 1.0]]))
        with pytest.raises(StabilityError):
            solve_lyapunov(np.array([[0.0, 1.0], [-1.0, 0.0]]))  # purely imaginary

    @pytest.mark.parametrize("a", [[[1e-310]], np.diag([1e-300, 1.0])], ids=["subnormal", "near-singular"])
    def test_near_singular_stable_matrix_raises_numeric_error(self, a):
        # stable, but C = A^-1 / 2 or an iterate of the sign iteration overflows
        with pytest.raises(NumericError):
            solve_lyapunov(a)

    def test_iteration_cap_raises_numeric_error(self, monkeypatch):
        # a random 10 x 10 drift needs about 8 sign steps
        monkeypatch.setattr(linops, "_SIGN_MAX_ITERS", 2)
        with pytest.raises(NumericError, match="did not converge in 2 steps"):
            solve_lyapunov(random_stable_matrix(np.random.default_rng(0), 10))


def kronecker_lyapunov(a) -> np.ndarray:
    """The d^2 x d^2 Kronecker solve: an independent reference for small d."""
    m = as_square_matrix(a)
    d = m.shape[0]
    min_real_part = np.linalg.eigvals(m).real.min()
    if min_real_part <= 0.0:
        raise StabilityError(f"matrix is not stable: min eigenvalue real part {min_real_part:.6g} <= 0")
    eye = np.eye(d)
    # row-major vec: vec(A C + C A^T) = (A (x) I + I (x) A) vec(C)
    kron = np.kron(m, eye) + np.kron(eye, m)
    try:
        c = np.linalg.solve(kron, eye.reshape(-1)).reshape(d, d)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"singular Kronecker system in Lyapunov solve: {exc}") from exc
    return 0.5 * (c + c.T)


class TestBartelsStewartParity:
    def test_matches_kronecker_solve(self):
        rng = np.random.default_rng(1972)
        for _ in range(120):
            a = random_stable_matrix(rng, int(rng.integers(1, 31)))
            reference = kronecker_lyapunov(a)
            assert np.linalg.norm(solve_lyapunov(a) - reference) <= 1e-12 * np.linalg.norm(reference)

    @pytest.mark.parametrize("d", [60, 120, 200])
    def test_beyond_kronecker_reach(self, d):
        # the Kronecker system would take 8 d^4 bytes: 1.7 GB at d = 120, 12.8 GB at d = 200
        a = random_stable_matrix(np.random.default_rng(d), d)
        c = solve_lyapunov(a)
        assert np.linalg.norm(a @ c + c @ a.T - np.eye(d)) / d <= 1e-10
        assert np.array_equal(c, c.T)
        assert np.linalg.eigvalsh(c).min() > 0.0


# 1-norms inside each Pade degree's band (theta_3 = 0.015, theta_5 = 0.25, theta_7 = 0.95, theta_9 = 2.1,
# theta_13 = 5.37), then past theta_13, where expm scales by 2^-s and squares s times
EXPM_NORMS = {"degree 3": 0.01, "degree 5": 0.2, "degree 7": 0.9, "degree 9": 2.0, "degree 13": 5.0,
              "squaring": 20.0}
EXPM_RTOL = 1e-13  # relative Frobenius gap to scipy.linalg.expm; the largest measured here is 1.8e-14


def expm_gap(a) -> float:
    reference = scipy.linalg.expm(a)
    return np.linalg.norm(expm(a) - reference) / np.linalg.norm(reference)


class TestExpm:
    @pytest.mark.parametrize("band, norm", enumerate(EXPM_NORMS.values()), ids=EXPM_NORMS.keys())
    @pytest.mark.parametrize("d", [1, 10])
    def test_matches_scipy_in_every_branch(self, d, band, norm):
        # the sampler's argument -dt A, with A a stable generated truth, scaled to the band's 1-norm
        a = -generate_sparse_drift(d, max(1, round(0.2 * d)), 0).matrix
        a *= norm / np.linalg.norm(a, 1)
        assert sum(norm > theta for theta in _THETA.values()) == band
        assert expm_gap(a) <= EXPM_RTOL

    @pytest.mark.parametrize("d", [1, 4])
    def test_zero_matrix_gives_identity(self, d):
        assert np.array_equal(expm(np.zeros((d, d))), np.eye(d))

    def test_strongly_non_normal(self):
        # ||A||_1 = 501.5 takes the squaring branch; the off-diagonal dwarfs the eigenvalues -1 and -1.5
        assert expm_gap(np.array([[-1.0, 500.0], [0.0, -1.5]])) <= EXPM_RTOL
