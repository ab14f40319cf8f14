import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad_vec

from sparse_ou import StabilityError, solve_lyapunov
from sparse_ou.errors import NumericError
from sparse_ou.linops import as_square_matrix

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
        # stable, but C = A^-1 / 2 overflows or trsyl must perturb the equation to solve it
        with pytest.raises(NumericError):
            solve_lyapunov(a)


def kronecker_lyapunov(a) -> np.ndarray:
    """The d^2 x d^2 Kronecker solve that Bartels-Stewart replaced."""
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
