import numpy as np
import pytest

from sparse_ou import Trajectory, make_drift, sufficient_stats
from sparse_ou.sim import sample_trajectory


def random_stable_matrix(rng: np.random.Generator, d: int, margin: float = 0.3) -> np.ndarray:
    """Random matrix shifted so every eigenvalue real part exceeds ``margin``."""
    a = rng.normal(size=(d, d))
    shift = -min(np.linalg.eigvals(a).real.min(), 0.0) + margin
    return a + shift * np.eye(d)


def random_stats(rng: np.random.Generator, d: int):
    """Well-conditioned sufficient statistics from a short simulated path."""
    drift = make_drift(random_stable_matrix(rng, d))
    traj = sample_trajectory(drift, T=20.0, dt=0.02, seed=int(rng.integers(2**31)))
    return sufficient_stats(traj)


def random_problem(seed: int, d: int, preconditioned: bool, weighted: bool):
    """Random (C, G), an SPD P or None, positive weights or None, and a warm start near the MLE."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(d, 3 * d))
    c = x @ x.T / (3 * d) + 0.05 * np.eye(d)
    c = 0.5 * (c + c.T)
    truth = rng.normal(size=(d, d)) * (rng.random((d, d)) < 0.4) + np.eye(d)
    g = -truth @ c + 0.3 * rng.normal(size=(d, d))
    p = None
    if preconditioned:
        s = rng.normal(size=(d, d))
        p = s @ s.T / d + 0.2 * np.eye(d)
        p = 0.5 * (p + p.T)
    weights = rng.uniform(0.2, 3.0, size=(d, d)) if weighted else None
    warm = -np.linalg.solve(c, g.T).T + 0.1 * rng.normal(size=(d, d))
    return c, g, p, weights, warm


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
