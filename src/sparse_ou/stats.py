"""Sufficient statistics and the drift likelihood.

For a path X on [0, T] the negative log-likelihood of a drift candidate A
reduces to

    L(A) = <A, G> + 1/2 tr(A C A^T),

where C = (1/T) int X X^T dt is the empirical second-moment matrix and
G_ij = (1/T) int X^j dX^i collects the Ito cross-integrals.  On a discrete
grid both integrals are evaluated at the left endpoint: the Ito sum must
pair X_k with the increment X_{k+1} - X_k (a midpoint rule would bias the
drift estimate), and the Riemann sum for C uses the same convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .sim import Trajectory

__all__ = [
    "SufficientStats",
    "LambdaConfig",
    "sufficient_stats",
    "neg_log_likelihood",
    "grad_neg_log_likelihood",
    "theoretical_lambda",
]


@dataclass(frozen=True)
class SufficientStats:
    """Pair (C, G) plus the horizon T; everything the likelihood needs."""

    c_hat: np.ndarray
    g_hat: np.ndarray
    horizon: float

    @property
    def dim(self) -> int:
        return self.c_hat.shape[0]


@dataclass(frozen=True)
class LambdaConfig:
    """Constants (gamma, epsilon0) entering the theoretical penalty."""

    gamma: float = 2.0
    epsilon0: float = 0.1

    def __post_init__(self):
        if not self.gamma > 1:
            raise UsageError(f"gamma must be > 1, got {self.gamma}")
        if not 0 < self.epsilon0 < 1:
            raise UsageError(f"epsilon0 must be in (0, 1), got {self.epsilon0}")


def sufficient_stats(traj: Trajectory) -> SufficientStats:
    """Left-endpoint discretization of (C, G) from a sampled path."""
    x = traj.states[:-1]
    dx = np.diff(traj.states, axis=0)
    T = traj.horizon
    c = (x.T @ x) * (traj.dt / T)
    c = 0.5 * (c + c.T)
    g = (dx.T @ x) / T
    return SufficientStats(c_hat=c, g_hat=g, horizon=T)


def _spectrum_ends(m: np.ndarray) -> tuple[float, float]:
    """(max(lambda_min(M), 0), lambda_max(M)) of a symmetric M: rounding cannot make the floor negative."""
    ev = np.linalg.eigvalsh(m)
    return max(float(ev[0]), 0.0), float(ev[-1])


def _check_dims(a: np.ndarray, stats: SufficientStats) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.shape != stats.c_hat.shape:
        raise ValueError(f"drift shape {a.shape} does not match stats dim {stats.dim}")
    return a


def neg_log_likelihood(a, stats: SufficientStats, p=None) -> float:
    """<A, P G> + 1/2 tr(P A C A^T) without the A-free constant; P symmetric, I when ``p`` is None."""
    a = _check_dims(a, stats)
    pa = a if p is None else np.dot(p, a)
    return float(np.sum(pa * stats.g_hat) + 0.5 * np.sum(a.dot(stats.c_hat) * pa))


def grad_neg_log_likelihood(a, stats: SufficientStats) -> np.ndarray:
    """Gradient G + A C of the negative log-likelihood."""
    a = _check_dims(a, stats)
    return stats.g_hat + a @ stats.c_hat


def theoretical_lambda(stats: SufficientStats, cfg: LambdaConfig) -> float:
    """Theory-driven penalty gamma * sqrt(4e/T |diag C|_inf (x + log(2 + |log(T diag C)|_inf))).

    x = 1/2 log(2 pi^2 d^2 / (3 eps0)) > 0 as eps0 < 1; the inner log is entrywise, |.|_inf the largest entry.
    """
    diag = np.diag(stats.c_hat)
    if np.any(diag <= 0):
        raise ValueError("all diagonal entries of C must be strictly positive")
    d = stats.dim
    x = 0.5 * math.log(2.0 * math.pi**2 * d**2 / (3.0 * cfg.epsilon0))
    T = stats.horizon
    d_max = float(np.max(diag))
    log_term = math.log(2.0 + float(np.max(np.abs(np.log(T * diag)))))
    return cfg.gamma * math.sqrt(4.0 * math.e * d_max / T * (x + log_term))
