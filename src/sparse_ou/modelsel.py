"""Hold-out selection of the penalty level.

The first 80% of the path trains the estimator; the remaining 20% scores
it with its own negative log-likelihood.  The state at the split boundary
terminates the training integrals and initiates the validation
increments, mirroring how a continuous-time integral splits.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .estimators import (
    Estimate,
    SolverOptions,
    _adaptive_weights,
    _centered,
    _precision,
    _Problem,
    mle,
)
from .sim import Trajectory
from .stats import neg_log_likelihood, sufficient_stats

__all__ = [
    "CvResult",
    "default_lambda_grid",
    "split_trajectory",
    "cross_validate",
    "cross_validate_sigma",
    "save_cv_json",
]

METHODS = ("lasso", "adaptive_lasso")
TRAIN_FRACTION = 0.8


@dataclass(frozen=True)
class CvResult:
    lambda_grid: np.ndarray
    validation_scores: np.ndarray
    best_lambda: float
    best_estimate: Estimate


def default_lambda_grid(num: int = 40, low: float = 1e-2, high: float = 1e3) -> np.ndarray:
    """``num`` log-spaced penalty levels from ``low`` to ``high``, 40 from 1e-2 to 1e3 by default."""
    return np.logspace(math.log10(low), math.log10(high), num)


def split_trajectory(traj: Trajectory) -> tuple[Trajectory, Trajectory]:
    """Split at step index floor(0.8 n); the boundary state is shared."""
    n = traj.n_steps
    k = int(math.floor(TRAIN_FRACTION * n))
    if k < 1 or n - k < 1:
        raise ValueError(f"trajectory too short to split: {n} steps")
    train = Trajectory(dt=traj.dt, states=traj.states[: k + 1])
    valid = Trajectory(dt=traj.dt, states=traj.states[k:])
    return train, valid


def _validate_grid(grid) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("lambda grid must be non-empty")
    if np.any(grid < 0):
        raise ValueError("lambda grid entries must be >= 0")
    return np.sort(grid)


def _select(grid: np.ndarray, fits: list[Estimate], scores) -> CvResult:
    """The fit with the lowest validation score; ties go to the smallest penalty.

    Selecting a fit that did not converge raises a RuntimeWarning.
    """
    scores = np.asarray(scores)
    if not np.all(np.isfinite(scores)):
        raise ValueError("validation score is non-finite; data is degenerate")
    best_idx = int(np.argmin(scores))  # first minimum = smallest lambda on ties
    best = fits[best_idx]
    if not best.converged:
        warnings.warn(
            f"selected fit at lambda={float(grid[best_idx]):.6g} did not converge: "
            f"{best.iterations} iterations, KKT residual {best.kkt_residual:.3g}",
            RuntimeWarning,
            stacklevel=3,
        )
    return CvResult(
        lambda_grid=grid,
        validation_scores=scores,
        best_lambda=float(grid[best_idx]),
        best_estimate=best,
    )


def cross_validate(
    traj: Trajectory,
    method: str,
    gamma: float = 1.0,
    grid=None,
    opts: SolverOptions | None = None,
) -> CvResult:
    """Fit each grid point on the training segment, score on the held-out one.

    Fits run from the largest penalty down, warm-starting each solve at the
    previous solution.  Ties in the validation score resolve to the
    smallest penalty.  Deterministic: no randomness enters anywhere.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    grid = _validate_grid(default_lambda_grid() if grid is None else grid)
    train, valid = split_trajectory(traj)
    train_stats = sufficient_stats(train)
    valid_stats = sufficient_stats(valid)

    weights = warm = fit_gamma = None
    if method == "adaptive_lasso":
        warm = mle(train_stats).matrix
        weights = _adaptive_weights(warm, gamma)
        fit_gamma = float(gamma)
    problem = _Problem.of(train_stats.c_hat, train_stats.g_hat, None, weights, opts)

    fits: list[Estimate] = []
    for lam in grid[::-1]:
        fits.append(problem.fit(float(lam), init=warm, gamma=fit_gamma))
        warm = fits[-1].matrix
    fits.reverse()
    return _select(grid, fits, [neg_log_likelihood(f.matrix, valid_stats) for f in fits])


def cross_validate_sigma(
    traj: Trajectory,
    m,
    sigma,
    gamma: float | None = None,
    grid=None,
    opts: SolverOptions | None = None,
) -> CvResult:
    """Hold-out penalty selection for the Sigma-aware model.

    Scores each candidate with the Sigma-weighted likelihood of the
    validation segment.  With ``gamma`` set, weights come from the
    training-segment MLE as in the adaptive fit.  Every fit starts cold,
    from zero, as :func:`fit_sigma_model` does.
    """
    grid = _validate_grid(default_lambda_grid() if grid is None else grid)
    centered = _centered(traj, m)
    p = _precision(sigma, traj.dim)
    train, valid = split_trajectory(centered)
    train_stats = sufficient_stats(train)
    valid_stats = sufficient_stats(valid)

    weights = None if gamma is None else _adaptive_weights(mle(train_stats).matrix, gamma)
    problem = _Problem.of(train_stats.c_hat, train_stats.g_hat, p, weights, opts)
    fits = [problem.fit(float(lam)) for lam in grid[::-1]][::-1]

    # <A, P G> + 1/2 tr(P A C A^T) on the validation statistics, P symmetric
    scores = [np.vdot(p @ f.matrix, valid_stats.g_hat + 0.5 * f.matrix @ valid_stats.c_hat) for f in fits]
    return _select(grid, fits, scores)


def save_cv_json(path, result: CvResult) -> None:
    payload = {
        "lambda_grid": [float(x) for x in result.lambda_grid],
        "validation_scores": [float(x) for x in result.validation_scores],
        "best_lambda": result.best_lambda,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
