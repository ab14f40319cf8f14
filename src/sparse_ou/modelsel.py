"""Hold-out selection of the penalty level.

The first 80% of the path trains the estimator; the remaining 20% scores
it with its own negative log-likelihood.  The state at the split boundary
terminates the training integrals and initiates the validation
increments, mirroring how a continuous-time integral splits.

The Lasso, Adaptive Lasso and Sigma-aware fits follow one path: from the
largest penalty down, each fit warm-started at the previous one and the
first at zero or, with adaptive weights, at the training MLE.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .estimators import (
    Estimate,
    SolverOptions,
    _adaptive_start,
    _centered,
    _precision,
    _Problem,
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
    """The scored grid, the selected fit, and every fit of the path in grid order."""

    lambda_grid: np.ndarray
    validation_scores: np.ndarray
    best_lambda: float
    best_estimate: Estimate
    fits: tuple[Estimate, ...]


def default_lambda_grid(num: int = 40, low: float = 1e-2, high: float = 1e3) -> np.ndarray:
    """``num`` >= 1 log-spaced penalty levels from ``low`` to ``high``, finite and > 0; 40 from 1e-2 to 1e3 by default."""
    if not (num >= 1 and 0 < low < math.inf and 0 < high < math.inf):
        raise UsageError(f"a lambda grid needs num >= 1 and finite bounds > 0, got num={num}, low={low}, high={high}")
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
            stacklevel=4,
        )
    return CvResult(
        lambda_grid=grid,
        validation_scores=scores,
        best_lambda=float(grid[best_idx]),
        best_estimate=best,
        fits=tuple(fits),
    )


def _cross_validate(traj: Trajectory, p, gamma: float | None, grid, opts: SolverOptions | None) -> CvResult:
    """Hold-out selection with precision ``p`` (None: P = I) and adaptive weights when ``gamma`` is set."""
    grid = np.asarray(default_lambda_grid() if grid is None else grid, dtype=float)
    if grid.size == 0:
        raise ValueError("lambda grid must be non-empty")
    if not np.all(grid >= 0):
        raise ValueError("lambda grid entries must be >= 0")
    grid = np.sort(grid)
    train, valid = split_trajectory(traj)
    train_stats = sufficient_stats(train)
    valid_stats = sufficient_stats(valid)

    weights = warm = None
    if gamma is not None:
        # -G C^{-1} minimizes <A, P G> + 1/2 tr(P A C A^T) for every P > 0
        warm, weights, gamma = _adaptive_start(train_stats, gamma)
    problem = _Problem.of(train_stats.c_hat, train_stats.g_hat, p, weights, opts)

    fits: list[Estimate] = []
    for lam in grid[::-1]:
        fits.append(problem.fit(float(lam), init=warm, gamma=gamma))
        warm = fits[-1].matrix
    fits.reverse()
    return _select(grid, fits, [neg_log_likelihood(f.matrix, valid_stats, p) for f in fits])


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
    return _cross_validate(traj, None, float(gamma) if method == "adaptive_lasso" else None, grid, opts)


def cross_validate_sigma(
    traj: Trajectory,
    m,
    sigma,
    gamma: float | None = None,
    grid=None,
    opts: SolverOptions | None = None,
) -> CvResult:
    """Hold-out penalty selection for the Sigma-aware model.

    Centers the path at ``m`` and scores each candidate with the
    Sigma-weighted likelihood of the validation segment.  With ``gamma``
    set, weights come from the training-segment MLE as in the adaptive fit.
    Fits follow the warm-started path of :func:`cross_validate`; with
    Sigma = I and m = 0 the result matches it bit for bit.
    """
    return _cross_validate(_centered(traj, m), _precision(sigma, traj.dim), gamma, grid, opts)


def save_cv_json(path, result: CvResult) -> None:
    """The grid, scores, selected penalty and whether its fit is zero, with each fit's solver trace in grid order."""
    payload = {
        "lambda_grid": [float(x) for x in result.lambda_grid],
        "validation_scores": [float(x) for x in result.validation_scores],
        "best_lambda": result.best_lambda,
        "selected_zero": not result.best_estimate.matrix.any(),
        "iterations": [f.iterations for f in result.fits],
        "restarts": [f.restarts for f in result.fits],
        "kkt_residual": [f.kkt_residual for f in result.fits],
        "converged": [f.converged for f in result.fits],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
