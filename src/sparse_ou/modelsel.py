"""Hold-out selection of the penalty level.

The first 80% of the path trains the estimator; the remaining 20% scores
it with its own negative log-likelihood.  The state at the split boundary
terminates the training integrals and initiates the validation
increments, mirroring how a continuous-time integral splits.

Selection runs on given statistics: :func:`_hold_out` runs the one warm-started
path of the Lasso, Adaptive Lasso and Sigma-aware fits, ``estimators._path``, on
the training statistics and scores it on the validation ones; the public
routines add only the split and its two ``sufficient_stats`` calls, and the
Sigma-aware one its set-up, :func:`_centered` and :func:`_precision`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .estimators import MAX_CONDITION, Estimate, SolverOptions, _path
from .sim import Trajectory
from .stats import SufficientStats, neg_log_likelihood, sufficient_stats

__all__ = [
    "CvResult",
    "default_lambda_grid",
    "split_trajectory",
    "cross_validate",
    "cross_validate_sigma",
]

METHODS = ("lasso", "adaptive_lasso")
TRAIN_FRACTION = 0.8


@dataclass(frozen=True)
class CvResult:
    """The validation scores, the selected fit, and every fit of the path in grid order; each fit holds its ``lam``."""

    validation_scores: np.ndarray
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


def _select(fits: list[Estimate], scores, stacklevel: int) -> CvResult:
    """The fit with the lowest validation score; ties go to the smallest penalty; a RuntimeWarning if it did not converge."""
    scores = np.asarray(scores)
    if not np.all(np.isfinite(scores)):
        raise ValueError("validation score is non-finite; data is degenerate")
    best_idx = int(np.argmin(scores))  # first minimum = smallest lambda on ties
    best = fits[best_idx]
    if not best.converged:
        warnings.warn(
            f"selected fit at lambda={best.lam:.6g} did not converge: "
            f"{best.iterations} iterations, KKT residual {best.kkt_residual:.3g}",
            RuntimeWarning,
            stacklevel=stacklevel,
        )
    return CvResult(validation_scores=scores, best_estimate=best, fits=tuple(fits))


def _grid(grid) -> np.ndarray:
    """``grid`` (None: the default) as a sorted float array; ValueError if it is empty or has an entry < 0."""
    grid = np.asarray(default_lambda_grid() if grid is None else grid, dtype=float)
    if grid.size == 0:
        raise ValueError("lambda grid must be non-empty")
    if not np.all(grid >= 0):
        raise ValueError("lambda grid entries must be >= 0")
    return np.sort(grid)


def _hold_out(grid: np.ndarray, train: SufficientStats, valid: SufficientStats, p, gamma, opts, stacklevel=4) -> CvResult:
    """The path on ``train`` at the sorted ``grid``, scored by the likelihood of ``valid``, both with precision ``p``.

    Selecting a fit that did not converge warns ``stacklevel`` frames up, by default at the public routine's caller.
    """
    fits = _path(train, p, gamma, grid, opts)
    return _select(fits, [neg_log_likelihood(f.matrix, valid, p) for f in fits], stacklevel)


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
    gamma = float(gamma) if method == "adaptive_lasso" else None
    return _hold_out(_grid(grid), *map(sufficient_stats, split_trajectory(traj)), None, gamma, opts)


def _precision(sigma, d: int) -> np.ndarray:
    """P = (Sigma Sigma^T)^{-1}, symmetrized; rejects a wrongly shaped or singular Sigma."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (d, d):
        raise ValueError(f"sigma must have shape ({d}, {d}), got {sigma.shape}")
    s = sigma @ sigma.T
    if np.linalg.cond(s) > MAX_CONDITION:
        raise ValueError("sigma is singular or numerically non-invertible")
    p = np.linalg.solve(s, np.eye(d))
    return 0.5 * (p + p.T)


def _centered(traj: Trajectory, m) -> Trajectory:
    """The path shifted by -m; rejects a wrongly shaped m."""
    m = np.asarray(m, dtype=float)
    if m.shape != (traj.dim,):
        raise ValueError(f"m must have shape ({traj.dim},), got {m.shape}")
    return Trajectory(dt=traj.dt, states=traj.states - m)


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
    traj, p = _centered(traj, m), _precision(sigma, traj.dim)
    return _hold_out(_grid(grid), *map(sufficient_stats, split_trajectory(traj)), p, gamma, opts)
