"""Evaluation metrics and theory diagnostics.

Covers entrywise error norms (including the trajectory-weighted empirical
norm ||M X||_L^2 = tr(M C M^T)), precision/recall/F1 support scoring, the
rank-one deviation exponents H1/H2, the restricted-eigenvalue bracket
sqrt(lambda_min(C)) <= cone constant <= s-sparse minimum, and Monte Carlo
coverage of the empirical-norm oracle bound.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import UsageError
from .estimators import Estimate, SolverOptions, lasso
from .model import DriftMatrix, _check_sparsity
from .sim import DEFAULT_DT, derive_seed, sample_trajectory
from .stats import LambdaConfig, SufficientStats, _spectrum_ends, sufficient_stats, theoretical_lambda

__all__ = [
    "ErrorReport",
    "SupportReport",
    "error_report",
    "support_report",
    "deviation_bounds",
    "eigen_floor",
    "restricted_sparse_min",
    "oracle_bound",
    "oracle_coverage",
    "dense_baseline_f1",
]

ZERO_TOL = 1e-10
MAX_ENUMERATION_DIM = 12  # largest d for which restricted_sparse_min enumerates every support


@dataclass(frozen=True)
class ErrorReport:
    l1: float
    frobenius: float
    empirical: float


@dataclass(frozen=True)
class SupportReport:
    true_positives: int
    false_positives: int
    false_negatives: int
    precision: float
    recall: float
    f1: float


def error_report(estimate, truth: DriftMatrix, stats: SufficientStats | None) -> ErrorReport:
    """Entrywise l1/Frobenius errors plus the empirical norm of the gap.

    The empirical norm tr(M C M^T) needs the path's C; it is NaN when ``stats`` is None.
    """
    if np.shape(estimate) != truth.matrix.shape:
        raise ValueError(f"estimate has shape {np.shape(estimate)}, the truth {truth.matrix.shape}")
    delta = np.asarray(estimate, dtype=float) - truth.matrix
    empirical = math.nan
    if stats is not None:
        empirical = math.sqrt(max(float(np.sum((delta @ stats.c_hat) * delta)), 0.0))
    return ErrorReport(
        l1=float(np.sum(np.abs(delta))),
        frobenius=float(np.sqrt(np.sum(delta**2))),
        empirical=empirical,
    )


def support_report(estimate, truth: DriftMatrix) -> SupportReport:
    """Score detected non-zeros against the true support.

    Entries with magnitude above ``ZERO_TOL`` count as detections.  When
    there are no detections (or no true positives) the undefined
    precision/recall are reported as 0, hence F1 = 0.
    """
    if np.shape(estimate) != truth.matrix.shape:
        raise ValueError(f"estimate has shape {np.shape(estimate)}, the truth {truth.matrix.shape}")
    detected = np.abs(np.asarray(estimate, dtype=float)) > ZERO_TOL
    true_supp = truth.matrix != 0.0
    tp = int(np.sum(detected & true_supp))
    fp = int(np.sum(detected & ~true_supp))
    fn = int(np.sum(~detected & true_supp))
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return SupportReport(
        true_positives=tp,
        false_positives=fp,
        false_negatives=fn,
        precision=precision,
        recall=recall,
        f1=f1,
    )


def dense_baseline_f1(density: float) -> float:
    """F1 of an estimator that declares every entry non-zero: 2 rho / (1 + rho)."""
    if not 0 <= density <= 1:
        raise ValueError(f"density must be in [0, 1], got {density}")
    return 2.0 * density / (1.0 + density)


def deviation_bounds(R: float, u, c_inf) -> tuple[float, float]:
    """Exponents (H1, H2) governing upper/lower deviations of u^T C_hat u.

    With r = R / (u^T C u) and the rank-one identity
    det(I + x y^T) = 1 + y^T x these reduce to

        H1(R) = (r - log(1 + r)) / 8
        H2(R) = -(r + log(1 - r)) / 8   for r < 1, +inf otherwise.
    """
    if not R > 0:
        raise UsageError(f"R must be > 0, got {R}")
    u = np.asarray(u, dtype=float)
    c = np.asarray(c_inf, dtype=float)
    if u.shape != c.shape[:1] or not 0 < np.linalg.norm(u) <= 1.0 + 1e-12:
        raise UsageError(f"u must be a nonzero vector of length {c.shape[0]} with ||u||_2 <= 1, got {u.tolist()}")
    quad = float(u @ c @ u)
    if quad <= 0:
        raise ValueError("u^T C u must be > 0 (C SPD and u != 0)")
    r = R / quad
    h1 = (r - math.log1p(r)) / 8.0
    h2 = math.inf if r >= 1.0 else -(r + math.log1p(-r)) / 8.0
    return h1, h2


def eigen_floor(stats: SufficientStats) -> float:
    """sqrt(lambda_min(C)): a certified lower bound of ||u^T X||_L / ||u||_2 on every cone, at every s.

    lambda_min(C) concentrates for the OU process, so no restricted-eigenvalue condition is needed.
    """
    return math.sqrt(_spectrum_ends(stats.c_hat)[0])


def restricted_sparse_min(stats: SufficientStats, s: int) -> float:
    """Exact min of ||u^T X||_L over s-sparse unit vectors (enumerates supports).

    Exponential in d; restricted to d <= MAX_ENUMERATION_DIM where full enumeration is cheap.
    It bounds the cone constant at this s from above for every c0; :func:`eigen_floor` bounds it from below.
    """
    d = stats.dim
    if d > MAX_ENUMERATION_DIM:
        raise ValueError(f"exact enumeration limited to d <= {MAX_ENUMERATION_DIM}, got d={d}")
    _check_sparsity(s, d)
    c = stats.c_hat
    best = math.inf
    for support in combinations(range(d), s):
        idx = np.asarray(support)
        sub = c[np.ix_(idx, idx)]
        best = min(best, float(np.linalg.eigvalsh(sub)[0]))
    return math.sqrt(max(best, 0.0))


def oracle_bound(truth: DriftMatrix, lam: float, gamma: float) -> float:
    """Empirical-norm oracle bound (1 + gamma) / (gamma kappa) * lambda * sqrt(d s).

    kappa = sqrt(sigma_min(C_inf) / 2), with C_inf the truth's stationary
    covariance, and s = max_i ||A_i||_0 the truth's row sparsity, its densest row.
    """
    kappa = math.sqrt(float(np.linalg.eigvalsh(truth.stationary_cov)[0]) / 2.0)
    s = int(np.count_nonzero(truth.matrix, axis=1).max())
    return (1.0 + gamma) / (gamma * kappa) * lam * math.sqrt(truth.dim * s)


def _oracle_step(truth: DriftMatrix, stats: SufficientStats, cfg: LambdaConfig,
                 opts: SolverOptions | None = None) -> tuple[Estimate, bool, float]:
    """One path's coverage check: the theory-penalty Lasso, whether it meets :func:`oracle_bound`, and error / bound."""
    lam = theoretical_lambda(stats, cfg)
    fit = lasso(stats, lam, opts=opts)
    err, bound = error_report(fit.matrix, truth, stats).empirical, oracle_bound(truth, lam, cfg.gamma)
    return fit, err <= bound, err / bound


def oracle_coverage(
    truth: DriftMatrix,
    T: float,
    reps: int,
    cfg: LambdaConfig,
    seed: int,
    dt: float = DEFAULT_DT,
) -> float:
    """Fraction of runs in which the empirical-norm bound holds at the theory penalty.

    Replication r samples a path from ``derive_seed(seed, r)``, fits the
    l1-penalized estimator at the theoretical penalty with the default
    :class:`SolverOptions`, and tests

        ||(A_hat - A0) X||_L <= (1 + gamma) / (gamma kappa) * lambda_T sqrt(d s)

    with d = ``truth.dim``, and s (the truth's row sparsity) and kappa as in
    :func:`oracle_bound`.  The guarantee is proved for symmetric truths; a
    non-symmetric input triggers a warning but runs.
    """
    if reps < 1:
        raise UsageError(f"reps must be >= 1, got {reps}")
    if not np.allclose(truth.matrix, truth.matrix.T, atol=1e-12):
        warnings.warn("oracle coverage guarantee is proved for symmetric drifts only")
    paths = (sample_trajectory(truth, T, dt, derive_seed(seed, rep)) for rep in range(reps))
    return sum(_oracle_step(truth, sufficient_stats(path), cfg)[1] for path in paths) / reps
