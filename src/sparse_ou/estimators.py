"""Drift estimators: MLE, Lasso and Adaptive Lasso via proximal gradient.

Every penalized fit solves one P-preconditioned problem

    min_A  <A, P G> + 1/2 tr(P A C A^T) + lam * sum_ij W_ij |A_ij|,

with P = (Sigma Sigma^T)^{-1} for the Sigma-aware model and P = I for the
(Adaptive) Lasso.  It is strictly convex whenever C and P are positive
definite, so every solver run converges to the same minimizer regardless of
initialization.  The smooth gradient P G + P A C has Lipschitz constant
L = ||P||_op ||C||_op, which fixes the step size, and the objective is
sigma-strongly convex with sigma = lambda_min(C) lambda_min(P).  Iterates are
FISTA steps, soft-thresholded gradient steps with momentum, capped at V-FISTA's
(sqrt(L) - sqrt(sigma)) / (sqrt(L) + sqrt(sigma)) (Beck 2017, sec. 10.7.7), and
function-value restarts until the momentum reaches the cap; from then on the
steps converge linearly and compute no objective.  With sigma = 0 the cap is 1
and never binds.  :class:`_Problem` computes the step, the cap, the weights,
P G, the KKT scale and the gradient-point map once per path, not once per
penalty.  Its loop carries v = A - step P A C, the accepted iterate's gradient
point less its constant -step P G, which moves into the shrink bounds.  A
capped step takes v from one product, A (I - step C) when P = I, and six array
passes; a step below the cap takes it from its objective's P A C.  The exact
gradient P G + P A C is formed only for the KKT sweeps and the objective.

A fit is declared converged when the KKT residual certifies optimality at
the scale 10 * rel_tol * ||P G||_inf; the residual is reported on every
estimate either way.  After a failed certificate the loop keeps its most
violating entry as a witness and sweeps the full residual again only once
that one entry no longer violates, and always on the last step.  The gate
reads that entry's gradient from the gradient point, as (a_k - v_k) / step +
(P G)_k; it only decides whether to sweep.  The flag, the residual and the
final objective of an estimate all come from its last sweep.
"""

from __future__ import annotations

import json
import math
from dataclasses import InitVar, dataclass

import numpy as np

from .errors import ConditioningError, UsageError
from .sim import Trajectory
from .stats import SufficientStats, _spectrum_ends, grad_neg_log_likelihood, neg_log_likelihood

__all__ = [
    "SolverOptions",
    "Estimate",
    "mle",
    "lasso",
    "adaptive_lasso",
    "save_estimate_json",
]

MAX_CONDITION = 1e12
WEIGHT_CAP = 1e12


@dataclass(frozen=True)
class SolverOptions:
    """FISTA's budget and tolerance; ``acceleration`` is accepted, as True only, for callers that still pass it."""

    max_iters: int = 10000
    rel_tol: float = 1e-7
    # kept only because bench/harness.py passes acceleration=True
    acceleration: InitVar[bool] = True

    def __post_init__(self, acceleration):
        if self.max_iters < 1:
            raise UsageError(f"max_iters must be >= 1, got {self.max_iters}")
        if not 0 < self.rel_tol < math.inf:
            raise UsageError(f"rel_tol must be > 0 and finite, got {self.rel_tol}")
        if acceleration is not True:
            raise ValueError(f"acceleration must be True, got {acceleration!r}")


@dataclass(frozen=True)
class Estimate:
    """A fitted drift matrix with solver diagnostics."""

    matrix: np.ndarray
    lam: float
    iterations: int
    final_objective: float
    kkt_residual: float
    converged: bool
    gamma: float | None = None
    restarts: int = 0


def _shrink(z, hi, lo, buf) -> np.ndarray:
    """z - clip(z, lo, hi), exact zeros within the bounds; ``buf`` (z's shape) is overwritten.

    With hi = th - s and lo = -th - s it is sign(x) * max(|x| - th, 0) at x = z + s,
    up to rounding and the sign of a zero.
    """
    np.minimum(z, hi, out=buf)
    np.maximum(buf, lo, out=buf)
    return z - buf


def mle(stats: SufficientStats) -> Estimate:
    """Unpenalized maximizer -G C^{-1}, computed by a linear solve."""
    c, g = stats.c_hat, stats.g_hat
    cond = float(np.linalg.cond(c))
    if not np.isfinite(cond) or cond > MAX_CONDITION:
        raise ConditioningError(
            f"empirical covariance too ill-conditioned for the MLE: cond = {cond:.3e}"
        )
    # A C = -G with C symmetric
    a = -np.linalg.solve(c, g.T).T
    return Estimate(
        matrix=a,
        lam=0.0,
        iterations=0,
        final_objective=neg_log_likelihood(a, stats),
        kkt_residual=float(np.max(np.abs(grad_neg_log_likelihood(a, stats)))),
        converged=True,
    )


def _validated_weights(weights, d: int) -> np.ndarray:
    if weights is None:
        return np.ones((d, d))
    w = np.asarray(weights, dtype=float)
    if w.shape != (d, d):
        raise ValueError(f"weights must have shape ({d}, {d}), got {w.shape}")
    if np.any(~np.isfinite(w)) or np.any(w <= 0):
        raise ValueError("weights must be entrywise finite and > 0")
    return w


def _adaptive_gamma(gamma: float) -> float:
    """The adaptive weight exponent as a float; UsageError unless it is finite and >= 0."""
    if not 0 <= gamma < math.inf:
        raise UsageError(f"gamma must be >= 0 and finite, got {gamma}")
    return float(gamma)


def _adaptive_start(stats: SufficientStats, gamma: float) -> tuple[np.ndarray, np.ndarray, float]:
    """The adaptive warm start A_mle, weights 1 / |A_mle|^gamma capped at WEIGHT_CAP, and float(gamma)."""
    gamma = _adaptive_gamma(gamma)
    a_mle = mle(stats).matrix
    with np.errstate(divide="ignore"):
        weights = np.minimum(np.abs(a_mle) ** (-gamma), WEIGHT_CAP)
    return a_mle, weights, gamma


def _quad(a: np.ndarray, c: np.ndarray, p: np.ndarray | None) -> np.ndarray:
    """P A C, or A C when there is no preconditioner."""
    ac = a.dot(c)
    return ac if p is None else p.dot(ac)


@dataclass(frozen=True)
class _Problem:
    """The penalty-independent part of one path's fits, built once per path.

    ``beta``, the momentum cap, takes sigma = max(lambda_min(C), 0) lambda_min(P).
    A capped step of :meth:`fit` computes one product, A m with ``m`` = I - step C,
    or A + m (A C) with ``m`` = -step P: A's gradient point less ``spg`` = -step P G.
    A P equal to I is stored as None, so Sigma = I runs the Lasso's arithmetic.
    """

    c: np.ndarray
    pg: np.ndarray
    p: np.ndarray | None
    w: np.ndarray
    step: float
    beta: float
    kkt_tol: float
    opts: SolverOptions
    m: np.ndarray
    spg: np.ndarray

    @classmethod
    def of(cls, c, g, p, weights, opts: SolverOptions | None) -> "_Problem":
        opts = opts or SolverOptions()
        d = c.shape[0]
        w = _validated_weights(weights, d)
        p = None if p is not None and np.array_equal(p, np.eye(d)) else p
        sigma, lips = _spectrum_ends(c)
        if p is not None:
            p_min, p_max = _spectrum_ends(p)
            sigma, lips = sigma * p_min, p_max * lips
        step = 1.0 / lips if lips > 0 else 1.0
        root = math.sqrt(sigma * step)  # sqrt(sigma / L); sigma = 0 when L = 0
        beta = (1.0 - root) / (1.0 + root)
        pg = g if p is None else p.dot(g)
        kkt_scale = float(np.max(np.abs(pg)))
        kkt_tol = 10.0 * opts.rel_tol * kkt_scale if kkt_scale > 0 else opts.rel_tol
        m = np.eye(d) - step * c if p is None else -step * p
        return cls(c, pg, p, w, step, beta, kkt_tol, opts, m, -step * pg)

    def _point(self, a) -> np.ndarray:
        """A - step P A C, the gradient point of A less its constant ``spg``."""
        return a.dot(self.m) if self.p is None else a + self.m.dot(a.dot(self.c))

    def _objective(self, a, q, lamw, buf) -> float:
        """<A, P G> + 1/2 tr(P A C A^T) + lam ||W o A||_1, given q = P A C; ``buf`` is overwritten."""
        return float(np.vdot(a, self.pg) + 0.5 * np.vdot(a, q) + np.vdot(lamw, np.abs(a, out=buf)))

    def _entry_residual(self, a, v, lamw, k: int) -> float:
        """Entry k of :func:`_kkt_residual`'s buffer, its gradient read from the gradient point: (a_k - v_k) / step + (P G)_k."""
        ak, lk = a.item(k), lamw.item(k)
        gk = (ak - v.item(k)) / self.step + self.pg.item(k)
        if ak == 0.0:
            return abs(gk) - lk
        return abs(gk + lk) if ak > 0.0 else abs(gk - lk)

    def fit(self, lam: float, init=None, gamma: float | None = None) -> Estimate:
        """Proximal-gradient solve at penalty ``lam`` from ``init`` (zero when None).

        The loop carries v, the accepted iterate's gradient point less ``spg``.  A
        step soft-thresholds z + spg, z = v_new + beta (v_new - v), which is
        y - step (P G + P y C) at y = A_new + beta (A_new - A), with beta =
        min((t - 1) / t_new, self.beta).  Below the cap, v_new = A_new - step q
        reuses the objective's q = P A_new C, and a step that raises the
        objective restarts: it soft-thresholds v + spg instead and resets t.

        Every step tests the KKT residual of P G + P A C, swept in full only when
        the witness, the most violating entry of the last failed sweep, is within
        ``kkt_tol`` as read from v; the last step always sweeps, and the estimate reads that sweep.
        """
        if not 0 <= lam < math.inf:
            raise UsageError(f"lambda must be >= 0 and finite, got {lam}")
        opts, step, cap = self.opts, self.step, self.beta
        lamw = lam * self.w
        thresholds = step * lam * self.w
        # bounds on z for the shrink of z + spg: exact zeros stay exact zeros
        hi, lo = thresholds - self.spg, -thresholds - self.spg
        buf = np.empty_like(self.c)

        a = np.zeros_like(self.c) if init is None else np.array(init, dtype=float)
        q = _quad(a, self.c, self.p)
        f_cur = self._objective(a, q, lamw, buf)
        z = v = a - step * q
        t, beta, restarts, witness = 1.0, 0.0, 0, None
        for it in range(1, opts.max_iters + 1):
            a = _shrink(z, hi, lo, buf)
            if beta < cap:
                q = _quad(a, self.c, self.p)
                f_new = self._objective(a, q, lamw, buf)
                if f_new > f_cur:
                    # momentum overshot: restart from the last accepted iterate
                    t = 1.0
                    restarts += 1
                    a = _shrink(v, hi, lo, buf)
                    q = _quad(a, self.c, self.p)
                    f_new = self._objective(a, q, lamw, buf)
                f_cur = f_new
                v_new = a - step * q  # the objective's P A C gives the gradient point
            else:
                v_new = self._point(a)
            t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            beta = min((t - 1.0) / t_new, cap)
            z = v_new - v
            z *= beta
            z += v_new
            t = t_new
            v = v_new
            # the witness entry bounds the maximum from below: above kkt_tol, a sweep would not pass
            if it < opts.max_iters and witness is not None and self._entry_residual(a, v, lamw, witness) > self.kkt_tol:
                continue
            q = _quad(a, self.c, self.p)
            kkt = _kkt_residual(a, self.pg + q, lamw, buf)
            if kkt <= self.kkt_tol:
                break
            witness = int(np.argmax(buf))
        return Estimate(
            matrix=a,
            lam=float(lam),
            iterations=it,
            final_objective=self._objective(a, q, lamw, buf),
            kkt_residual=kkt,
            converged=kkt <= self.kkt_tol,
            gamma=gamma,
            restarts=restarts,
        )


def _kkt_residual(a, g, lamw, buf) -> float:
    """Max violation of the subgradient optimality conditions at A with gradient g.

    Entrywise |g + lam W sign(A)| where A != 0 and max(|g| - lam W, 0) where
    A == 0; ``buf`` is overwritten.
    """
    np.sign(a, out=buf)
    buf *= lamw
    buf += g
    np.abs(buf, out=buf)
    np.putmask(buf, a == 0.0, np.abs(g) - lamw)
    return max(float(np.maximum.reduce(buf, axis=None)), 0.0)


def lasso(
    stats: SufficientStats,
    lam: float,
    weights=None,
    opts: SolverOptions | None = None,
) -> Estimate:
    """Weighted l1-penalized likelihood fit by proximal gradient.

    Parameters
    ----------
    stats : SufficientStats
        Empirical (C, G) of the observed path.
    lam : float
        Penalty level, >= 0.  At 0 the fit coincides with the MLE.
    weights : array or None
        Entrywise positive penalty weights W (all ones when None).
    opts : SolverOptions or None
        Iteration budget and tolerance; None means ``SolverOptions()``, FISTA with restarts.
        The last step always sweeps the KKT residual, so ``converged`` reads ``kkt_residual``.
    """
    return _Problem.of(stats.c_hat, stats.g_hat, None, weights, opts).fit(lam)


def adaptive_lasso(
    stats: SufficientStats,
    lam: float,
    gamma: float = 1.0,
    opts: SolverOptions | None = None,
) -> Estimate:
    """Lasso with data-driven weights 1 / |A_mle|^gamma.

    Large MLE entries are penalized weakly and near-zero ones strongly,
    which is what makes the support selection consistent.  Weights are
    capped at 1e12 so that an exactly-zero MLE entry cannot produce an
    infinite threshold; the cap exceeds any penalty of practical interest.
    Starts from the MLE (a warm start, not a requirement).
    """
    a_mle, weights, gamma = _adaptive_start(stats, gamma)
    return _Problem.of(stats.c_hat, stats.g_hat, None, weights, opts).fit(lam, init=a_mle, gamma=gamma)


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


def save_estimate_json(path, estimate: Estimate, extra: dict | None = None) -> None:
    payload = {
        "dim": estimate.matrix.shape[0],
        "matrix": [float(x) for x in estimate.matrix.reshape(-1)],
        "lambda": estimate.lam,
        "gamma": estimate.gamma,
        "iterations": estimate.iterations,
        "final_objective": estimate.final_objective,
        "kkt_residual": estimate.kkt_residual,
        "converged": estimate.converged,
        "support": np.argwhere(np.abs(estimate.matrix) > 0).tolist(),
    }
    if extra:
        payload.update(extra)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
