"""Parity of the fused proximal-gradient kernel with a closure-based loop.

``reference_fit`` below is the earlier solver's form, one ``_prox_gradient``
loop driven by ``smooth_grad``/``smooth_value`` closures, set up as ``lasso``
(P = I) and the Sigma-aware fit (P given) set it up, with the kernel's step
rule: momentum capped at the strong-convexity value, restarts only below the
cap, and a stop on the KKT certificate alone.  The kernel evaluates the same
steps with the gradient point A (I - step C), or A - step P A C, carried
between uses, so iteration counts and the converged flag must match exactly
and the iterates to rounding.
"""

import math

import numpy as np
import pytest

from sparse_ou import (
    SolverOptions,
    SufficientStats,
    adaptive_lasso,
    cross_validate,
    cross_validate_sigma,
    generate_shifted_antisymmetric,
    lasso,
    mle,
    sample_trajectory,
    sufficient_stats,
)
from sparse_ou.estimators import WEIGHT_CAP, _precision, _Problem, _shrink
from sparse_ou.modelsel import split_trajectory
from sparse_ou.sim import Trajectory

from conftest import random_problem

# -- reference: the closure-based loop, verbatim -------------------------------


def soft_threshold(m, thresholds) -> np.ndarray:
    """The loop's prox: ``_shrink`` called as the library's former public wrapper called it."""
    m = np.asarray(m, dtype=float)
    th = np.broadcast_to(np.asarray(thresholds, dtype=float), m.shape)
    return _shrink(m, th, -th, np.empty_like(m))


def _kkt_residual(a: np.ndarray, grad: np.ndarray, lam: float, w: np.ndarray) -> float:
    """Max violation of the subgradient optimality conditions."""
    zero = a == 0.0
    viol = np.abs(grad + lam * w * np.sign(a))
    viol[zero] = np.maximum(np.abs(grad[zero]) - lam * w[zero], 0.0)
    return float(viol.max())


def _prox_gradient(smooth_grad, smooth_value, lam, w, step, beta_cap, opts, init, kkt_scale):
    """Shared proximal-gradient loop; returns (matrix, iters, f, kkt, converged)."""

    def value(a):
        return smooth_value(a) + lam * float(np.sum(w * np.abs(a)))

    a = init.copy()
    f_cur = value(a)
    kkt_tol = 10.0 * opts.rel_tol * kkt_scale if kkt_scale > 0 else opts.rel_tol
    thresholds = step * lam * w
    y = a
    t = 1.0
    beta = 0.0
    converged = False
    iterations = 0
    for it in range(1, opts.max_iters + 1):
        a_new = soft_threshold(y - step * smooth_grad(y), thresholds)
        if beta < beta_cap:
            f_new = value(a_new)
            if f_new > f_cur:
                # momentum overshot: restart from the last accepted iterate
                t = 1.0
                a_new = soft_threshold(a - step * smooth_grad(a), thresholds)
                f_new = value(a_new)
            f_cur = f_new
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        beta = min((t - 1.0) / t_new, beta_cap)
        y = a_new + beta * (a_new - a)
        t = t_new
        a = a_new
        iterations = it
        kkt = _kkt_residual(a, smooth_grad(a), lam, w)
        if kkt <= kkt_tol:
            converged = True
            break
    return a, iterations, value(a), kkt, converged


def reference_fit(c, g, p, lam, weights, opts, init):
    """The ``lasso`` (p None) or Sigma-aware (p given) set-up around the loop."""
    d = c.shape[0]
    w = np.ones((d, d)) if weights is None else weights
    a0 = np.zeros((d, d)) if init is None else np.array(init, dtype=float)
    eig_c = np.linalg.eigvalsh(c)
    sigma = max(float(eig_c[0]), 0.0)
    if p is None:
        lips = float(eig_c[-1])

        def smooth_grad(a):
            return g + a @ c

        def smooth_value(a):
            return float(np.sum(a * g) + 0.5 * np.sum((a @ c) * a))

        kkt_scale = float(np.max(np.abs(g)))
    else:
        eig_p = np.linalg.eigvalsh(p)
        lips = float(eig_p[-1] * eig_c[-1])
        sigma *= float(eig_p[0])
        pg = p @ g

        def smooth_grad(a):
            return pg + p @ (a @ c)

        def smooth_value(a):
            return float(np.sum(pg * a) + 0.5 * np.sum((p @ a @ c) * a))

        kkt_scale = float(np.max(np.abs(pg)))
    step = 1.0 / lips if lips > 0 else 1.0
    # V-FISTA's momentum for strong convexity sigma, 1 when sigma = 0
    root = math.sqrt(sigma * step)
    beta_cap = (1.0 - root) / (1.0 + root)
    return _prox_gradient(smooth_grad, smooth_value, lam, w, step, beta_cap, opts, a0, kkt_scale)


# -- parity ----------------------------------------------------------------------

def _cases(seeds):
    return [
        pytest.param(seed, pre, wt, warm, id=f"{seed}-{'spd' if pre else 'I'}"
                     f"-{'weighted' if wt else 'unweighted'}-{'warm' if warm else 'zero'}")
        for seed in seeds
        for pre in (False, True)
        for wt in (False, True)
        for warm in (False, True)
    ]


WIDE_CASES = _cases(range(12))


def _rel_diff(a, b) -> float:
    return float(np.linalg.norm(a - b) / max(1.0, np.linalg.norm(b)))


def _fits(seed, preconditioned, weighted, warm, rel_tol, max_iters=20000):
    """(reference, kernel) pairs over penalties from 0 to beyond lambda_max."""
    d = 3 + seed % 4
    c, g, p, weights, warm_start = random_problem(seed, d, preconditioned, weighted)
    opts = SolverOptions(max_iters=max_iters, rel_tol=rel_tol)
    init = warm_start if warm else None
    problem = _Problem.of(c, g, p, weights, opts)
    lam_max = float(np.max(np.abs(problem.pg)))
    for lam in (0.0, 0.03 * lam_max, 0.3 * lam_max, 2.0 * lam_max):
        yield (c, p), reference_fit(c, g, p, lam, weights, opts, init), problem.fit(lam, init=init)


@pytest.mark.parametrize("max_iters", [20000, 25])
@pytest.mark.parametrize("seed, preconditioned, weighted, warm", WIDE_CASES)
def test_kernel_matches_closure_loop(seed, preconditioned, weighted, warm, max_iters):
    # rel_tol 1e-7 is the command-line and benchmark default; the short cap
    # stops about half the fits early, so the iterates must agree mid-path too
    fits = _fits(seed, preconditioned, weighted, warm, rel_tol=1e-7, max_iters=max_iters)
    for _, (a_ref, iters, f_ref, kkt_ref, conv_ref), fit in fits:
        assert fit.iterations == iters
        assert fit.converged == conv_ref
        assert _rel_diff(fit.matrix, a_ref) <= 1e-12
        assert fit.final_objective == pytest.approx(f_ref, rel=1e-12, abs=1e-12)
        assert fit.kkt_residual == pytest.approx(kkt_ref, rel=1e-9, abs=1e-15)


@pytest.mark.parametrize("seed, preconditioned, weighted, warm", WIDE_CASES)
def test_kernel_reaches_the_same_minimizer_at_tight_tolerance(seed, preconditioned, weighted, warm):
    """At rel_tol 1e-10 the KKT certificate is met only once successive
    objective values agree to rounding, where the restart test compares two
    numbers that differ in their last bits.  The two loops round the
    objective differently, so a restart may fire in one and not the other
    and the iteration counts may differ; both must still certify the same
    minimizer.  With strong convexity mu = lambda_min(P) lambda_min(C), two
    points whose subgradient residuals are at most eps entrywise lie within
    2 d eps / mu of each other in Frobenius norm."""
    for (c, p), (a_ref, _, f_ref, kkt_ref, conv_ref), fit in _fits(seed, preconditioned, weighted, warm, rel_tol=1e-10):
        assert fit.converged and conv_ref
        mu = float(np.linalg.eigvalsh(c)[0]) * (1.0 if p is None else float(np.linalg.eigvalsh(p)[0]))
        d = c.shape[0]
        assert np.linalg.norm(fit.matrix - a_ref) <= 2.0 * d * max(fit.kkt_residual, kkt_ref) / mu + 1e-12
        assert fit.final_objective == pytest.approx(f_ref, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_p_branch_at_a_nudged_identity_matches_the_lasso(weighted):
    # P = I is stored as None; one ulp up its diagonal keeps P, so the P branch
    # runs and must fit as the P = None branch does
    for seed in range(40):
        d = 3 + seed % 4
        c, g, _, weights, warm = random_problem(seed, d, False, weighted)
        p = np.eye(d)
        np.fill_diagonal(p, np.nextafter(1.0, 2.0))
        opts = SolverOptions(rel_tol=1e-7)
        nudged, plain = _Problem.of(c, g, p, weights, opts), _Problem.of(c, g, None, weights, opts)
        assert nudged.p is not None and _Problem.of(c, g, np.eye(d), weights, opts).p is None
        lam_max = float(np.max(np.abs(plain.pg)))
        for lam in (0.0, 0.03 * lam_max, 0.3 * lam_max, 2.0 * lam_max):
            for init in (None, warm):
                got, want = nudged.fit(lam, init=init), plain.fit(lam, init=init)
                assert got.converged and want.converged
                assert got.iterations == want.iterations
                assert np.array_equal(got.matrix != 0.0, want.matrix != 0.0)
                assert _rel_diff(got.matrix, want.matrix) <= 1e-12


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_public_lasso_final_objective_is_the_penalized_loss(weighted):
    c, g, _, weights, _ = random_problem(11, 4, False, weighted)
    lam = 0.05
    fit = lasso(SufficientStats(c_hat=c, g_hat=g, horizon=1.0), lam, weights=weights, opts=SolverOptions())
    a, w = fit.matrix, np.ones_like(c) if weights is None else weights
    assert np.count_nonzero(a) > 0
    loss = np.vdot(a, g) + 0.5 * np.trace(a @ c @ a.T) + lam * np.sum(w * np.abs(a))
    assert fit.final_objective == pytest.approx(loss, rel=1e-12)


def test_warm_start_at_the_minimizer_takes_one_step():
    for seed in range(6):
        c, g, p, weights, _ = random_problem(seed, 5, seed % 2 == 1, seed % 3 == 0)
        problem = _Problem.of(c, g, p, weights, SolverOptions(rel_tol=1e-8, max_iters=100_000))
        lam = 0.1 * float(np.max(np.abs(problem.pg)))
        cold = problem.fit(lam)
        warm = problem.fit(lam, init=cold.matrix)
        assert cold.converged and cold.iterations > 1
        assert warm.converged and warm.iterations == 1
        assert np.array_equal(warm.matrix != 0.0, cold.matrix != 0.0)
        assert _rel_diff(warm.matrix, cold.matrix) <= 1e-6


# -- hoisted CV routines against per-penalty public fits ------------------------

TIGHT = SolverOptions(rel_tol=1e-10, max_iters=100_000)
GRID = np.logspace(-3, 1, 9)


@pytest.fixture(scope="module")
def traj():
    drift = generate_shifted_antisymmetric(4, alpha=0.7, w=1.0, s=2, seed=5)
    return sample_trajectory(drift, T=40.0, dt=0.02, seed=17)


def test_cross_validate_sigma_matches_fit_sigma_model(traj):
    m = np.array([0.1, -0.2, 0.05, 0.3])
    sigma = np.array([[1.0, 0.0, 0.0, 0.0], [0.3, 0.8, 0.0, 0.0], [0.0, -0.2, 1.2, 0.0], [0.1, 0.0, 0.4, 0.6]])
    cv = cross_validate_sigma(traj, m, sigma, gamma=1.0, grid=GRID, opts=TIGHT)
    train, _ = split_trajectory(traj)
    train_stats = sufficient_stats(Trajectory(dt=train.dt, states=train.states - m))
    with np.errstate(divide="ignore"):
        weights = np.minimum(np.abs(mle(train_stats).matrix) ** -1.0, WEIGHT_CAP)
    problem = _Problem.of(train_stats.c_hat, train_stats.g_hat, _precision(sigma, 4), weights, TIGHT)
    fit = problem.fit(cv.best_lambda)
    # the path warm-starts from the previous grid point, this fit starts at zero
    assert fit.converged and cv.best_estimate.converged
    assert _rel_diff(cv.best_estimate.matrix, fit.matrix) <= 1e-6
    assert np.array_equal(np.argwhere(cv.best_estimate.matrix), np.argwhere(fit.matrix))


@pytest.mark.parametrize("method", ["lasso", "adaptive_lasso"])
def test_cross_validate_matches_public_fit(traj, method):
    cv = cross_validate(traj, method, gamma=1.0, grid=GRID, opts=TIGHT)
    train_stats = sufficient_stats(split_trajectory(traj)[0])
    if method == "lasso":
        fit = lasso(train_stats, cv.best_lambda, opts=TIGHT)
    else:
        fit = adaptive_lasso(train_stats, cv.best_lambda, gamma=1.0, opts=TIGHT)
    # the path warm-starts from the previous grid point, the public call does not
    assert fit.converged and cv.best_estimate.converged
    assert _rel_diff(cv.best_estimate.matrix, fit.matrix) <= 1e-6
    assert np.array_equal(np.argwhere(cv.best_estimate.matrix), np.argwhere(fit.matrix))
    assert cv.best_estimate.gamma == fit.gamma
