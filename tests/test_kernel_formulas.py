"""The kernel's prox and KKT formulas against the textbook forms, its momentum cap and restart count.

The soft-threshold is computed as z - clip(z, -th, th) and the KKT residual
with ``np.putmask``; both must give the values of the ``np.sign``/``np.where``
forms they replaced exactly (``==``, so only the sign of a zero may differ).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparse_ou import SolverOptions
from sparse_ou.estimators import WEIGHT_CAP, _kkt_residual, _Problem, _quad, _shrink

from conftest import random_problem

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.integers(min_value=1, max_value=8)


def sign_max_soft_threshold(m, th):
    return np.sign(m) * np.maximum(np.abs(m) - th, 0.0)


def where_kkt_residual(a, grad, lamw) -> float:
    viol = np.where(a == 0.0, np.maximum(np.abs(grad) - lamw, 0.0), np.abs(grad + lamw * np.sign(a)))
    return float(viol.max())


def random_penalty(rng, d, lam_zero, capped):
    """lam W with lam possibly 0 and some weights possibly at WEIGHT_CAP."""
    lam = 0.0 if lam_zero else float(rng.uniform(1e-3, 2.0))
    w = rng.uniform(0.2, 3.0, size=(d, d))
    if capped:
        w[rng.random((d, d)) < 0.3] = WEIGHT_CAP
    return lam * w


@PROPERTY
@given(seed=seeds, d=dims, lam_zero=st.booleans(), capped=st.booleans())
def test_soft_threshold_matches_sign_max_form(seed, d, lam_zero, capped):
    rng = np.random.default_rng(seed)
    th = random_penalty(rng, d, lam_zero, capped)
    m = rng.normal(size=(d, d)) * rng.choice([1e-3, 1.0, 1e3], size=(d, d))
    ties = rng.random((d, d)) < 0.3
    m[ties] = th[ties] * rng.choice([-1.0, 1.0], size=int(ties.sum()))  # |m| = th
    m[rng.random((d, d)) < 0.1] = -0.0
    assert np.array_equal(_shrink(m, th, -th, np.empty_like(m)), sign_max_soft_threshold(m, th))
    for scalar in (0.0, float(th.flat[0])):
        assert np.array_equal(_shrink(m, scalar, -scalar, np.empty_like(m)), sign_max_soft_threshold(m, scalar))


@PROPERTY
@given(seed=seeds, d=dims, lam_zero=st.booleans(), capped=st.booleans())
def test_kkt_residual_matches_where_form(seed, d, lam_zero, capped):
    rng = np.random.default_rng(seed)
    lamw = random_penalty(rng, d, lam_zero, capped)
    a = rng.normal(size=(d, d))
    a[rng.random((d, d)) < 0.4] = 0.0
    a[rng.random((d, d)) < 0.2] = -0.0
    g = rng.normal(size=(d, d))
    ties = rng.random((d, d)) < 0.2
    g[ties] = lamw[ties] * rng.choice([-1.0, 1.0], size=int(ties.sum()))  # |g| = lam W
    assert _kkt_residual(a, g, lamw, np.empty_like(a)) == where_kkt_residual(a, g, lamw)


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("preconditioned", [False, True])
@pytest.mark.parametrize("max_iters", [3, 50_000])
def test_fit_reports_the_where_form_residual(warm, preconditioned, max_iters):
    for seed in range(4):
        c, g, p, weights, warm_start = random_problem(seed, 3 + seed, preconditioned, True)
        problem = _Problem.of(c, g, p, weights, SolverOptions(max_iters=max_iters, rel_tol=1e-8))
        for lam_frac in (0.0, 0.05, 0.5):
            lam = lam_frac * float(np.max(np.abs(problem.pg)))
            fit = problem.fit(lam, init=warm_start if warm else None)
            a = fit.matrix
            assert fit.converged == (max_iters > 3)
            assert fit.kkt_residual == where_kkt_residual(a, problem.pg + _quad(a, c, p), lam * problem.w)


def singular_problem(seed: int, d: int, preconditioned: bool, weighted: bool):
    """``random_problem`` with C of rank d - 1 and G in C's row space, so the objective stays bounded."""
    c, g, p, weights, warm = random_problem(seed, d, preconditioned, weighted)
    v = np.random.default_rng(seed + 1000).normal(size=d)
    proj = np.eye(d) - np.outer(v, v) / (v @ v)
    c = proj @ c @ proj
    return 0.5 * (c + c.T), g @ proj, p, weights, warm


def test_fista_restarts_are_counted_and_keep_the_objective_monotone_on_singular_c(monkeypatch):
    values = []
    objective = _Problem._objective

    def watched(self, *args):
        values.append(objective(self, *args))
        return values[-1]

    monkeypatch.setattr(_Problem, "_objective", watched)
    restarted = 0
    for seed in range(6):
        c, g, p, weights, warm = singular_problem(seed, 6, seed % 2 == 1, seed % 3 == 0)
        problem = _Problem.of(c, g, p, weights, SolverOptions(max_iters=50_000, rel_tol=1e-8))
        # lambda_min(C) is zero up to rounding, so the cap is beyond the momentum
        # (t - 1) / t_new ~ 1 - 3 / k of any of these 50 000 steps
        assert problem.beta > 1.0 - 1e-6
        for lam_frac in (0.01, 0.1):
            del values[:]
            fit = problem.fit(lam_frac * float(np.max(np.abs(problem.pg))), init=warm)
            assert fit.converged
            assert 0 <= fit.restarts <= fit.iterations
            # below the cap the start and every step evaluate the objective, and the estimate once more;
            # a value above the last accepted one is a rejected momentum step, the next its restart
            accepted, rises = [values[0]], 0
            steps = iter(values[1:-1])
            for f in steps:
                if f > accepted[-1]:
                    rises += 1
                    f = next(steps)
                accepted.append(f)
            assert (rises, len(accepted)) == (fit.restarts, fit.iterations + 1)
            # a momentum step is kept only when it does not raise the objective,
            # and a restart is a plain proximal-gradient step, which cannot
            assert np.all(np.diff(accepted) <= 0.0)
            assert values[-1] == accepted[-1] == fit.final_objective
            restarted += fit.restarts > 0
    assert restarted > 0


@pytest.mark.parametrize("c, p, beta", [
    (np.diag([1.0, 4.0]), None, 1.0 / 3.0),
    (np.eye(2), np.diag([1.0, 9.0]), 0.5),
    (np.diag([1.0, 0.0]), None, 1.0),
    (np.diag([1.0, -1e-12]), None, 1.0),
    (np.diag([1.0, -1e-12]), np.diag([1.0, 9.0]), 1.0),
], ids=["C-diag-1-4", "C-I-P-diag-1-9", "C-singular", "C-indefinite", "C-indefinite-P-diag-1-9"])
def test_momentum_cap_is_v_fista_beta_of_the_strong_convexity(c, p, beta):
    # (sqrt(L) - sqrt(sigma)) / (sqrt(L) + sqrt(sigma)), sigma = max(lambda_min(C), 0) lambda_min(P)
    problem = _Problem.of(c, np.zeros((2, 2)), p, None, None)
    assert problem.beta == pytest.approx(beta, rel=1e-15)


@pytest.mark.parametrize("preconditioned", [False, True], ids=["P=I", "P-spd"])
def test_capped_steps_skip_the_objective(monkeypatch, preconditioned):
    calls = []
    objective = _Problem._objective

    def counted(self, *args):
        calls.append(1)
        return objective(self, *args)

    monkeypatch.setattr(_Problem, "_objective", counted)
    skipped = 0
    for seed in range(4):
        c, g, p, weights, warm = random_problem(seed, 6, preconditioned, seed % 2 == 0)
        problem = _Problem.of(c, g, p, weights, SolverOptions(max_iters=50_000, rel_tol=1e-8))
        assert problem.beta < 1.0
        for lam_frac in (0.0, 0.01, 0.1):
            lam = lam_frac * float(np.max(np.abs(problem.pg)))
            init = warm if seed % 2 else None
            del calls[:]
            fit = problem.fit(lam, init=init)
            skipped += len(calls) < fit.iterations
    assert skipped > 0  # some fits ran capped steps, which compute no objective
