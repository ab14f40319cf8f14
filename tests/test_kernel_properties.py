"""Property tests of the proximal-gradient kernel on random problems.

Three invariants of the penalized fit, checked on statistics drawn by
hypothesis rather than at pinned examples: every converged fit carries a
KKT certificate at its stated scale, lambda = 0 gives the MLE, and the
Sigma-aware model with Sigma = I and m = 0 is the Lasso.  A fourth covers
the cross-validation split: the train and validation statistics add up to
the full-path statistics.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sparse_ou import SolverOptions, SufficientStats, Trajectory, lasso, mle, sufficient_stats
from sparse_ou.estimators import _precision, _Problem
from sparse_ou.modelsel import split_trajectory

from conftest import random_problem

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.integers(min_value=1, max_value=6)


def kkt_violation(a, pg, pac, lamw) -> float:
    """Max entrywise violation of 0 in PG + P A C + lam W o sign(A), written out per case."""
    grad = pg + pac
    out = 0.0
    for (i, j), aij in np.ndenumerate(a):
        if aij == 0.0:
            out = max(out, abs(grad[i, j]) - lamw[i, j])
        else:
            out = max(out, abs(grad[i, j] + np.sign(aij) * lamw[i, j]))
    return out


@PROPERTY
@given(
    seed=seeds,
    d=dims,
    preconditioned=st.booleans(),
    weighted=st.booleans(),
    warm=st.booleans(),
    lam_frac=st.floats(min_value=0.0, max_value=1.5),
    rel_tol=st.sampled_from([1e-6, 1e-7, 1e-8]),
)
def test_converged_fit_carries_kkt_certificate(seed, d, preconditioned, weighted, warm, lam_frac, rel_tol):
    c, g, p, weights, warm_start = random_problem(seed, d, preconditioned, weighted)
    problem = _Problem.of(c, g, p, weights, SolverOptions(max_iters=50_000, rel_tol=rel_tol))
    pg = g if p is None else p @ g
    lam = lam_frac * float(np.max(np.abs(pg)))
    fit = problem.fit(lam, init=warm_start if warm else None)
    assert fit.converged
    a = fit.matrix
    pac = a @ c if p is None else p @ (a @ c)
    lamw = lam * (np.ones((d, d)) if weights is None else weights)
    residual = kkt_violation(a, pg, pac, lamw)
    assert abs(residual - fit.kkt_residual) <= 1e-12 * max(1.0, float(np.max(np.abs(pg))))
    assert residual <= 10.0 * rel_tol * float(np.max(np.abs(pg))) + 1e-14


@PROPERTY
@given(seed=seeds, d=dims)
def test_zero_penalty_gives_the_mle(seed, d):
    c, g, _, _, _ = random_problem(seed, d, False, False)
    stats = SufficientStats(c_hat=c, g_hat=g, horizon=1.0)
    fit = lasso(stats, 0.0, opts=SolverOptions(max_iters=100_000, rel_tol=1e-10))
    assert fit.converged
    # (A - A_mle) C = G + A C, so ||A - A_mle||_F <= d * max|G + A C| / lambda_min(C)
    bound = d * fit.kkt_residual / float(np.linalg.eigvalsh(c)[0])
    assert np.linalg.norm(fit.matrix - mle(stats).matrix) <= bound + 1e-12


@PROPERTY
@given(
    seed=seeds,
    d=dims,
    weighted=st.booleans(),
    lam_frac=st.floats(min_value=0.0, max_value=1.5),
)
def test_identity_sigma_at_zero_mean_is_the_lasso(seed, d, weighted, lam_frac):
    rng = np.random.default_rng(seed)
    states = np.zeros((400, d))
    for k in range(1, states.shape[0]):
        states[k] = 0.9 * states[k - 1] + rng.normal(size=d)
    traj = Trajectory(dt=0.1, states=states)
    stats = sufficient_stats(traj)
    weights = rng.uniform(0.2, 3.0, size=(d, d)) if weighted else None
    lam = lam_frac * float(np.max(np.abs(stats.g_hat)))
    opts = SolverOptions(rel_tol=1e-8)
    sig = _Problem.of(stats.c_hat, stats.g_hat, _precision(np.eye(d), d), weights, opts).fit(lam)
    plain = lasso(stats, lam, weights=weights, opts=opts)
    # P = I exactly, so both run the same arithmetic step for step
    assert np.array_equal(sig.matrix, plain.matrix)
    assert sig.iterations == plain.iterations
    assert sig.converged == plain.converged


@PROPERTY
@given(
    seed=seeds,
    d=dims,
    n=st.integers(min_value=2, max_value=500),
    dt=st.floats(min_value=1e-3, max_value=1.0),
)
def test_split_statistics_add_up_to_the_full_path(seed, d, n, dt):
    # the split shares its boundary state, so every left-endpoint term lands in exactly one half
    states = np.cumsum(np.random.default_rng(seed).normal(size=(n + 1, d)), axis=0)
    traj = Trajectory(dt=dt, states=states)
    full = sufficient_stats(traj)
    train, valid = (sufficient_stats(part) for part in split_trajectory(traj))
    for name in ("c_hat", "g_hat"):
        whole = full.horizon * getattr(full, name)
        parts = train.horizon * getattr(train, name) + valid.horizon * getattr(valid, name)
        assert np.linalg.norm(parts - whole) <= 1e-12 * np.linalg.norm(whole)
