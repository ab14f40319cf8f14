"""Property tests of the proximal-gradient kernel on random problems.

Three invariants of the penalized fit, checked on statistics drawn by
hypothesis rather than at pinned examples: every converged fit carries a
KKT certificate at its stated scale, lambda = 0 gives the MLE, and the
Sigma-aware model with Sigma = I and m = 0 is the Lasso.  A fourth covers
the cross-validation split: the train and validation statistics add up to
the full-path statistics.  The last two are symmetries of the model:
hold-out selection follows a change of time unit exactly, and a signed
permutation of the coordinates to rounding.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sparse_ou import (
    SolverOptions,
    SufficientStats,
    Trajectory,
    cross_validate,
    cross_validate_sigma,
    default_lambda_grid,
    generate_sparse_drift,
    lasso,
    mle,
    sample_trajectory,
    sufficient_stats,
)
from sparse_ou.estimators import _Problem
from sparse_ou.modelsel import _precision, split_trajectory

from conftest import random_problem

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.integers(min_value=1, max_value=6)
SYMMETRY_TOL = 1e-10  # largest entry gap of a mapped fit, relative to max(1, max|A|)


@st.composite
def signed_permutations(draw) -> np.ndarray:
    """M = D Pi for d in 2..6: row i of Pi is e_perm[i], D = diag(+-1)."""
    d = draw(st.integers(min_value=2, max_value=6))
    perm = draw(st.permutations(range(d)))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=d, max_size=d))
    return np.array(signs)[:, None] * np.eye(d)[perm]


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
    plain = _Problem.of(stats.c_hat, stats.g_hat, None, weights, opts).fit(lam)
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


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(seed=seeds, d=st.integers(min_value=2, max_value=6), c=st.sampled_from([4.0, 0.25]))
def test_time_change_scales_every_hold_out_fit(seed, d, c):
    # Y(t) = X(c t) / sqrt(c) is the OU path of the drift c A with unit noise: sampled at dt / c its C is C / c
    # and its G is G, so each objective at c A is c times the original at A when lambda W is unchanged.  Adaptive
    # weights 1 / |A_mle| scale by 1 / c, with Sigma or without, hence those grids times c.  c and sqrt(c) are
    # powers of two, so no step rounds.
    traj = sample_trajectory(generate_sparse_drift(d, 1, seed), 20.0, 0.01, seed)
    changed = Trajectory(dt=traj.dt / c, states=traj.states / math.sqrt(c))
    rng = np.random.default_rng(seed)
    m, sigma = rng.normal(size=d), np.eye(d) + 0.3 * np.tril(rng.normal(size=(d, d)), -1)
    grid = default_lambda_grid()
    cases = [
        (cross_validate(traj, "lasso"), cross_validate(changed, "lasso"), 1.0),
        (cross_validate(traj, "adaptive_lasso", gamma=1.0),
         cross_validate(changed, "adaptive_lasso", gamma=1.0, grid=c * grid), c),
        (cross_validate_sigma(traj, m, sigma), cross_validate_sigma(changed, m / math.sqrt(c), sigma), 1.0),
        (cross_validate_sigma(traj, m, sigma, gamma=1.0),
         cross_validate_sigma(changed, m / math.sqrt(c), sigma, gamma=1.0, grid=c * grid), c),
    ]
    for before, after, lam_scale in cases:
        assert after.best_estimate.lam == lam_scale * before.best_estimate.lam
        assert np.array_equal(after.validation_scores, c * before.validation_scores)
        for fit, scaled in zip(before.fits, after.fits, strict=True):
            assert np.array_equal(scaled.matrix, c * fit.matrix)
            assert (scaled.iterations, scaled.restarts) == (fit.iterations, fit.restarts)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=seeds, mat=signed_permutations())
def test_signed_permutation_maps_every_hold_out_fit(seed, mat):
    # X -> M X with M = D Pi orthogonal is the OU path of M A M^T with unit noise: C, G and A_mle map to M . M^T,
    # the adaptive weights to Pi . Pi^T, and each objective at M A M^T equals the original at A; Sigma -> M Sigma
    # and m -> M m carry the Sigma-aware model.  The states map exactly, but BLAS sums the permuted products in
    # another order, so the fits agree to rounding, not bit for bit.
    d = mat.shape[0]
    traj = sample_trajectory(generate_sparse_drift(d, 1, seed), 20.0, 0.01, seed)
    mapped = Trajectory(dt=traj.dt, states=traj.states @ mat.T)
    rng = np.random.default_rng(seed)
    m, sigma = rng.normal(size=d), np.eye(d) + 0.3 * np.tril(rng.normal(size=(d, d)), -1)
    cases = [
        (cross_validate(traj, "lasso"), cross_validate(mapped, "lasso")),
        (cross_validate(traj, "adaptive_lasso", gamma=1.0), cross_validate(mapped, "adaptive_lasso", gamma=1.0)),
        (cross_validate_sigma(traj, m, sigma), cross_validate_sigma(mapped, mat @ m, mat @ sigma)),
        (cross_validate_sigma(traj, m, sigma, gamma=1.0), cross_validate_sigma(mapped, mat @ m, mat @ sigma, gamma=1.0)),
    ]
    for before, after in cases:
        assert after.best_estimate.lam == before.best_estimate.lam
        for fit, moved in zip(before.fits, after.fits, strict=True):
            expected = mat @ fit.matrix @ mat.T  # one nonzero term per entry, so exact
            assert np.array_equal(moved.matrix != 0.0, expected != 0.0)
            assert np.max(np.abs(moved.matrix - expected)) <= SYMMETRY_TOL * max(1.0, float(np.max(np.abs(fit.matrix))))
