"""The witness-entry gate on the KKT certificate changes no fit and skips most sweeps.

``reference_fit`` below is the solver loop with the gate switched off: its
witness reads -inf, so it sweeps the full KKT residual of the exact gradient
P G + P A C on every iteration.  (The closure loop in ``test_solver_kernel.py``
is the independent reference for the loop itself.)  The
gated loop sweeps only when the last failed sweep's most violating entry no
longer violates, and it reads that entry's gradient from the gradient point,
as (a_k - v_k) / step + (P G)_k, which equals the exact one only up to
rounding.  The gate only decides whether to sweep, and a fit is certified
only by a full sweep; were the gradient point's reading to hold back a sweep
that would have passed, the gated loop would stop later than the reference.
So every fit must match the reference bit for bit, which is what shows that
the gate changes no fit.  (Any entry above tolerance puts the maximum above
it; the witness only makes the gate skip often.)
"""

import math

import numpy as np
import pytest

from sparse_ou import SolverOptions, cross_validate, estimators, generate_sparse_drift, sample_trajectory
from sparse_ou.estimators import Estimate, _Problem
from sparse_ou.modelsel import default_lambda_grid

from conftest import random_problem

# -- reference: the loop that sweeps on every iteration ------------------------------


def gate_off(*args) -> float:
    """A witness residual that never exceeds ``kkt_tol``, so the gate never skips a sweep."""
    return -math.inf


def reference_fit(problem: _Problem, lam: float, init=None) -> Estimate:
    """``problem.fit`` with the gate switched off."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_Problem, "_entry_residual", gate_off)
        return problem.fit(lam, init=init)


# -- helpers ------------------------------------------------------------------------


def assert_same_fit(got: Estimate, want: Estimate):
    assert np.array_equal(got.matrix, want.matrix)
    assert got.iterations == want.iterations
    assert got.restarts == want.restarts
    assert got.converged == want.converged
    assert got.kkt_residual == want.kkt_residual
    assert got.final_objective == want.final_objective


@pytest.fixture
def events(monkeypatch):
    """Every full sweep and gate evaluation of the gated loop, in order.

    Each is (kind, flat index, sign of A there, residual there), where a sweep
    records the entry it leaves as the witness.
    """
    log = []
    kkt_residual, entry_residual = estimators._kkt_residual, _Problem._entry_residual

    def sweep(a, g, lamw, buf):
        r = kkt_residual(a, g, lamw, buf)
        k = int(np.argmax(buf))
        log.append(("sweep", k, float(np.sign(a.item(k))), r))
        return r

    def gate(self, a, v, lamw, k):
        r = entry_residual(self, a, v, lamw, k)
        log.append(("gate", k, float(np.sign(a.item(k))), r))
        return r

    monkeypatch.setattr(estimators, "_kkt_residual", sweep)
    monkeypatch.setattr(_Problem, "_entry_residual", gate)
    return log


# -- parity -------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [3, 11, 19])
@pytest.mark.parametrize("preconditioned", [False, True], ids=["P=I", "P-spd"])
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_fit_matches_reference(events, seed, preconditioned, weighted, warm):
    c, g, p, weights, init = random_problem(seed, 6, preconditioned, weighted)
    skipped = 0
    for rel_tol in (1e-7, 1e-10):
        for max_iters in (10000, 25):
            opts = SolverOptions(max_iters=max_iters, rel_tol=rel_tol)
            problem = _Problem.of(c, g, p, weights, opts)
            lam_max = float(np.max(np.abs(problem.pg) / problem.w))
            for frac in (0.0, 0.003, 0.03, 0.3, 1.2):
                start = init if warm else None
                del events[:]
                got = problem.fit(frac * lam_max, init=start)
                assert_same_fit(got, reference_fit(problem, frac * lam_max, init=start))
                skipped += sum(kind == "gate" and r > problem.kkt_tol for kind, _, _, r in events)
    assert skipped > 0  # the gate did skip sweeps here


def _witness_crossings(log) -> int:
    """Gate evaluations at which A's sign at the witness differs from the sign at the sweep that chose it."""
    crossings, chosen = 0, None
    for kind, k, sign, _ in log:
        if kind == "sweep":
            chosen = sign
        elif sign != chosen:
            crossings += 1
            chosen = sign
    return crossings


def test_cv_path_with_witness_crossing_zero_matches_reference(events, monkeypatch):
    # a short path on which a witness entry leaves the support between checks
    traj = sample_trajectory(generate_sparse_drift(6, 1, 3), 3.0, 0.01, 3)
    grid = default_lambda_grid(20)
    opts = SolverOptions(rel_tol=1e-7)
    got = cross_validate(traj, "lasso", grid=grid, opts=opts)
    assert _witness_crossings(events) > 0
    assert any(kind == "gate" and sign == 0.0 for kind, _, sign, _ in events)  # the A == 0 branch ran
    with monkeypatch.context() as m:
        m.setattr(_Problem, "_entry_residual", gate_off)
        want = cross_validate(traj, "lasso", grid=grid, opts=opts)
    assert got.best_estimate.lam == want.best_estimate.lam
    assert np.array_equal(got.validation_scores, want.validation_scores)
    for got_fit, want_fit in zip(got.fits, want.fits, strict=True):
        assert_same_fit(got_fit, want_fit)


# -- the saving, as a count ---------------------------------------------------------


def test_full_sweeps_on_under_a_quarter_of_cv_path_iterations(events):
    # on this path the reference loop sweeps on all 563 iterations, the gated
    # loop on 81 (14%)
    traj = sample_trajectory(generate_sparse_drift(10, 2, 0), 50.0, 0.01, 0)
    res = cross_validate(traj, "adaptive_lasso", opts=SolverOptions(rel_tol=1e-7))
    iterations = sum(f.iterations for f in res.fits)
    sweeps = sum(kind == "sweep" for kind, _, _, _ in events)
    assert all(f.converged for f in res.fits)
    assert sweeps < 0.25 * iterations
