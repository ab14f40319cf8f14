"""Exact sampling of multivariate mean-reverting Gaussian trajectories.

Over one step of size dt the process dX = -A X dt + dW has the exact
Gaussian transition

    X_{k+1} | X_k  ~  N( phi X_k , Q ),
    phi = exp(-A dt),     Q = C - phi C phi^T,

with C the stationary covariance of A.  Sampling through (phi, Q) is free
of discretization bias, so coarsening the observation grid (subsampling)
is the only source of time-step effects downstream.

A path is the one path-sized array a replication holds.  The sampler's
normal draws, the finiteness check of a :class:`Trajectory` and the Ito
increments of ``stats.sufficient_stats`` are formed in consecutive row
blocks of at least ``_BLOCK_ROWS`` rows (:func:`_row_blocks`), never for the
whole path at once.  Blocks have a minimum length because short ones round
differently: numpy sends a one-row matmul to gemv, and OpenBLAS sends a
few-row one to its small-matrix kernel, whereas a block of 1 024 rows or
more rounds as the whole-path gemm does, so the sampled path is
bit-identical to drawing all the noise at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, UsageError
from .linops import expm
from .model import DriftMatrix

__all__ = [
    "Trajectory",
    "TransitionKernel",
    "transition_kernel",
    "step_count",
    "sample_trajectory",
    "subsample",
    "save_trajectory_csv",
    "load_trajectory_csv",
    "derive_seed",
]

_MASK64 = 0xFFFFFFFFFFFFFFFF
DEFAULT_DT = 0.01  # the observation step of simulate and of a benchmark sweep unless one is given
_BLOCK_ROWS = 1024  # the shortest row block that a path-sized array is cut into


def _row_blocks(n: int) -> list[tuple[int, int]]:
    """Consecutive (lo, hi) row ranges that cover rows 0 to n - 1, each of at least ``_BLOCK_ROWS`` rows.

    The remainder joins the last block, so fewer than 2 * ``_BLOCK_ROWS`` rows make one block.
    """
    edges = [k * _BLOCK_ROWS for k in range(max(n // _BLOCK_ROWS, 1))] + [n]
    return list(zip(edges[:-1], edges[1:]))


def derive_seed(seed: int, index: int) -> int:
    """Mix (seed, index) into an independent 64-bit stream seed.

    splitmix64 applied to seed + (index + 1) * golden-ratio increment; the
    derived seeds are independent of the order replications are scheduled.
    """
    z = (int(seed) + (int(index) + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled path: ``states[k]`` is the state at time k * dt."""

    dt: float
    states: np.ndarray  # shape (n + 1, d)

    def __post_init__(self):
        states = np.asarray(self.states, dtype=float)
        if states.ndim != 2 or states.shape[0] < 2 or states.shape[1] < 1:
            raise ValueError(f"states must be (n+1, d) with n >= 1 and d >= 1, got {states.shape}")
        if not all(np.isfinite(states[lo:hi]).all() for lo, hi in _row_blocks(states.shape[0])):
            raise ValueError("states contain non-finite values")
        if not self.dt > 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        object.__setattr__(self, "states", states)

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @property
    def n_steps(self) -> int:
        return self.states.shape[0] - 1

    @property
    def horizon(self) -> float:
        return self.n_steps * self.dt


@dataclass(frozen=True)
class TransitionKernel:
    """One-step transition: mean map phi and the lower Cholesky factor of the noise covariance Q."""

    dt: float
    phi: np.ndarray
    noise_chol: np.ndarray


def transition_kernel(drift: DriftMatrix, dt: float) -> TransitionKernel:
    """Exact one-step kernel (phi, Q) for the given drift and step size."""
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be > 0 and finite, got {dt}")
    with np.errstate(over="ignore"):  # an overflowing -A dt reaches expm as inf, which raises NumericError
        minus_a_dt = drift.matrix * -dt
    phi = expm(minus_a_dt)
    c_inf = drift.stationary_cov
    q = c_inf - phi @ c_inf @ phi.T
    q = 0.5 * (q + q.T)
    return TransitionKernel(dt=dt, phi=phi, noise_chol=_cholesky_psd(q))


def _cholesky_psd(q: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor, with a tiny jitter retry for near-singular Q."""
    try:
        return np.linalg.cholesky(q)
    except np.linalg.LinAlgError:
        jittered = q + 1e-12 * np.eye(q.shape[0])
        try:
            return np.linalg.cholesky(jittered)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"noise covariance is not positive semidefinite: {exc}") from exc


def step_count(T: float, dt: float) -> int:
    """The n = round(T / dt) steps of a path of horizon T sampled every dt; UsageError unless n is finite and >= 1."""
    if not (0 < dt < math.inf and math.isfinite(T / dt) and round(T / dt) >= 1):
        raise UsageError(f"dt must be > 0 and finite, and T / dt must be finite and round to at least 1; "
                         f"got T={T!r}, dt={dt!r}")
    return round(T / dt)


def sample_trajectory(
    drift: DriftMatrix,
    T: float,
    dt: float,
    seed: int,
    kernel: TransitionKernel | None = None,
) -> Trajectory:
    """Sample a path of :func:`step_count` (T, dt) exact transition steps from the stationary law.

    X_0 is drawn from N(0, C).  Deterministic given ``seed``.  ``kernel``, a (phi, Q) built for ``dt``,
    is kept only because bench/harness.py passes it: the path is bit-identical without it.

    The noise is drawn and multiplied by L^T one row block (:func:`_row_blocks`) at a time, straight into the
    path, so no second path-sized array is held; the blocks' minimum length keeps the path bit-identical to
    drawing all n x d normals at once.
    """
    n = step_count(T, dt)
    if kernel is None:
        kernel = transition_kernel(drift, dt)
    elif kernel.dt != dt:
        raise ValueError(f"kernel was built for dt={kernel.dt}, not dt={dt}")
    d = drift.dim
    rng = np.random.default_rng(seed)
    # rows 1..n receive the noise L xi_k, then phi X_k is added in place by
    # the same gemv; e + phi X_k rounds exactly as phi X_k + e does
    states = np.empty((n + 1, d))
    states[0] = _cholesky_psd(drift.stationary_cov) @ rng.standard_normal(d)
    for lo, hi in _row_blocks(n):
        np.matmul(rng.standard_normal((hi - lo, d)), kernel.noise_chol.T, out=states[1 + lo:1 + hi])
    phi_dot = kernel.phi.dot
    step = np.empty(d)
    prev = states[0]
    for nxt in states[1:]:
        phi_dot(prev, step)
        nxt += step
        prev = nxt
    return Trajectory(dt=dt, states=states)


def subsample(traj: Trajectory, factor: int) -> Trajectory:
    """Keep every ``factor``-th state; an exact view onto the same path."""
    if factor < 1 or int(factor) != factor:
        raise ValueError(f"factor must be a positive integer, got {factor}")
    factor = int(factor)
    if traj.n_steps % factor != 0:
        raise ValueError(f"factor {factor} does not divide {traj.n_steps} steps")
    return Trajectory(dt=traj.dt * factor, states=traj.states[::factor])


def save_trajectory_csv(path, traj: Trajectory) -> None:
    """Write `t,x0,...,x{d-1}` rows at full double precision."""
    d = traj.dim
    header = "t," + ",".join(f"x{j}" for j in range(d))
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for k, row in enumerate(traj.states):
            t = k * traj.dt
            fh.write(repr(float(t)) + "," + ",".join(repr(float(x)) for x in row) + "\n")


def load_trajectory_csv(path) -> Trajectory:
    """Read a path that :func:`save_trajectory_csv` wrote; malformed content raises ValueError naming the file."""
    try:
        with open(path) as fh:
            lines = [line.strip() for line in fh if line.strip()]
        if len(lines) < 3:
            raise ValueError("it needs a header and >= 2 states")
        width = len(lines[0].split(","))
        table = []
        for k, line in enumerate(lines[1:], start=1):
            cells = line.split(",")
            if len(cells) != width:
                raise ValueError(f"state row {k} has {len(cells)} cells, the header {width}")
            table.append([float(x) for x in cells])
        table = np.asarray(table)
        steps = np.diff(table[:, 0])
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
            raise ValueError("time column is not uniformly spaced")
        return Trajectory(dt=float(steps[0]), states=table[:, 1:])
    except ValueError as exc:
        raise ValueError(f"{path} is not a trajectory CSV file: {exc}") from None
