"""Ground-truth drift matrices for mean-reverting linear systems.

A drift matrix A must have a spectrum with strictly positive real parts,
so that dX = -A X dt + dW is ergodic with stationary covariance C solving
A C + C A^T = I.  The generators here produce the sparse random drifts,
the two-group block drift and the shifted-antisymmetric family used by
the experiment harness.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import GenerationError, StabilityError, UsageError
from .linops import as_square_matrix, solve_lyapunov

__all__ = [
    "DriftMatrix",
    "make_drift",
    "random_sign_pattern",
    "generate_sparse_drift",
    "generate_two_group",
    "generate_shifted_antisymmetric",
    "symmetrized_drift",
    "save_drift_csv",
    "load_drift_csv",
    "save_drift_json",
    "load_drift_json",
]

# Margin added beyond the spectral abscissa when stabilizing random drifts.
STABILITY_MARGIN = 0.5


@dataclass(frozen=True)
class DriftMatrix:
    """A stable drift matrix together with its stationary covariance."""

    matrix: np.ndarray
    stationary_cov: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def make_drift(matrix, stationary_cov: np.ndarray | None = None) -> DriftMatrix:
    """Wrap a stable matrix as a :class:`DriftMatrix`, solving for C if needed."""
    m = as_square_matrix(matrix)
    if stationary_cov is None:
        stationary_cov = solve_lyapunov(m)  # also enforces stability
    else:
        stationary_cov = as_square_matrix(stationary_cov, "stationary_cov")
    return DriftMatrix(matrix=m, stationary_cov=stationary_cov)


def _check_sparsity(s: int, d: int) -> None:
    if not 1 <= s <= d:
        raise UsageError(f"need 1 <= s <= d, got s={s}, d={d}")


def random_sign_pattern(d: int, s: int, seed: int) -> np.ndarray:
    """Matrix with exactly ``s`` random +-1 entries per row (diagonal allowed)."""
    _check_sparsity(s, d)
    rng = np.random.default_rng(seed)
    pattern = np.zeros((d, d))
    for i in range(d):
        cols = rng.choice(d, size=s, replace=False)
        pattern[i, cols] = rng.choice([-1.0, 1.0], size=s)
    return pattern


def generate_sparse_drift(d: int, s: int, seed: int) -> DriftMatrix:
    """Random row-sparse drift with +-1 entries, stabilized by a diagonal shift.

    Starts from :func:`random_sign_pattern`, which is generally unstable;
    adding ``delta * I`` with ``delta = max(0, -min_real_part +
    STABILITY_MARGIN)`` shifts every eigenvalue's real part without
    touching the off-diagonal support.  Deterministic given ``seed``.
    """
    pattern = random_sign_pattern(d, s, seed)
    delta = max(0.0, -float(np.linalg.eigvals(pattern).real.min()) + STABILITY_MARGIN)
    try:
        return make_drift(pattern + delta * np.eye(d))
    except StabilityError as exc:
        raise GenerationError(
            f"diagonal shift {delta:.6g} failed to stabilize a {d}x{d} pattern (seed {seed})"
        ) from exc


def generate_two_group(d: int) -> DriftMatrix:
    """Block-diagonal drift with two independent groups of size d/2.

    Within a group each coordinate reverts toward the group average:
    diagonal entries are +1 and within-group off-diagonal entries are
    -1/(group size), giving block eigenvalues 1/g and 1 + 1/g.
    """
    if d < 2 or d % 2 != 0:
        raise UsageError(f"d must be even and >= 2, got {d}")
    g = d // 2
    block = np.full((g, g), -1.0 / g)
    np.fill_diagonal(block, 1.0)
    matrix = np.zeros((d, d))
    matrix[:g, :g] = block
    matrix[g:, g:] = block
    return make_drift(matrix)


def generate_shifted_antisymmetric(
    d: int, alpha: float, w: float, s: int, seed: int
) -> DriftMatrix:
    """Drift ``alpha * I + w * B`` with B antisymmetric and row-sparse.

    B has entries in {-1, 0, 1} (+1 above the diagonal), at most ``s``
    non-zeros per row.  The stationary covariance is exactly I/(2 alpha)
    regardless of B, which makes this family a convenient analytic oracle.
    """
    if not (0 < alpha < np.inf and np.isfinite(w)):
        raise UsageError(f"alpha must be finite and > 0, and w finite, got alpha={alpha}, w={w}")
    if not 0 <= s < d:
        raise UsageError(f"need 0 <= s < d, got s={s}, d={d}")
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    rng.shuffle(pairs)
    b = np.zeros((d, d))
    row_counts = np.zeros(d, dtype=int)
    for i, j in pairs:
        if row_counts[i] < s and row_counts[j] < s:
            b[i, j] = 1.0
            b[j, i] = -1.0
            row_counts[i] += 1
            row_counts[j] += 1
    matrix = alpha * np.eye(d) + w * b
    return make_drift(matrix, stationary_cov=np.eye(d) / (2.0 * alpha))


def symmetrized_drift(drift: DriftMatrix) -> DriftMatrix:
    """Symmetric part (A + A^T)/2, shifted along the diagonal so that every
    eigenvalue is at least STABILITY_MARGIN.

    The oracle-coverage guarantee is proved for symmetric drifts; this
    turns any generated truth into one.
    """
    sym = 0.5 * (drift.matrix + drift.matrix.T)
    shift = max(0.0, -float(np.linalg.eigvalsh(sym)[0])) + STABILITY_MARGIN
    return make_drift(sym + shift * np.eye(drift.dim))


# -- serialization -----------------------------------------------------------


def save_drift_csv(path, drift: DriftMatrix) -> None:
    """Write the drift matrix as a dimension header line followed by d rows."""
    with open(path, "w") as fh:
        fh.write(f"{drift.dim}\n")
        for row in drift.matrix:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def load_drift_csv(path) -> DriftMatrix:
    with open(path) as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if not lines:
        raise ValueError(f"empty drift file: {path}")
    d = int(lines[0])
    if len(lines) != d + 1:
        raise ValueError(f"expected {d} rows after the header, got {len(lines) - 1}")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return make_drift(np.array(rows))


def save_drift_json(path, drift: DriftMatrix) -> None:
    payload = {"dim": drift.dim, "entries": [float(x) for x in drift.matrix.reshape(-1)]}
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_drift_json(path) -> DriftMatrix:
    with open(path) as fh:
        payload = json.load(fh)
    d = int(payload["dim"])
    entries = np.asarray(payload["entries"], dtype=float)
    if entries.size != d * d:
        raise ValueError(f"expected {d * d} entries, got {entries.size}")
    return make_drift(entries.reshape(d, d))
