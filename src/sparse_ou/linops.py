"""Dense linear-algebra primitives: square-matrix validation and the Lyapunov solve.

The Lyapunov solve uses the Bartels-Stewart algorithm (Bartels & Stewart,
CACM 1972) on one real Schur form: O(d^3) time and O(d^2) memory.
All routines operate on plain square ``numpy`` arrays and are pure
functions of their inputs, so they are safe to call concurrently.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import NumericError, StabilityError

__all__ = [
    "as_square_matrix",
    "solve_lyapunov",
]


def as_square_matrix(a) -> np.ndarray:
    """Validate and return the drift ``a`` as a finite square float matrix; errors call it "matrix"."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"matrix must be a square 2-d array, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    return m


def solve_lyapunov(a) -> np.ndarray:
    """Solve ``A C + C A^T = I`` for the stationary covariance C.

    Bartels-Stewart: reduce A to real Schur form ``A = Z T Z^T``, solve the
    quasi-triangular equation ``T Y + Y T^T = I`` by back-substitution
    (LAPACK ``trsyl``) and return ``C = Z Y Z^T``.  Costs O(d^3) time and
    O(d^2) memory.  C equals the integral of ``exp(-A t) exp(-A^T t)`` over
    [0, inf), so A must be stable.

    Parameters
    ----------
    a : array of shape (d, d)
        Drift matrix whose spectrum has strictly positive real parts.

    Returns
    -------
    Symmetric positive-definite array of shape (d, d).

    Raises
    ------
    ValueError
        If ``a`` is not a finite square matrix.
    StabilityError
        If an eigenvalue of A has real part <= 0.
    NumericError
        If the Schur decomposition fails to converge, or if A is stable but
        so close to singular that ``trsyl`` had to perturb the equation or
        C is not finite (for example ``[[1e-310]]``).
    """
    m = as_square_matrix(a)
    try:
        t, z = scipy.linalg.schur(m, output="real")
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"Schur decomposition failed to converge: {exc}") from exc
    # LAPACK standardizes each 2x2 block so that both diagonal entries are the real part
    min_real_part = float(np.min(np.diag(t)))
    if min_real_part <= 0.0:
        raise StabilityError(f"matrix is not stable: min eigenvalue real part {min_real_part:.6g} <= 0")
    # A = Z T Z^T, so Y = Z^T C Z solves T Y + Y T^T = I, up to trsyl's overflow guard `scale`
    y, scale, info = scipy.linalg.lapack.dtrsyl(t, t, np.eye(m.shape[0]), tranb="T")
    c = z @ (y / scale) @ z.T
    if info != 0 or not np.all(np.isfinite(c)):
        raise NumericError(f"Lyapunov equation is too close to singular (trsyl info {info}, scale {scale:.3g})")
    return 0.5 * (c + c.T)
