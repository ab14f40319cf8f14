"""Dense linear-algebra primitives: square-matrix validation, the matrix exponential and the Lyapunov solve.

``expm`` is the scaling-and-squaring Pade method of Higham (SIAM J. Matrix
Anal. Appl. 26(4), 2005).  ``solve_lyapunov`` runs the scaled Newton
iteration for the matrix sign function (Roberts 1980, with the determinant
scaling of Byers 1987).  Both cost O(d^3) time and O(d^2) memory and need
only ``numpy``.  All routines operate on plain square ``numpy`` arrays and
are pure functions of their inputs, so they are safe to call concurrently.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError, StabilityError

__all__ = [
    "as_square_matrix",
    "expm",
    "solve_lyapunov",
]

# Higham (2005), Table 2.3: for each Pade degree m that expm uses, the largest 1-norm theta_m at which the
# diagonal [m/m] approximant of exp is accurate to double precision
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1, 7: 9.504178996162932e-1, 9: 2.097847961257068,
          13: 5.371920351148152}

# The sign iteration converges quadratically, so once a step moves E by at most _SIGN_TOL (relative, 1-norm)
# the error left in C is of order _SIGN_TOL^2, below rounding.  Scaled Newton needs about 10 steps in practice.
_SIGN_TOL = 1e-10
_SIGN_MAX_ITERS = 100


def as_square_matrix(a) -> np.ndarray:
    """Validate and return the drift ``a`` as a finite square float matrix; errors call it "matrix"."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"matrix must be a square 2-d array, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    return m


def _pade_coefficients(m: int) -> list[float]:
    """Numerator coefficients b_0..b_m of the [m/m] Pade approximant of exp, scaled to b_m = 1 (Higham 2005, (2.4))."""
    return [math.factorial(2 * m - k) / (math.factorial(k) * math.factorial(m - k)) for k in range(m + 1)]


def expm(a: np.ndarray) -> np.ndarray:
    """The matrix exponential of a finite square float array.

    Scaling and squaring with a diagonal Pade approximant (Higham 2005,
    Algorithm 2.3): the smallest degree m in 3, 5, 7, 9 whose bound
    theta_m covers ``||A||_1``; otherwise degree 13 on ``A / 2^s``, with s
    the least integer that brings the norm to theta_13 = 5.37, and s
    squarings of the result.
    """
    norm = float(np.linalg.norm(a, 1))
    eye = np.eye(a.shape[0])
    for m in (3, 5, 7, 9):
        if norm <= _THETA[m]:
            b = _pade_coefficients(m)
            powers = [eye, a @ a]  # A^0, A^2, ..., A^(m-1)
            for _ in range(m // 2 - 1):
                powers.append(powers[-1] @ powers[1])
            u = a @ sum(b[2 * k + 1] * p for k, p in enumerate(powers))
            v = sum(b[2 * k] * p for k, p in enumerate(powers))
            return np.linalg.solve(v - u, v + u)
    b = _pade_coefficients(13)
    s = max(0, math.ceil(math.log2(norm / _THETA[13])))
    a = a / 2.0**s
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def solve_lyapunov(a) -> np.ndarray:
    """Solve ``A C + C A^T = I`` for the stationary covariance C.

    Scaled Newton iteration for the matrix sign function (Roberts 1980;
    determinant scaling, Byers 1987).  From ``E = A`` and ``F = I`` each
    step sets ``c = |det E|^(-1/d)``, ``E <- (cE + (cE)^-1) / 2`` and
    ``F <- (cF + c^-1 E^-1 F E^-T) / 2``, which keeps ``E C + C E^T = F``.
    E converges quadratically to sign(A) = I, so ``C = F / 2``, returned
    symmetrized.  The iteration stops once a step changes E by at most
    1e-10 relative in the 1-norm.  Costs O(d^3) time per step, about ten
    steps, and O(d^2) memory.  C equals the integral of
    ``exp(-A t) exp(-A^T t)`` over [0, inf), so A must be stable.

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
        If an eigenvalue of A (``np.linalg.eigvals``) has real part <= 0.
    NumericError
        If an iterate is not finite or E is singular, as when A is stable
        but so close to singular that C overflows (for example
        ``[[1e-310]]``), or if the iteration has not converged within 100
        steps.
    """
    m = as_square_matrix(a)
    min_real_part = float(np.linalg.eigvals(m).real.min())
    if min_real_part <= 0.0:
        raise StabilityError(f"matrix is not stable: min eigenvalue real part {min_real_part:.6g} <= 0")
    d = m.shape[0]
    e, f = m, np.eye(d)
    with np.errstate(all="ignore"):  # overflow surfaces as a non-finite iterate, checked below
        for _ in range(_SIGN_MAX_ITERS):
            try:
                e_inv = np.linalg.inv(e)
            except np.linalg.LinAlgError as exc:
                raise NumericError(f"Lyapunov equation is too close to singular: {exc}") from exc
            c = np.exp(-np.linalg.slogdet(e)[1] / d)
            g = e_inv / c  # (cE)^-1, which keeps g F g^T in range where E^-1 F E^-T would overflow
            e_next = 0.5 * (c * e + g)
            f = 0.5 * c * (f + g @ f @ g.T)
            if not (np.all(np.isfinite(e_next)) and np.all(np.isfinite(f))):
                raise NumericError("Lyapunov equation is too close to singular: a sign iterate is not finite")
            step = np.linalg.norm(e_next - e, 1)
            e = e_next
            if step <= _SIGN_TOL * np.linalg.norm(e, 1):
                return 0.25 * (f + f.T)
    raise NumericError(f"Lyapunov sign iteration did not converge in {_SIGN_MAX_ITERS} steps")
