"""Independent spectral oracle: cyclic Jacobi eigenvalues in pure Python.

The library takes every eigenvalue and singular value from LAPACK; this
solver shares no code with it, so tests compare the two.
"""

import math

import numpy as np

from netgoods.errors import InputError

JACOBI_TOL = 1e-12
JACOBI_MAX_SWEEPS = 100


def _off_norm(a: np.ndarray) -> float:
    """Frobenius norm of the off-diagonal part, summed directly (no cancellation)."""
    b = a.copy()
    np.fill_diagonal(b, 0.0)
    return float(np.linalg.norm(b))


def jacobi_eigenvalues(
    m: np.ndarray, tol: float = JACOBI_TOL, max_sweeps: int = JACOBI_MAX_SWEEPS
) -> np.ndarray:
    """All eigenvalues of a symmetric matrix by cyclic Jacobi rotations, ascending."""
    a = np.array(m, dtype=float)
    n = a.shape[0]
    if a.ndim != 2 or a.shape != (n, n):
        raise InputError(f"need a square matrix, got shape {a.shape}")
    if np.max(np.abs(a - a.T)) > 1e-12 * max(1.0, np.max(np.abs(a))):
        raise InputError("matrix is not symmetric")
    a = 0.5 * (a + a.T)
    if n == 1:
        return np.diag(a).copy()
    scale = float(np.linalg.norm(a))
    if scale == 0.0:
        return np.zeros(n)
    for _ in range(max_sweeps):
        if _off_norm(a) <= tol * scale:
            return np.sort(np.diag(a))
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 0.1 * tol * scale / n:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                ap = a[p, :].copy()
                aq = a[q, :].copy()
                a[p, :] = c * ap - s * aq
                a[q, :] = s * ap + c * aq
                ap = a[:, p].copy()
                aq = a[:, q].copy()
                a[:, p] = c * ap - s * aq
                a[:, q] = s * ap + c * aq
    off = _off_norm(a)
    if off <= 1e3 * tol * scale:
        return np.sort(np.diag(a))
    raise AssertionError(f"Jacobi sweeps exceeded {max_sweeps} (off-norm {off:g})")
