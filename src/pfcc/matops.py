"""Matrix operators used throughout the package.

The half-vectorizations ``vecv`` and ``vecm`` carry a sqrt(2) scaling on the
off-diagonal terms so that the quadratic form collapses to an inner product:

    vecv(x) . vecm(P) == x^T P x        (P symmetric)

That identity is what lets Bellman equations be rewritten as linear
regressions over measured data, so its exactness is load bearing.
"""

from __future__ import annotations

from functools import cache

import numpy as np

_SQRT2 = float(np.sqrt(2.0))

SYMMETRY_ATOL = 1e-12


@cache
def _triu_table(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-major upper-triangle indices (I, J) of order n and the
    half-vectorization weights: 1 on the diagonal, sqrt(2) off it."""
    rows, cols = np.triu_indices(n)
    weights = np.where(rows == cols, 1.0, _SQRT2)
    for a in (rows, cols, weights):
        a.flags.writeable = False
    return rows, cols, weights


@cache
def _square_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index tables between an order-n matrix and its upper-triangle slots
    (the ordering of ``_triu_table``): the flat position ``I * n + J`` of
    each slot, and the ``(n, n)`` table of each entry's slot, where entries
    (i, j) and (j, i) share one."""
    rows, cols, _ = _triu_table(n)
    flat = rows * n + cols
    full = np.empty((n, n), dtype=np.intp)
    full[rows, cols] = full[cols, rows] = np.arange(rows.size)
    for a in (flat, full):
        a.flags.writeable = False
    return flat, full


def vecv(d: np.ndarray) -> np.ndarray:
    """Upper-triangular vectorization of the outer square of a vector.

    Diagonal slots hold d_i**2, off-diagonal slots hold sqrt(2)*d_i*d_j,
    ordered row-major: (0,0), (0,1), ..., (0,n-1), (1,1), (1,2), ...
    A ``(rows, n)`` stack gives one such row per input row.
    """
    d = np.atleast_1d(np.asarray(d, dtype=float))
    if d.ndim > 2 or d.shape[-1] < 1:
        raise ValueError("vecv requires a vector of length >= 1 or a stack of them")
    rows, cols, weights = _triu_table(d.shape[-1])
    return (weights * d[..., rows]) * d[..., cols]


def vecm(s: np.ndarray, atol: float = SYMMETRY_ATOL) -> np.ndarray:
    """Half-vectorization of a symmetric matrix, same ordering as ``vecv``.

    Diagonal entries are kept as-is, off-diagonal entries scaled by sqrt(2).
    Raises ValueError when the input is asymmetric beyond ``atol`` or holds
    a non-finite entry.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"vecm requires a square matrix, got shape {s.shape}")
    if s.size and not np.abs(s - s.T).max() <= atol:
        raise ValueError("vecm requires a symmetric matrix")
    n = s.shape[0]
    flat, _ = _square_index(n)
    return _triu_table(n)[2] * s.ravel()[flat]


def unvecm(v: np.ndarray, n: int) -> np.ndarray:
    """Exact left inverse of ``vecm``: rebuild the symmetric matrix, one
    gather of the unscaled slots, so the result is exactly symmetric."""
    v = np.asarray(v, dtype=float).ravel()
    if v.size != n * (n + 1) // 2:
        raise ValueError(f"unvecm: expected length {n * (n + 1) // 2} for order {n}, got {v.size}")
    _, full = _square_index(n)
    return (v / _triu_table(n)[2])[full]


def unvec(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """The ``rows x cols`` matrix M whose column stacking
    [M[:,0]; M[:,1]; ...] is ``v``."""
    v = np.asarray(v, dtype=float).ravel()
    if v.size != rows * cols:
        raise ValueError(f"unvec: expected length {rows * cols}, got {v.size}")
    return v.reshape((rows, cols), order="F")


def pinv(b: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudo-inverse with a rank-revealing cutoff.

    Singular values below sigma_max * max(rows, cols) * eps are treated as
    zero; exact-rank behaviour on rank-deficient products like B^T P B is
    required by the gain formulas downstream.
    """
    b = np.atleast_2d(np.asarray(b, dtype=float))
    rcond = max(b.shape) * np.finfo(float).eps
    return np.linalg.pinv(b, rcond=rcond)


def spectral_radius(m: np.ndarray) -> float:
    """Largest eigenvalue modulus of a square matrix."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("spectral_radius requires a square matrix")
    if m.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(m))))


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Average a matrix with its transpose (guards against drift)."""
    m = np.asarray(m, dtype=float)
    return 0.5 * (m + m.T)


def is_positive_definite(m: np.ndarray, atol: float = SYMMETRY_ATOL) -> bool:
    """Cholesky-based positive definiteness test for symmetric input."""
    m = np.asarray(m, dtype=float)
    if not np.allclose(m, m.T, atol=atol, rtol=0.0):
        return False
    try:
        np.linalg.cholesky(m)
        return True
    except np.linalg.LinAlgError:
        return False
