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
from numpy.linalg._umath_linalg import cholesky_lo as _cholesky_gufunc

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
def square_index(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather tables between an order-n symmetric matrix and its
    half-vectorization (the slot ordering of ``vecm``): the weight of each
    slot, the flat position ``I * n + J`` of each slot, and the ``(n, n)``
    table of each entry's slot, where entries (i, j) and (j, i) share one.
    ``weights * s.ravel()[flat]`` is ``vecm(s)``, and ``(v / weights)[full]``
    its exact left inverse, an exactly symmetric matrix."""
    rows, cols, weights = _triu_table(n)
    flat = rows * n + cols
    full = np.empty((n, n), dtype=np.intp)
    full[rows, cols] = full[cols, rows] = np.arange(rows.size)
    for a in (flat, full):
        a.flags.writeable = False
    return weights, flat, full


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


def vecm(s: np.ndarray) -> np.ndarray:
    """Half-vectorization of a symmetric matrix, same ordering as ``vecv``.

    Diagonal entries are kept as-is, off-diagonal entries scaled by sqrt(2).
    Raises ValueError when the input is asymmetric beyond ``SYMMETRY_ATOL``
    or holds a non-finite entry.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"vecm requires a square matrix, got shape {s.shape}")
    # s - s.T is exactly antisymmetric, so its max is its largest magnitude
    # (or nan, as that of a matrix holding inf - inf would be)
    if s.size and not (s - s.T).max() <= SYMMETRY_ATOL:
        raise ValueError("vecm requires a symmetric matrix")
    weights, flat, _ = square_index(s.shape[0])
    return weights * s.ravel()[flat]


def as_floats(value) -> np.ndarray:
    """``value`` as a float array; an entry that is an int past the float
    range makes every entry NaN, which ``ScenarioConfig.check_fields``
    rejects as not finite."""
    try:
        return np.asarray(value, dtype=float)
    except OverflowError:
        return np.full(np.shape(value), np.nan)


def row_sq_norms(d: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of each row of a 2-D ``d``, bit for bit
    ``float(row.dot(row))``: one stacked (1, n) @ (n, 1) product per row
    (``(d * d).sum(axis=1)``, ``einsum`` and ``norm(axis=1)`` sum in
    another order)."""
    return np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0]


def pinv(b: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudo-inverse with a rank-revealing cutoff.

    Singular values below sigma_max * max(rows, cols) * eps are treated as
    zero; exact-rank behaviour on rank-deficient products like B^T P B is
    required by the gain formulas downstream.  A ``(..., rows, cols)``
    stack gives each matrix the pseudo-inverse it gets on its own: the
    cutoff reads its rows and columns from the last two axes.
    """
    b = np.atleast_2d(np.asarray(b, dtype=float))
    rcond = max(b.shape[-2:]) * np.finfo(float).eps
    return np.linalg.pinv(b, rcond=rcond)


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Average a matrix with its transpose (guards against drift)."""
    m = np.asarray(m, dtype=float)
    return 0.5 * (m + m.T)


def is_positive_definite(m: np.ndarray) -> np.ndarray:
    """Cholesky-based positive definiteness test of each matrix of a
    ``(..., n, n)`` stack, as a boolean array of the stack's shape (a 0-d
    one for a single matrix).

    A matrix asymmetric beyond ``SYMMETRY_ATOL`` is not positive definite,
    and neither is one with a non-finite entry (its asymmetry is not a
    number).  The whole stack takes one symmetry check and one call of the
    Cholesky gufunc that ``np.linalg.cholesky`` runs, which leaves a matrix
    without a factor as nan where ``np.linalg.cholesky`` would raise for
    the whole stack.
    """
    m = np.asarray(m, dtype=float)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore", under="ignore"):
        asymmetry = np.abs(m - np.swapaxes(m, -1, -2)).max(axis=(-2, -1), initial=0.0)
        factor = _cholesky_gufunc(m, signature="d->d")
    return (asymmetry <= SYMMETRY_ATOL) & ~np.isnan(factor).any(axis=(-2, -1))
