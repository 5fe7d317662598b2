"""Online data-driven value iteration from measured trajectories.

A fixed window of (state, input, next-state) samples fills regression
matrices whose rows encode the quadratic-form identity

    vecv(X+) . vecm(P) = vecv(X) . vecm(A^T P A) + 2 (X (x) u) . vec(B^T P A)
                         + vecv(u) . vecm(B^T P B)

which holds for every input sequence.  Regressing the stacked blocks
(Xi1, Xi2, Xi3) against any persistently excited window therefore recovers
the model-dependent products without the model, and each value-iteration
sweep reproduces one model-based Riccati step exactly.  ``iterate`` stops
the sweeps once consecutive gains and value matrices agree, after which
exploration noise is switched off.
"""

from __future__ import annotations

import ctypes
import functools
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np
from numpy.linalg._umath_linalg import svd_s as _svd_gufunc
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

from .errors import ConvergenceError, DataConsistencyError, PersistentExcitationError, PfccError
from .matops import square_index, symmetrize, vecm, vecv
from .model_control import VI_AVERAGING

COLLECTING = "collecting"
ITERATING = "iterating"
CONVERGED = "converged"

#: Relative singular-value cutoff separating excited directions of a
#: window's regression from structurally dead ones.  Directions below this
#: floor carry less information than the quadratic features' round-off and
#: would be amplified by 1/sigma into garbage gains, so they are treated as
#: unexcited.
RANK_RCOND = 1e-6

#: Relative singular-value cutoff for inverting the estimated input-energy
#: block.  Regression noise lifts its structurally zero directions to about
#: the regression accuracy; directions below this floor are unactuated and
#: must not leak into the gain.
GAIN_PINV_RCOND = 1e-8

#: Magnitudes of a 1x1 Xi3 whose gain update takes the reciprocal instead
#: of ``pinv``.  LAPACK's SVD rescales a matrix whose largest entry lies
#: outside about [6.7e-139, 1.5e138], which can move its singular value by
#: an ulp; inside this range it is |x| exactly and the two agree bit for bit.
RECIPROCAL_RANGE = (1e-130, 1e130)

#: Relative residual above which a window is declared inconsistent with a
#: time-invariant model (the regression rows cannot all hold at once).
CONSISTENCY_RTOL = 1e-6

#: Largest entry of a value step, relative to the new P's largest entry, up
#: to which a sweep whose gain has settled is declared converged.
VALUE_STEP_RTOL = 1e-6


#: Standard deviation of the probing inputs a learner adds before it
#: converges.
NOISE_STD = 0.1

#: Gain step below which a sweep whose value step is within
#: ``VALUE_STEP_RTOL`` is declared converged.
GAIN_DELTA_THRESHOLD = 1e-8

#: Sweeps a learner may spend on its windows before ``iterate`` gives up.
MAX_ITERATIONS = 3000


def psi_columns(state_dim: int) -> int:
    return state_dim * (state_dim + 1) // 2


def theta_columns(state_dim: int, input_dim: int) -> int:
    return (psi_columns(state_dim) + state_dim * input_dim
            + input_dim * (input_dim + 1) // 2)


def window_rows(state_dim: int, input_dim: int) -> int:
    """Rows of a learner's window: the regression's unknowns plus 12, more
    than a persistently exciting window needs."""
    return theta_columns(state_dim, input_dim) + 12


class DataBuffer:
    """Fixed window of recorded transitions for one agent's augmented system.

    The window stores the recorded transitions, ``x``, ``u`` and ``x+``, in
    order until it is full; a full window must be flushed before it takes
    new transitions.  Row t of ``theta`` is [vecv(x), 2 x (x) u, vecv(u)]
    and row t of ``psi_next`` is vecv(x+), for the t-th transition.  Each
    read builds the rows of every recorded transition in one vectorized
    pass, each entry the same elementwise product a transition at a time
    would give, so recording costs only the copy.
    """

    def __init__(self, state_dim: int, input_dim: int, capacity: int):
        if capacity < 2:
            raise ValueError("capacity must be at least 2")
        self.state_dim = state_dim
        self.input_dim = input_dim
        self.capacity = capacity
        try:  # numpy raises either error for a window too large to allocate
            self._x = np.empty((capacity, state_dim))
            self._u = np.empty((capacity, input_dim))
            self._x_next = np.empty((capacity, state_dim))
        except (MemoryError, ValueError) as exc:
            raise MemoryError(f"learner window of {capacity} rows does not fit in memory") from exc
        self._rows = 0

    def __len__(self) -> int:
        return self._rows

    @property
    def is_full(self) -> bool:
        return self._rows >= self.capacity

    def record(self, x: np.ndarray, u: np.ndarray, x_next: np.ndarray) -> "DataBuffer":
        """Append one transition, or a stack of them as ``(rows, dim)`` arrays."""
        x, u, x_next = (np.array(a, dtype=float, copy=None, ndmin=2) for a in (x, u, x_next))
        n, m = self.state_dim, self.input_dim
        if x.shape[1:] != (n,) or x_next.shape[1:] != (n,):
            raise ValueError(f"state dimension mismatch: expected {n}")
        if u.shape[1:] != (m,):
            raise ValueError(f"input dimension mismatch: expected {m}")
        rows = x.shape[0]
        if u.shape[0] != rows or x_next.shape[0] != rows:
            raise ValueError("x, u and x_next must hold the same number of rows")
        start, stop = self._rows, self._rows + rows
        if stop > self.capacity:
            raise ValueError(f"window holds {self.capacity} rows; flush it before "
                             "recording more")
        self._x[start:stop] = x
        self._u[start:stop] = u
        self._x_next[start:stop] = x_next
        self._rows = stop
        return self

    def flush(self) -> None:
        self._rows = 0

    # -- regression rows of the recorded transitions ------------------------
    def theta(self) -> np.ndarray:
        rows, n, m = self._rows, self.state_dim, self.input_dim
        x, u = self._x[:rows], self._u[:rows]
        return np.concatenate([vecv(x), 2.0 * (x[:, :, None] * u[:, None, :]).reshape(rows, n * m),
                               vecv(u)], axis=1)

    def psi_next(self) -> np.ndarray:
        # vecv of a stack is not C-contiguous, and ``psi_next @ vecm(P)``
        # rounds differently on such an array
        return np.ascontiguousarray(vecv(self._x_next[: self._rows]))


class WindowPlan:
    """The work of a value-iteration sweep that depends only on the window
    ``buf``, done once when ``iterate`` builds the plan of a full window.

    The regression ``theta @ xi = psi_next @ vecm(P)``, its rows scaled by
    ``scale``, is linear in ``vecm(P)``, so its solution is folded, when the
    plan is built, into one ``(unknowns, psi)`` operator; the factors are
    not kept.  A window needs at least as many rows as unknowns; its
    regression is solved min-norm over the singular directions above
    ``RANK_RCOND * s[0]``, which keeps a window whose augmented state is
    partly unexcited (for example a tracking block resting at the origin)
    from amplifying round-off into the gain.  When the Householder QR
    ``Q R`` of the scaled ``theta`` certifies that the rule keeps every
    direction, as on a probe window, the fold is
    ``R^-1 Q^T diag(scale) psi_next``, ``R^-1`` inverted as a triangle, the
    same solution for a fraction of an SVD's flops; otherwise it is
    ``V S^-1 U^T diag(scale) psi_next`` over the kept directions of the
    truncated SVD ``U S V^T``.  A window with an all-zero column, as every
    engine closed-loop window has, goes to the SVD without a QR.  The plan
    keeps the fold, the scaled regression matrix, its row scale and the
    ``psi_next`` rows, from which each sweep forms its right-hand side and
    residual for the consistency check, and the tables that unpack a
    solution into the Xi blocks.  A row whose norm is not finite, an
    overflow included, raises ``ConvergenceError``."""

    __slots__ = ("scale", "psi_next", "_matrix", "_fold",
                 "_xi2", "_xi2_shape", "_weights", "_xi1_gather", "_xi3_gather")

    def __init__(self, buf: DataBuffer):
        theta = buf.theta()
        norms = np.linalg.norm(theta, axis=1)
        # a row norm that overflows would scale its row to zero
        if not np.isfinite(norms).all():
            raise ConvergenceError("window regression is not finite; the window "
                                   "has left the float range")
        self.scale = 1.0 / np.maximum(1.0, norms)
        matrix = theta * self.scale[:, None]
        if matrix.shape[0] < matrix.shape[1]:
            raise PersistentExcitationError(
                f"window has {matrix.shape[0]} rows for {matrix.shape[1]} unknowns; "
                "collect more samples")
        self._matrix = matrix
        self.psi_next = buf.psi_next()
        rhs = self.scale[:, None] * self.psi_next
        fold = _certified_qr_fold(matrix, rhs)
        if fold is None:
            u, s, vt = _svd(matrix)
            if s[0] == 0.0:
                raise PersistentExcitationError(
                    "regression matrix is zero; no excitation in the window")
            keep = s > RANK_RCOND * s[0]
            fold = vt[keep].T @ ((1.0 / s[keep])[:, None] * (u[:, keep].T @ rhs))
        self._fold = fold
        n, m = buf.state_dim, buf.input_dim
        c1 = psi_columns(n)
        self._xi2 = slice(c1, c1 + n * m)
        self._xi2_shape = (m, n)
        # one division for both half-vectorized blocks; the Xi2 slots are
        # divided by 1 and not read from the quotient
        xi1_weights, _, xi1_full = square_index(n)
        xi3_weights, _, xi3_full = square_index(m)
        self._weights = np.concatenate([xi1_weights, np.ones(n * m), xi3_weights])
        self._xi1_gather = xi1_full
        self._xi3_gather = xi3_full + (c1 + n * m)

    def xi(self, p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Recover (A^T P A, B^T P A, B^T P B) from the window by regression
        at the value matrix ``p``.

        The row identity holds for arbitrary inputs, so this step is exact
        for any persistently excited window regardless of the behaviour
        policy.  ``p`` is a 2-D, exactly symmetric value matrix, as
        ``learning_tick`` produces it; it is not re-symmetrized, and
        ``vecm`` rejects one that is asymmetric beyond its tolerance (a
        ``ConvergenceError`` when it is not finite).  The solution is the
        min-norm least-squares one, one product of the fold; a
        ``DataConsistencyError`` is raised when the regression is
        inconsistent beyond the round-off of an exact-transition window,
        and a ``ConvergenceError`` when its right-hand side or solution is
        not finite.  The blocks come back as 2-D arrays, ``Xi1`` and
        ``Xi3`` exactly symmetric.
        """
        try:
            p_slots = vecm(p)
        except ValueError:
            # inf - inf reads as an asymmetry: name the overflow instead
            if not np.isfinite(p).all():
                raise ConvergenceError("value matrix is not finite; the value iteration "
                                       "has left the float range") from None
            raise
        solution = self._fold @ p_slots
        rhs = (self.psi_next @ p_slots) * self.scale
        residual = self._matrix @ solution - rhs
        res_norm, rhs_norm = _norm(residual), _norm(rhs)
        if not math.isfinite(res_norm + rhs_norm):
            # a squared norm overflowed (entries beyond ~1e154): compare the
            # same two vectors scaled to a largest entry of 1
            peak = max(np.abs(residual).max(), np.abs(rhs).max())
            if math.isfinite(peak):
                res_norm, rhs_norm = _norm(residual / peak), _norm(rhs / peak)
            # an inf or nan entry: no comparison fails on a nan, so the
            # solution would pass on into the value iteration
            if not math.isfinite(res_norm + rhs_norm):
                raise ConvergenceError("window regression is not finite; the window "
                                       "or the value matrix has left the float range")
        if res_norm > CONSISTENCY_RTOL * max(rhs_norm, 1e-12):
            raise DataConsistencyError(
                "window rows are mutually inconsistent (relative residual "
                f"{res_norm / max(rhs_norm, 1e-300):.2e}); "
                "samples were likely taken during an observer transient")
        return self.blocks(solution)

    def blocks(self, stacked: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Xi1 (n x n), Xi2 (m x n) and Xi3 (m x m) from a solution
        ``[vecm(Xi1), vec(Xi2), vecm(Xi3)]``: the half-vectorized blocks
        each as one gather of the unscaled slots, so they come back exactly
        symmetric, and Xi2 as the column-stacked view."""
        unscaled = stacked / self._weights
        return (unscaled[self._xi1_gather],
                stacked[self._xi2].reshape(self._xi2_shape, order="F"),
                unscaled[self._xi3_gather])


def _certified_qr_fold(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """The least-squares fold ``inv(R) @ (Q^T rhs)`` of ``matrix``'s reduced
    Householder QR, or None unless the QR certifies that the truncated SVD
    would keep every direction, ``s[-1] > RANK_RCOND * s[0]``.  A window
    with an all-zero column, as every engine window has, is rank deficient
    and returns None without a QR (Householder reflections would keep that
    column zero, and its ``R_jj`` would be 0).  ``matrix`` and ``R`` share
    their singular values, with ``s[-1] <= min|R_ii|`` and
    ``s[0] >= max|R_ii|``, so a diagonal ratio at or below ``RANK_RCOND``
    means the SVD would truncate, and no inverse is taken; otherwise
    ``s[0] / s[-1] <= ||R||_F ||inv(R)||_F`` decides, ``inv(R)`` taken as a
    triangle by ``_upper_inverse``.  The factors are released on return,
    before any SVD of the same window."""
    if not matrix.any(axis=0).all():
        return None
    q, r = np.linalg.qr(matrix)
    diag = np.abs(np.diagonal(r))
    if not diag.min() > RANK_RCOND * diag.max():
        return None
    r_inv = _upper_inverse(r)
    if not _norm(r) * _norm(r_inv) * RANK_RCOND < 1.0:
        return None
    return r_inv @ (q.T @ rhs)


def _upper_inverse(r: np.ndarray) -> np.ndarray:
    """Inverse of an upper-triangular ``r`` with a nonzero diagonal, by the
    2x2 block rule ``inv([[A, B], [0, D]]) = [[Ai, -(Ai B) Di], [0, Di]]``
    down to blocks of at most 32 columns, which ``np.linalg.inv`` inverts
    (its LU of a triangle pivots on the diagonal and leaves the lower part
    zero).  About a third of the flops of a general inverse, most of them
    in matrix products, with the same error bounds (Du Croz and Higham,
    IMA J. Numer. Anal. 12, 1992); the strictly lower part is exactly 0."""
    n = r.shape[0]
    if n <= 32:
        return np.linalg.inv(r)
    h = n // 2
    a_inv, d_inv = _upper_inverse(r[:h, :h]), _upper_inverse(r[h:, h:])
    return np.block([[a_inv, -(a_inv @ r[:h, h:]) @ d_inv], [np.zeros((n - h, h)), d_inv]])


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a real array, bit for bit numpy's ``linalg.norm``
    (``sqrt(x.dot(x))`` over the entries flattened in memory order).
    ``np.vdot`` runs the same BLAS dot as ``x.dot`` but does not warn when
    the sum of squares overflows to inf."""
    v = v.ravel(order="K")
    return math.sqrt(np.vdot(v, v))


def _svd_did_not_converge(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge")


# The decorator sets its error state afresh on each call (one errstate
# object cannot be entered twice).
@np.errstate(call=_svd_did_not_converge, invalid="call", over="ignore",
             divide="ignore", under="ignore")
def _svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The reduced SVD ``(u, s, vt)`` of a 2-D float array, ``s`` in
    descending order, bit for bit ``np.linalg.svd(a, full_matrices=False)``:
    the LAPACK gufunc that call runs, under the error state it sets (an SVD
    that does not converge raises the same LinAlgError), without the
    argument handling, which costs more than a 2x2 SVD itself."""
    return _svd_gufunc(a, signature="d->ddd")


@functools.cache
def _openblas_threads():
    """The ``(get, set)`` thread-count calls of the OpenBLAS numpy ships
    (``numpy.libs`` beside the package, or ``numpy/.dylibs`` on macOS),
    looked up on first use; None when numpy's BLAS is something else."""
    package = Path(np.__file__).parent
    for path in [*package.parent.glob("numpy.libs/*openblas*"),
                 *package.glob(".dylibs/*openblas*")]:
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def _one_blas_thread(fn):
    """Run ``fn`` with numpy's OpenBLAS on one thread and give the caller's
    thread count back on every exit.  A window's QR or SVD and the fold's
    GEMMs are too small to gain from a second thread, and the hand-off to it
    sometimes stalls for 0.1-1 s; the exports are byte-identical at either
    count.  The count is the process's: calls that overlap in several
    Python threads can leave it at one."""
    @functools.wraps(fn)
    def scoped(*args, **kwargs):
        calls = _openblas_threads()
        if calls is None:
            return fn(*args, **kwargs)
        get, set_ = calls
        threads = get()
        set_(1)
        try:
            return fn(*args, **kwargs)
        finally:
            set_(threads)
    return scoped


def vi_update_K(xi2: np.ndarray, xi3: np.ndarray) -> np.ndarray:
    """Gain update K = -(Xi3)^+ Xi2.

    ``xi2`` (m x n) and ``xi3`` (m x m) are 2-D arrays and ``xi3`` is
    exactly symmetric, as a window plan's ``xi`` returns them; neither is
    reshaped or re-symmetrized here.  The minus sign matches the
    model-based gain formula; the pseudo-inverse keeps the update well
    defined for over-actuated agents where Xi3 is singular, with a cutoff
    at the regression noise floor.  A 1x1 Xi3 within ``RECIPROCAL_RANGE`` is
    its own only singular value, far above the cutoff, so its
    pseudo-inverse is the reciprocal, computed directly.  Any other Xi3
    takes the steps of numpy's ``linalg.pinv`` around the same LAPACK SVD
    (``_svd``), so the gain is bit for bit
    ``-pinv(xi3, rcond=GAIN_PINV_RCOND) @ xi2``; when every singular value
    clears the cutoff, the masked reciprocal is the plain one.  The
    singular values come sorted, so ``s[0]`` and ``s[-1]`` are the largest
    and smallest; the SVD raises on a nan entry, and the nans of a 2x2
    with an infinite entry fill all of ``s``, where both read nan as the
    max and min do (the test fails and the masked path zeroes every one).
    """
    if (xi3.shape == (1, 1)
            and RECIPROCAL_RANGE[0] <= abs(xi3[0, 0]) <= RECIPROCAL_RANGE[1]):
        return -(1.0 / xi3) @ xi2
    u, s, vt = _svd(xi3)
    cutoff = GAIN_PINV_RCOND * s[0]
    if s[-1] > cutoff:
        return -np.matmul(vt.T, (1 / s)[:, None] * u.T) @ xi2
    large = s > cutoff
    np.divide(1, s, where=large, out=s)
    s[~large] = 0
    return -np.matmul(vt.T, s[:, None] * u.T) @ xi2


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """``init`` and its next ``count`` products with ``mult`` modulo 2**32,
    as a uint32 column."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, dtype=np.uint32)[:, None]


# numpy's SeedSequence hash, for two entropy words and its four-word pool.
# Its hash constants advance by fixed multipliers whatever the entropy, so
# they are tabulated once: 4 pool words plus 3 cross mixes from each of the
# 4 pool words, then 8 output words.
_POOL_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_OUTPUT_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MIX_TARGETS = tuple([d for d in range(4) if d != s] for s in range(4))


def _seed_words(seed: int, ticks: np.ndarray) -> np.ndarray:
    """Row t is ``SeedSequence([seed, ticks[t]]).generate_state(4, np.uint64)``
    for a seed and ticks below 2**32 (one entropy word each), hashed for
    every tick at once."""
    pool = np.zeros((4, ticks.size), dtype=np.uint32)
    pool[0] = seed
    pool[1] = ticks
    pool ^= _POOL_HASH[:4]
    pool *= _POOL_HASH[1:5]
    pool ^= pool >> _XSHIFT
    k = 4
    for src, targets in enumerate(_MIX_TARGETS):
        h = (pool[src] ^ _POOL_HASH[k : k + 3]) * _POOL_HASH[k + 1 : k + 4]
        h ^= h >> _XSHIFT
        mixed = _MIX_MULT_L * pool[targets] - _MIX_MULT_R * h
        pool[targets] = mixed ^ (mixed >> _XSHIFT)
        k += 3
    state = (np.concatenate([pool, pool]) ^ _OUTPUT_HASH[:8]) * _OUTPUT_HASH[1:]
    state ^= state >> _XSHIFT
    state = state.astype(np.uint64)
    # little-endian pairs, the low word first; PCG64 reads each row's buffer
    # directly, so the rows must be contiguous
    return (state[0::2] | state[1::2] << np.uint64(32)).T.copy()


class _SeedWords(ISeedSequence):
    """Seed source that hands ``PCG64`` precomputed state words (it always
    asks for four uint64 words)."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def exploration_noise(seed: int, width: int, ticks) -> np.ndarray:
    """Seeded zero-mean Gaussian probing inputs (only drawn before
    convergence), one ``width`` row per tick of ``ticks``.

    Row t is bit for bit the ``normal(0, NOISE_STD, width)`` draw of a
    fresh numpy generator seeded with ``[seed & 0x7FFFFFFF, tick]``,
    so a row depends only on the seed and its tick, not on which block it
    was drawn in.  The SeedSequence hash runs once for all ticks; each row
    then seeds its own ``PCG64`` and draws its standard normals in place,
    and the block is scaled once: numpy's ``normal`` is ``0.0 + std * z``,
    and ``std * z + 0.0`` is the same sum.  Ticks must lie in [0, 2**32).
    """
    ticks = np.asarray(ticks)
    if ticks.size and not (ticks.min() >= 0 and ticks.max() < 2**32):
        raise ValueError("noise ticks must lie in [0, 2**32)")
    out = np.zeros((ticks.size, width))
    for row, words in zip(out, _seed_words(seed & 0x7FFFFFFF, ticks)):
        Generator(PCG64(_SeedWords(words))).standard_normal(out=row)
    return NOISE_STD * out + 0.0


class LearnedController(NamedTuple):
    """Iterate of the data-driven value iteration for one agent.  An
    immutable record; each sweep builds one, so it is a tuple rather than a
    frozen dataclass, which costs about four times as much to build."""

    P_hat: np.ndarray
    K_hat: np.ndarray
    Xi: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
    status: str = COLLECTING
    iterations: int = 0
    last_gain_delta: float = float("inf")

    @classmethod
    def create(cls, state_dim: int, input_dim: int) -> "LearnedController":
        return cls(P_hat=np.eye(state_dim),
                   K_hat=np.zeros((input_dim, state_dim)))


def learning_tick(ctrl: LearnedController, plan: WindowPlan,
                  cost: np.ndarray) -> LearnedController:
    """One value-iteration sweep against ``plan``, a full window's
    ``WindowPlan`` or any object whose ``xi(P)`` returns the three blocks.

    The value update applies the Bellman backup through the regressed Xi
    blocks of the previous iterate, the Xi blocks are re-regressed at the
    new value matrix, and the gain is refreshed from them.  Convergence is
    declared once consecutive gains differ by less than
    ``GAIN_DELTA_THRESHOLD`` and the value step is within ``VALUE_STEP_RTOL``,
    at which point the behaviour policy switches to the learned gain without
    probing noise.  ``cost`` is the window's ``model_control.stage_cost``.
    """
    xi_prev = ctrl.Xi
    if xi_prev is None:
        xi_prev = plan.xi(ctrl.P_hat)
    xi1, xi2, xi3 = xi_prev
    k = ctrl.K_hat
    kt = k.T
    backup = symmetrize(cost + xi1 + kt @ xi2 + xi2.T @ k + kt @ xi3 @ k)
    p_new = (1.0 - VI_AVERAGING) * ctrl.P_hat + VI_AVERAGING * backup
    xi_new = plan.xi(p_new)
    k_new = vi_update_K(xi_new[1], xi_new[2])
    delta = _norm(k_new - ctrl.K_hat)
    # the value step in max-abs: _norm squares entries, which overflow at scale
    settled = (delta < GAIN_DELTA_THRESHOLD
               and np.abs(p_new - ctrl.P_hat).max() <= VALUE_STEP_RTOL * np.abs(p_new).max())
    status = CONVERGED if settled else ITERATING
    # positional: a NamedTuple builds from keywords at about three times the cost
    return LearnedController(p_new, k_new, xi_new, status, ctrl.iterations + 1, delta)


@_one_blas_thread
@np.errstate(over="ignore", invalid="ignore")
def iterate(buf: DataBuffer, cost: np.ndarray) -> LearnedController:
    """Solve the full window ``buf``: build its ``WindowPlan`` once, then
    sweep it with ``learning_tick`` from a fresh controller until one
    converges, at most ``MAX_ITERATIONS``; a value matrix that leaves the
    float range is reported by the sweep's checks, not as a warning.
    Raises ``ConvergenceError`` once the bound is spent unconverged; every
    error, the plan's included, carries the last controller reached as its
    ``controller``.  The plan and the sweeps run on one OpenBLAS thread, and
    the caller's count is restored on return or raise."""
    ctrl = prev = LearnedController.create(buf.state_dim, buf.input_dim)
    try:
        plan = WindowPlan(buf)
        for _ in range(MAX_ITERATIONS):
            prev, ctrl = ctrl, learning_tick(ctrl, plan, cost)
            if ctrl.status == CONVERGED:
                return ctrl
        step = np.abs(ctrl.P_hat - prev.P_hat).max() / np.abs(ctrl.P_hat).max()
        raise ConvergenceError(f"learner did not converge in {MAX_ITERATIONS} "
                               f"iterations (last gain delta {ctrl.last_gain_delta:.3e}, "
                               f"last value step {step:.3e})")
    except PfccError as exc:
        exc.controller = ctrl
        raise
