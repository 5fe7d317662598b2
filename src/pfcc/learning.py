"""Online data-driven value iteration from measured trajectories.

A fixed window of (state, input, next-state) samples fills regression
matrices whose rows encode the quadratic-form identity

    vecv(X+) . vecm(P) = vecv(X) . vecm(A^T P A) + 2 (X (x) u) . vec(B^T P A)
                         + vecv(u) . vecm(B^T P B)

which holds for every input sequence.  Regressing the stacked blocks
(Xi1, Xi2, Xi3) against any persistently excited window therefore recovers
the model-dependent products without the model, and one value-iteration
sweep per tick reproduces the model-based Riccati iteration exactly.  The
iteration stops when consecutive gains agree, after which exploration noise
is switched off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

from .errors import DataConsistencyError, PersistentExcitationError
from .matops import symmetrize, unvec, unvecm, vecm, vecv
from .model_control import VI_AVERAGING

COLLECTING = "collecting"
ITERATING = "iterating"
CONVERGED = "converged"

#: Relative singular-value cutoff separating excited directions from
#: structurally dead ones when rank deficiency is tolerated.  Directions
#: below this floor carry less information than the quadratic features'
#: round-off and would be amplified by 1/sigma into garbage gains, so they
#: are treated as unexcited.
RANK_RCOND = 1e-6

#: Condition-number ceiling beyond which a window is treated as unexcited.
CONDITION_LIMIT = 1e12

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


@dataclass(frozen=True)
class LearnerConfig:
    """Knobs of one agent's learner.

    ``window`` counts the extra samples beyond two; the buffer holds
    window + 2 rows.  ``None`` sizes the window from the regression width
    (columns of the stacked data matrix plus ten extra rows).
    """

    noise_std: float = 0.1
    gain_delta_threshold: float = 1e-6
    window: int | None = None
    rng_seed: int = 0
    relearn_on_alpha_change: bool = True
    max_iterations: int = 2000

    def __post_init__(self):
        if self.window is not None and self.window < 0:
            raise ValueError("learner window must be >= 0")
        if not (np.isfinite(self.noise_std) and self.noise_std >= 0):
            raise ValueError("learner noise_std must be finite and >= 0")
        if not self.gain_delta_threshold > 0:
            raise ValueError("learner gain_delta_threshold must be positive")
        if self.max_iterations < 1:
            raise ValueError("learner max_iterations must be >= 1")

    def rows_for(self, state_dim: int, input_dim: int) -> int:
        if self.window is not None:
            return self.window + 2
        return theta_columns(state_dim, input_dim) + 12


def psi_columns(state_dim: int) -> int:
    return state_dim * (state_dim + 1) // 2


def theta_columns(state_dim: int, input_dim: int) -> int:
    return (psi_columns(state_dim) + state_dim * input_dim
            + input_dim * (input_dim + 1) // 2)


class DataBuffer:
    """Fixed window of regression rows for one agent's augmented system.

    Row t of ``theta`` is [vecv(x), 2 x (x) u, vecv(u)] and row t of
    ``psi_next`` is vecv(x+), for the t-th recorded transition.  Both arrays
    are allocated once; rows are filled in order until the window is full,
    and a full window must be flushed before it takes new rows.  The solver
    factorization is cached until the next record or flush.
    """

    def __init__(self, state_dim: int, input_dim: int, capacity: int):
        if capacity < 2:
            raise ValueError("capacity must be at least 2")
        self.state_dim = state_dim
        self.input_dim = input_dim
        self.capacity = capacity
        self._theta = np.empty((capacity, theta_columns(state_dim, input_dim)))
        self._psi_next = np.empty((capacity, psi_columns(state_dim)))
        self._rows = 0
        self._cache: dict = {}

    def __len__(self) -> int:
        return self._rows

    @property
    def is_full(self) -> bool:
        return self._rows >= self.capacity

    def record(self, x: np.ndarray, u: np.ndarray, x_next: np.ndarray) -> "DataBuffer":
        """Append one transition, or a stack of them as ``(rows, dim)`` arrays."""
        x, u, x_next = (np.atleast_2d(np.asarray(a, dtype=float)) for a in (x, u, x_next))
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
        c1 = psi_columns(n)
        theta = self._theta[start:stop]
        theta[:, :c1] = vecv(x)
        theta[:, c1 : c1 + n * m] = 2.0 * (x[:, :, None] * u[:, None, :]).reshape(rows, -1)
        theta[:, c1 + n * m :] = vecv(u)
        self._psi_next[start:stop] = vecv(x_next)
        self._rows = stop
        self._cache.clear()
        return self

    def flush(self) -> None:
        self._rows = 0
        self._cache.clear()

    # -- views of the filled rows -----------------------------------------
    def theta(self) -> np.ndarray:
        return self._theta[: self._rows]

    def psi_next(self) -> np.ndarray:
        return self._psi_next[: self._rows]

    def theta_solver(self, allow_deficient: bool):
        """Cached min-norm solver for theta @ xi = rhs with row scaling."""
        if allow_deficient not in self._cache:
            theta = self.theta()
            scale = 1.0 / np.maximum(1.0, np.linalg.norm(theta, axis=1))
            self._cache[allow_deficient] = (
                _TruncatedSolver(theta * scale[:, None], allow_deficient), scale)
        return self._cache[allow_deficient]


class _TruncatedSolver:
    """Least-squares solve through a truncated SVD with a rank policy.

    Strict policy demands full column rank and a bounded condition number;
    the tolerant policy solves minimum-norm in the excited subspace, which
    is the right behaviour when part of the augmented state is identically
    unexcited (for example a tracking block resting at the origin).
    """

    def __init__(self, matrix: np.ndarray, allow_deficient: bool):
        if matrix.shape[0] < matrix.shape[1] and not allow_deficient:
            raise PersistentExcitationError(
                f"window has {matrix.shape[0]} rows for {matrix.shape[1]} unknowns; "
                "collect more samples")
        u, s, vt = np.linalg.svd(matrix, full_matrices=False)
        if s.size == 0 or s[0] == 0.0:
            raise PersistentExcitationError(
                "regression matrix is zero; no excitation in the window")
        if allow_deficient:
            keep = s > RANK_RCOND * s[0]
        else:
            keep = s > 0
            if s[-1] == 0.0 or s[0] / s[-1] > CONDITION_LIMIT:
                raise PersistentExcitationError(
                    "regression matrix is rank deficient; collect more samples or "
                    "increase exploration noise")
        self._matrix = matrix
        self._u = u[:, keep]
        self._inv_s = 1.0 / s[keep]
        self._v = vt[keep].T

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Min-norm least squares; raises when the system is inconsistent
        beyond the round-off of an exact-transition window."""
        solution = self._v @ (self._inv_s * (self._u.T @ rhs))
        residual = self._matrix @ solution - rhs
        res_norm, rhs_norm = _norm(residual), _norm(rhs)
        if not math.isfinite(res_norm + rhs_norm):
            # a squared norm overflowed (entries beyond ~1e154): compare the
            # same two vectors scaled to a largest entry of 1
            peak = max(np.abs(residual).max(), np.abs(rhs).max())
            if math.isfinite(peak):
                res_norm, rhs_norm = _norm(residual / peak), _norm(rhs / peak)
        if res_norm > CONSISTENCY_RTOL * max(rhs_norm, 1e-12):
            raise DataConsistencyError(
                "window rows are mutually inconsistent (relative residual "
                f"{res_norm / max(rhs_norm, 1e-300):.2e}); "
                "samples were likely taken during an observer transient")
        return solution


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a real array, bit for bit numpy's ``linalg.norm``
    (``sqrt(x.dot(x))`` over the entries flattened in memory order).
    ``np.vdot`` runs the same BLAS dot as ``x.dot`` but does not warn when
    the sum of squares overflows to inf."""
    v = v.ravel(order="K")
    return math.sqrt(np.vdot(v, v))


def vi_update_Xi(buf: DataBuffer, p_new: np.ndarray,
                 allow_deficient: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Recover (A^T P A, B^T P A, B^T P B) from the window by regression.

    The row identity holds for arbitrary inputs, so this step is exact for
    any persistently excited window regardless of the behaviour policy.
    ``p_new`` is a 2-D, exactly symmetric value matrix, as ``learning_tick``
    produces it; it is not re-symmetrized, and ``vecm`` rejects one that is
    asymmetric beyond its tolerance.  The blocks come back as 2-D arrays,
    ``Xi1`` and ``Xi3`` exactly symmetric.
    """
    n, m = buf.state_dim, buf.input_dim
    solver, scale = buf.theta_solver(allow_deficient)
    rhs = (buf.psi_next() @ vecm(p_new)) * scale
    stacked = solver.solve(rhs)
    c1 = psi_columns(n)
    xi1 = unvecm(stacked[:c1], n)
    xi2 = unvec(stacked[c1 : c1 + n * m], m, n)
    xi3 = unvecm(stacked[c1 + n * m :], m)
    return xi1, xi2, xi3


def vi_update_K(xi2: np.ndarray, xi3: np.ndarray) -> np.ndarray:
    """Gain update K = -(Xi3)^+ Xi2.

    ``xi2`` (m x n) and ``xi3`` (m x m) are 2-D arrays and ``xi3`` is
    exactly symmetric, as ``vi_update_Xi`` returns them; neither is
    reshaped or re-symmetrized here.  The minus sign matches the
    model-based gain formula; the pseudo-inverse keeps the update well
    defined for over-actuated agents where Xi3 is singular, with a cutoff
    at the regression noise floor.  A 1x1 Xi3 within ``RECIPROCAL_RANGE`` is
    its own only singular value, far above the cutoff, so its
    pseudo-inverse is the reciprocal, computed directly.  Any other Xi3
    takes the steps of numpy's ``linalg.pinv`` around the same
    ``np.linalg.svd`` call, without its argument handling, so the gain is
    bit for bit ``-pinv(xi3, rcond=GAIN_PINV_RCOND) @ xi2``.
    """
    if (xi3.shape == (1, 1)
            and RECIPROCAL_RANGE[0] <= abs(xi3[0, 0]) <= RECIPROCAL_RANGE[1]):
        return -(1.0 / xi3) @ xi2
    u, s, vt = np.linalg.svd(xi3, full_matrices=False)
    large = s > GAIN_PINV_RCOND * s.max()
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


def exploration_noise(cfg: LearnerConfig, width: int, ticks) -> np.ndarray:
    """Seeded zero-mean Gaussian probing inputs (only drawn before
    convergence), one ``width`` row per tick of ``ticks``.

    Row t is bit for bit the ``normal(0, cfg.noise_std, width)`` draw of a
    fresh numpy generator seeded with ``[cfg.rng_seed & 0x7FFFFFFF, tick]``,
    so a row depends only on the seed and its tick, not on which block it
    was drawn in.  The SeedSequence hash runs once for all ticks; each row
    then seeds its own ``PCG64``.  Ticks must lie in [0, 2**32).
    """
    ticks = np.asarray(ticks)
    if ticks.size and not (ticks.min() >= 0 and ticks.max() < 2**32):
        raise ValueError("noise ticks must lie in [0, 2**32)")
    out = np.zeros((ticks.size, width))
    if cfg.noise_std == 0.0:
        return out
    for row, words in zip(out, _seed_words(cfg.rng_seed & 0x7FFFFFFF, ticks)):
        row[:] = Generator(PCG64(_SeedWords(words))).normal(0.0, cfg.noise_std, width)
    return out


@dataclass(frozen=True)
class LearnedController:
    """Iterate of the data-driven value iteration for one agent."""

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


def stage_cost(q_weight: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The augmented stage cost C^T Q C of an error selector C."""
    c = np.atleast_2d(np.asarray(c, dtype=float))
    return symmetrize(c.T @ np.atleast_2d(q_weight) @ c)


def learning_tick(ctrl: LearnedController, buf: DataBuffer, cost: np.ndarray,
                  cfg: LearnerConfig, allow_deficient: bool = False) -> LearnedController:
    """One value-iteration sweep against the collected window.

    The value update applies the Bellman backup through the regressed Xi
    blocks of the previous iterate, the Xi blocks are re-regressed at the
    new value matrix, and the gain is refreshed from them.  Convergence is
    declared once consecutive gains differ by less than the configured
    threshold, at which point the behaviour policy switches to the learned
    gain without probing noise.  ``cost`` is the window's ``stage_cost``.
    """
    if not buf.is_full:
        return replace(ctrl, status=COLLECTING)
    if ctrl.status == CONVERGED:
        return ctrl
    xi_prev = ctrl.Xi
    if xi_prev is None:
        xi_prev = vi_update_Xi(buf, ctrl.P_hat, allow_deficient)
    xi1, xi2, xi3 = xi_prev
    k = ctrl.K_hat
    backup = symmetrize(cost + xi1 + k.T @ xi2 + xi2.T @ k + k.T @ xi3 @ k)
    p_new = (1.0 - VI_AVERAGING) * ctrl.P_hat + VI_AVERAGING * backup
    xi_new = vi_update_Xi(buf, p_new, allow_deficient)
    k_new = vi_update_K(xi_new[1], xi_new[2])
    delta = _norm(k_new - ctrl.K_hat)
    status = CONVERGED if delta < cfg.gain_delta_threshold else ITERATING
    return LearnedController(P_hat=p_new, K_hat=k_new, Xi=xi_new, status=status,
                             iterations=ctrl.iterations + 1, last_gain_delta=delta)
