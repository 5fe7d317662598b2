"""Online data-driven value iteration from measured trajectories.

A rolling window of (state, input, next-state) samples is assembled into
regression matrices whose rows encode the quadratic-form identity

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

from dataclasses import dataclass, replace

import numpy as np

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
    """Rolling window of regression rows for one agent's augmented system.

    Rows from consecutive ticks are appended in order; once full, the oldest
    row is evicted.  Assembled matrices and their factorizations are cached
    until the next append.
    """

    def __init__(self, state_dim: int, input_dim: int, capacity: int):
        if capacity < 2:
            raise ValueError("capacity must be at least 2")
        self.state_dim = state_dim
        self.input_dim = input_dim
        self.capacity = capacity
        self._psi: list[np.ndarray] = []
        self._psi_next: list[np.ndarray] = []
        self._tau: list[np.ndarray] = []
        self._omega: list[np.ndarray] = []
        self._cache: dict = {}

    def __len__(self) -> int:
        return len(self._psi)

    @property
    def is_full(self) -> bool:
        return len(self._psi) >= self.capacity

    def record(self, x: np.ndarray, u: np.ndarray, x_next: np.ndarray) -> "DataBuffer":
        x = np.asarray(x, dtype=float).ravel()
        u = np.asarray(u, dtype=float).ravel()
        x_next = np.asarray(x_next, dtype=float).ravel()
        if x.size != self.state_dim or x_next.size != self.state_dim:
            raise ValueError(f"state dimension mismatch: expected {self.state_dim}")
        if u.size != self.input_dim:
            raise ValueError(f"input dimension mismatch: expected {self.input_dim}")
        self._psi.append(vecv(x))
        self._psi_next.append(vecv(x_next))
        self._tau.append(np.kron(x, u))
        self._omega.append(vecv(u))
        if len(self._psi) > self.capacity:
            for rows in (self._psi, self._psi_next, self._tau, self._omega):
                rows.pop(0)
        self._cache.clear()
        return self

    def flush(self) -> None:
        self._psi.clear()
        self._psi_next.clear()
        self._tau.clear()
        self._omega.clear()
        self._cache.clear()

    # -- assembled matrices ---------------------------------------------
    def psi(self) -> np.ndarray:
        return np.array(self._psi)

    def psi_next(self) -> np.ndarray:
        return np.array(self._psi_next)

    def tau(self) -> np.ndarray:
        return np.array(self._tau)

    def omega(self) -> np.ndarray:
        return np.array(self._omega)

    def theta(self) -> np.ndarray:
        return np.hstack([self.psi(), 2.0 * self.tau(), self.omega()])

    def _scaled(self, key: str, build) -> tuple:
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def theta_solver(self, allow_deficient: bool):
        """Cached min-norm solver for theta @ xi = rhs with row scaling."""
        def build():
            theta = self.theta()
            scale = 1.0 / np.maximum(1.0, np.linalg.norm(theta, axis=1))
            return _TruncatedSolver(theta * scale[:, None], allow_deficient), scale
        return self._scaled(f"theta:{allow_deficient}", build)

    def psi_solver(self, allow_deficient: bool):
        def build():
            psi = self.psi()
            scale = 1.0 / np.maximum(1.0, np.linalg.norm(psi, axis=1))
            return _TruncatedSolver(psi * scale[:, None], allow_deficient), scale
        return self._scaled(f"psi:{allow_deficient}", build)


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
        residual = float(np.linalg.norm(self._matrix @ solution - rhs))
        if residual > CONSISTENCY_RTOL * max(float(np.linalg.norm(rhs)), 1e-12):
            raise DataConsistencyError(
                "window rows are mutually inconsistent (relative residual "
                f"{residual / max(float(np.linalg.norm(rhs)), 1e-300):.2e}); "
                "samples were likely taken during an observer transient")
        return solution


def vi_update_P(buf: DataBuffer, q_weight: np.ndarray, c: np.ndarray,
                p_prev: np.ndarray, allow_deficient: bool = False) -> np.ndarray:
    """Regression form of the value-function update.

    Solves the window least-squares Psi vecm(P) = Psi vecm(C^T Q C)
    + Psi+ vecm(P_prev); exact whenever the window was produced by a linear
    policy of the recorded state.
    """
    c = np.atleast_2d(np.asarray(c, dtype=float))
    cost = symmetrize(c.T @ np.atleast_2d(q_weight) @ c)
    solver, scale = buf.psi_solver(allow_deficient)
    phi = buf.psi() @ vecm(cost) + buf.psi_next() @ vecm(p_prev)
    solution = solver.solve(phi * scale)
    return unvecm(solution, buf.state_dim)


def vi_update_Xi(buf: DataBuffer, p_new: np.ndarray,
                 allow_deficient: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Recover (A^T P A, B^T P A, B^T P B) from the window by regression.

    The row identity holds for arbitrary inputs, so this step is exact for
    any persistently excited window regardless of the behaviour policy.
    """
    n, m = buf.state_dim, buf.input_dim
    solver, scale = buf.theta_solver(allow_deficient)
    rhs = (buf.psi_next() @ vecm(symmetrize(p_new))) * scale
    stacked = solver.solve(rhs)
    c1 = psi_columns(n)
    xi1 = unvecm(stacked[:c1], n)
    xi2 = unvec(stacked[c1 : c1 + n * m], m, n)
    xi3 = unvecm(stacked[c1 + n * m :], m)
    return xi1, xi2, xi3


def vi_update_K(xi2: np.ndarray, xi3: np.ndarray) -> np.ndarray:
    """Gain update K = -(Xi3)^+ Xi2.

    The minus sign matches the model-based gain formula; the pseudo-inverse
    keeps the update well defined for over-actuated agents where Xi3 is
    singular, with a cutoff at the regression noise floor.
    """
    return -np.linalg.pinv(symmetrize(np.atleast_2d(xi3)),
                           rcond=GAIN_PINV_RCOND) @ np.atleast_2d(xi2)


def exploration_noise(cfg: LearnerConfig, width: int, tick: int) -> np.ndarray:
    """Seeded zero-mean Gaussian probing input (only drawn before convergence)."""
    if cfg.noise_std == 0.0:
        return np.zeros(width)
    rng = np.random.default_rng([cfg.rng_seed & 0x7FFFFFFF, tick])
    return rng.normal(0.0, cfg.noise_std, width)


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


def learning_tick(ctrl: LearnedController, buf: DataBuffer,
                  q_weight: np.ndarray, c: np.ndarray, cfg: LearnerConfig,
                  allow_deficient: bool = False) -> LearnedController:
    """One value-iteration sweep against the collected window.

    The value update applies the Bellman backup through the regressed Xi
    blocks of the previous iterate, the Xi blocks are re-regressed at the
    new value matrix, and the gain is refreshed from them.  Convergence is
    declared once consecutive gains differ by less than the configured
    threshold, at which point the behaviour policy switches to the learned
    gain without probing noise.
    """
    if not buf.is_full:
        return replace(ctrl, status=COLLECTING)
    if ctrl.status == CONVERGED:
        return ctrl
    c = np.atleast_2d(np.asarray(c, dtype=float))
    cost = symmetrize(c.T @ np.atleast_2d(q_weight) @ c)

    xi_prev = ctrl.Xi
    if xi_prev is None:
        xi_prev = vi_update_Xi(buf, ctrl.P_hat, allow_deficient)
    xi1, xi2, xi3 = xi_prev
    k = ctrl.K_hat
    backup = symmetrize(cost + xi1 + k.T @ xi2 + xi2.T @ k + k.T @ xi3 @ k)
    p_new = (1.0 - VI_AVERAGING) * ctrl.P_hat + VI_AVERAGING * backup
    xi_new = vi_update_Xi(buf, p_new, allow_deficient)
    k_new = vi_update_K(xi_new[1], xi_new[2])
    delta = float(np.linalg.norm(k_new - ctrl.K_hat))
    status = CONVERGED if delta < cfg.gain_delta_threshold else ITERATING
    return LearnedController(P_hat=p_new, K_hat=k_new, Xi=xi_new, status=status,
                             iterations=ctrl.iterations + 1, last_gain_delta=delta)
