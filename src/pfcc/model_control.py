"""Model-based controller synthesis.

Gains are produced by value iteration on a Riccati fixed point posed over an
augmented system that stacks an agent's plant, the formation blocks of its
influential leaders, and the tracking dynamics.  The pseudo-inverse gain
formula makes the synthesis valid for over-actuated agents (wide B), in
which case the converged gains realize the minimum-norm solutions of the
state regulation equations.  This module is also the oracle that the
data-driven learner is checked against.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InfluenceError, RegulationError
from .matops import pinv, spectral_radius, symmetrize

MARGINAL_TOL = 1e-9


@dataclass(frozen=True)
class AgentDynamics:
    """Discrete-time plant x+ = A x + B u.  B may be wider than A (over-actuation)."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.atleast_2d(np.asarray(self.B, dtype=float))
        if a.shape[0] != a.shape[1]:
            raise ValueError(f"A must be square, got {a.shape}")
        if b.shape[0] != a.shape[0]:
            raise ValueError(f"B must have {a.shape[0]} rows, got {b.shape}")
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "B", b)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True)
class FormationDynamics:
    """Formation reference h+ = S h from initial shape h0.  An expanding S
    fails ``ScenarioConfig.validate``."""

    S: np.ndarray
    h0: np.ndarray

    def __post_init__(self):
        s = np.atleast_2d(np.asarray(self.S, dtype=float))
        h0 = np.asarray(self.h0, dtype=float).ravel()
        if s.shape[0] != s.shape[1] or s.shape[0] != h0.size:
            raise ValueError(f"S {s.shape} and h0 {h0.shape} are inconsistent")
        object.__setattr__(self, "S", s)
        object.__setattr__(self, "h0", h0)


def is_stabilizable(dyn: AgentDynamics, tol: float = 1e-9) -> bool:
    """PBH-style test: every eigenvalue on/outside the unit circle must be
    controllable."""
    for lam in np.linalg.eigvals(dyn.A):
        if abs(lam) < 1.0 - tol:
            continue
        test = np.hstack([dyn.A - lam * np.eye(dyn.n), dyn.B])
        if np.linalg.matrix_rank(test, tol=1e-9) < dyn.n:
            return False
    return True


@dataclass(frozen=True)
class AugmentedSystem:
    """Block system over (plant, formation blocks..., tracking block).

    A_bar is block diagonal, B_bar actuates only the first block, C selects
    the tracking/containment error, and the stage cost is C^T Q C.
    """

    A_bar: np.ndarray
    B_bar: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    block_dim: int
    n_blocks: int

    @property
    def dim(self) -> int:
        return self.A_bar.shape[0]

    @property
    def m(self) -> int:
        return self.B_bar.shape[1]

    def cost_matrix(self) -> np.ndarray:
        return self.C.T @ self.Q @ self.C


def _check_blocks(dyn: AgentDynamics, blocks: list[np.ndarray], a0: np.ndarray) -> int:
    n = dyn.n
    for blk in blocks:
        if blk.shape != (n, n):
            raise ValueError(f"formation block shape {blk.shape} != ({n},{n})")
    if np.atleast_2d(a0).shape != (n, n):
        raise ValueError("tracking dynamics dimension mismatch")
    return n


def error_selector(block_dim: int, weights: list[float]) -> np.ndarray:
    """Error selector [I, -w_1 I, ..., -w_I I, -I] of x - sum_q w_q (h_q + x_o)."""
    eye = np.eye(block_dim)
    return np.hstack([eye] + [-w * eye for w in weights] + [-eye])


def build_augmented(dyn: AgentDynamics, forms: list[FormationDynamics],
                    a0: np.ndarray, weights: list[float],
                    q_weight: np.ndarray) -> AugmentedSystem:
    """Augmented system diag(A, S_1..S_I, A0) of one agent.

    ``forms`` and ``weights`` are ordered by the agent's leader layout; the
    weights must sum to one.  A leader is the one-block case: its own
    formation at weight 1, error x - h - x_o.
    """
    if not forms:
        raise InfluenceError("follower has no influential leaders; augmented system undefined")
    if len(forms) != len(weights):
        raise ValueError("one coefficient per formation block is required")
    if abs(sum(weights) - 1.0) > 1e-9:
        raise ValueError(f"coefficients must sum to 1, got {sum(weights)}")
    a0 = np.atleast_2d(np.asarray(a0, dtype=float))
    n = _check_blocks(dyn, [f.S for f in forms], a0)
    count = len(forms)
    dim = (2 + count) * n
    a_bar = np.zeros((dim, dim))
    a_bar[:n, :n] = dyn.A
    for k, f in enumerate(forms):
        a_bar[(1 + k) * n : (2 + k) * n, (1 + k) * n : (2 + k) * n] = f.S
    a_bar[-n:, -n:] = a0
    b_bar = np.zeros((dim, dyn.m))
    b_bar[:n, :] = dyn.B
    return AugmentedSystem(A_bar=a_bar, B_bar=b_bar, C=error_selector(n, weights),
                           Q=np.atleast_2d(np.asarray(q_weight, dtype=float)),
                           block_dim=n, n_blocks=2 + count)


def policy_gain(sys: AugmentedSystem, p: np.ndarray) -> np.ndarray:
    """Pseudo-inverse state-feedback gain K = -(B^T P B)^+ B^T P A."""
    bt_p = sys.B_bar.T @ p
    return -pinv(bt_p @ sys.B_bar) @ bt_p @ sys.A_bar


@dataclass(frozen=True)
class RiccatiSolution:
    P: np.ndarray
    K: np.ndarray
    iterations: int
    residual: float


#: Averaging weight of the value-iteration backup.  The plain backup leaves
#: the zero-cost uncontrollable subspace evolving by N^T P N with N the
#: marginal formation/tracking blocks; for the orthogonal, involutive shape
#: dynamics used throughout (eigenvalues on the unit circle) that component
#: oscillates with period two and the iteration never settles.  Averaging
#: the backup with the previous iterate keeps every fixed point unchanged
#: while projecting the oscillation out, so the stopping criterion below is
#: attainable exactly at a solution of the Riccati equation.
VI_AVERAGING = 0.5


def value_iteration_step(sys: AugmentedSystem, p: np.ndarray, k: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray]:
    """One averaged backup plus gain refresh of the model-based iteration.

    ``learning.learning_tick`` makes the same backup from regressed blocks,
    so the learned and model-based iterate sequences coincide.
    """
    acl = sys.A_bar + sys.B_bar @ k
    backup = symmetrize(sys.cost_matrix() + acl.T @ p @ acl)
    p_next = (1.0 - VI_AVERAGING) * p + VI_AVERAGING * backup
    return p_next, policy_gain(sys, p_next)


def riccati_value_iteration(sys: AugmentedSystem, tol: float = 1e-10,
                            max_iter: int = 10_000) -> RiccatiSolution:
    """Averaged value iteration for P = C^T Q C + (A + B K)^T P (A + B K).

    Starts from P = I (positive definite) and K = 0, and stops when
    consecutive iterates agree to ``tol``.  Non-convergence or divergence
    raises, signalling a non-stabilizable agent or a broken assumption.
    """
    if not is_stabilizable(AgentDynamics(sys.A_bar[:sys.block_dim, :sys.block_dim],
                                         sys.B_bar[:sys.block_dim, :])):
        warnings.warn("plant block looks non-stabilizable; value iteration may diverge",
                      stacklevel=2)
    cost = sys.cost_matrix()
    p = np.eye(sys.dim)
    k = np.zeros((sys.m, sys.dim))
    for it in range(1, max_iter + 1):
        p_next, k = value_iteration_step(sys, p, k)
        delta = float(np.linalg.norm(p_next - p))
        p = p_next
        if not np.isfinite(delta) or delta > 1e14:
            raise ConvergenceError(f"value iteration diverged at iteration {it}")
        if delta < tol:
            acl = sys.A_bar + sys.B_bar @ k
            residual = float(np.linalg.norm(cost + acl.T @ p @ acl - p))
            return RiccatiSolution(P=p, K=k, iterations=it, residual=residual)
    raise ConvergenceError(f"value iteration did not converge within {max_iter} iterations")


#: Most solutions ``oracle_solution`` keeps; the oldest is dropped first.
ORACLE_MEMO_SIZE = 256

_oracle_memo: dict[tuple, RiccatiSolution] = {}


def oracle_solution(sys: AugmentedSystem) -> RiccatiSolution:
    """``riccati_value_iteration(sys)``, solved once per distinct system.

    The solution depends only on the system's matrices, so it is kept under
    their content for the process and shared: a gain comparison repeated
    over several probe seeds solves each system once.  The shared ``P`` and
    ``K`` are read-only.  A system that does not converge is not kept and
    raises again on the next call.  A kept system is not solved again, so
    the solver's non-stabilizable warning comes only with the first call.
    """
    key = (sys.block_dim,) + tuple((a.shape, a.tobytes())
                                   for a in (sys.A_bar, sys.B_bar, sys.C, sys.Q))
    sol = _oracle_memo.get(key)
    if sol is None:
        sol = riccati_value_iteration(sys)
        sol.P.flags.writeable = False
        sol.K.flags.writeable = False
        if len(_oracle_memo) >= ORACLE_MEMO_SIZE:
            del _oracle_memo[next(iter(_oracle_memo))]
        _oracle_memo[key] = sol
    return sol


@dataclass(frozen=True)
class AgentGains:
    """Gain of the control law u = K z over an agent's augmented state
    z = (x, h_q for q in the layout, x_hat_o), and its column blocks.

    ``Kh[q]`` is the block of leader q; the propensity weight of the
    control law is already embedded in it.
    """

    K: np.ndarray
    K1: np.ndarray
    Kh: dict[int, np.ndarray]
    Ko: np.ndarray

    @classmethod
    def split(cls, k: np.ndarray, block_dim: int, layout: tuple[int, ...]) -> "AgentGains":
        """Column blocks of the stacked gain ``k`` of ``layout``."""
        k = np.atleast_2d(np.asarray(k, dtype=float))
        n_blocks = 2 + len(layout)
        if k.shape[1] != block_dim * n_blocks:
            raise ValueError(
                f"gain has {k.shape[1]} columns, layout requires {block_dim * n_blocks}")
        blocks = [k[:, i * block_dim : (i + 1) * block_dim] for i in range(n_blocks)]
        return cls(K=k, K1=blocks[0], Kh=dict(zip(layout, blocks[1:-1])), Ko=blocks[-1])


def min_norm_regulation_solution(a: np.ndarray, b: np.ndarray,
                                 s_target: np.ndarray,
                                 rtol: float = 1e-8) -> np.ndarray:
    """Minimum-norm U solving S = A + B U, via U = B^+ (S - A).

    Raises when the equation is unsolvable (the residual of the projected
    right-hand side exceeds ``rtol``), which means the regulation-equation
    assumptions do not hold for this agent/target pair.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    s = np.atleast_2d(np.asarray(s_target, dtype=float))
    rhs = s - a
    u = pinv(b) @ rhs
    residual = float(np.linalg.norm(b @ u - rhs))
    if residual > rtol * max(1.0, float(np.linalg.norm(rhs))):
        raise RegulationError(
            "regulation equation S = A + B*U has no solution "
            f"(projection residual {residual:.3e}); the solvability assumptions "
            "fail for this agent"
        )
    return u


@dataclass(frozen=True)
class GainIdentityReport:
    """Residuals tying converged gains to regulation solutions."""

    formation_residuals: dict[int, float]
    tracking_residual: float
    closed_loop_radius: float

    @property
    def max_residual(self) -> float:
        values = list(self.formation_residuals.values()) + [self.tracking_residual]
        return max(values) if values else 0.0


def verify_gain_identities(dyn: AgentDynamics, gains: AgentGains,
                           u_h: dict[int, np.ndarray] | np.ndarray,
                           u_o: np.ndarray,
                           alphas: dict[int, float] | None = None) -> GainIdentityReport:
    """Report ||K1 + Kh[q]/alpha_q - U_h[q]||, ||K1 + Ko - U_o|| and the
    closed-loop spectral radius.

    A one-block gain (a leader) may leave out ``alphas`` (weight 1) and pass
    its one U_h as an array.  Report only; no thresholds are enforced here.
    """
    if alphas is None:
        if len(gains.Kh) != 1:
            raise ValueError("a gain with several formation blocks needs its coefficients")
        alphas = dict.fromkeys(gains.Kh, 1.0)
    if isinstance(u_h, np.ndarray):
        u_h = dict.fromkeys(gains.Kh, u_h)
    rho = spectral_radius(dyn.A + dyn.B @ gains.K1)
    tracking = float(np.linalg.norm(gains.K1 + gains.Ko - np.atleast_2d(u_o)))
    formation = {q: float(np.linalg.norm(gains.K1 + kh / alphas[q] - np.atleast_2d(u_h[q])))
                 for q, kh in gains.Kh.items()}
    return GainIdentityReport(formation_residuals=formation,
                              tracking_residual=tracking,
                              closed_loop_radius=rho)
