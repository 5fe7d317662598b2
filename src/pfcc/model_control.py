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

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InfluenceError, RegulationError
from .matops import as_floats, pinv, symmetrize

MARGINAL_TOL = 1e-9


@dataclass(frozen=True)
class AgentDynamics:
    """Discrete-time plant x+ = A x + B u.  B may be wider than A
    (over-actuation); ``ScenarioConfig.check_fields`` checks the shapes."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", np.atleast_2d(as_floats(self.A)))
        object.__setattr__(self, "B", np.atleast_2d(as_floats(self.B)))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True)
class FormationDynamics:
    """Formation reference h+ = S h from initial shape h0.  A mis-shaped S
    or h0 fails ``ScenarioConfig.check_fields``, an expanding S
    ``ScenarioConfig.validate``."""

    S: np.ndarray
    h0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "S", np.atleast_2d(as_floats(self.S)))
        object.__setattr__(self, "h0", as_floats(self.h0).ravel())


def input_width_groups(dynamics: Sequence[AgentDynamics]
                       ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The agents of ``dynamics`` grouped by input width, in order of first
    appearance: each group's agent indices and its stacked ``A`` and
    ``B``."""
    groups: dict[int, list[int]] = {}
    for index, dyn in enumerate(dynamics):
        groups.setdefault(dyn.m, []).append(index)
    return [(np.array(members), np.array([dynamics[i].A for i in members]),
             np.array([dynamics[i].B for i in members])) for members in groups.values()]


def is_stabilizable(dynamics: Sequence[AgentDynamics]) -> np.ndarray:
    """PBH-style test of each agent, as one boolean per agent: every
    eigenvalue on/outside the unit circle must be controllable.

    B enters scaled to a largest entry of 1 and the rank cutoff is relative
    to the test matrix, so (A, cB) gets the verdict of (A, B) for every
    c != 0.  One ``eigvals`` call covers every A, and one ``matrix_rank``
    call covers the test matrices of each input width and eigenvalue field:
    an agent whose eigenvalues are all real is tested with real matrices,
    as ``eigvals`` of its A alone would give them.
    """
    stabilizable = np.ones(len(dynamics), dtype=bool)
    if not dynamics:
        return stabilizable
    eig = np.linalg.eigvals(np.array([dyn.A for dyn in dynamics]))
    tested = ~(np.abs(eig) < 1.0 - MARGINAL_TOL)
    real = (eig.imag == 0).all(axis=-1)
    n = eig.shape[-1]
    eye = np.eye(n)
    for members, a, b in input_width_groups(dynamics):
        scale = np.abs(b).max(axis=(-2, -1), initial=0.0)[:, None, None]
        b = b / np.where(scale == 0, 1.0, scale)
        for all_real in (True, False):
            agent, mode = np.nonzero(tested[members] & (real[members] == all_real)[:, None])
            if not agent.size:
                continue
            lam = eig[members[agent], mode]
            if all_real:
                lam = lam.real
            test = np.concatenate([a[agent] - lam[:, None, None] * eye, b[agent]], axis=-1)
            deficient = np.linalg.matrix_rank(test, rtol=1e-9) < n
            stabilizable[members[agent[deficient]]] = False
    return stabilizable


@dataclass(frozen=True)
class AugmentedSystem:
    """Block system over (plant, formation blocks..., tracking block).

    A_bar is block diagonal, B_bar actuates only the first block, C selects
    the tracking/containment error, and the stage cost is
    ``stage_cost(Q, C)``.
    """

    A_bar: np.ndarray
    B_bar: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    block_dim: int

    @property
    def dim(self) -> int:
        return self.A_bar.shape[0]

    @property
    def m(self) -> int:
        return self.B_bar.shape[1]


@np.errstate(over="ignore", invalid="ignore")
def stage_cost(q_weight: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The augmented stage cost C^T Q C of an error selector C."""
    c = np.atleast_2d(np.asarray(c, dtype=float))
    return symmetrize(c.T @ np.atleast_2d(q_weight) @ c)


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
    formation at weight 1, error x - h - x_o.  Every block has the plant's
    dimension (``ScenarioConfig.check_fields``).
    """
    if not forms:
        raise InfluenceError("follower has no influential leaders; augmented system undefined")
    if len(forms) != len(weights):
        raise ValueError("one coefficient per formation block is required")
    if abs(sum(weights) - 1.0) > 1e-9:
        raise ValueError(f"coefficients must sum to 1, got {sum(weights)}")
    n = dyn.n
    dim = (2 + len(forms)) * n
    a_bar = np.zeros((dim, dim))
    a_bar[:n, :n] = dyn.A
    for k, f in enumerate(forms):
        a_bar[(1 + k) * n : (2 + k) * n, (1 + k) * n : (2 + k) * n] = f.S
    a_bar[-n:, -n:] = a0
    b_bar = np.zeros((dim, dyn.m))
    b_bar[:n, :] = dyn.B
    return AugmentedSystem(A_bar=a_bar, B_bar=b_bar, C=error_selector(n, weights),
                           Q=np.atleast_2d(np.asarray(q_weight, dtype=float)),
                           block_dim=n)


def policy_gain(sys: AugmentedSystem, p: np.ndarray) -> np.ndarray:
    """Pseudo-inverse state-feedback gain K = -(B^T P B)^+ B^T P A."""
    bt_p = sys.B_bar.T @ p
    return -pinv(bt_p @ sys.B_bar) @ bt_p @ sys.A_bar


@dataclass(frozen=True)
class RiccatiSolution:
    P: np.ndarray
    K: np.ndarray
    iterations: int


#: Averaging weight of the value-iteration backup.  The plain backup leaves
#: the zero-cost uncontrollable subspace evolving by N^T P N with N the
#: marginal formation/tracking blocks; for the orthogonal, involutive shape
#: dynamics used throughout (eigenvalues on the unit circle) that component
#: oscillates with period two and the iteration never settles.  Averaging
#: the backup with the previous iterate keeps every fixed point unchanged
#: while projecting the oscillation out, so the stopping criterion below is
#: attainable exactly at a solution of the Riccati equation.
VI_AVERAGING = 0.5


def value_iteration_step(sys: AugmentedSystem, cost: np.ndarray, p: np.ndarray,
                         k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One averaged backup plus gain refresh of the model-based iteration;
    ``cost`` is ``stage_cost(sys.Q, sys.C)``.

    ``learning.learning_tick`` makes the same backup from regressed blocks,
    so the learned and model-based iterate sequences coincide.  A backup
    that leaves the float range raises ``ConvergenceError`` before the gain
    is taken (LAPACK's SVD fails, or does not return, on a non-finite
    matrix).
    """
    acl = sys.A_bar + sys.B_bar @ k
    backup = symmetrize(cost + acl.T @ p @ acl)
    p_next = (1.0 - VI_AVERAGING) * p + VI_AVERAGING * backup
    if not np.isfinite(p_next).all():
        raise ConvergenceError("value iteration diverged")
    return p_next, policy_gain(sys, p_next)


#: Step between consecutive value-iteration iterates below which
#: ``riccati_value_iteration`` stops, and the iterations it may take.
RICCATI_TOL = 1e-10
RICCATI_MAX_ITERATIONS = 10_000


# a cost or value matrix that leaves the float range overflows before the
# divergence checks catch it, and that is reported rather than warned about
@np.errstate(over="ignore", invalid="ignore")
def riccati_value_iteration(sys: AugmentedSystem) -> RiccatiSolution:
    """Averaged value iteration for P = C^T Q C + (A + B K)^T P (A + B K).

    Starts from P = I (positive definite) and K = 0, and stops when
    consecutive iterates agree to ``RICCATI_TOL``, or to 64 ulps of
    ``||P||`` where that is coarser.  Non-convergence within
    ``RICCATI_MAX_ITERATIONS`` or divergence (a value matrix that is not
    finite, or a step beyond 1e14 times ``max(1, ||C^T Q C||)``) raises,
    signalling a non-stabilizable agent or a broken assumption.  Both
    bounds follow the cost's scale, which P takes on and K does not.
    """
    cost = stage_cost(sys.Q, sys.C)
    diverged = 1e14 * max(1.0, float(np.linalg.norm(cost)))
    ulps = 64 * np.finfo(float).eps
    p = np.eye(sys.dim)
    k = np.zeros((sys.m, sys.dim))
    for it in range(1, RICCATI_MAX_ITERATIONS + 1):
        try:
            p_next, k = value_iteration_step(sys, cost, p, k)
        except ConvergenceError:
            raise ConvergenceError(f"value iteration diverged at iteration {it}") from None
        delta = float(np.linalg.norm(p_next - p))
        p = p_next
        if not np.isfinite(delta) or delta > diverged:
            raise ConvergenceError(f"value iteration diverged at iteration {it}")
        if delta < max(RICCATI_TOL, ulps * float(np.linalg.norm(p))):
            return RiccatiSolution(P=p, K=k, iterations=it)
    raise ConvergenceError("value iteration did not converge within "
                           f"{RICCATI_MAX_ITERATIONS} iterations")


#: Most solutions ``oracle_solution`` keeps; the oldest is dropped first.
ORACLE_MEMO_SIZE = 256

_oracle_memo: dict[tuple, RiccatiSolution] = {}


def oracle_solution(sys: AugmentedSystem) -> RiccatiSolution:
    """``riccati_value_iteration(sys)``, solved once per distinct system.

    The solution depends only on the system's matrices, so it is kept under
    their content for the process and shared: a gain comparison repeated
    over several probe seeds solves each system once.  The shared ``P`` and
    ``K`` are read-only.  A system that does not converge is not kept and
    raises again on the next call.
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


#: Projection residual, relative to ``max(1, ||S - A||)``, beyond which a
#: regulation equation is unsolvable.
REGULATION_RTOL = 1e-8


def min_norm_regulation_solution(a: np.ndarray, b: np.ndarray,
                                 s_target: np.ndarray) -> np.ndarray:
    """Minimum-norm U solving S = A + B U, via U = B^+ (S - A).

    ``a`` and ``b`` are one agent's ``(n, n)`` and ``(n, m)`` matrices or a
    ``(k, n, n)`` and ``(k, n, m)`` stack of k agents of one input width;
    ``s_target`` is one ``(n, n)`` target or a ``(t, n, n)`` stack of them.
    Every agent's equations for every target are solved from one
    pseudo-inverse call, and U has the shape ``agents + targets + (m, n)``.
    Raises when the equation of any agent and target is unsolvable (its
    projection residual exceeds ``REGULATION_RTOL * max(1, ||S - A||)``),
    which means the regulation-equation assumptions do not hold for that
    agent and target; the error's ``failed`` marks each agent with an
    unsolvable target.  A residual that is not a number does not raise.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    s = np.atleast_2d(np.asarray(s_target, dtype=float))

    def per_target(x: np.ndarray) -> np.ndarray:
        """``x`` with a unit axis per target axis before its matrix axes."""
        return x.reshape(x.shape[:-2] + (1,) * (s.ndim - 2) + x.shape[-2:])

    rhs = s - per_target(a)
    u = per_target(pinv(b)) @ rhs
    residual = np.linalg.norm(per_target(b) @ u - rhs, axis=(-2, -1))
    size = np.linalg.norm(rhs, axis=(-2, -1))
    # fmax, like Python's max(1, size), takes a nan size as 1
    failed = residual > REGULATION_RTOL * np.fmax(size, 1.0)
    if failed.any():
        raise RegulationError(
            "regulation equation S = A + B*U has no solution "
            f"(projection residual {residual[failed].flat[0]:.3e}); the solvability "
            "assumptions fail for this agent",
            failed=failed.reshape(a.shape[:-2] + (-1,)).any(axis=-1))
    return u
