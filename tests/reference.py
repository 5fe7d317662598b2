"""Reference forms of the paper's results that the acceptance criteria and
the unit tests check against; the engine calls none of them.

- ``regressor`` and ``rls_update_L``: the general matrix form of the
  observers' parameter update, of which the engine's scalar ``c`` is the
  ``L = c I`` case;
- ``RowObserver`` and ``row_observer_step``: one observer's scale and
  model update on its own, which the engine's bank makes for all rows in
  one stacked step;
- ``AgentGains``, ``GainIdentityReport`` and ``verify_gain_identities``:
  the column blocks of a stacked gain and the regulation identities they
  satisfy;
- ``itfl_sets``: the transit-relay (ITFL) leaders of each leader;
- ``window_regression``: one sweep's regression of the Xi blocks through
  the SVD of the window, unfolded, of which the engine's window plan keeps
  only the folded product;
- ``ExactPlan``: the exact blocks of a known system, the noise-free twin
  of a window's plan that ``learning.learning_tick`` can sweep;
- ``spectral_radius``;
- ``is_positive_definite``, ``is_stabilizable``,
  ``min_norm_regulation_solution`` and ``validate_per_agent``: the
  assumption checks of one agent at a time, of which the engine's
  ``ScenarioConfig.validate`` makes one stacked pass over all agents (per
  input width for the rank and regulation tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from pfcc import learning as ln
from pfcc.errors import (ConvergenceError, DataConsistencyError, PersistentExcitationError,
                         PfccError, RegulationError)
from pfcc.matops import SYMMETRY_ATOL, pinv, square_index, symmetrize, vecm
from pfcc.model_control import MARGINAL_TOL, REGULATION_RTOL, AgentDynamics, AugmentedSystem
from pfcc.observers import ObserverConfig
from pfcc.topology import DirectedTopology, closure, verify_assumption1


def regressor(x_hat: np.ndarray) -> np.ndarray:
    """Stacked regressor I_n (x) x_hat used by the parameter updates."""
    x_hat = np.asarray(x_hat, dtype=float).ravel()
    return np.kron(np.eye(x_hat.size), x_hat.reshape(-1, 1))


def rls_update_L(L: np.ndarray, x_bar: np.ndarray) -> np.ndarray:
    """Parameter-matrix downdate (L^-1 + x_bar^T x_bar)^-1 without inverting L.

    The gain G = L x_bar^T (I + x_bar L x_bar^T)^-1 is the Woodbury form;
    the result is returned in Joseph form (I - G x_bar) L (I - G x_bar)^T
    + G G^T, a sum of two positive semidefinite terms, which keeps full
    precision where L - G x_bar L cancels.  L must be symmetric to 1e-9
    and have a Cholesky factor.
    """
    L = np.asarray(L, dtype=float)
    x_bar = np.asarray(x_bar, dtype=float)
    try:
        with np.errstate(invalid="ignore"):  # a non-finite entry is not symmetric
            if not np.abs(L - L.T).max() <= 1e-9:
                raise np.linalg.LinAlgError
        np.linalg.cholesky(L)
    except np.linalg.LinAlgError:
        raise PfccError("adaptive parameter matrix must be symmetric positive "
                        "definite") from None
    gram = np.eye(x_bar.shape[0]) + x_bar @ L @ x_bar.T
    g = np.linalg.solve(gram, x_bar @ L).T
    keep = np.eye(L.shape[0]) - g @ x_bar
    return keep @ L @ keep.T + g @ g.T


class RowObserver(NamedTuple):
    """One adaptive observer's parameter scale c and model estimate A_hat;
    a fresh one starts at the scenario's init_scale and a zero model."""

    config: ObserverConfig
    c: float
    A_hat: np.ndarray


def row_observer_step(obs: RowObserver, xi: float, x: np.ndarray, x_sq: float,
                      eta_next: np.ndarray) -> RowObserver:
    """Scale downdate and model update of one observer with the
    regularizer ``xi`` across one tick, given its current state estimate
    ``x`` (n,), its squared norm ``x_sq`` and its next-tick consensus error
    ``eta_next`` as an (n, 1) column.

    With L = c I this is ``rls_update_L`` and the gain solve
    (L_next^-1 + xi I)^-1 eta_next in closed form, followed by the
    row-major unstacking of -coupling * x_bar @ gain.
    """
    cfg, c, a_hat = obs
    c_next = c / (1.0 + c * x_sq)
    if not c_next > 0.0:
        raise ConvergenceError("observer state diverged")
    return RowObserver(cfg, c_next,
                       a_hat - (eta_next * (cfg.coupling / (1.0 / c_next + xi))) * x)


def predict_state(a_hat: np.ndarray, x_hat: np.ndarray, mu: float | np.ndarray,
                  gain: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Reference: next state estimate using the pre-update model,
    A_hat x_hat - mu F eta.

    Works row by row on stacks: ``a_hat`` and ``gain`` (R, n, n), ``x_hat``
    and ``eta`` (R, n) and ``mu`` (R, 1).  One observer is the same call
    without the leading axis and with a scalar ``mu``.
    """
    return (np.matmul(a_hat, x_hat[..., None])[..., 0]
            - mu * np.matmul(gain, eta[..., None])[..., 0])


@np.errstate(over="ignore", invalid="ignore")
def window_regression(buf: ln.DataBuffer, p: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The blocks (Xi1, Xi2, Xi3) of the regression ``theta @ xi =
    psi_next @ vecm(P)`` of a full window at the value matrix ``p``, rows
    scaled to a norm of at most 1, solved min-norm through the truncated
    SVD ``U S V^T`` of the scaled ``theta`` from ``np.linalg.svd``, as three
    products ``V (S^-1 (U^T rhs))`` of the scaled right-hand side, with the
    relative residual of that solution checked against it.  Raises the
    errors of ``WindowPlan(buf)`` and its ``xi`` under the same window rule
    and thresholds: ``PersistentExcitationError`` for a window with fewer rows
    than unknowns or without excitation, ``DataConsistencyError`` for
    inconsistent rows and ``ConvergenceError`` for a regression that is not
    finite, a row norm that overflows included."""
    theta = buf.theta()
    norms = np.linalg.norm(theta, axis=1)
    if not np.isfinite(norms).all():
        raise ConvergenceError("window regression is not finite")
    scale = 1.0 / np.maximum(1.0, norms)
    matrix = theta * scale[:, None]
    if matrix.shape[0] < matrix.shape[1]:
        raise PersistentExcitationError("fewer rows than unknowns")
    u, s, vt = np.linalg.svd(matrix, full_matrices=False)
    if s[0] == 0.0:
        raise PersistentExcitationError("regression matrix is zero")
    keep = s > ln.RANK_RCOND * s[0]
    if not np.isfinite(p).all():
        raise ConvergenceError("value matrix is not finite")
    rhs = (buf.psi_next() @ vecm(p)) * scale
    solution = vt[keep].T @ ((u[:, keep].T @ rhs) / s[keep])
    residual = matrix @ solution - rhs
    if not (np.isfinite(residual).all() and np.isfinite(rhs).all()):
        raise ConvergenceError("window regression is not finite")
    # both norms relative to the largest entry, which keeps them finite
    peak = max(np.abs(residual).max(), np.abs(rhs).max())
    if peak > 0.0 and (np.linalg.norm(residual / peak)
                       > ln.CONSISTENCY_RTOL * max(np.linalg.norm(rhs / peak), 1e-12 / peak)):
        raise DataConsistencyError("window rows are mutually inconsistent")
    n, m = buf.state_dim, buf.input_dim
    weights1, _, full1 = square_index(n)
    weights3, _, full3 = square_index(m)
    c1, c2 = weights1.size, weights1.size + n * m
    return ((solution[:c1] / weights1)[full1], solution[c1:c2].reshape((m, n), order="F"),
            (solution[c2:] / weights3)[full3])


class ExactPlan:
    """A plan for ``learning.learning_tick`` that answers ``xi(P)`` with the
    exact blocks ``(A^T P A, B^T P A, B^T P B)`` of the augmented system
    ``sys``, what a window's regression recovers without noise; the two
    square blocks are ``symmetrize``d, as the sweep needs them."""

    def __init__(self, sys: AugmentedSystem):
        self.sys = sys

    def xi(self, p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        a, b = self.sys.A_bar, self.sys.B_bar
        return symmetrize(a.T @ p @ a), b.T @ p @ a, symmetrize(b.T @ p @ b)


def spectral_radius(m: np.ndarray) -> float:
    """Largest eigenvalue modulus of a square matrix."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("spectral_radius requires a square matrix")
    if m.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(m))))


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


def itfl_sets(known: np.ndarray, topo: DirectedTopology) -> dict[int, frozenset[int]]:
    """Relay leaders for each leader, computed at the knowledge fixed point.

    Leader m relays leader q when q influences m and m lies on a directed
    path from q to some follower that q cannot reach through followers
    alone.
    """
    n = topo.n_followers
    edge = topo.adjacency > 0
    followers, leaders = slice(1, 1 + n), slice(1 + n, None)
    reach = closure(edge)[followers, leaders]  # [i, q]: q reaches follower i
    # [i, j]: follower i is follower j or reached from it through followers
    through = closure(edge[followers, followers]) | np.eye(n, dtype=bool)
    # [i, q]: q reaches follower i, but not through followers alone
    needy = reach & ~(through @ edge[followers, leaders])
    # [q, m]: m knows q and reaches a follower that q needs relayed to
    relays = (needy.T @ reach) & known[leaders, leaders].T & ~np.eye(topo.n_leaders, dtype=bool)
    nodes = np.array(topo.leader_nodes)
    return {q: frozenset(nodes[row].tolist()) for q, row in zip(topo.leader_nodes, relays)}


def is_positive_definite(m: np.ndarray) -> bool:
    """Cholesky-based positive definiteness test of one matrix.

    Input asymmetric beyond ``SYMMETRY_ATOL`` is not positive definite, and
    neither is input with a non-finite entry (its asymmetry is not a
    number).
    """
    m = np.asarray(m, dtype=float)
    with np.errstate(invalid="ignore"):
        if m.size and not np.abs(m - m.T).max() <= SYMMETRY_ATOL:
            return False
    try:
        np.linalg.cholesky(m)
        return True
    except np.linalg.LinAlgError:
        return False


def is_stabilizable(dyn: AgentDynamics) -> bool:
    """PBH-style test of one agent: every eigenvalue on/outside the unit
    circle must be controllable, with B scaled to a largest entry of 1 and
    a rank cutoff relative to each test matrix."""
    scale = np.abs(dyn.B).max(initial=0.0)
    b = dyn.B / scale if scale else dyn.B
    for lam in np.linalg.eigvals(dyn.A):
        if abs(lam) < 1.0 - MARGINAL_TOL:
            continue
        test = np.hstack([dyn.A - lam * np.eye(dyn.n), b])
        if np.linalg.matrix_rank(test, rtol=1e-9) < dyn.n:
            return False
    return True


def min_norm_regulation_solution(a: np.ndarray, b: np.ndarray,
                                 s_target: np.ndarray) -> np.ndarray:
    """Minimum-norm U solving S = A + B U of one agent, via U = B^+ (S - A),
    for one ``(n, n)`` target or a ``(t, n, n)`` stack of them; raises
    ``RegulationError`` when any target's projection residual exceeds
    ``REGULATION_RTOL * max(1, ||S - A||)`` (a nan residual does not)."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    rhs = np.atleast_2d(np.asarray(s_target, dtype=float)) - a
    u = pinv(b) @ rhs
    residual = np.linalg.norm(b @ u - rhs, axis=(-2, -1))
    failed = residual > REGULATION_RTOL * np.fmax(np.linalg.norm(rhs, axis=(-2, -1)), 1.0)
    if failed.any():
        raise RegulationError("regulation equation S = A + B*U has no solution")
    return u


@np.errstate(over="ignore", invalid="ignore")
def validate_per_agent(cfg) -> list[str]:
    """The problem list of ``ScenarioConfig.validate`` from one agent at a
    time: each agent's q_weight, stabilizability and regulation problems in
    node order, from the single-agent checks above."""
    problems: list[str] = []
    topo = cfg.topology
    report = verify_assumption1(topo)
    structure = []
    if report.unreachable_from_tracking:
        names = ", ".join(cfg.agent_name(i) for i in report.unreachable_from_tracking)
        structure.append(f"no spanning tree rooted at the tracking leader "
                         f"(unreachable nodes: {names})")
    if report.followers_without_leader:
        names = ", ".join(cfg.agent_name(i) for i in report.followers_without_leader)
        structure.append(f"followers with no formation-leader path: {names}")
    if structure:
        problems.append("; ".join(structure))
    for _, factors in cfg.schedule.entries:
        missing = [cfg.agent_name(q) for q in topo.leader_nodes if q not in factors]
        if missing:
            problems.append(f"schedule entry missing factors for leaders {', '.join(missing)}")
        problems += [f"propensity factor for {cfg.agent_name(q)} must be positive, "
                     f"got {factors[q]}" for q in topo.leader_nodes
                     if q in factors and not factors[q] > 0]
    targets = np.stack([cfg.tracking_a] + [f.S for f in cfg.formation])
    if spectral_radius(cfg.tracking_a) > 1.0 + MARGINAL_TOL:
        problems.append("tracking dynamics must have spectral radius <= 1")
    for q, form in zip(topo.leader_nodes, cfg.formation):
        if spectral_radius(form.S) > 1.0 + MARGINAL_TOL:
            problems.append(f"formation dynamics of {cfg.agent_name(q)} expand")
    for node, (name, dyn) in enumerate(zip(cfg.names, cfg.dynamics), 1):
        if not is_positive_definite(cfg.q_weights[node]):
            problems.append(f"q_weight of {name} must be symmetric positive definite")
        if not is_stabilizable(dyn):
            problems.append(f"agent {name} is not stabilizable")
        try:
            min_norm_regulation_solution(dyn.A, dyn.B, targets)
        except RegulationError:
            problems.append(f"regulation equation unsolvable for agent {name}")
    return problems
