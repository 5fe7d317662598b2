"""Data-based distributed adaptive observers.

Each observer simultaneously estimates an unknown target model matrix and
the target state from neighbour exchange alone, combining a recursive
least-squares parameter matrix with consensus pulling.  The same update
serves three uses: leaders estimating the tracking state, followers
estimating the tracking state through the leader layer, and any influenced
agent estimating a leader's formation state (gated by propagated
reachability flags, so relays work across leaders).  All of a world's
observers advance together as one ``ObserverBank``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConvergenceError, PfccError
from .matops import is_positive_definite, spectral_radius


@dataclass(frozen=True)
class ObserverConfig:
    """Gains of one observer network.

    xi >= 1 regularizes the parameter update; coupling (the model-update
    gain) and consensus_gain must be positive; the initial parameter matrix
    is init_scale * I.
    """

    xi: float
    coupling: float
    consensus_gain: float
    gain_matrix: np.ndarray
    init_scale: float = 100.0

    def __post_init__(self):
        if self.xi < 1.0:
            raise ValueError("xi must be >= 1")
        if self.coupling <= 0 or self.consensus_gain <= 0 or self.init_scale <= 0:
            raise ValueError("coupling, consensus gain and init scale must be positive")
        object.__setattr__(self, "gain_matrix",
                           np.atleast_2d(np.asarray(self.gain_matrix, dtype=float)))


@dataclass(frozen=True)
class RlsObserver:
    """State of one adaptive observer: parameter scale c, model estimate
    A_hat, state estimate x_hat.

    The RLS parameter matrix is always c * I: it starts at init_scale * I,
    and the regressor I (x) x_hat has Gram matrix |x_hat|^2 I, so every
    downdate keeps it a multiple of the identity (see ``rls_update_L`` for
    the general matrix form).
    """

    config: ObserverConfig
    c: float
    A_hat: np.ndarray
    x_hat: np.ndarray

    @classmethod
    def create(cls, config: ObserverConfig, n: int,
               x0: np.ndarray | None = None) -> "RlsObserver":
        x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).ravel()
        return cls(config=config, c=float(config.init_scale),
                   A_hat=np.zeros((n, n)), x_hat=x)


def regressor(x_hat: np.ndarray) -> np.ndarray:
    """Stacked regressor I_n (x) x_hat used by the parameter updates."""
    x_hat = np.asarray(x_hat, dtype=float).ravel()
    return np.kron(np.eye(x_hat.size), x_hat.reshape(-1, 1))


def rls_update_L(L: np.ndarray, x_bar: np.ndarray) -> np.ndarray:
    """Parameter-matrix downdate (L^-1 + x_bar^T x_bar)^-1 without inverting L.

    The gain G = L x_bar^T (I + x_bar L x_bar^T)^-1 is the Woodbury form;
    the result is returned in Joseph form (I - G x_bar) L (I - G x_bar)^T
    + G G^T, a sum of two positive semidefinite terms, which keeps full
    precision where L - G x_bar L cancels.  L must be symmetric positive
    definite.
    """
    L = np.asarray(L, dtype=float)
    x_bar = np.asarray(x_bar, dtype=float)
    if not is_positive_definite(L, atol=1e-9):
        raise PfccError("adaptive parameter matrix must be symmetric positive definite")
    gram = np.eye(x_bar.shape[0]) + x_bar @ L @ x_bar.T
    g = np.linalg.solve(gram, x_bar @ L).T
    keep = np.eye(L.shape[0]) - g @ x_bar
    return keep @ L @ keep.T + g @ g.T


def consensus_error(own: np.ndarray,
                    neighbor_terms: Iterable[tuple[float, np.ndarray]],
                    pin_weight: float, pin_value: np.ndarray | None) -> np.ndarray:
    """Weighted disagreement sum plus direct pinning, if pinned."""
    own = np.asarray(own, dtype=float).ravel()
    eta = np.zeros_like(own)
    for w, est in neighbor_terms:
        if w > 0:
            eta += w * (own - np.asarray(est, dtype=float).ravel())
    if pin_weight > 0:
        if pin_value is None:
            raise ValueError("pinned agent needs a pin value")
        eta += pin_weight * (own - np.asarray(pin_value, dtype=float).ravel())
    return eta


def predict_state(a_hat: np.ndarray, x_hat: np.ndarray, mu: float | np.ndarray,
                  gain: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Next state estimate using the pre-update model: A_hat x_hat - mu F eta.

    Works row by row on stacks: ``a_hat`` and ``gain`` (R, n, n), ``x_hat``
    and ``eta`` (R, n) and ``mu`` (R, 1).  One observer is the same call
    without the leading axis and with a scalar ``mu``.
    """
    return (np.matmul(a_hat, x_hat[..., None])[..., 0]
            - mu * np.matmul(gain, eta[..., None])[..., 0])


def observer_step_tracking_leader(obs: RlsObserver, eta: np.ndarray,
                                  eta_next: np.ndarray,
                                  x_next: np.ndarray | None = None) -> RlsObserver:
    """Full observer update across one tick.

    The parameter scale is downdated with the current regressor, the state
    estimate advances with the pre-update model, and the model estimate is
    corrected against the next-tick consensus error (the only causal order
    consistent with the update indices).  ``x_next`` is the state prediction
    (``predict_state`` of this observer) when the caller has already
    computed it.

    With L = c I this is the matrix update of ``rls_update_L`` and the gain
    solve (L_next^-1 + xi I)^-1 eta_next in closed form.  A downdated scale
    that is no longer positive means the estimate has blown up.
    """
    eta = np.asarray(eta, dtype=float).ravel()
    eta_next = np.asarray(eta_next, dtype=float).ravel()
    x = obs.x_hat
    n = x.size
    if eta.size != n or eta_next.size != n:
        raise ValueError(f"consensus error dimension mismatch: expected {n}")
    cfg = obs.config
    c_next = obs.c / (1.0 + obs.c * float(x.dot(x)))
    if not c_next > 0.0:
        raise ConvergenceError("observer state diverged")
    if x_next is None:
        x_next = predict_state(obs.A_hat, x, cfg.consensus_gain, cfg.gain_matrix, eta)
    # coupling * gain with gain = eta_next / (1/c_next + xi); the row-major
    # unstacking of -coupling * x_bar @ gain is the rank-one term below
    scaled_gain = eta_next * (cfg.coupling / (1.0 / c_next + cfg.xi))
    a_next = obs.A_hat - scaled_gain[:, None] * x
    return RlsObserver(cfg, c_next, a_next, x_next)


@dataclass(frozen=True)
class ObserverNetwork:
    """One observer network (all estimators of one target) as a graph block.

    ``members`` are the agent nodes running an observer of the target, in
    row order.  ``graph`` is the gated V x V matrix diag(deg + pin) - W over
    the members, where W[k, j] is the weight of the edge member j -> member
    k; edges from agents outside the network carry no estimate of the target
    and are left out.  ``pin`` holds the direct edge weights from the target
    itself, so the consensus errors of all members are G X - pin (x) target.
    """

    members: tuple[int, ...]
    graph: np.ndarray
    pin: np.ndarray

    @classmethod
    def from_adjacency(cls, adjacency: np.ndarray, members: Sequence[int],
                       target: int) -> "ObserverNetwork":
        """Gate a receiver-row adjacency (``adjacency[i, j]`` is the weight
        of j -> i, zero diagonal) to ``members``, pinned to node ``target``."""
        idx = list(members)
        adjacency = np.asarray(adjacency, dtype=float)
        w = adjacency[idx][:, idx]
        pin = adjacency[idx, target]
        return cls(members=tuple(idx), graph=np.diag(w.sum(axis=1) + pin) - w,
                   pin=pin)


@dataclass(frozen=True)
class ObserverBank:
    """Every observer network of a world stacked into one system.

    ``networks`` maps each observed node to its network; network b (in that
    order) observes the target in slot b of the stacked targets handed to
    ``step``.  Row r is the observer of agent ``rows[r][0]`` in the network
    of node ``rows[r][1]``; rows run network by network, each in member
    order.  ``graph`` is block diagonal with one network's graph block per
    diagonal block, ``pin`` the stacked pin vectors, ``target`` each row's
    target slot, and ``mu`` (R, 1) and ``gain`` (R, n, n) each row's
    consensus gain and gain matrix.
    """

    networks: dict[int, ObserverNetwork]
    rows: tuple[tuple[int, int], ...]
    graph: np.ndarray
    pin: np.ndarray
    target: np.ndarray
    mu: np.ndarray
    gain: np.ndarray

    @classmethod
    def stack(cls, blocks: Sequence[tuple[int, ObserverNetwork, Sequence[ObserverConfig]]]
              ) -> "ObserverBank":
        """Stack networks given as (observed node, network, one config per
        member in member order); block b observes target slot b."""
        size = sum(len(net.members) for _, net, _ in blocks)
        graph = np.zeros((size, size))
        pin = np.zeros(size)
        target = np.zeros(size, dtype=int)
        rows: list[tuple[int, int]] = []
        configs: list[ObserverConfig] = []
        start = 0
        for slot, (node, net, member_configs) in enumerate(blocks):
            end = start + len(net.members)
            graph[start:end, start:end] = net.graph
            pin[start:end] = net.pin
            target[start:end] = slot
            rows += [(a, node) for a in net.members]
            configs += member_configs
            start = end
        if len(configs) != size:
            raise ValueError("one observer config per network member is required")
        return cls(networks={node: net for node, net, _ in blocks}, rows=tuple(rows),
                   graph=graph, pin=pin, target=target,
                   mu=np.array([[c.consensus_gain] for c in configs]),
                   gain=np.array([c.gain_matrix for c in configs]))

    def consensus_errors(self, values: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Stacked consensus errors (R, n) of row values (R, n) against the
        stacked targets (one per network)."""
        return self.graph @ values - self.pin[:, None] * targets[self.target]

    def step(self, observers: Sequence[RlsObserver], targets_now: np.ndarray,
             targets_next: np.ndarray) -> list[RlsObserver]:
        """Advance the observers (one per row, in row order) by one tick
        against the stacked targets' current and next values.

        Raises ConvergenceError when a prediction or next-tick error is not
        finite.
        """
        x = np.array([o.x_hat for o in observers])
        eta = self.consensus_errors(x, targets_now)
        pred = predict_state(np.array([o.A_hat for o in observers]), x,
                             self.mu, self.gain, eta)
        eta_next = self.consensus_errors(pred, targets_next)
        # any inf or nan entry makes the sums non-finite
        if not np.isfinite(pred.sum() + eta_next.sum()):
            raise ConvergenceError("observer state diverged")
        return [observer_step_tracking_leader(o, e, e_next, x_next=p)
                for o, e, e_next, p in zip(observers, eta, eta_next, pred)]


def consensus_matrix(a_target: np.ndarray, mu: float, gain_matrix: np.ndarray,
                     graph: np.ndarray) -> np.ndarray:
    """Consensus matrix I (x) A - mu (G (x) F) of one observer network."""
    graph = np.atleast_2d(np.asarray(graph, dtype=float))
    return (np.kron(np.eye(graph.shape[0]), a_target)
            - mu * np.kron(graph, np.atleast_2d(gain_matrix)))


@dataclass(frozen=True)
class GainBound:
    """Diagnostic upper bound on the model-update coupling gain."""

    value: float
    unconstrained: bool = False
    well_posed: bool = True


def coupling_gain_bound(zeta: np.ndarray, l_bar: np.ndarray,
                        graph_block: np.ndarray, s_consensus: np.ndarray,
                        xi: float) -> GainBound:
    """Evaluate the analytical upper bound on the coupling gain.

    Uses the current regressor block to form the excitation ratio, and the
    weighting W built from the parameter matrices and the graph block.  A
    zero regressor leaves the gain unconstrained; an indefinite W - S^T W S
    is reported via the well_posed flag with a zero bound.
    """
    s_consensus = np.atleast_2d(np.asarray(s_consensus, dtype=float))
    if spectral_radius(s_consensus) >= 1.0:
        raise PfccError("consensus matrix must be Schur for the gain bound to apply")
    zeta = np.atleast_2d(np.asarray(zeta, dtype=float))
    sig = float(np.linalg.norm(zeta, 2)) if zeta.size else 0.0
    if sig == 0.0:
        return GainBound(value=float("inf"), unconstrained=True)
    gamma = sig**2 / (xi + sig**2)

    graph_block = np.atleast_2d(np.asarray(graph_block, dtype=float))
    n = s_consensus.shape[0] // graph_block.shape[0]
    g_kron = np.kron(graph_block, np.eye(n))
    w = 0.5 * (l_bar @ g_kron + g_kron.T @ l_bar)
    diff = 0.5 * ((w - s_consensus.T @ w @ s_consensus)
                  + (w - s_consensus.T @ w @ s_consensus).T)
    lam_min = float(np.min(np.linalg.eigvalsh(diff)))
    if lam_min <= 0:
        return GainBound(value=0.0, well_posed=False)
    sig_g = float(np.linalg.norm(graph_block, 2))
    return GainBound(value=lam_min / (sig_g**2 * gamma))
