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
from typing import Sequence

import numpy as np

from .errors import ConvergenceError, PfccError
from .matops import is_positive_definite


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
        # written so that a NaN fails them
        if not self.xi >= 1.0:
            raise ValueError("xi must be >= 1")
        if not (self.coupling > 0 and self.consensus_gain > 0 and self.init_scale > 0):
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
class ObserverBank:
    """Every observer network of a world stacked into one system.

    Network b observes the target in slot b of the stacked targets handed
    to ``step``.  Row r is the observer of agent ``rows[r][0]`` in the
    network of node ``rows[r][1]``; rows run network by network, each in
    member order, and ``row`` maps each ``(agent, observed node)`` back to
    its row.  ``graph`` is block diagonal with one gated block
    diag(deg + pin) - W per network, where W[k, j] is the weight of the edge
    member j -> member k: edges from agents outside the network carry no
    estimate of its target and are left out.  ``pin`` holds each row's
    direct edge weight from the observed node, so the consensus errors of
    all rows are G X - pin (x) targets.  ``target`` is each row's target
    slot, ``agent`` each row's agent node, ``configs`` each row's observer
    config, and ``mu`` (R, 1) and ``gain`` (R, n, n) each row's consensus
    gain and gain matrix.
    """

    rows: tuple[tuple[int, int], ...]
    row: dict[tuple[int, int], int]
    configs: tuple[ObserverConfig, ...]
    graph: np.ndarray
    pin: np.ndarray
    target: np.ndarray
    agent: np.ndarray
    mu: np.ndarray
    gain: np.ndarray

    @classmethod
    def stack(cls, adjacency: np.ndarray,
              blocks: Sequence[tuple[int, Sequence[int], Sequence[ObserverConfig]]]
              ) -> "ObserverBank":
        """Stack networks given as (observed node, members, one config per
        member in member order) over a receiver-row adjacency
        (``adjacency[i, j]`` is the weight of j -> i, zero diagonal); block b
        observes target slot b."""
        adjacency = np.asarray(adjacency, dtype=float)
        rows = [(a, node) for node, members, _ in blocks for a in members]
        configs = [c for _, _, member_configs in blocks for c in member_configs]
        if len(configs) != len(rows):
            raise ValueError("one observer config per network member is required")
        graph = np.zeros((len(rows), len(rows)))
        pin = np.zeros(len(rows))
        target = np.zeros(len(rows), dtype=int)
        start = 0
        for slot, (node, members, _) in enumerate(blocks):
            idx = list(members)
            end = start + len(idx)
            w = adjacency[idx][:, idx]
            pin[start:end] = adjacency[idx, node]
            graph[start:end, start:end] = np.diag(w.sum(axis=1) + pin[start:end]) - w
            target[start:end] = slot
            start = end
        return cls(rows=tuple(rows), row={key: r for r, key in enumerate(rows)},
                   configs=tuple(configs), graph=graph, pin=pin, target=target,
                   agent=np.array([a for a, _ in rows], dtype=int),
                   mu=np.array([[c.consensus_gain] for c in configs]),
                   gain=np.array([c.gain_matrix for c in configs]))

    def consensus_errors(self, values: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Stacked consensus errors (R, n) of row values (R, n) against the
        stacked targets (one per network)."""
        return self.graph @ values - self.pin[:, None] * targets[self.target]

    def step(self, observers: Sequence[RlsObserver], x_hat: np.ndarray,
             targets_now: np.ndarray, targets_next: np.ndarray) -> tuple[RlsObserver, ...]:
        """Advance the observers (one per row, in row order, with their
        estimates stacked in ``x_hat`` (R, n)) by one tick against the
        stacked targets' current and next values.

        Raises ConvergenceError when a prediction or next-tick error is not
        finite.
        """
        eta = self.consensus_errors(x_hat, targets_now)
        pred = predict_state(np.array([o.A_hat for o in observers]), x_hat,
                             self.mu, self.gain, eta)
        eta_next = self.consensus_errors(pred, targets_next)
        # any inf or nan entry makes the sums non-finite
        if not np.isfinite(pred.sum() + eta_next.sum()):
            raise ConvergenceError("observer state diverged")
        return tuple(observer_step_tracking_leader(o, e, e_next, x_next=p)
                     for o, e, e_next, p in zip(observers, eta, eta_next, pred))
