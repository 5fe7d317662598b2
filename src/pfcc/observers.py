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
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConvergenceError
from .matops import as_floats, row_sq_norms

#: Bound on the norm of a state or estimate row; a row past it (or a nan
#: row) has diverged and ends the run.
STATE_GUARD = 1e9


def first_past_guard(sq_norms: np.ndarray) -> int | None:
    """Index of the first row whose norm, the square root of its entry of
    ``sq_norms`` (the rows' ``row_sq_norms``), exceeds ``STATE_GUARD`` or is
    nan, or None when no row does.  The entries are compared with
    ``STATE_GUARD**2``, 1e18 exactly, with no square root taken: the
    correctly rounded sqrt is monotone, and the float after 1e18 has a
    square root past ``STATE_GUARD``, so each comparison is its norm's."""
    if sq_norms.max() <= STATE_GUARD * STATE_GUARD:  # a nan entry fails it
        return None
    return int(np.argmin(sq_norms <= STATE_GUARD * STATE_GUARD))


class ObserverDivergence(ConvergenceError):
    """A bank row's next estimate left ``STATE_GUARD``; ``row`` is the
    row's ``(agent, observed node)``."""

    def __init__(self, row: tuple[int, int]):
        self.row = row
        super().__init__(f"observer {row[0]} of node {row[1]}'s network diverged")


@dataclass(frozen=True)
class ObserverConfig:
    """Gains of one observer network: coupling (the model-update gain),
    consensus_gain and gain_matrix, whose values and shape
    ``ScenarioConfig.check_fields`` checks.  The regularizer xi and the
    initial parameter scale, shared by every network, are
    ``ScenarioConfig``'s.
    """

    coupling: float
    consensus_gain: float
    gain_matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gain_matrix", np.atleast_2d(as_floats(self.gain_matrix)))


class RlsObserver(NamedTuple):
    """Parameter side of one adaptive observer: its config and parameter
    scale c.  Its model estimate is its row of the caller's stacked models
    and its state estimate its row of the caller's stacked estimates (zero
    for a fresh record), and the bank hands each row's kernel step that
    row's squared norm.  An immutable record; a bank step builds one per
    row, so it is a tuple made with ``tuple.__new__``, which skips the
    NamedTuple's Python ``__new__`` (a frozen dataclass costs twice as much).

    The RLS parameter matrix is always c * I: it starts at the scenario's
    init_scale * I, and the regressor I (x) x_hat has Gram matrix
    |x_hat|^2 I, so every downdate keeps it a multiple of the identity
    (``tests/reference.py`` holds the general matrix form, ``rls_update_L``).
    """

    config: ObserverConfig
    c: float


def observer_step_tracking_leader(obs: RlsObserver, x_sq: float) -> RlsObserver:
    """Parameter downdate of one observer across one tick, given the squared
    norm ``x_sq`` of its current state estimate (a float, bit for bit
    ``float(x.dot(x))``; the bank computes every row's at once with
    ``row_sq_norms``).  Returns the stepped record; the bank makes every
    row's model update from the stepped scales in one stacked step.

    With L = c I this is the matrix update ``rls_update_L`` of
    ``tests/reference.py``.  A downdated scale that is no longer positive
    means the estimate has blown up.
    """
    cfg, c = obs
    c_next = c / (1.0 + c * x_sq)
    if not c_next > 0.0:
        raise ConvergenceError("observer state diverged")
    return tuple.__new__(RlsObserver, (cfg, c_next))


@dataclass(frozen=True)
class ObserverBank:
    """Every observer network of a world stacked into one system.

    Network b observes the target in slot b of the stacked targets handed
    to ``step``.  Row r is the observer of agent ``rows[r][0]`` in the
    network of node ``rows[r][1]``; rows run network by network, each in
    member order, and ``row`` maps each ``(agent, observed node)`` back to
    its row; the caller keeps each row's record, model and estimate in row
    order.
    ``graph`` is block diagonal with one gated block diag(deg + pin) - W
    per network, where W[k, j] is the weight of the edge member j -> member
    k: edges from agents outside the network carry no estimate of its
    target and are left out.  ``pin`` holds each row's direct edge weight
    from the observed node, so the consensus errors of all rows are
    G X - pin (x) targets.  ``target`` is each row's target slot, ``agent``
    each row's agent node, ``mu`` (R, 1) and ``gain`` (R, n, n) each row's
    consensus gain and gain matrix, ``coupling`` (R,) each row's
    model-update gain, and ``xi`` the regularizer of every row.
    """

    rows: tuple[tuple[int, int], ...]
    row: dict[tuple[int, int], int]
    graph: np.ndarray
    pin: np.ndarray
    target: np.ndarray
    agent: np.ndarray
    mu: np.ndarray
    gain: np.ndarray
    coupling: np.ndarray
    xi: float

    @classmethod
    def stack(cls, adjacency: np.ndarray,
              blocks: Sequence[tuple[int, Sequence[int], Sequence[ObserverConfig]]],
              xi: float) -> "ObserverBank":
        """Stack networks given as (observed node, members, one config per
        member in member order) over a receiver-row adjacency
        (``adjacency[i, j]`` is the weight of j -> i, zero diagonal), with
        the regularizer ``xi``; block b observes target slot b."""
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
                   graph=graph, pin=pin, target=target,
                   agent=np.array([a for a, _ in rows], dtype=int),
                   mu=np.array([[c.consensus_gain] for c in configs]),
                   gain=np.array([c.gain_matrix for c in configs]),
                   coupling=np.array([c.coupling for c in configs]), xi=xi)

    def consensus_errors(self, values: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Stacked consensus errors (R, n) of row values (R, n) against the
        stacked targets (one per network)."""
        return self.graph @ values - self.pin[:, None] * targets.take(self.target, axis=0)

    def step(self, observers: Sequence[RlsObserver], x_hat: np.ndarray, pred: np.ndarray,
             targets_now: np.ndarray, targets_next: np.ndarray,
             carried: tuple[np.ndarray, np.ndarray] | None = None
             ) -> tuple[tuple[RlsObserver, ...], np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """Advance the observers (one record per row, in row order, with
        their state estimates in ``x_hat`` (R, n)) by one tick against the
        stacked targets' current and next values.  ``pred`` (R, n) holds
        each row's ``A_hat x_hat`` with its pre-update model; the step
        subtracts ``mu F eta`` from it in place, so it then holds the next
        estimates.  Returns the stepped records, the models' correction
        (R, n, n), which the caller subtracts from the models once every
        guard has passed, and the pair to carry into the next step.

        ``carried`` is the pair ``(consensus_errors(x_hat, targets_now),
        row_sq_norms(x_hat))``, or None to compute it here.  The pair this
        step returns is the same products of the next estimates against
        ``targets_next``: the next step of the same bank, from the
        committed estimates and targets, reads it as its ``carried`` and
        gets every value bit for bit; a rebuilt bank starts again from None.

        Each row's kernel step downdates its scale with the current
        regressor; the models' correction then comes from the next-tick
        consensus errors in one stacked step.  With L = c I the gain solve
        (L_next^-1 + xi I)^-1 eta_next is eta_next / (1/c_next + xi), and
        the rank-one correction is the row-major unstacking of coupling *
        x_bar @ gain, in the same IEEE operations and order as one row's
        update on its own.

        Raises ObserverDivergence when a next estimate's norm exceeds
        ``STATE_GUARD`` or is nan, naming the first current estimate past
        it if any (a nan spreads through the graph product to every row),
        else the first such next estimate's row; and ConvergenceError when
        a next-tick error is not finite.
        """
        if carried is None:
            carried = self.consensus_errors(x_hat, targets_now), row_sq_norms(x_hat)
        eta, x_sq = carried
        pred -= self.mu * np.matmul(self.gain, eta[..., None])[..., 0]
        pred_sq = row_sq_norms(pred)
        first = first_past_guard(pred_sq)
        if first is not None:
            source = first_past_guard(x_sq)
            raise ObserverDivergence(self.rows[first if source is None else source])
        eta_next = self.consensus_errors(pred, targets_next)
        # any inf or nan entry makes the sum non-finite
        if not np.isfinite(eta_next.sum()):
            raise ConvergenceError("observer state diverged")
        stepped = tuple(map(observer_step_tracking_leader, observers, x_sq.tolist()))
        scale = self.coupling / (1.0 / np.array([o.c for o in stepped]) + self.xi)
        return (stepped, (eta_next * scale[:, None])[:, :, None] * x_hat[:, None, :],
                (eta_next, pred_sq))
