"""Shared fixtures and independent oracles used across the suite."""

from __future__ import annotations

from typing import Iterable

import numpy as np
import pytest

from pfcc import scenario as sc
from pfcc import simulation as sim
from pfcc.topology import DirectedTopology

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def vecv_loop(d: np.ndarray) -> np.ndarray:
    """Reference: the per-slot loop form of ``matops.vecv`` for one vector."""
    n = d.size
    out = np.empty(n * (n + 1) // 2)
    k = 0
    for i in range(n):
        out[k] = d[i] * d[i]
        out[k + 1 : k + n - i] = np.sqrt(2.0) * d[i] * d[i + 1 :]
        k += n - i
    return out


def unvecm_store(v: np.ndarray, n: int) -> np.ndarray:
    """Reference: the fancy-store form of ``matops.unvecm``, which writes
    the unscaled slots into the upper and then the lower triangle."""
    rows, cols = np.triu_indices(n)
    out = np.empty((n, n))
    out[rows, cols] = out[cols, rows] = v / np.where(rows == cols, 1.0, np.sqrt(2.0))
    return out


def reference_noise(cfg, width: int, tick: int) -> np.ndarray:
    """Reference: one probing-noise row from its own seeded generator, the
    per-call form ``learning.exploration_noise`` must match bit for bit."""
    if cfg.noise_std == 0.0:
        return np.zeros(width)
    rng = np.random.default_rng([cfg.rng_seed & 0x7FFFFFFF, tick])
    return rng.normal(0.0, cfg.noise_std, width)


def formation_error(x_q: np.ndarray, h_q: np.ndarray, x_o: np.ndarray) -> np.ndarray:
    """Reference: a leader's tracking error x - h - x_o."""
    return np.asarray(x_q, dtype=float) - np.asarray(h_q, dtype=float) - np.asarray(x_o, dtype=float)


def containment_error(x_i: np.ndarray, h_all: dict[int, np.ndarray],
                      x_o: np.ndarray, alphas: dict[int, float]) -> np.ndarray:
    """Reference: a follower's error against its convex combination of
    leader targets."""
    e = np.asarray(x_i, dtype=float).copy()
    for q, alpha in alphas.items():
        if alpha != 0.0:
            e = e - alpha * (np.asarray(h_all[q], dtype=float) + np.asarray(x_o, dtype=float))
    return e


def consensus_error(own: np.ndarray,
                    neighbor_terms: Iterable[tuple[float, np.ndarray]],
                    pin_weight: float, pin_value: np.ndarray | None) -> np.ndarray:
    """Reference: one observer's weighted disagreement sum plus direct
    pinning, if pinned."""
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


def observer_of(state: sim.WorldState, agent: int, target: int):
    """The observer that ``agent`` runs of ``target`` (0 = tracking)."""
    return state.observers[state.bank.row[agent, target]]


def reference_alphas(state: sim.WorldState, cfg: sim.ScenarioConfig,
                     node: int) -> dict[int, float]:
    """Reference: weights of an agent's formation blocks, read from the
    knowledge: a leader follows its own formation at weight 1, a follower
    its convex coefficients (or the baseline's Laplacian weights)."""
    if cfg.topology.is_leader(node):
        return {node: 1.0}
    if state.baseline_alpha is not None:
        return state.baseline_alpha[node]
    return state.knowledge[node].coefficients


def reference_augmented_state(state: sim.WorldState, cfg: sim.ScenarioConfig,
                              node: int, layout: tuple[int, ...]) -> np.ndarray:
    """Reference: the measured augmented state z concatenated piece by
    piece: plant, one formation part per layout leader (an agent's own
    formation state exactly, any other leader's as estimated), tracking
    estimate."""
    row, observers = state.bank.row, state.observers
    parts = [state.x[node - 1]]
    for q in layout:
        parts.append(state.targets[1 + cfg.topology.leader_index(q)] if q == node
                     else observers[row[node, q]].x_hat)
    parts.append(observers[row[node, 0]].x_hat)
    return np.concatenate(parts)


def reference_trace_row(state: sim.WorldState, cfg: sim.ScenarioConfig) -> list[float]:
    """Reference: the trace row of the current state from one norm per
    error vector and per observer, in ``TraceLog.header()`` order."""
    topo = cfg.topology
    x_o = state.targets[0]
    h_all = dict(zip(topo.leader_nodes, state.targets[1:]))
    row = [float(state.tick)]
    row += [float(np.linalg.norm(formation_error(state.x[q - 1], h_all[q], x_o)))
            for q in topo.leader_nodes]
    row += [float(np.linalg.norm(containment_error(
        state.x[i - 1], h_all, x_o, reference_alphas(state, cfg, i))))
        for i in topo.follower_nodes]
    for a in topo.leader_nodes + topo.follower_nodes:
        err = float(np.linalg.norm(observer_of(state, a, 0).x_hat - x_o))
        for q in sorted(state.knowledge[a].influential - {a}):
            err += float(np.linalg.norm(observer_of(state, a, q).x_hat - h_all[q]))
        row.append(err)
    if cfg.record_states:
        for a in topo.follower_nodes + topo.leader_nodes:
            row += [float(v) for v in state.x[a - 1]]
    return row


def transitive_closure(adjacency: np.ndarray) -> np.ndarray:
    """Brute-force reachability oracle: (i, j) true iff a path j -> i exists."""
    n = adjacency.shape[0]
    reach = adjacency > 0
    for _ in range(n):
        reach = reach | (reach @ reach)
    return reach


def chain_topology() -> DirectedTopology:
    """T -> L1 -> L2 -> F1 -> F2 -> F3, one long relay line."""
    ff = np.zeros((3, 3))
    ff[1, 0] = 1.0
    ff[2, 1] = 1.0
    ll = np.zeros((2, 2))
    ll[1, 0] = 1.0
    lf = np.zeros((3, 2))
    lf[0, 1] = 1.0
    return DirectedTopology(3, 2, ff, ll, lf, np.array([1.0, 0.0]))


def star_topology() -> DirectedTopology:
    """Every leader wired straight to every follower."""
    lf = np.ones((3, 2))
    return DirectedTopology(3, 2, np.zeros((3, 3)), np.zeros((2, 2)), lf,
                            np.array([1.0, 1.0]))


def relay_line_topology() -> DirectedTopology:
    """Followers 1-3 hear only the last leader of the line 4 -> 5 -> 6."""
    ll = np.zeros((3, 3))
    ll[1, 0] = 1.0  # 4 -> 5
    ll[2, 1] = 1.0  # 5 -> 6
    lf = np.zeros((3, 3))
    lf[:, 2] = 1.0  # 6 -> everyone
    return DirectedTopology(3, 3, np.zeros((3, 3)), ll, lf,
                            np.array([1.0, 0.0, 0.0]))


def direct_leaders_topology() -> DirectedTopology:
    """Each leader feeds one follower; followers relay around a ring."""
    ff = np.zeros((3, 3))
    ff[1, 0] = 1.0
    ff[2, 1] = 1.0
    ff[0, 2] = 1.0
    lf = np.eye(3)
    return DirectedTopology(3, 3, ff, np.zeros((3, 3)), lf,
                            np.array([1.0, 1.0, 1.0]))


def mixed_relay_topology() -> DirectedTopology:
    """Four leaders 4..7 with the line 4 -> 5 -> 6 -> 7, leader 6 feeding
    every follower and leader 7 feeding only follower 3."""
    ll = np.zeros((4, 4))
    ll[1, 0] = 1.0  # 4 -> 5
    ll[2, 1] = 1.0  # 5 -> 6
    ll[3, 2] = 1.0  # 6 -> 7
    lf = np.zeros((3, 4))
    lf[:, 2] = 1.0  # 6 -> all
    lf[2, 3] = 1.0  # 7 -> follower 3
    return DirectedTopology(3, 4, np.zeros((3, 3)), ll, lf,
                            np.array([1.0, 0.0, 0.0, 0.0]))


def random_topology(rng: np.random.Generator) -> DirectedTopology:
    """Random graph satisfying the spanning-tree and leader-coverage
    structure, at most 12 nodes."""
    n = int(rng.integers(1, 6))
    m = int(rng.integers(1, 6))
    ff = np.zeros((n, n))
    ll = np.zeros((m, m))
    lf = np.zeros((n, m))
    tl = np.zeros(m)
    # leaders: random in-tree rooted at the tracking leader
    for q in range(m):
        parent = int(rng.integers(0, q + 1))
        if parent == 0:
            tl[q] = 1.0
        else:
            ll[q, parent - 1] = 1.0
    # followers: parent is a leader or an earlier follower
    for i in range(n):
        choices = m + i
        pick = int(rng.integers(0, choices))
        if pick < m:
            lf[i, pick] = 1.0
        else:
            ff[i, pick - m] = 1.0
    # extra random edges respecting the type shape
    for _ in range(int(rng.integers(0, n + m))):
        i = int(rng.integers(0, n + m))
        j = int(rng.integers(0, n + m))
        w = float(rng.uniform(0.5, 2.0))
        if i < n:  # receiver is a follower
            if j < n and j != i:
                ff[i, j] = w
            elif j >= n:
                lf[i, j - n] = w
        else:  # receiver is a leader: only leaders may transmit
            if j >= n and j != i:
                ll[i - n, j - n] = w
    return DirectedTopology(n, m, ff, ll, lf, tl)


@pytest.fixture()
def hexagon_config():
    return sc.load_bundled("hexagon")


@pytest.fixture()
def hexagon_static_config():
    return sc.load_bundled("hexagon_static")
