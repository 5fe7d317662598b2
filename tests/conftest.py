"""Shared fixtures and independent oracles used across the suite."""

from __future__ import annotations

import dataclasses
import math
from typing import Iterable

import numpy as np
import pytest

import reference as ref
from pfcc import learning as ln
from pfcc import matops as mo
from pfcc import model_control as mc
from pfcc import scenario as sc
from pfcc import simulation as sim
from pfcc.errors import PfccError
from pfcc.propagation import convex_coefficients
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


def unvecm(v: np.ndarray, n: int) -> np.ndarray:
    """Reference: the exact left inverse of ``matops.vecm``, the symmetric
    matrix of order n whose half-vectorization is ``v``, in the fancy-store
    form: the unscaled slots are written into the upper and then the lower
    triangle."""
    v = np.asarray(v, dtype=float).ravel()
    if v.size != n * (n + 1) // 2:
        raise ValueError(f"unvecm: expected length {n * (n + 1) // 2} for order {n}, got {v.size}")
    rows, cols = np.triu_indices(n)
    out = np.empty((n, n))
    out[rows, cols] = out[cols, rows] = v / np.where(rows == cols, 1.0, np.sqrt(2.0))
    return out


def unvec(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Reference: the ``rows x cols`` matrix M whose column stacking
    [M[:,0]; M[:,1]; ...] is ``v``."""
    v = np.asarray(v, dtype=float).ravel()
    if v.size != rows * cols:
        raise ValueError(f"unvec: expected length {rows * cols}, got {v.size}")
    return v.reshape((rows, cols), order="F")


def reference_noise(std: float, seed: int, width: int, tick: int) -> np.ndarray:
    """Reference: one probing-noise row of standard deviation ``std`` from
    its own seeded generator, the per-call form ``learning.exploration_noise``
    must match bit for bit at ``learning.NOISE_STD``."""
    rng = np.random.default_rng([seed & 0x7FFFFFFF, tick])
    return rng.normal(0.0, std, width)


def reference_gain_update(xi2: np.ndarray, xi3: np.ndarray) -> np.ndarray:
    """Reference: the gain update through ``np.linalg.svd`` itself, with the
    cutoff read as the singular values' max and min, the steps of numpy's
    ``pinv``; the reciprocal of a 1x1 ``Xi3`` inside ``RECIPROCAL_RANGE``,
    and ``reference.adjugate_gain`` for a 2x2 that
    ``reference.takes_closed_form_gain``."""
    if (xi3.shape == (1, 1)
            and ln.RECIPROCAL_RANGE[0] <= abs(xi3[0, 0]) <= ln.RECIPROCAL_RANGE[1]):
        return -(1.0 / xi3) @ xi2
    if ref.takes_closed_form_gain(xi3):
        return ref.adjugate_gain(xi2, xi3)
    u, s, vt = np.linalg.svd(xi3, full_matrices=False)
    if s.min() > ln.GAIN_PINV_RCOND * s.max():
        return -np.matmul(vt.T, (1 / s)[:, None] * u.T) @ xi2
    large = s > ln.GAIN_PINV_RCOND * s.max()
    np.divide(1, s, where=large, out=s)
    s[~large] = 0
    return -np.matmul(vt.T, s[:, None] * u.T) @ xi2


def reference_sweep(ctrl: ln.LearnedController, plan: ln.WindowPlan,
                    cost: np.ndarray) -> ln.LearnedController:
    """Reference: one value-iteration sweep against ``plan``, a window's
    ``learning.WindowPlan``, composed step by step, the form
    ``learning.learning_tick`` must match bit for bit: the ``symmetrize``d
    Bellman backup, the plan's regression ``plan.xi`` at the previous and
    the new value matrix, and ``reference_gain_update``."""
    xi_prev = ctrl.Xi
    if xi_prev is None:
        xi_prev = plan.xi(ctrl.P_hat)
    xi1, xi2, xi3 = xi_prev
    k = ctrl.K_hat
    backup = mo.symmetrize(cost + xi1 + k.T @ xi2 + xi2.T @ k + k.T @ xi3 @ k)
    p_new = (1.0 - mc.VI_AVERAGING) * ctrl.P_hat + mc.VI_AVERAGING * backup
    xi_new = plan.xi(p_new)
    k_new = reference_gain_update(xi_new[1], xi_new[2])
    delta = float(np.linalg.norm(k_new - ctrl.K_hat))
    settled = (delta < ln.GAIN_DELTA_THRESHOLD
               and np.abs(p_new - ctrl.P_hat).max() <= ln.VALUE_STEP_RTOL * np.abs(p_new).max())
    return ln.LearnedController(p_new, k_new, xi_new, ln.CONVERGED if settled else ln.ITERATING,
                                ctrl.iterations + 1, delta)


def non_finite(value, path: tuple = ()) -> tuple | None:
    """Reference: path to the first number of a parsed JSON value, in
    document order, that is not a finite float (``NaN``, ``Infinity``, or
    a literal such as ``1e400`` or a 400-digit integer), else None."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return None if math.isfinite(value) else path
        except OverflowError:
            return path
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        found = non_finite(item, path + (key,))
        if found is not None:
            return found
    return None


@np.errstate(over="ignore", invalid="ignore")
def regulation_problems(cfg: sim.ScenarioConfig) -> list[str]:
    """Reference: the regulation lines of ``ScenarioConfig.validate`` from
    one per-agent ``min_norm_regulation_solution`` call per agent and target
    (the tracking target, then each leader's formation), stopping at an
    agent's first unsolvable target."""
    problems = []
    for node in cfg.topology.follower_nodes + cfg.topology.leader_nodes:
        dyn = cfg.dynamics_of(node)
        for target in [cfg.tracking_a] + [f.S for f in cfg.formation]:
            try:
                ref.min_norm_regulation_solution(dyn.A, dyn.B, target)
            except PfccError:
                problems.append(f"regulation equation unsolvable for agent {cfg.agent_name(node)}")
                break
    return problems


def drawn_plants(cfg: sim.ScenarioConfig, seed: int) -> sim.ScenarioConfig:
    """``cfg`` with every agent's plant redrawn from ``seed``: A = [[0, 1],
    [a1, a2]] with a1, a2 ~ U(-3, 3), and row 2 of B drawn ±U(0.5, 3) per
    input column (row 1 zero), keeping each agent's input width.  Each
    warm-up gain is the deadbeat K = pinv(B) (N - A), N = [[0, 1], [0, 0]],
    so A + B K = N."""
    rng = np.random.default_rng(seed)
    nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]])

    def draw(dyn: mc.AgentDynamics) -> mc.AgentDynamics:
        b = np.zeros((2, dyn.m))
        b[1] = rng.choice([-1.0, 1.0], dyn.m) * rng.uniform(0.5, 3.0, dyn.m)
        return mc.AgentDynamics([[0.0, 1.0], rng.uniform(-3.0, 3.0, 2)], b)

    dynamics = [draw(d) for d in cfg.dynamics]
    warmups = {node: np.linalg.pinv(dyn.B) @ (nilpotent - dyn.A)
               for node, dyn in enumerate(dynamics, 1)}
    return dataclasses.replace(cfg, dynamics=dynamics, warmup_gains=warmups)


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


def model_of(state: sim.WorldState, agent: int, target: int) -> np.ndarray:
    """The model estimate that ``agent``'s observer of ``target`` (0 =
    tracking) holds, its bank row of the transition stack's model tail."""
    return state.stack[state.head + state.bank.row[agent, target]]


def estimate_of(state: sim.WorldState, agent: int, target: int) -> np.ndarray:
    """The state estimate that ``agent`` holds of ``target`` (0 = tracking),
    read from the world vector's tail at its bank row."""
    n = state.x.shape[1]
    start = state.x.size + state.targets.size + state.bank.row[agent, target] * n
    return state.world[start : start + n]


def known_leaders(known: np.ndarray, node: int) -> set[int]:
    """The leaders ``node`` knows, read from the knowledge matrix."""
    return set(np.flatnonzero(known[node]).tolist())


def reference_alphas(state: sim.WorldState, cfg: sim.ScenarioConfig,
                     node: int) -> dict[int, float]:
    """Reference: weights of an agent's formation blocks, read from the
    knowledge: a leader follows its own formation at weight 1, a follower
    the convex coefficients of the factors in force over the leaders it
    knows (or the baseline's Laplacian weights)."""
    if cfg.topology.is_leader(node):
        return {node: 1.0}
    if cfg.mode == sim.MODE_BASELINE:
        return sim.follower_coefficients(cfg, state.known, state.factors)[node]
    return convex_coefficients({q: state.factors[q]
                                for q in known_leaders(state.known, node)})


def reference_augmented_state(state: sim.WorldState, cfg: sim.ScenarioConfig,
                              node: int, layout: tuple[int, ...]) -> np.ndarray:
    """Reference: the measured augmented state z concatenated piece by
    piece: plant, one formation part per layout leader (an agent's own
    formation state exactly, any other leader's as estimated), tracking
    estimate."""
    parts = [state.x[node - 1]]
    for q in layout:
        parts.append(state.targets[1 + cfg.topology.leader_index(q)] if q == node
                     else estimate_of(state, node, q))
    parts.append(estimate_of(state, node, 0))
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
        err = float(np.linalg.norm(estimate_of(state, a, 0) - x_o))
        for q in sorted(known_leaders(state.known, a) - {a}):
            err += float(np.linalg.norm(estimate_of(state, a, q) - h_all[q]))
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


def block_topology(n: int, m: int, ff, ll, lf, tl) -> DirectedTopology:
    """A topology from its edge blocks, leader indices counted from 0:
    ``ff[i, j]`` weighs follower j -> follower i, ``ll[q, p]`` leader p ->
    leader q, ``lf[i, q]`` leader q -> follower i and ``tl[q]`` the
    tracking leader -> leader q."""
    a = np.zeros((1 + n + m, 1 + n + m))
    a[1 : 1 + n, 1 : 1 + n] = ff
    a[1 : 1 + n, 1 + n :] = lf
    a[1 + n :, 1 + n :] = ll
    a[1 + n :, 0] = tl
    return DirectedTopology(n, m, a)


def chain_topology() -> DirectedTopology:
    """T -> L1 -> L2 -> F1 -> F2 -> F3, one long relay line."""
    ff = np.zeros((3, 3))
    ff[1, 0] = 1.0
    ff[2, 1] = 1.0
    ll = np.zeros((2, 2))
    ll[1, 0] = 1.0
    lf = np.zeros((3, 2))
    lf[0, 1] = 1.0
    return block_topology(3, 2, ff, ll, lf, np.array([1.0, 0.0]))


def star_topology() -> DirectedTopology:
    """Every leader wired straight to every follower."""
    lf = np.ones((3, 2))
    return block_topology(3, 2, np.zeros((3, 3)), np.zeros((2, 2)), lf,
                            np.array([1.0, 1.0]))


def relay_line_topology() -> DirectedTopology:
    """Followers 1-3 hear only the last leader of the line 4 -> 5 -> 6."""
    ll = np.zeros((3, 3))
    ll[1, 0] = 1.0  # 4 -> 5
    ll[2, 1] = 1.0  # 5 -> 6
    lf = np.zeros((3, 3))
    lf[:, 2] = 1.0  # 6 -> everyone
    return block_topology(3, 3, np.zeros((3, 3)), ll, lf,
                            np.array([1.0, 0.0, 0.0]))


def direct_leaders_topology() -> DirectedTopology:
    """Each leader feeds one follower; followers relay around a ring."""
    ff = np.zeros((3, 3))
    ff[1, 0] = 1.0
    ff[2, 1] = 1.0
    ff[0, 2] = 1.0
    lf = np.eye(3)
    return block_topology(3, 3, ff, np.zeros((3, 3)), lf,
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
    return block_topology(3, 4, np.zeros((3, 3)), ll, lf,
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
    return block_topology(n, m, ff, ll, lf, tl)


def drop_edges(topo: DirectedTopology, rng: np.random.Generator,
               share: float = 0.3) -> DirectedTopology:
    """``topo`` with each edge dropped with probability ``share``, so the
    structure requirements may fail."""
    kept = rng.random(topo.adjacency.shape) >= share
    return DirectedTopology(topo.n_followers, topo.n_leaders, topo.adjacency * kept)


def reachable_from(topo: DirectedTopology, start: int) -> set[int]:
    """Depth-first oracle: nodes reachable from ``start`` by directed
    paths of length >= 1."""
    edge = topo.adjacency > 0
    seen: set[int] = set()
    stack = [start]
    while stack:
        new = set(np.flatnonzero(edge[:, stack.pop()]).tolist()) - seen
        seen |= new
        stack.extend(new)
    return seen


def reference_itfl_sets(known: np.ndarray, topo: DirectedTopology) -> dict[int, frozenset[int]]:
    """Node-by-node oracle for ``reference.itfl_sets``: leader m relays
    leader q when m knows q and reaches a follower that q reaches, but
    not through followers alone."""
    edge = topo.adjacency > 0

    # Follower-only reachability: paths whose intermediate nodes are followers.
    def leader_free_followers(q: int) -> set[int]:
        seen = {i for i in topo.follower_nodes if edge[i, q]}
        stack = list(seen)
        while stack:
            j = stack.pop()
            for i in topo.follower_nodes:
                if i not in seen and edge[i, j]:
                    seen.add(i)
                    stack.append(i)
        return seen

    result: dict[int, frozenset[int]] = {}
    for q in topo.leader_nodes:
        needy = {i for i in reachable_from(topo, q)
                 if topo.is_follower(i)} - leader_free_followers(q)
        relays = set()
        for m in topo.leader_nodes:
            if m == q or not known[m, q]:
                continue
            if needy & {i for i in reachable_from(topo, m) if topo.is_follower(i)}:
                relays.add(m)
        result[q] = frozenset(relays)
    return result


def hop_distances(adjacency: np.ndarray) -> np.ndarray:
    """Breadth-first oracle: ``[i, j]`` is the fewest edges on a directed
    path j -> i (``inf`` if none; a node reaches itself only round a
    cycle)."""
    size = adjacency.shape[0]
    dist = np.full((size, size), np.inf)
    for start in range(size):
        frontier, hops = {start}, 0
        while frontier:
            hops += 1
            frontier = {int(i) for j in frontier for i in np.flatnonzero(adjacency[:, j] > 0)
                        if dist[i, start] == np.inf}
            dist[list(frontier), start] = hops
    return dist


def drawn_topology_config(base: sim.ScenarioConfig, seed: int,
                          switch_tick: int) -> sim.ScenarioConfig:
    """``base`` moved onto ``random_topology`` drawn from ``seed``: every
    agent gets a single-input plant and deadbeat warm-up gain as in
    ``drawn_plants`` and an initial state drawn from U(-1, 1), leader k
    takes ``base``'s k-th formation and formation observer and every cost
    weight is I.  The propensity factors are drawn from U(0.05, 1) at tick 0
    and drawn again at ``switch_tick``."""
    rng = np.random.default_rng(seed)
    topo = random_topology(rng)
    agents = topo.follower_nodes + topo.leader_nodes
    leaders = base.topology.leader_nodes
    cfg = dataclasses.replace(
        base, topology=topo,
        dynamics=[mc.AgentDynamics(SWAP, [[0.0], [1.0]])] * len(agents),
        formation=base.formation[: topo.n_leaders],
        x0=[rng.uniform(-1.0, 1.0, 2) for _ in agents],
        names=([f"F{i + 1}" for i in range(topo.n_followers)]
               + [f"L{q + 1}" for q in range(topo.n_leaders)]),
        q_weights={node: np.eye(2) for node in agents},
        formation_observers={q: base.formation_observers[p]
                             for q, p in zip(topo.leader_nodes, leaders)},
        schedule=sim.PropensitySchedule(tuple(
            (tick, {q: float(rng.uniform(0.05, 1.0)) for q in topo.leader_nodes})
            for tick in (0, switch_tick))),
        warmup_gains={})
    return drawn_plants(cfg, seed)


@pytest.fixture()
def hexagon_config():
    return sc.load_bundled("hexagon")


@pytest.fixture(autouse=True, scope="session")
def validate_matches_the_per_agent_reference():
    """Every ``ScenarioConfig.validate`` call of the suite also runs
    ``reference.validate_per_agent`` on its config and fails unless both
    list the same problems in the same order."""
    stacked = sim.ScenarioConfig.validate

    def checked(cfg):
        problems = stacked(cfg)
        expected = ref.validate_per_agent(cfg)
        assert problems == expected, f"stacked {problems} != per-agent {expected}"
        return problems

    sim.ScenarioConfig.validate = checked
    yield
    sim.ScenarioConfig.validate = stacked
