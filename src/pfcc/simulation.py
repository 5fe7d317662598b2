"""Tick-synchronized world engine.

Every tick applies, in order: propensity-schedule updates, one influence
propagation step, all observer updates (snapshot semantics: every observer
reads the previous tick's neighbour estimates), the control law
``u = K z`` for every agent at once, and finally the plant, formation, and
tracking state advance, after which the learners record the completed
transition and solve a window on the tick it fills.  Controls are computed
from the pre-update estimate snapshot, matching the information an agent
actually has at that tick.  The world vector ``[x | targets | estimates]``
times the transition stack aligned to it gives every ``A x``, the next
targets and every ``A_hat x_hat``; ``+ B u`` and ``- mu F eta`` in place make
that product the next world vector.

Three modes share the loop and its one control path; they differ only in
how an agent finds its gain K.  ``data_driven`` runs the online learners,
``model_based_oracle`` substitutes gains synthesized from the true models,
and ``fcc_baseline`` disables propensity weighting in favour of the
Laplacian-derived convex weights of classical two-layer designs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import learning as ln
from . import model_control as mc
from . import observers as ob
from . import propagation as pr
from .errors import (AssumptionError, ConvergenceError, DataConsistencyError,
                     PfccError, RegulationError, SimulationAbort)
from .matops import as_floats, is_positive_definite, row_sq_norms
from .topology import DirectedTopology, verify_assumption1

MODE_DATA = "data_driven"
MODE_ORACLE = "model_based_oracle"
MODE_BASELINE = "fcc_baseline"
MODES = (MODE_DATA, MODE_ORACLE, MODE_BASELINE)

#: The tracking leader's name in scenario files, traces and messages.
TRACKING_NAME = "T"


def check_names(names: list[str]) -> None:
    """Raise ValueError unless the agent names are unique and none is the
    tracking leader's."""
    if len(set(names)) != len(names) or TRACKING_NAME in names:
        raise ValueError("agent names must be unique and must not shadow "
                         f"the tracking leader name {TRACKING_NAME!r}")


@dataclass(frozen=True)
class PropensitySchedule:
    """Activation ticks with full per-leader factor maps; that the first
    entry activates at tick 0 and ticks strictly increase is
    ``ScenarioConfig.check_fields``'s rule."""

    entries: tuple[tuple[int, dict[int, float]], ...]

    def initial(self) -> dict[int, float]:
        return dict(self.entries[0][1])

    def entry_at(self, tick: int) -> dict[int, float] | None:
        for t, factors in self.entries:
            if t == tick:
                return dict(factors)
        return None


@dataclass
class ScenarioConfig:
    """Everything needed for one deterministic run, each value held once,
    as in the scenario file.

    ``dynamics``, ``x0`` and ``names`` hold one entry per agent in node
    order, followers then leaders (row ``node - 1``); ``formation`` holds
    one entry per leader.  ``xi`` (>= 1) regularizes every observer
    network's parameter update, whose parameter matrix starts at
    ``init_scale`` (> 0) times I.  ``check_fields`` is the one rule for
    each field's value, shape and node keys, the schedule's and observer
    networks' included (the topology's edge classes and weights are
    ``DirectedTopology``'s)."""

    name: str
    topology: DirectedTopology
    dynamics: list[mc.AgentDynamics]
    formation: list[mc.FormationDynamics]
    tracking_a: np.ndarray
    tracking_x0: np.ndarray
    schedule: PropensitySchedule
    q_weights: dict[int, np.ndarray]
    xi: float
    init_scale: float
    leader_tracking_observer: ob.ObserverConfig
    follower_tracking_observer: ob.ObserverConfig
    formation_observers: dict[int, ob.ObserverConfig]
    warmup_gains: dict[int, np.ndarray]
    learn_start_tick: int
    horizon: int
    sample_interval: int
    mode: str
    seed: int
    x0: list[np.ndarray]
    names: list[str]
    record_states: bool = False

    def __post_init__(self):
        self.tracking_a = np.atleast_2d(as_floats(self.tracking_a))
        self.tracking_x0 = as_floats(self.tracking_x0).ravel()
        self.check_fields()

    def check_fields(self) -> None:
        """Raise ValueError for a field no run can use: the one rule for a
        field's value and shape, and that each of its numbers is finite, for
        a scenario file and a Python config alike.  Fields are plain
        attributes, so ``init_world`` checks them again."""
        topo = self.topology
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if ({len(self.dynamics), len(self.x0), len(self.names)} != {topo.n_nodes - 1}
                or len(self.formation) != topo.n_leaders):
            raise ValueError("one dynamics entry, x0 and name per follower and leader "
                             "and one formation per leader are required")
        check_names(self.names)
        for what, value, least in [("sample interval", self.sample_interval, 1),
                                   ("horizon", self.horizon, 0),
                                   ("learn start tick", self.learn_start_tick, 0)]:
            if value < least:
                raise ValueError(f"{what} must be >= {least}")
        ticks = [t for t, _ in self.schedule.entries]
        if not ticks:
            raise ValueError("schedule needs at least one entry")
        if ticks[0] != 0:
            raise ValueError("first schedule entry must activate at tick 0")
        if any(b <= a for a, b in zip(ticks, ticks[1:])):
            raise ValueError("schedule ticks must be strictly increasing")
        # each node key must be a node of its field's kind, which export names
        agents, leaders = range(1, topo.n_nodes), range(1 + topo.n_followers, topo.n_nodes)
        keyed = [("observers: formation network", self.formation_observers, leaders),
                 ("q_weight", self.q_weights, agents), ("warmup_gain", self.warmup_gains, agents),
                 *(("schedule: factor", factors, leaders) for _, factors in self.schedule.entries)]
        for what, fields, nodes in keyed:
            for k in (k for k in fields if k not in nodes):
                node = self.agent_name(k) if k in range(topo.n_nodes) else f"node {k}"
                raise ValueError(f"{what} for {node}, which is not "
                                 f"{'a leader' if nodes is leaders else 'an agent'}")
        dim = self.state_dim
        square = (dim, dim)
        shapes = [("tracking A", self.tracking_a, square),
                  ("tracking x0", self.tracking_x0, (dim,))]
        networks = [("leader tracking", self.leader_tracking_observer),
                    ("follower tracking", self.follower_tracking_observer)]
        for q, form in zip(topo.leader_nodes, self.formation):
            name = self.agent_name(q)
            if q not in self.formation_observers:
                raise ValueError(f"observers: no formation network for {name}")
            networks.append((f"formation {name}", self.formation_observers[q]))
            shapes += [(f"formation S of {name}", form.S, square),
                       (f"formation h0 of {name}", form.h0, (dim,))]
        # worded as the scenario file's observers and schedule sections;
        # NaN, inf and an int past the float range (which as_floats reads as
        # NaN) fail here, before any value rule
        scalars = [("observers: xi", self.xi), ("observers: init scale", self.init_scale),
                   *((f"observers: {network} {gain}", getattr(obs, gain))
                     for network, obs in networks for gain in ("coupling", "consensus_gain")),
                   *((f"schedule: factor for {self.agent_name(q)}", factor)
                     for _, factors in self.schedule.entries for q, factor in factors.items())]
        for what, value in scalars:
            if not np.isfinite(as_floats(value)):
                raise ValueError(f"{what} must be finite")
        if not self.xi >= 1.0:
            raise ValueError("observers: xi must be >= 1")
        if not self.init_scale > 0:
            raise ValueError("observers: init scale must be positive")
        for network, obs in networks:
            if not obs.coupling > 0:
                raise ValueError(f"observers: {network} coupling must be positive")
            if not obs.consensus_gain > 0:
                raise ValueError(f"observers: {network} consensus_gain must be positive")
            shapes.append((f"{network} observer gain matrix", obs.gain_matrix, square))
        for node, (name, dyn, x0) in enumerate(zip(self.names, self.dynamics, self.x0), 1):
            shapes += [(f"A of {name}", dyn.A, square), (f"B of {name}", dyn.B, (dim, dyn.m)),
                       (f"x0 of {name}", np.ravel(x0), (dim,)),
                       (f"q_weight of {name}", self.q_weights.get(node), square)]
            if node in self.warmup_gains:
                shapes.append((f"warmup_gain of {name}",
                               np.atleast_2d(self.warmup_gains[node]), (dyn.m, dim)))
        for what, value, shape in shapes:
            if np.shape(value) != shape:
                raise ValueError(f"{what} must have shape {shape}, got {np.shape(value)}")
            if not np.isfinite(as_floats(value)).all():
                raise ValueError(f"{what} must be finite")

    @property
    def state_dim(self) -> int:
        return self.tracking_a.shape[0]

    def agent_name(self, node: int) -> str:
        return TRACKING_NAME if node == 0 else self.names[node - 1]

    def dynamics_of(self, node: int) -> mc.AgentDynamics:
        return self.dynamics[node - 1]

    def augmented_system(self, node: int, layout: tuple[int, ...],
                         alphas: dict[int, float]) -> mc.AugmentedSystem:
        """The augmented system of ``node`` over the formation blocks of
        ``layout``, weighted by ``alphas``: a leader's own formation at 1,
        or a follower's coefficients."""
        return mc.build_augmented(
            self.dynamics_of(node),
            [self.formation[self.topology.leader_index(q)] for q in layout],
            self.tracking_a, [alphas[q] for q in layout],
            self.q_weights[node])

    # a finite model entry near the float range overflows the checks' norms;
    # they then judge the inf or nan, without a warning
    @np.errstate(over="ignore", invalid="ignore")
    def validate(self) -> list[str]:
        """Assumption checks; returns a list of failure descriptions.

        Each per-agent check runs once over all agents: one positive
        definiteness test of the stacked q_weights, one stabilizability
        test and one regulation solve per input width for the tracking
        target and every leader's formation.  The problems of each agent are
        listed together, in node order, and an agent whose regulation
        equations fail for several targets is named once.
        """
        def named(nodes) -> str:
            return ", ".join(map(self.agent_name, nodes))

        problems: list[str] = []
        report = verify_assumption1(self.topology)
        structure = []
        if report.unreachable_from_tracking:
            structure.append("no spanning tree rooted at the tracking leader "
                             f"(unreachable nodes: {named(report.unreachable_from_tracking)})")
        if report.followers_without_leader:
            structure.append("followers with no formation-leader path: "
                             f"{named(report.followers_without_leader)}")
        if structure:
            problems.append("; ".join(structure))
        for _, factors in self.schedule.entries:
            missing = [q for q in self.topology.leader_nodes if q not in factors]
            if missing:
                problems.append(f"schedule entry missing factors for leaders {named(missing)}")
            problems += [f"propensity factor for {self.agent_name(q)} must be positive, "
                         f"got {factors[q]}" for q in self.topology.leader_nodes
                         if q in factors and not factors[q] > 0]  # a nan fails too
        targets = np.stack([self.tracking_a] + [f.S for f in self.formation])
        radii = np.abs(np.linalg.eigvals(targets)).max(axis=1, initial=0.0)
        if radii[0] > 1.0 + mc.MARGINAL_TOL:
            problems.append("tracking dynamics must have spectral radius <= 1")
        for q, radius in zip(self.topology.leader_nodes, radii[1:]):
            if radius > 1.0 + mc.MARGINAL_TOL:
                problems.append(f"formation dynamics of {self.agent_name(q)} expand")
        weighted = is_positive_definite(
            np.array([self.q_weights[node] for node in range(1, len(self.dynamics) + 1)]))
        stabilizable = mc.is_stabilizable(self.dynamics)
        solvable = np.ones(len(self.dynamics), dtype=bool)
        for members, a, b in mc.input_width_groups(self.dynamics):
            try:
                mc.min_norm_regulation_solution(a, b, targets)
            except RegulationError as exc:
                solvable[members] = ~exc.failed
        for name, weight_ok, stable, solved in zip(self.names, weighted, stabilizable,
                                                   solvable):
            if not weight_ok:
                problems.append(f"q_weight of {name} must be symmetric positive definite")
            if not stable:
                problems.append(f"agent {name} is not stabilizable")
            if not solved:
                problems.append(f"regulation equation unsolvable for agent {name}")
        return problems

    def require_valid(self) -> None:
        """Raise AssumptionError naming every failed assumption check."""
        problems = self.validate()
        if problems:
            raise AssumptionError("; ".join(problems))


#: Most trace rows allocated before the first sample; a larger table grows
#: as it fills, so a horizon too long to run does not fail at allocation.
TRACE_PREALLOCATED_ROWS = 1 << 16

#: Samples a trace keeps pending before it fills their rows in one pass:
#: about 31 fill ticks in an 8000-tick run sampled every tick.
TRACE_BLOCK_SAMPLES = 256


@dataclass
class TraceLog:
    """Sampled run history: one row per sample in a float table whose
    columns are ``header()``.

    A sample is recorded as references to its tick's world vector, observer
    bank and follower weights (the engine replaces them and never writes
    into them), and its row is filled later, in one pass with the pending
    samples that share its bank and weights: once they make a block of
    ``TRACE_BLOCK_SAMPLES``, once a sample with another bank or weights
    comes, or once the trace is read (``rows()``, ``len()``).  The table is
    sized for the horizon's samples and doubles whenever it is full
    (stepping may go past the horizon)."""

    config: ScenarioConfig
    size: int = field(default=0, init=False)
    table: np.ndarray = field(init=False, repr=False)
    pending: list = field(default_factory=list, init=False, repr=False)

    def __post_init__(self):
        cfg = self.config
        rows = min(cfg.horizon // cfg.sample_interval + 1, TRACE_PREALLOCATED_ROWS)
        self.table = np.empty((rows, len(self.header())))

    def header(self) -> list[str]:
        topo = self.config.topology
        cols = ["tick"]
        cols += [f"e_form_{self.config.agent_name(q)}" for q in topo.leader_nodes]
        cols += [f"e_cont_{self.config.agent_name(i)}" for i in topo.follower_nodes]
        cols += [f"obs_{self.config.agent_name(a)}"
                 for a in topo.leader_nodes + topo.follower_nodes]
        if self.config.record_states:
            for a in topo.follower_nodes + topo.leader_nodes:
                cols += [f"x_{self.config.agent_name(a)}_{k}"
                         for k in range(self.config.state_dim)]
        return cols

    def __len__(self) -> int:
        return len(self.rows())

    def record(self, tick: int, world: np.ndarray, bank: ob.ObserverBank,
               weights: np.ndarray) -> None:
        """Add the sample of ``tick``.  The pending samples are filled
        before one with another bank or weights joins them, and when they
        make a full block."""
        if self.pending and (bank is not self.pending[-1][2]
                             or weights is not self.pending[-1][3]):
            self._fill()
        self.pending.append((tick, world, bank, weights))
        if len(self.pending) == TRACE_BLOCK_SAMPLES:
            self._fill()

    def rows(self) -> np.ndarray:
        """The rows of every sample so far (a view)."""
        if self.pending:
            self._fill()
        return self.table[: self.size]

    # a diverged state's errors are recorded as inf or nan, without a warning
    @np.errstate(over="ignore", invalid="ignore")
    def _fill(self) -> None:
        """Fill the pending samples' rows, which share a bank and weights,
        in one stacked pass.

        The stack holds one sample per column, so each elementwise step runs
        along the samples.  A follower's containment error subtracts one
        weighted leader target at a time, in leader order, every norm is the
        square root of ``row_sq_norms`` of a contiguous row, bit for bit the
        row's ``np.linalg.norm``, and an agent's observer error sums its row
        norms in bank order (tracking row first), so every value equals its
        per-vector form exactly."""
        ticks, worlds, banks, weights = zip(*self.pending)
        self.pending = []
        while self.size + len(ticks) > len(self.table):
            self.table = np.concatenate([self.table, np.empty_like(self.table)])
        topo, dim = self.config.topology, self.config.state_dim
        n, m = topo.n_followers, topo.n_leaders
        nodes = 1 + n + m
        columns = np.array(topo.leader_nodes + topo.follower_nodes)
        bank, w, b = banks[0], weights[0], len(ticks)
        world = np.stack(worlds, axis=1)
        x = world[: (n + m) * dim].reshape(n + m, dim, b)
        targets = world[(n + m) * dim : (nodes + m) * dim].reshape(1 + m, dim, b)
        x_o, h = targets[0], targets[1:]
        leader_targets = h + x_o
        containment = x[:n].copy()
        for q in range(m):
            containment -= w[:, q, None, None] * leader_targets[q]
        diffs = np.concatenate((x[n:] - h - x_o, containment,
                                world[(nodes + m) * dim :].reshape(-1, dim, b)
                                - targets[bank.target]))
        sq_norms = row_sq_norms(diffs.transpose(2, 0, 1).reshape(-1, dim))
        norms = np.sqrt(sq_norms).reshape(b, -1)
        obs_errors = np.bincount((np.arange(b)[:, None] * nodes + bank.agent).ravel(),
                                 norms[:, m + n :].ravel(), minlength=b * nodes)
        rows = self.table[self.size : self.size + b]
        rows[:, 0] = ticks
        rows[:, 1 : 1 + m + n] = norms[:, : m + n]
        rows[:, 1 + m + n : 1 + 2 * (m + n)] = obs_errors.reshape(b, nodes)[:, columns]
        if self.config.record_states:
            rows[:, 1 + 2 * (m + n) :] = world[: (n + m) * dim].T
        self.size += b


@dataclass
class AgentLearner:
    """Engine-side learner bookkeeping for one agent.

    The agent applies ``controller.K_hat`` once it has converged; until then
    it probes with ``behavior_full`` (the previous converged gain of the same
    layout; None applies the warm-up gain) plus its probing noise, and
    records each transition into ``buffer``.  ``noise`` caches the probing
    noise of the ``NOISE_BLOCK_TICKS`` ticks from ``noise_start`` on (see
    ``_probing_noise``).
    """

    node: int
    layout: tuple[int, ...]
    controller: ln.LearnedController
    buffer: ln.DataBuffer
    behavior_full: np.ndarray | None = None
    flushes: int = 0
    noise: np.ndarray | None = None
    noise_start: int = -1


#: How many transient-contaminated windows a learner may discard before the
#: run is aborted.
MAX_WINDOW_FLUSHES = 50

#: Ticks of probing noise a learner draws at once, in blocks aligned to
#: multiples of this length.  A block costs about as much as a slow tick, so
#: the ticks that draw one must stay well under 1% of a run (15 of the 8000
#: ticks of a bundled ``hexagon`` run).  A power of two, so no block crosses
#: the 2**32 tick limit of ``learning.exploration_noise``.
NOISE_BLOCK_TICKS = 128


@dataclass(frozen=True)
class ControlPlan:
    """How one agent forms its augmented state at the current knowledge.

    ``alphas`` weight the agent's formation blocks: a leader follows its
    own formation at weight 1, a follower its convex coefficients.
    ``layout`` lists their leaders in augmented-state order and ``key``
    identifies the pair for oracle synthesis.  ``gather`` indexes the
    augmented state z (plant, one formation part per layout leader, tracking
    estimate) out of ``WorldState.world``; it is None while the agent has no
    observer row yet for a layout leader other than itself.
    """

    alphas: dict[int, float]
    layout: tuple[int, ...]
    key: tuple
    gather: np.ndarray | None


class GainGroup(NamedTuple):
    """Agents whose gains share one shape (m, dim), applied as one stacked
    ``matmul``: ``gains`` (G, m, dim) are their gains, ``gather`` (G, dim, 1)
    their augmented states' indices into ``WorldState.world`` and ``flat``
    (G, m) their inputs' indices into the flattened input array (row
    ``node - 1``, zero-padded to the widest input), so a group's inputs
    are one ``take`` and one ``put``.  Unpadded and grouped by shape, the
    stacked product equals each ``K @ z`` bit for bit (zero-padding to one
    shape does not)."""

    gains: np.ndarray
    gather: np.ndarray
    flat: np.ndarray


@dataclass
class WorldState:
    tick: int
    #: ``[x.ravel() | targets.ravel() | estimates]``: the plant states
    #: (``x``), the targets (``targets``) and the observers' state estimates
    #: in row order, each stored only here and read as a view.  A tick
    #: commits a new one, the buffer of its ``stack`` product, and so does a
    #: bank rebuild; nothing writes into a committed one, so the trace's
    #: pending samples and the learners' tick-k reads keep it by reference.
    world: np.ndarray
    #: The transition stack, one (n, n) block per n-block of ``world``: the
    #: plants' A, the targets' dynamics [tracking A, S_1..S_M], then each
    #: observer row's model estimate (corrected in place at a tick's commit),
    #: so one ``matmul`` with ``world`` gives every plant's ``A x``, the next
    #: targets and every ``A_hat x_hat``; and the plants' padded B (N+M, n, m).
    stack: np.ndarray
    plant_b: np.ndarray
    #: Which leaders each node knows, ``known[i, q]`` (see ``propagation``),
    #: and the propensity factors of the schedule entry in force.
    known: np.ndarray
    factors: dict[int, float]
    #: Every observer network stacked, tracking network first (observed
    #: node 0), then one formation network per leader in leader order, all
    #: gated from the topology's adjacency.  Rebuilt only when
    #: propagation changes ``known``.
    bank: ob.ObserverBank | None
    #: One observer record (config and scale c) per ``bank.rows`` entry in
    #: row order; its model is in ``stack``'s tail, its estimate ``world``'s.
    observers: tuple[ob.RlsObserver, ...]
    #: The bank's consensus errors (R, n) and squared norms (R,) of the
    #: current estimates, carried from the previous tick's bank step (see
    #: ``ObserverBank.step``); None after a bank rebuild.
    carried: tuple[np.ndarray, np.ndarray] | None
    learners: dict[int, AgentLearner]
    oracle_gains: dict[int, np.ndarray]
    oracle_layouts: dict[int, tuple]
    trace: TraceLog
    #: One control plan per agent, keyed by node, and the follower-by-leader
    #: weights of the followers' plans; rebuilt whenever ``known`` or
    #: ``factors`` is.
    plans: dict[int, ControlPlan] = field(default_factory=dict)
    weights: np.ndarray | None = None
    #: Every agent's gain for ``plans``, grouped by shape, and the learners
    #: that have not converged as ``(row, learner)`` pairs in agent order.
    #: None marks the groups stale: a plan rebuild or a convergence sets
    #: it, and the next control step regroups.
    gain_groups: tuple[GainGroup, ...] | None = None
    probing: tuple[tuple[int, AgentLearner], ...] = ()
    #: Propagation steps that changed ``known``; the first step that changes
    #: nothing reached the fixed point (the step reads only ``known`` and the
    #: static graph), and no step runs after it.
    propagation_changes: int = 0
    propagation_settled: bool = False

    @property
    def head(self) -> int:
        """Blocks of ``[x | targets]``: ``stack``'s less one per observer row."""
        return len(self.stack) - len(self.observers)

    @property
    def x(self) -> np.ndarray:
        """Plant states (N+M, n), one row per agent (row ``node - 1``), a
        view of ``world``."""
        return self.world.reshape(len(self.stack), -1)[: len(self.plant_b)]

    @property
    def targets(self) -> np.ndarray:
        """The tracking state, then each leader's formation state in leader
        order (1+M, n), a view of ``world``; row b is the target of observer
        network b."""
        return self.world.reshape(len(self.stack), -1)[len(self.plant_b) : self.head]


@dataclass
class RunResult:
    trace: TraceLog
    state: WorldState
    summary: dict
    error: SimulationAbort | None = None

    @property
    def completed(self) -> bool:
        return self.error is None


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def follower_coefficients(cfg: ScenarioConfig, known: np.ndarray,
                          factors: dict[int, float]) -> dict[int, dict[int, float]]:
    """Each follower's weights of its leaders' formations: the factors in
    force normalized over the leaders it knows, or in ``fcc_baseline``
    mode the classical containment weights, rows of -L1^-1 L2, which read
    neither the knowledge nor the factors."""
    topo = cfg.topology
    if cfg.mode != MODE_BASELINE:
        return {i: pr.coefficients(known, i, factors) for i in topo.follower_nodes}
    # L1 and L2 are the follower rows of the in-degree Laplacian D - A, split
    # at the first leader column; w has one row per follower, in leader order
    a = topo.adjacency
    lap = np.diag(a.sum(axis=1)) - a
    rows = slice(1, 1 + topo.n_followers)
    w = -np.linalg.solve(lap[rows, rows], lap[rows, rows.stop :])
    return {i: {q: float(v) for q, v in zip(topo.leader_nodes, w[topo.follower_index(i)])
                if abs(v) > 1e-12}
            for i in topo.follower_nodes}


def init_world(cfg: ScenarioConfig) -> WorldState:
    topo = cfg.topology
    cfg.check_fields()
    cfg.require_valid()
    plant_b = np.zeros((len(cfg.dynamics), cfg.state_dim, max(dyn.m for dyn in cfg.dynamics)))
    for b, dyn in zip(plant_b, cfg.dynamics):
        b[:, : dyn.m] = dyn.B

    state = WorldState(
        tick=0,
        world=np.array([np.ravel(x) for x in cfg.x0] + [cfg.tracking_x0]
                       + [form.h0 for form in cfg.formation], dtype=float).ravel(),
        stack=np.array([dyn.A for dyn in cfg.dynamics] + [cfg.tracking_a]
                       + [form.S for form in cfg.formation], dtype=float),
        plant_b=plant_b,
        known=pr.initial_influence(topo),
        factors=cfg.schedule.initial(),
        bank=None,
        observers=(),
        carried=None,
        learners={},
        oracle_gains={},
        oracle_layouts={},
        trace=TraceLog(config=cfg),
    )
    _sync_observer_networks(state, cfg)
    _build_plans(state, cfg)
    if cfg.mode in (MODE_DATA, MODE_BASELINE):
        for node in range(1, topo.n_nodes):
            _reset_learner(state, cfg, node)
    return state


def _build_plans(state: WorldState, cfg: ScenarioConfig) -> None:
    """Rebuild every agent's control plan and the followers' weight matrix
    from the current knowledge, factors and observer rows, and mark the gain
    groups stale.  This is the one place a change of either reaches
    control: a learner restarts exactly when its plan key (layout and
    coefficients) changed."""
    topo = cfg.topology
    n = cfg.state_dim
    row = state.bank.row
    target_start, estimate_start = state.x.size, state.x.size + state.targets.size
    coeffs = follower_coefficients(cfg, state.known, state.factors)
    plans = {}
    for node in range(1, topo.n_nodes):
        alphas = {node: 1.0} if topo.is_leader(node) else coeffs[node]
        layout = tuple(sorted(alphas))
        starts = [(node - 1) * n]
        for q in layout:
            if q == node:
                starts.append(target_start + (1 + topo.leader_index(q)) * n)
            elif (node, q) in row:
                starts.append(estimate_start + row[node, q] * n)
            else:  # propagation has not brought this leader to the agent yet
                gather = None
                break
        else:
            starts.append(estimate_start + row[node, 0] * n)
            gather = (np.array(starts)[:, None] + np.arange(n)).ravel()
        plans[node] = ControlPlan(alphas=alphas, layout=layout,
                                  key=(layout, tuple(sorted(alphas.items()))),
                                  gather=gather)
    weights = np.zeros((topo.n_followers, topo.n_leaders))
    for r, i in enumerate(topo.follower_nodes):
        for q, alpha in plans[i].alphas.items():
            weights[r, topo.leader_index(q)] = alpha
    old, state.plans, state.weights = state.plans, plans, weights
    state.gain_groups = None
    for node in state.learners:
        if plans[node].key != old[node].key:
            _reset_learner(state, cfg, node)


def _sync_observer_networks(state: WorldState, cfg: ScenarioConfig) -> None:
    """Rebuild the observer bank, the transition stack and the world vector
    from the current knowledge.  A row that already existed keeps its
    record, model and estimate, a new row (every row at ``init_world``)
    starts fresh at the scale ``cfg.init_scale`` and a zero model and
    estimate; knowledge only grows, so no row is dropped.  The carried
    consensus products belong to the old bank and are dropped."""
    topo = cfg.topology
    agents = topo.leader_nodes + topo.follower_nodes
    blocks = [(0, agents, [cfg.leader_tracking_observer if topo.is_leader(a)
                           else cfg.follower_tracking_observer for a in agents])]
    for q in topo.leader_nodes:
        members = [a for a in sorted(agents) if a != q and state.known[a, q]]
        blocks.append((q, members, [cfg.formation_observers[q]] * len(members)))
    old_row = state.bank.row if state.bank is not None else {}
    state.bank = ob.ObserverBank.stack(topo.adjacency, blocks, cfg.xi)
    kept = [old_row.get(key) for key in state.bank.rows]
    # per row its old blocks or, for a new row, the zero blocks appended last
    n, head = cfg.state_dim, state.head
    take = np.r_[:head, [len(state.stack) if r is None else head + r for r in kept]]
    state.stack = np.concatenate((state.stack, np.zeros((1, n, n))))[take]
    state.world = np.concatenate((state.world.reshape(-1, n), np.zeros((1, n))))[take].ravel()
    configs = (c for _, _, member_configs in blocks for c in member_configs)
    state.observers = tuple(ob.RlsObserver(config, cfg.init_scale) if r is None
                            else state.observers[r] for r, config in zip(kept, configs))
    state.carried = None


def _reset_learner(state: WorldState, cfg: ScenarioConfig, node: int) -> None:
    """Fresh value iteration with an empty window for one agent's current
    plan layout.  A learner that had converged on the same layout keeps its
    gain as the behaviour policy while the next window is collected
    (post-switch data is far cleaner than the start-up window: the
    observers have long settled)."""
    layout = state.plans[node].layout
    dim, width = (2 + len(layout)) * cfg.state_dim, cfg.dynamics_of(node).m
    old = state.learners.get(node)
    behavior_full = None
    if old is not None and old.layout == layout and old.controller.status == ln.CONVERGED:
        behavior_full = old.controller.K_hat
    state.learners[node] = AgentLearner(
        node=node, layout=layout,
        controller=ln.LearnedController.create(dim, width),
        buffer=ln.DataBuffer(dim, width),
        behavior_full=behavior_full)


# ---------------------------------------------------------------------------
# gains
# ---------------------------------------------------------------------------

def _group_gains(state: WorldState, cfg: ScenarioConfig) -> None:
    """Pick every agent's gain for the current plans, in agent order, and
    group the gains and gathers by shape.

    An oracle agent solves its gain by Riccati value iteration when its
    plan key changed since its last solve.  A learner applies ``K_hat`` once
    converged, else its behaviour gain, and until then it probes
    (``state.probing``).  An agent with no gain, or without the observer
    rows of its plan, applies its warm-up gain to its own plant state."""
    n, width = cfg.state_dim, state.plant_b.shape[2]
    groups: dict[tuple[int, int], list] = {}
    probing = []
    for node in range(1, cfg.topology.n_nodes):
        r, plan = node - 1, state.plans[node]
        lr = state.learners.get(node)
        if lr is not None:
            if lr.controller.status == ln.CONVERGED:
                gain = lr.controller.K_hat
            else:
                gain = lr.behavior_full
                probing.append((r, lr))
        elif plan.layout:
            if state.oracle_layouts.get(node) != plan.key:
                try:
                    state.oracle_gains[node] = mc.riccati_value_iteration(
                        cfg.augmented_system(node, plan.layout, plan.alphas)).K
                except PfccError as exc:
                    raise SimulationAbort(state.tick, cfg.agent_name(node), exc) from exc
                state.oracle_layouts[node] = plan.key
            gain = state.oracle_gains[node]
        else:
            gain = None
        gather = plan.gather
        if gain is None or gather is None:
            gain = np.atleast_2d(cfg.warmup_gains.get(
                node, np.zeros((cfg.dynamics_of(node).m, n))))
            gather = np.arange(r * n, (r + 1) * n)
        groups.setdefault(gain.shape, []).append(
            (gain, gather[:, None], r * width + np.arange(gain.shape[0])))
    state.gain_groups = tuple(
        GainGroup(*(np.array(part) for part in zip(*members)))
        for members in groups.values())
    state.probing = tuple(probing)


# ---------------------------------------------------------------------------
# learners
# ---------------------------------------------------------------------------

def _probing_noise(cfg: ScenarioConfig, lr: AgentLearner, tick: int) -> np.ndarray:
    """The learner's probing noise at ``tick``: its row of the tick-aligned
    block of ``NOISE_BLOCK_TICKS`` rows, drawn when the tick leaves the
    cached block from the agent's own seed, derived from the run's seed and
    the agent's node."""
    start = tick - tick % NOISE_BLOCK_TICKS
    if lr.noise_start != start:
        lr.noise = ln.exploration_noise(cfg.seed * 100003 + lr.node, lr.buffer.input_dim,
                                        range(start, start + NOISE_BLOCK_TICKS))
        lr.noise_start = start
    return lr.noise[tick - start]


def _learner_update(state: WorldState, cfg: ScenarioConfig, lr: AgentLearner,
                    world: np.ndarray, u: np.ndarray) -> None:
    """Record a probing learner's completed transition from the tick-k
    ``world`` vector, its input ``u`` and the committed world, and solve the
    window on the tick it fills; convergence regroups gains."""
    plan = state.plans[lr.node]
    if plan.gather is None:  # a warm-up input is no transition of z
        return
    if not lr.buffer.record(world[plan.gather], u, state.world[plan.gather]).is_full:
        return
    cost = mc.stage_cost(cfg.q_weights[lr.node], mc.error_selector(
        cfg.state_dim, [plan.alphas[q] for q in lr.layout]))
    try:
        lr.controller = ln.iterate(lr.buffer, cost)
    except DataConsistencyError as exc:
        # samples straddled an observer transient: collect a fresh window
        lr.flushes += 1
        if lr.flushes > MAX_WINDOW_FLUSHES:
            lr.controller = exc.controller
            raise
        lr.buffer.flush()
        return
    except PfccError as exc:
        # the run reports the sweeps made before the error
        lr.controller = exc.controller
        raise
    state.gain_groups = None


# ---------------------------------------------------------------------------
# the tick
# ---------------------------------------------------------------------------

def _sample_trace(state: WorldState, cfg: ScenarioConfig) -> None:
    """Record the tick-k sample; the trace fills its row later."""
    state.trace.record(state.tick, state.world, state.bank, state.weights)


def _control_inputs(state: WorldState, cfg: ScenarioConfig) -> np.ndarray:
    """Every agent's input ``u = K z`` from the tick-k snapshot, one row per
    agent in row order, zero-padded to the widest input: one stacked
    product per ``GainGroup``, plus each probing learner's noise row."""
    if state.gain_groups is None:
        _group_gains(state, cfg)
    world = state.world
    u = np.zeros((len(state.plant_b), state.plant_b.shape[2]))
    for gains, gather, flat in state.gain_groups:
        u.put(flat, np.matmul(gains, world.take(gather)))
    for r, lr in state.probing:
        u[r, : lr.buffer.input_dim] += _probing_noise(cfg, lr, state.tick)
    return u


def step_world(state: WorldState, cfg: ScenarioConfig) -> WorldState:
    """Advance the world by one tick (mutates and returns ``state``).  A
    sampled tick adds its sample to the trace, which fills the row later."""
    topo = cfg.topology
    tick = state.tick

    # 1. propensity schedule
    entry = cfg.schedule.entry_at(tick)
    if entry is not None and tick > 0:
        state.factors = entry
        _build_plans(state, cfg)

    # 2. influence propagation, until a step changes nothing
    if not state.propagation_settled:
        nxt = pr.step_propagation(state.known, topo)
        if (nxt != state.known).any():
            state.known = nxt
            state.propagation_changes += 1
            _sync_observer_networks(state, cfg)
            _build_plans(state, cfg)
        else:
            state.propagation_settled = True

    # 3. trace sampling of the tick-k state: references to its world vector,
    # bank and weights, filled into rows a block at a time by the trace
    if tick % cfg.sample_interval == 0:
        _sample_trace(state, cfg)

    # 4-6. a diverging estimate, input or plant state overflows before it is
    # caught (the estimate guard, which names the row, the plant guard),
    # and that is reported as an abort rather than a warning
    world, n, agents, head = state.world, cfg.state_dim, len(state.plant_b), state.head
    with np.errstate(over="ignore", invalid="ignore"):
        # 4. one product of the transition stack with the tick-k world, a new
        # buffer that the corrections below make the next world vector: the
        # plants' A x, the next targets and every A_hat x_hat
        now = world.reshape(-1, n)
        nxt = np.matmul(state.stack, world.reshape(-1, n, 1)).reshape(-1, n)
        try:
            stepped, correction, carried = state.bank.step(
                state.observers, now[head:], nxt[head:], now[agents:head], nxt[agents:head],
                state.carried)
        except ob.ObserverDivergence as exc:
            agent, node = exc.row
            raise SimulationAbort(tick, "observers", ConvergenceError(
                f"observer {cfg.agent_name(agent)} of {cfg.agent_name(node)}'s "
                "network diverged")) from exc
        except PfccError as exc:
            raise SimulationAbort(tick, "observers", exc) from exc

        # 5. controls from the tick-k snapshot
        u = _control_inputs(state, cfg)

        # 6. plant advance, all rows at once (the padded inputs add exact
        # zeros); one guard over all plants (a nan norm fails it too)
        nxt[:agents] += np.matmul(state.plant_b, u[:, :, None])[:, :, 0]
        first = ob.first_past_guard(row_sq_norms(nxt[:agents]))
        if first is not None:
            name = "followers" if first < topo.n_followers else "leaders"
            raise SimulationAbort(tick, name, ConvergenceError("plant state diverged"))

    # 7. commit next states (the product's buffer: ``world`` and the trace's
    # samples keep tick k) and the models' correction, then let the probing
    # learners see the completed transition
    state.observers = stepped
    state.stack[head:] -= correction
    state.carried = carried
    state.world = nxt.reshape(-1)
    state.tick = tick + 1

    if tick >= cfg.learn_start_tick:
        for r, lr in state.probing:
            try:
                _learner_update(state, cfg, lr, world, u[r, : lr.buffer.input_dim])
            except PfccError as exc:
                raise SimulationAbort(tick, cfg.agent_name(lr.node), exc) from exc
    return state


def _json_number(value: float) -> float | None:
    """``value``, or None (JSON null) when it is inf or nan, which strict
    JSON cannot write."""
    return value if math.isfinite(value) else None


def summarize(state: WorldState, cfg: ScenarioConfig) -> dict:
    """The run's summary for ``metadata.json``; a number that is not finite
    (a learner's gain delta before its first sweep, a diverged observer's
    error) is None."""
    learners = {}
    for node, lr in sorted(state.learners.items()):
        learners[cfg.agent_name(node)] = {
            "status": lr.controller.status,
            "iterations": lr.controller.iterations,
            "last_gain_delta": _json_number(lr.controller.last_gain_delta),
            "layout": [cfg.agent_name(q) for q in lr.layout],
        }
    final_obs = {}
    if len(state.trace):
        last = zip(state.trace.header(), state.trace.rows()[-1].tolist())
        final_obs = {col[len("obs_"):]: _json_number(v)
                     for col, v in last if col.startswith("obs_")}
    return {
        "mode": cfg.mode,
        "seed": cfg.seed,
        "horizon": cfg.horizon,
        "sample_interval": cfg.sample_interval,
        "propagation_change_ticks": state.propagation_changes,
        "learners": learners,
        "final_observer_errors": final_obs,
    }


def run(cfg: ScenarioConfig) -> RunResult:
    """Deterministic full-horizon run; on mid-run failure the partial trace
    is retained on the result."""
    state = init_world(cfg)
    error: SimulationAbort | None = None
    try:
        for _ in range(cfg.horizon):
            step_world(state, cfg)
    except SimulationAbort as exc:
        error = exc
    return RunResult(trace=state.trace, state=state,
                     summary=summarize(state, cfg), error=error)

