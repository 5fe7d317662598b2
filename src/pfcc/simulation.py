"""Tick-synchronized world engine.

Every tick applies, in order: propensity-schedule updates, one influence
propagation step, all observer updates (snapshot semantics: every observer
reads the previous tick's neighbour estimates), control/learning per agent,
and finally the plant, formation, and tracking state advance.  Controls are
computed from the pre-update estimate snapshot, matching the information an
agent actually has at that tick.

Three modes share the loop: ``data_driven`` runs the online learners,
``model_based_oracle`` substitutes gains synthesized from the true models,
and ``fcc_baseline`` disables propensity weighting in favour of the
Laplacian-derived convex weights of classical two-layer designs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import learning as ln
from . import model_control as mc
from . import observers as ob
from . import propagation as pr
from .errors import (AssumptionError, ConvergenceError, DataConsistencyError,
                     PfccError, SimulationAbort)
from .topology import DirectedTopology, build_laplacian, verify_assumption1

MODE_DATA = "data_driven"
MODE_ORACLE = "model_based_oracle"
MODE_BASELINE = "fcc_baseline"
MODES = (MODE_DATA, MODE_ORACLE, MODE_BASELINE)

_STATE_GUARD = 1e9


@dataclass(frozen=True)
class PropensitySchedule:
    """Activation ticks with full per-leader factor maps.

    The first entry must activate at tick 0; ticks strictly increase and all
    factors are positive.
    """

    entries: tuple[tuple[int, dict[int, float]], ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("schedule needs at least one entry")
        ticks = [t for t, _ in self.entries]
        if ticks[0] != 0:
            raise ValueError("first schedule entry must activate at tick 0")
        if any(b <= a for a, b in zip(ticks, ticks[1:])):
            raise ValueError("schedule ticks must be strictly increasing")
        for _, factors in self.entries:
            if any(v <= 0 for v in factors.values()):
                raise ValueError("propensity factors must be positive")

    def initial(self) -> dict[int, float]:
        return dict(self.entries[0][1])

    def entry_at(self, tick: int) -> dict[int, float] | None:
        for t, factors in self.entries:
            if t == tick:
                return dict(factors)
        return None


@dataclass
class ScenarioConfig:
    """Everything needed for one deterministic run."""

    name: str
    topology: DirectedTopology
    follower_dynamics: list[mc.AgentDynamics]
    leader_dynamics: list[mc.AgentDynamics]
    formation: list[mc.FormationDynamics]
    tracking_a: np.ndarray
    tracking_x0: np.ndarray
    schedule: PropensitySchedule
    q_weights: dict[int, np.ndarray]
    leader_tracking_observer: ob.ObserverConfig
    follower_tracking_observer: ob.ObserverConfig
    formation_observers: dict[int, ob.ObserverConfig]
    learner: ln.LearnerConfig
    warmup_gains: dict[int, np.ndarray]
    learn_start_tick: int
    horizon: int
    sample_interval: int
    mode: str
    seed: int
    follower_x0: list[np.ndarray] = field(default_factory=list)
    leader_x0: list[np.ndarray] = field(default_factory=list)
    follower_names: list[str] = field(default_factory=list)
    leader_names: list[str] = field(default_factory=list)
    record_states: bool = False

    def __post_init__(self):
        n, m = self.topology.n_followers, self.topology.n_leaders
        self.tracking_a = np.atleast_2d(np.asarray(self.tracking_a, dtype=float))
        self.tracking_x0 = np.asarray(self.tracking_x0, dtype=float).ravel()
        self.check_fields()
        if not self.follower_x0:
            self.follower_x0 = [np.zeros(self.state_dim) for _ in range(n)]
        if not self.leader_x0:
            self.leader_x0 = [np.zeros(self.state_dim) for _ in range(m)]
        if not self.follower_names:
            self.follower_names = [f"F{i + 1}" for i in range(n)]
        if not self.leader_names:
            self.leader_names = [f"L{q + 1}" for q in range(m)]

    def check_fields(self) -> None:
        """Raise ValueError for a field no run can use.  Fields are plain
        attributes, so ``init_world`` checks them again."""
        topo = self.topology
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if (len(self.follower_dynamics) != topo.n_followers
                or len(self.leader_dynamics) != topo.n_leaders):
            raise ValueError("one dynamics entry per follower and leader is required")
        if len(self.formation) != topo.n_leaders:
            raise ValueError("one formation entry per leader is required")
        if self.sample_interval < 1:
            raise ValueError("sample interval must be >= 1")
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")

    @property
    def state_dim(self) -> int:
        return self.tracking_a.shape[0]

    def agent_name(self, node: int) -> str:
        topo = self.topology
        if node == 0:
            return "T"
        if topo.is_follower(node):
            return self.follower_names[topo.follower_index(node)]
        return self.leader_names[topo.leader_index(node)]

    def dynamics_of(self, node: int) -> mc.AgentDynamics:
        topo = self.topology
        if topo.is_follower(node):
            return self.follower_dynamics[topo.follower_index(node)]
        return self.leader_dynamics[topo.leader_index(node)]

    def agent_learner_config(self, node: int) -> ln.LearnerConfig:
        return replace(self.learner, rng_seed=(self.seed * 100003 + node) & 0x7FFFFFFF)

    def augmented_system(self, node: int, layout: tuple[int, ...],
                         alphas: dict[int, float]) -> mc.AugmentedSystem:
        """The augmented system of ``node`` over the formation blocks of
        ``layout``.  A block missing from ``alphas`` has weight 1, which
        only a one-block layout (a leader's own formation) admits."""
        return mc.build_augmented(
            self.dynamics_of(node),
            [self.formation[self.topology.leader_index(q)] for q in layout],
            self.tracking_a, [alphas.get(q, 1.0) for q in layout],
            self.q_weights[node])

    def validate(self) -> list[str]:
        """Assumption checks; returns a list of failure descriptions."""
        problems: list[str] = []
        report = verify_assumption1(self.topology)
        if not report.passed:
            problems.append(report.describe())
        for _, factors in self.schedule.entries:
            missing = [q for q in self.topology.leader_nodes if q not in factors]
            if missing:
                problems.append(f"schedule entry missing factors for leaders {missing}")
        if mc.spectral_radius(self.tracking_a) > 1.0 + mc.MARGINAL_TOL:
            problems.append("tracking dynamics must have spectral radius <= 1")
        for q, form in zip(self.topology.leader_nodes, self.formation):
            if mc.spectral_radius(form.S) > 1.0 + mc.MARGINAL_TOL:
                problems.append(f"formation dynamics of {self.agent_name(q)} expand")
        for node in self.topology.follower_nodes + self.topology.leader_nodes:
            dyn = self.dynamics_of(node)
            if not mc.is_stabilizable(dyn):
                problems.append(f"agent {self.agent_name(node)} is not stabilizable")
            targets = [self.tracking_a] + [f.S for f in self.formation]
            for target in targets:
                try:
                    mc.min_norm_regulation_solution(dyn.A, dyn.B, target)
                except PfccError:
                    problems.append(
                        f"regulation equation unsolvable for agent {self.agent_name(node)}")
                    break
        return problems


@dataclass
class TraceRecord:
    tick: int
    formation_errors: dict[int, float]
    containment_errors: dict[int, float]
    observer_errors: dict[int, float]
    states: dict[int, np.ndarray] | None = None


@dataclass
class TraceLog:
    """Append-only sampled run history with a fixed column order."""

    config: ScenarioConfig
    records: list[TraceRecord] = field(default_factory=list)

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

    def rows(self) -> list[list[float]]:
        topo = self.config.topology
        out = []
        for rec in self.records:
            row: list[float] = [float(rec.tick)]
            row += [rec.formation_errors[q] for q in topo.leader_nodes]
            row += [rec.containment_errors[i] for i in topo.follower_nodes]
            row += [rec.observer_errors[a]
                    for a in topo.leader_nodes + topo.follower_nodes]
            if self.config.record_states and rec.states is not None:
                for a in topo.follower_nodes + topo.leader_nodes:
                    row += [float(v) for v in rec.states[a]]
            out.append(row)
        return out

    def column(self, name: str) -> np.ndarray:
        idx = self.header().index(name)
        return np.array([row[idx] for row in self.rows()])


def formation_error(x_q: np.ndarray, h_q: np.ndarray, x_o: np.ndarray) -> np.ndarray:
    """Leader tracking error x - h - x_o."""
    return np.asarray(x_q, dtype=float) - np.asarray(h_q, dtype=float) - np.asarray(x_o, dtype=float)


def containment_error(x_i: np.ndarray, h_all: dict[int, np.ndarray],
                      x_o: np.ndarray, alphas: dict[int, float]) -> np.ndarray:
    """Follower error against its convex combination of leader targets."""
    e = np.asarray(x_i, dtype=float).copy()
    for q, alpha in alphas.items():
        if alpha != 0.0:
            e = e - alpha * (np.asarray(h_all[q], dtype=float) + np.asarray(x_o, dtype=float))
    return e


@dataclass
class AgentLearner:
    """Engine-side learner bookkeeping for one agent."""

    node: int
    cfg: ln.LearnerConfig
    layout: tuple[int, ...]
    controller: ln.LearnedController
    buffer: ln.DataBuffer
    warmup: np.ndarray
    behavior_full: np.ndarray | None = None
    prev_aug: np.ndarray | None = None
    prev_u: np.ndarray | None = None
    flushes: int = 0


#: How many transient-contaminated windows a learner may discard before the
#: run is aborted.
MAX_WINDOW_FLUSHES = 50

#: Value-iteration sweeps per tick once a window is full.  The sweeps are
#: offline work on a frozen window; batching them shortens the interval in
#: which the behaviour policy still carries probing noise.
LEARN_ITERATIONS_PER_TICK = 50


@dataclass
class WorldState:
    tick: int
    x_followers: list[np.ndarray]
    x_leaders: list[np.ndarray]
    h: list[np.ndarray]
    x_o: np.ndarray
    knowledge: dict[int, pr.AgentKnowledge]
    track_obs: dict[int, ob.RlsObserver]
    form_obs: dict[int, dict[int, ob.RlsObserver]]
    #: Every observer network stacked, tracking network first, then one
    #: formation network per leader in leader order; ``bank.networks`` is
    #: keyed by the observed node (0 = tracking).  Rebuilt only when
    #: propagation changes an influential set.
    bank: ob.ObserverBank
    #: Agent node -> (is leader, index into the leader or follower lists).
    slots: dict[int, tuple[bool, int]]
    learners: dict[int, AgentLearner]
    oracle_gains: dict[int, mc.AgentGains]
    oracle_layouts: dict[int, tuple]
    baseline_alpha: dict[int, dict[int, float]] | None
    trace: TraceLog
    propagation_changes: int = 0
    propagation_stable_for: int = 0

    def plant_state(self, node: int) -> np.ndarray:
        leader, index = self.slots[node]
        return self.x_leaders[index] if leader else self.x_followers[index]


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

def _baseline_weights(topo: DirectedTopology) -> dict[int, dict[int, float]]:
    """Classical containment weights: rows of -L1^-1 L2."""
    blocks = build_laplacian(topo)
    w = -np.linalg.solve(blocks.L1, blocks.L2)
    out: dict[int, dict[int, float]] = {}
    for i in topo.follower_nodes:
        fi = topo.follower_index(i)
        row = {q: float(w[fi, topo.leader_index(q)]) for q in topo.leader_nodes
               if abs(w[fi, topo.leader_index(q)]) > 1e-12}
        out[i] = row
    return out


def init_world(cfg: ScenarioConfig) -> WorldState:
    topo = cfg.topology
    cfg.check_fields()
    problems = cfg.validate()
    if problems:
        raise AssumptionError("; ".join(problems))
    n_dim = cfg.state_dim
    knowledge = pr.init_knowledge(topo, cfg.schedule.initial())

    track_obs = {}
    for q in topo.leader_nodes:
        track_obs[q] = ob.RlsObserver.create(cfg.leader_tracking_observer, n_dim)
    for i in topo.follower_nodes:
        track_obs[i] = ob.RlsObserver.create(cfg.follower_tracking_observer, n_dim)

    form_obs: dict[int, dict[int, ob.RlsObserver]] = {
        a: {} for a in topo.follower_nodes + topo.leader_nodes}
    state = WorldState(
        tick=0,
        x_followers=[np.asarray(x, dtype=float).ravel().copy() for x in cfg.follower_x0],
        x_leaders=[np.asarray(x, dtype=float).ravel().copy() for x in cfg.leader_x0],
        h=[form.h0.copy() for form in cfg.formation],
        x_o=cfg.tracking_x0.copy(),
        knowledge=knowledge,
        track_obs=track_obs,
        form_obs=form_obs,
        bank=None,
        slots={**{i: (False, topo.follower_index(i)) for i in topo.follower_nodes},
               **{q: (True, topo.leader_index(q)) for q in topo.leader_nodes}},
        learners={},
        oracle_gains={},
        oracle_layouts={},
        baseline_alpha=_baseline_weights(topo) if cfg.mode == MODE_BASELINE else None,
        trace=TraceLog(config=cfg),
    )
    _sync_observer_networks(state, cfg)
    if cfg.mode in (MODE_DATA, MODE_BASELINE):
        for node in topo.follower_nodes + topo.leader_nodes:
            _reset_learner(state, cfg, node)
    return state


def _alpha_of(state: WorldState, cfg: ScenarioConfig, node: int) -> dict[int, float]:
    """Weights of an agent's formation blocks: a leader follows its own
    formation at weight 1, a follower its convex coefficients."""
    if state.slots[node][0]:
        return {node: 1.0}
    if state.baseline_alpha is not None:
        return state.baseline_alpha[node]
    return state.knowledge[node].coefficients


def _layout_of(state: WorldState, cfg: ScenarioConfig, node: int) -> tuple[int, ...]:
    """Leaders of an agent's formation blocks (the keys of ``_alpha_of``),
    in augmented-state order."""
    if state.slots[node][0]:
        return (node,)
    if state.baseline_alpha is not None:
        return tuple(sorted(state.baseline_alpha[node]))
    return tuple(sorted(state.knowledge[node].influential))


def _sync_observer_networks(state: WorldState, cfg: ScenarioConfig) -> None:
    """Spawn the formation observers of newly influenced agents and rebuild
    the observer bank from the current influential sets."""
    topo = cfg.topology
    n_dim = cfg.state_dim
    agents = topo.leader_nodes + topo.follower_nodes
    for a in agents:
        for q in sorted(state.knowledge[a].influential):
            if q != a and q not in state.form_obs[a]:
                state.form_obs[a][q] = ob.RlsObserver.create(
                    cfg.formation_observers[q], n_dim)
    adjacency = topo.full_adjacency()
    blocks = [(0, ob.ObserverNetwork.from_adjacency(adjacency, agents, 0),
               [state.track_obs[a].config for a in agents])]
    for q in topo.leader_nodes:
        members = sorted(a for a in agents
                         if a != q and q in state.knowledge[a].influential)
        blocks.append((q, ob.ObserverNetwork.from_adjacency(adjacency, members, q),
                       [state.form_obs[a][q].config for a in members]))
    state.bank = ob.ObserverBank.stack(blocks)


def _reset_learner(state: WorldState, cfg: ScenarioConfig, node: int,
                   keep_buffer: bool = False) -> None:
    """Fresh value iteration for one agent; optionally retain the window.

    The window survives coefficient-only changes because its rows are
    policy- and cost-independent; layout growth changes dimensions and
    forces a flush.
    """
    layout = _layout_of(state, cfg, node)
    dim, width = (2 + len(layout)) * cfg.state_dim, cfg.dynamics_of(node).m
    agent_cfg = cfg.agent_learner_config(node)
    old = state.learners.get(node)
    behavior_full = None
    buffer = None
    if old is not None and old.layout == layout:
        # the previous converged gain stays the behaviour policy while the
        # next window is collected and iterated on
        if old.controller.status == ln.CONVERGED:
            behavior_full = old.controller.K_hat
        if keep_buffer:
            buffer = old.buffer
    if buffer is None:
        buffer = ln.DataBuffer(dim, width, agent_cfg.rows_for(dim, width))
    state.learners[node] = AgentLearner(
        node=node, cfg=agent_cfg, layout=layout,
        controller=ln.LearnedController.create(dim, width),
        buffer=buffer, warmup=np.atleast_2d(cfg.warmup_gains.get(
            node, np.zeros((width, cfg.state_dim)))),
        behavior_full=behavior_full)


def _augmented_state(state: WorldState, cfg: ScenarioConfig, node: int,
                     layout: tuple[int, ...]) -> np.ndarray:
    """Measured augmented state z: plant, one formation part per layout
    leader (an agent's own formation state exactly, any other leader's as
    estimated), tracking estimate."""
    estimates = state.form_obs[node]
    parts = [state.plant_state(node)]
    for q in layout:
        parts.append(state.h[state.slots[q][1]] if q == node else estimates[q].x_hat)
    parts.append(state.track_obs[node].x_hat)
    return np.concatenate(parts)


# ---------------------------------------------------------------------------
# oracle-mode synthesis
# ---------------------------------------------------------------------------

def synthesize_oracle_gains(cfg: ScenarioConfig, node: int,
                            layout: tuple[int, ...],
                            alphas: dict[int, float]) -> mc.AgentGains:
    """Model-based gains for one agent's current layout; a leader's layout
    is its own formation, ``(node,)``."""
    sol = mc.riccati_value_iteration(cfg.augmented_system(node, layout, alphas))
    return mc.AgentGains.split(sol.K, cfg.state_dim, layout)


def _oracle_control(state: WorldState, cfg: ScenarioConfig, node: int) -> np.ndarray:
    alphas = _alpha_of(state, cfg, node)
    layout = _layout_of(state, cfg, node)
    key = (layout, tuple(sorted(alphas.items())))
    if state.oracle_layouts.get(node) != key:
        if not layout:
            return cfg.warmup_gains.get(
                node, np.zeros((cfg.dynamics_of(node).m, cfg.state_dim))
            ) @ state.plant_state(node)
        state.oracle_gains[node] = synthesize_oracle_gains(cfg, node, layout, alphas)
        state.oracle_layouts[node] = key
    return state.oracle_gains[node].K @ _augmented_state(state, cfg, node, layout)


# ---------------------------------------------------------------------------
# observer phase
# ---------------------------------------------------------------------------

def _observer_phase(state: WorldState, targets_next: np.ndarray
                    ) -> tuple[dict, dict]:
    """Compute all next-tick observers from the tick-k snapshot.

    ``targets_next`` stacks the next tracking state and the next formation
    states, in the bank's network order."""
    rows = state.bank.rows
    track_obs, form_obs = state.track_obs, state.form_obs
    stepped = state.bank.step(
        [form_obs[a][q] if q else track_obs[a] for a, q in rows],
        np.array([state.x_o, *state.h]), targets_next)
    track_next: dict[int, ob.RlsObserver] = {}
    form_next: dict[int, dict[int, ob.RlsObserver]] = {a: {} for a in form_obs}
    for (a, q), new_obs in zip(rows, stepped):
        if q:
            form_next[a][q] = new_obs
        else:
            track_next[a] = new_obs
    return track_next, form_next


# ---------------------------------------------------------------------------
# learner-driven control
# ---------------------------------------------------------------------------

def _learner_control(state: WorldState, cfg: ScenarioConfig, node: int) -> np.ndarray:
    lr = state.learners[node]
    layout = _layout_of(state, cfg, node)
    if layout != lr.layout:
        _reset_learner(state, cfg, node)  # layout grew: flush and restart
        lr = state.learners[node]
    aug = _augmented_state(state, cfg, node, lr.layout)
    if lr.controller.status == ln.CONVERGED:
        u = lr.controller.K_hat @ aug
    else:
        if lr.behavior_full is not None and lr.behavior_full.shape[1] == aug.size:
            u = lr.behavior_full @ aug
        else:
            u = lr.warmup @ state.plant_state(node)
        u = u + ln.exploration_noise(lr.cfg, lr.buffer.input_dim, state.tick)
    lr.prev_aug = aug
    lr.prev_u = np.asarray(u, dtype=float).ravel()
    return lr.prev_u


def _learner_update(state: WorldState, cfg: ScenarioConfig, node: int,
                    completed_tick: int, next_state_builder) -> None:
    """Record the completed transition and run one iteration if ready."""
    lr = state.learners[node]
    if lr.prev_aug is None or completed_tick < cfg.learn_start_tick:
        return
    if lr.controller.status == ln.CONVERGED:
        return
    if not lr.buffer.is_full:
        lr.buffer.record(lr.prev_aug, lr.prev_u, next_state_builder(lr.layout))
    if lr.buffer.is_full:
        alphas = _alpha_of(state, cfg, node)
        c = mc.error_selector(cfg.state_dim, [alphas[q] for q in lr.layout])
        try:
            for _ in range(LEARN_ITERATIONS_PER_TICK):
                lr.controller = ln.learning_tick(lr.controller, lr.buffer,
                                                 cfg.q_weights[node], c, lr.cfg,
                                                 allow_deficient=True)
                if lr.controller.status == ln.CONVERGED:
                    break
        except DataConsistencyError:
            # samples straddled an observer transient: discard the window
            # and collect a fresh one
            lr.flushes += 1
            if lr.flushes > MAX_WINDOW_FLUSHES:
                raise
            lr.buffer.flush()
            lr.controller = ln.LearnedController.create(
                lr.buffer.state_dim, lr.buffer.input_dim)
            return
        if (lr.controller.status != ln.CONVERGED
                and lr.controller.iterations > lr.cfg.max_iterations):
            raise ConvergenceError(
                f"learner exceeded {lr.cfg.max_iterations} iterations "
                f"(last gain delta {lr.controller.last_gain_delta:.3e})")


# ---------------------------------------------------------------------------
# the tick
# ---------------------------------------------------------------------------

def _sample_trace(state: WorldState, cfg: ScenarioConfig) -> None:
    topo = cfg.topology
    formation_errors = {}
    for q, x, h in zip(topo.leader_nodes, state.x_leaders, state.h):
        formation_errors[q] = float(np.linalg.norm(formation_error(x, h, state.x_o)))
    h_all = dict(zip(topo.leader_nodes, state.h))
    containment_errors = {}
    for i, x in zip(topo.follower_nodes, state.x_followers):
        containment_errors[i] = float(np.linalg.norm(containment_error(
            x, h_all, state.x_o, _alpha_of(state, cfg, i))))
    observer_errors = {}
    for a in topo.leader_nodes + topo.follower_nodes:
        err = float(np.linalg.norm(state.track_obs[a].x_hat - state.x_o))
        for q in sorted(state.knowledge[a].influential):
            if q == a:
                continue
            err += float(np.linalg.norm(
                state.form_obs[a][q].x_hat - h_all[q]))
        observer_errors[a] = err
    states = None
    if cfg.record_states:
        states = {a: state.plant_state(a).copy()
                  for a in topo.follower_nodes + topo.leader_nodes}
    state.trace.records.append(TraceRecord(
        tick=state.tick, formation_errors=formation_errors,
        containment_errors=containment_errors,
        observer_errors=observer_errors, states=states))


def step_world(state: WorldState, cfg: ScenarioConfig) -> WorldState:
    """Advance the world by one tick (mutates and returns ``state``)."""
    topo = cfg.topology
    tick = state.tick

    # 1. propensity schedule
    entry = cfg.schedule.entry_at(tick)
    if entry is not None and tick > 0:
        old_coeffs = {i: state.knowledge[i].coefficients
                      for i in topo.follower_nodes}
        state.knowledge = pr.apply_propensity_update(state.knowledge, entry)
        if cfg.mode in (MODE_DATA, MODE_BASELINE):
            for i in topo.follower_nodes:
                changed = state.knowledge[i].coefficients != old_coeffs[i]
                lr = state.learners.get(i)
                if changed and lr is not None and lr.cfg.relearn_on_alpha_change:
                    # fresh window: post-switch data is far cleaner than the
                    # start-up window (observers have long settled)
                    _reset_learner(state, cfg, i, keep_buffer=False)

    # 2. influence propagation (idempotent at the fixed point)
    if state.propagation_stable_for < topo.n_followers + topo.n_leaders:
        nxt = pr.step_propagation(state.knowledge, topo)
        changed = any(nxt[a].influential != state.knowledge[a].influential for a in nxt)
        state.knowledge = nxt
        if changed:
            state.propagation_changes += 1
            state.propagation_stable_for = 0
            _sync_observer_networks(state, cfg)
        else:
            state.propagation_stable_for += 1

    # 3. trace sampling of the tick-k state
    if tick % cfg.sample_interval == 0:
        _sample_trace(state, cfg)

    # 4. observer updates from the tick-k snapshot; a diverging estimate
    # overflows before it is caught (scale downdated to zero or a non-finite
    # prediction), and that is reported as an abort rather than a warning
    targets_next = np.array([cfg.tracking_a @ state.x_o]
                            + [form.S @ h for form, h in zip(cfg.formation, state.h)])
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            track_next, form_next = _observer_phase(state, targets_next)
    except PfccError as exc:
        raise SimulationAbort(tick, "observers", exc) from exc

    # 5. controls from the tick-k snapshot
    controls: dict[int, np.ndarray] = {}
    for node in topo.follower_nodes + topo.leader_nodes:
        try:
            if cfg.mode == MODE_ORACLE:
                controls[node] = np.asarray(_oracle_control(state, cfg, node)).ravel()
            else:
                controls[node] = _learner_control(state, cfg, node)
        except PfccError as exc:
            raise SimulationAbort(tick, cfg.agent_name(node), exc) from exc

    # 6. plant / formation / tracking advance; one guard over all plants
    # (a nan norm fails the comparison too)
    new_followers = [dyn.A @ x + dyn.B @ controls[i] for i, dyn, x in zip(
        topo.follower_nodes, cfg.follower_dynamics, state.x_followers)]
    new_leaders = [dyn.A @ x + dyn.B @ controls[q] for q, dyn, x in zip(
        topo.leader_nodes, cfg.leader_dynamics, state.x_leaders)]
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(np.array(new_followers + new_leaders), axis=1)
    if not norms.max() <= _STATE_GUARD:
        first = int(np.argmin(norms <= _STATE_GUARD))
        name = "followers" if first < topo.n_followers else "leaders"
        raise SimulationAbort(tick, name, ConvergenceError("plant state diverged"))

    # 7. commit next states, then let learners see the completed transition
    state.x_followers = new_followers
    state.x_leaders = new_leaders
    state.x_o, *state.h = targets_next
    state.track_obs = track_next
    state.form_obs = form_next
    state.tick = tick + 1

    if cfg.mode in (MODE_DATA, MODE_BASELINE):
        for node in topo.follower_nodes + topo.leader_nodes:
            def builder(layout, node=node):
                return _augmented_state(state, cfg, node, layout)
            try:
                _learner_update(state, cfg, node, tick, builder)
            except PfccError as exc:
                raise SimulationAbort(tick, cfg.agent_name(node), exc) from exc
    return state


def summarize(state: WorldState, cfg: ScenarioConfig) -> dict:
    topo = cfg.topology
    learners = {}
    for node, lr in sorted(state.learners.items()):
        learners[cfg.agent_name(node)] = {
            "status": lr.controller.status,
            "iterations": lr.controller.iterations,
            "last_gain_delta": lr.controller.last_gain_delta,
            "layout": [cfg.agent_name(q) for q in lr.layout],
        }
    final_obs = {}
    if state.trace.records:
        last = state.trace.records[-1]
        final_obs = {cfg.agent_name(a): v for a, v in last.observer_errors.items()}
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


def observer_gain_bound_diagnostic(state: WorldState, cfg: ScenarioConfig,
                                   q: int) -> ob.GainBound:
    """Evaluate the coupling-gain bound on leader q's formation network at
    the current tick (diagnostic only)."""
    net = state.bank.networks[q]
    if not net.members:
        raise PfccError(f"no agents observe leader {cfg.agent_name(q)}")
    n = cfg.state_dim
    v = len(net.members)
    o_cfg = cfg.formation_observers[q]
    s_consensus = ob.consensus_matrix(cfg.formation[cfg.topology.leader_index(q)].S,
                                      o_cfg.consensus_gain, o_cfg.gain_matrix, net.graph)
    zeta = np.zeros((v * n * n, v * n))
    l_bar = np.zeros((v * n, v * n))
    for k, m in enumerate(net.members):
        obs = state.form_obs[m][q]
        zeta[k * n * n : (k + 1) * n * n, k * n : (k + 1) * n] = ob.regressor(obs.x_hat)
        l_bar[k * n : (k + 1) * n, k * n : (k + 1) * n] = (
            np.eye(n) / (1.0 / obs.c + o_cfg.xi))
    return ob.coupling_gain_bound(zeta, l_bar, net.graph, s_consensus, o_cfg.xi)
