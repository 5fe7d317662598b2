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
from .matops import is_positive_definite
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
            if not all(v > 0 for v in factors.values()):  # a NaN fails too
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
        if not self.follower_x0:
            self.follower_x0 = [np.zeros(self.state_dim) for _ in range(n)]
        if not self.leader_x0:
            self.leader_x0 = [np.zeros(self.state_dim) for _ in range(m)]
        if not self.follower_names:
            self.follower_names = [f"F{i + 1}" for i in range(n)]
        if not self.leader_names:
            self.leader_names = [f"L{q + 1}" for q in range(m)]
        self.check_fields()

    def check_fields(self) -> None:
        """Raise ValueError for a field no run can use.  Fields are plain
        attributes, so ``init_world`` checks them again."""
        topo = self.topology
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if ({len(self.follower_dynamics), len(self.follower_x0), len(self.follower_names)}
                != {topo.n_followers}
                or {len(self.leader_dynamics), len(self.leader_x0), len(self.leader_names),
                    len(self.formation)} != {topo.n_leaders}):
            raise ValueError("one dynamics entry, x0 and name per follower and leader "
                             "and one formation per leader are required")
        if self.sample_interval < 1:
            raise ValueError("sample interval must be >= 1")
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")
        dim = self.state_dim
        square = (dim, dim)
        shapes = [("tracking A", self.tracking_a, square),
                  ("tracking x0", self.tracking_x0, (dim,)),
                  ("leader tracking observer gain matrix",
                   self.leader_tracking_observer.gain_matrix, square),
                  ("follower tracking observer gain matrix",
                   self.follower_tracking_observer.gain_matrix, square)]
        for q, form in zip(topo.leader_nodes, self.formation):
            name = self.agent_name(q)
            shapes += [(f"formation S of {name}", form.S, square),
                       (f"formation h0 of {name}", form.h0, (dim,)),
                       (f"formation {name} observer gain matrix",
                        getattr(self.formation_observers.get(q), "gain_matrix", None), square)]
        agents = topo.follower_nodes + topo.leader_nodes
        for node, x0 in zip(agents, self.follower_x0 + self.leader_x0):
            name, dyn = self.agent_name(node), self.dynamics_of(node)
            shapes += [(f"A of {name}", dyn.A, square), (f"B of {name}", dyn.B, (dim, dyn.m)),
                       (f"x0 of {name}", np.ravel(x0), (dim,)),
                       (f"q_weight of {name}", self.q_weights.get(node), square)]
            if node in self.warmup_gains:
                shapes.append((f"warmup_gain of {name}",
                               np.atleast_2d(self.warmup_gains[node]), (dyn.m, dim)))
        for what, value, shape in shapes:
            if np.shape(value) != shape:
                raise ValueError(f"{what} must have shape {shape}, got {np.shape(value)}")
            if not np.isfinite(value).all():
                raise ValueError(f"{what} must be finite")

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

    # a finite model entry near the float range overflows the checks' norms;
    # they then judge the inf or nan, without a warning
    @np.errstate(over="ignore", invalid="ignore")
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
            if not is_positive_definite(self.q_weights[node]):
                problems.append(f"q_weight of {self.agent_name(node)} must be "
                                "symmetric positive definite")
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

    def require_valid(self) -> None:
        """Raise AssumptionError naming every failed assumption check."""
        problems = self.validate()
        if problems:
            raise AssumptionError("; ".join(problems))


#: Most trace rows allocated before the first sample; a larger table grows
#: as it fills, so a horizon too long to run does not fail at allocation.
TRACE_PREALLOCATED_ROWS = 1 << 16


@dataclass
class TraceLog:
    """Sampled run history: one row per sample in a float table whose
    columns are ``header()``.  The table is sized for the horizon's samples
    and doubles whenever it is full (stepping may go past the horizon)."""

    config: ScenarioConfig
    size: int = field(default=0, init=False)
    table: np.ndarray = field(init=False, repr=False)

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
        return self.size

    def next_row(self) -> np.ndarray:
        """The row the next sample fills, counted as filled."""
        if self.size == len(self.table):
            self.table = np.concatenate([self.table, np.empty_like(self.table)])
        self.size += 1
        return self.table[self.size - 1]

    def rows(self) -> np.ndarray:
        """The filled rows (a view)."""
        return self.table[: self.size]


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


@dataclass
class WorldState:
    tick: int
    #: Plant states, one row per agent: row ``node - 1``.
    x: np.ndarray
    #: The tracking state, then each leader's formation state in leader
    #: order; row b is the target of observer network b.
    targets: np.ndarray
    #: The plants' A (N+M, n, n) and input-padded B (N+M, n, m_max), and the
    #: targets' dynamics [tracking A, S_1..S_M], stacked in row order.
    plant_a: np.ndarray
    plant_b: np.ndarray
    target_a: np.ndarray
    knowledge: dict[int, pr.AgentKnowledge]
    #: Every observer network stacked, tracking network first (observed
    #: node 0), then one formation network per leader in leader order, all
    #: gated from the topology's full adjacency.  Rebuilt only when
    #: propagation changes an influential set.
    bank: ob.ObserverBank | None
    #: One observer per ``bank.rows`` entry, in row order.
    observers: tuple[ob.RlsObserver, ...]
    learners: dict[int, AgentLearner]
    oracle_gains: dict[int, mc.AgentGains]
    oracle_layouts: dict[int, tuple]
    baseline_alpha: dict[int, dict[int, float]] | None
    trace: TraceLog
    #: ``[x.ravel() | targets.ravel() | estimates]`` with the observers'
    #: estimates in row order; rebuilt whenever ``x``, ``targets`` or
    #: ``observers`` is reassigned.
    world: np.ndarray | None = None
    #: One control plan per agent, keyed by node, and the follower-by-leader
    #: weights of the followers' plans; rebuilt whenever ``knowledge`` is.
    plans: dict[int, ControlPlan] = field(default_factory=dict)
    weights: np.ndarray | None = None
    propagation_changes: int = 0
    propagation_stable_for: int = 0


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
    cfg.require_valid()
    knowledge = pr.init_knowledge(topo, cfg.schedule.initial())
    dynamics = cfg.follower_dynamics + cfg.leader_dynamics
    plant_b = np.zeros((len(dynamics), cfg.state_dim, max(dyn.m for dyn in dynamics)))
    for b, dyn in zip(plant_b, dynamics):
        b[:, : dyn.m] = dyn.B

    state = WorldState(
        tick=0,
        x=np.array([np.ravel(x) for x in cfg.follower_x0 + cfg.leader_x0], dtype=float),
        targets=np.array([cfg.tracking_x0] + [form.h0 for form in cfg.formation], dtype=float),
        plant_a=np.array([dyn.A for dyn in dynamics], dtype=float),
        plant_b=plant_b,
        target_a=np.array([cfg.tracking_a] + [form.S for form in cfg.formation], dtype=float),
        knowledge=knowledge,
        bank=None,
        observers=(),
        learners={},
        oracle_gains={},
        oracle_layouts={},
        baseline_alpha=_baseline_weights(topo) if cfg.mode == MODE_BASELINE else None,
        trace=TraceLog(config=cfg),
    )
    _sync_observer_networks(state, cfg)
    _build_plans(state, cfg)
    if cfg.mode in (MODE_DATA, MODE_BASELINE):
        for node in topo.follower_nodes + topo.leader_nodes:
            _reset_learner(state, cfg, node)
    return state


def _gather_world(state: WorldState) -> None:
    """Restack ``state.world`` from the plants, targets and observers."""
    state.world = np.concatenate((state.x.ravel(), state.targets.ravel(),
                                  *(o.x_hat for o in state.observers)))


def _build_plans(state: WorldState, cfg: ScenarioConfig) -> None:
    """Rebuild every agent's control plan and the followers' weight matrix
    from the current knowledge and observer rows."""
    topo = cfg.topology
    n = cfg.state_dim
    row = state.bank.row
    target_start = state.x.size
    estimate_start = target_start + state.targets.size
    plans = {}
    for node in topo.follower_nodes + topo.leader_nodes:
        if topo.is_leader(node):
            alphas = {node: 1.0}
        elif state.baseline_alpha is not None:
            alphas = state.baseline_alpha[node]
        else:
            alphas = state.knowledge[node].coefficients
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
    state.plans, state.weights = plans, weights


def _sync_observer_networks(state: WorldState, cfg: ScenarioConfig) -> None:
    """Rebuild the observer bank from the current influential sets.  A row
    that already existed keeps its observer and a new row starts a fresh
    one; influential sets only grow, so no row is dropped."""
    topo = cfg.topology
    agents = topo.leader_nodes + topo.follower_nodes
    blocks = [(0, agents, [cfg.leader_tracking_observer if topo.is_leader(a)
                           else cfg.follower_tracking_observer for a in agents])]
    for q in topo.leader_nodes:
        members = sorted(a for a in agents
                         if a != q and q in state.knowledge[a].influential)
        blocks.append((q, members, [cfg.formation_observers[q]] * len(members)))
    old_row = state.bank.row if state.bank is not None else {}
    state.bank = ob.ObserverBank.stack(topo.full_adjacency(), blocks)
    state.observers = tuple(
        state.observers[old_row[key]] if key in old_row
        else ob.RlsObserver.create(config, cfg.state_dim)
        for key, config in zip(state.bank.rows, state.bank.configs))
    _gather_world(state)


def _reset_learner(state: WorldState, cfg: ScenarioConfig, node: int,
                   keep_buffer: bool = False) -> None:
    """Fresh value iteration for one agent; optionally retain the window.

    The window survives coefficient-only changes because its rows are
    policy- and cost-independent; layout growth changes dimensions and
    forces a flush.
    """
    layout = state.plans[node].layout
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
    plan = state.plans[node]
    if state.oracle_layouts.get(node) != plan.key:
        if not plan.layout:
            return cfg.warmup_gains.get(
                node, np.zeros((cfg.dynamics_of(node).m, cfg.state_dim))
            ) @ state.x[node - 1]
        state.oracle_gains[node] = synthesize_oracle_gains(cfg, node, plan.layout,
                                                           plan.alphas)
        state.oracle_layouts[node] = plan.key
    return state.oracle_gains[node].K @ state.world[plan.gather]


# ---------------------------------------------------------------------------
# learner-driven control
# ---------------------------------------------------------------------------

def _learner_control(state: WorldState, cfg: ScenarioConfig, node: int) -> np.ndarray:
    """The agent's input; without the observer rows of its plan it runs its
    warm-up policy and leaves the transition unrecorded."""
    lr = state.learners[node]
    plan = state.plans[node]
    if plan.layout != lr.layout:
        _reset_learner(state, cfg, node)  # layout grew: flush and restart
        lr = state.learners[node]
    aug = None if plan.gather is None else state.world[plan.gather]
    if aug is not None and lr.controller.status == ln.CONVERGED:
        u = lr.controller.K_hat @ aug
    else:
        if (aug is not None and lr.behavior_full is not None
                and lr.behavior_full.shape[1] == aug.size):
            u = lr.behavior_full @ aug
        else:
            u = lr.warmup @ state.x[node - 1]
        u = u + ln.exploration_noise(lr.cfg, lr.buffer.input_dim, state.tick)
    lr.prev_aug = aug
    lr.prev_u = np.asarray(u, dtype=float).ravel()
    return lr.prev_u


def _learner_update(state: WorldState, cfg: ScenarioConfig, node: int,
                    completed_tick: int) -> None:
    """Record the completed transition (the next state is committed) and
    iterate if ready: at most ``LEARN_ITERATIONS_PER_TICK`` sweeps, and
    never past the learner's ``max_iterations``."""
    lr = state.learners[node]
    if lr.prev_aug is None or completed_tick < cfg.learn_start_tick:
        return
    if lr.controller.status == ln.CONVERGED:
        return
    plan = state.plans[node]
    if not lr.buffer.is_full:
        lr.buffer.record(lr.prev_aug, lr.prev_u, state.world[plan.gather])
    if lr.buffer.is_full:
        c = mc.error_selector(cfg.state_dim, [plan.alphas[q] for q in lr.layout])
        sweeps = min(LEARN_ITERATIONS_PER_TICK,
                     lr.cfg.max_iterations - lr.controller.iterations)
        try:
            for _ in range(sweeps):
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
                and lr.controller.iterations >= lr.cfg.max_iterations):
            raise ConvergenceError(
                f"learner did not converge in {lr.cfg.max_iterations} iterations "
                f"(last gain delta {lr.controller.last_gain_delta:.3e})")


# ---------------------------------------------------------------------------
# the tick
# ---------------------------------------------------------------------------

def _row_norms(d: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of ``d``, bit for bit the
    ``np.linalg.norm`` of the row, ``sqrt(x.dot(x))`` (``norm(axis=1)``
    and ``einsum`` sum in another order)."""
    return np.sqrt(np.matmul(d[:, None, :], d[:, :, None]))[:, 0, 0]


def _sample_trace(state: WorldState, cfg: ScenarioConfig) -> None:
    """Fill one trace row from the tick-k state.

    A follower's containment error subtracts one weighted leader target at
    a time, in leader order, and an agent's observer error sums its row
    norms in bank order (tracking row first), so every value equals its
    per-vector form exactly."""
    topo = cfg.topology
    n, m = topo.n_followers, topo.n_leaders
    targets = state.targets
    x_o, h = targets[0], targets[1:]
    # subtract.reduce runs along the leaders in order
    containment = np.subtract.reduce(np.concatenate(
        (state.x[:n, None], state.weights[:, :, None] * (h + x_o)), axis=1), axis=1)
    bank = state.bank
    x_hat = state.world[state.x.size + targets.size :].reshape(-1, cfg.state_dim)
    obs_errors = np.bincount(bank.agent, _row_norms(x_hat - targets[bank.target]),
                             minlength=1 + n + m)
    row = state.trace.next_row()
    row[0] = state.tick
    row[1 : 1 + m] = _row_norms(state.x[n:] - h - x_o)
    row[1 + m : 1 + m + n] = _row_norms(containment)
    row[1 + m + n : 1 + 2 * (m + n)] = obs_errors[topo.leader_nodes + topo.follower_nodes]
    if cfg.record_states:
        row[1 + 2 * (m + n) :] = state.x.ravel()


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
        _build_plans(state, cfg)
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
        _build_plans(state, cfg)

    # 3. trace sampling of the tick-k state
    if tick % cfg.sample_interval == 0:
        _sample_trace(state, cfg)

    # 4. observer updates from the tick-k snapshot; a diverging estimate
    # overflows before it is caught (scale downdated to zero or a non-finite
    # prediction), and that is reported as an abort rather than a warning
    targets_next = np.matmul(state.target_a, state.targets[:, :, None])[:, :, 0]
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            stepped = state.bank.step(
                state.observers,
                state.world[state.x.size + state.targets.size :].reshape(-1, cfg.state_dim),
                state.targets, targets_next)
    except PfccError as exc:
        raise SimulationAbort(tick, "observers", exc) from exc

    # 5. controls from the tick-k snapshot, zero-padded to the widest input
    agents = topo.follower_nodes + topo.leader_nodes
    control = _oracle_control if cfg.mode == MODE_ORACLE else _learner_control
    u = np.zeros((len(agents), state.plant_b.shape[2]))
    for r, node in enumerate(agents):
        try:
            u_node = control(state, cfg, node)
        except PfccError as exc:
            raise SimulationAbort(tick, cfg.agent_name(node), exc) from exc
        u[r, : u_node.size] = u_node

    # 6. plant advance, all rows at once (the padded inputs add exact zeros);
    # one guard over all plants (a nan norm fails the comparison too)
    x_next = (np.matmul(state.plant_a, state.x[:, :, None])
              + np.matmul(state.plant_b, u[:, :, None]))[:, :, 0]
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(x_next, axis=1)
    if not norms.max() <= _STATE_GUARD:
        first = int(np.argmin(norms <= _STATE_GUARD))
        name = "followers" if first < topo.n_followers else "leaders"
        raise SimulationAbort(tick, name, ConvergenceError("plant state diverged"))

    # 7. commit next states, then let learners see the completed transition
    state.x = x_next
    state.targets = targets_next
    state.observers = stepped
    state.tick = tick + 1
    _gather_world(state)

    if cfg.mode in (MODE_DATA, MODE_BASELINE):
        for node in agents:
            try:
                _learner_update(state, cfg, node, tick)
            except PfccError as exc:
                raise SimulationAbort(tick, cfg.agent_name(node), exc) from exc
    return state


def summarize(state: WorldState, cfg: ScenarioConfig) -> dict:
    learners = {}
    for node, lr in sorted(state.learners.items()):
        learners[cfg.agent_name(node)] = {
            "status": lr.controller.status,
            "iterations": lr.controller.iterations,
            "last_gain_delta": lr.controller.last_gain_delta,
            "layout": [cfg.agent_name(q) for q in lr.layout],
        }
    final_obs = {}
    if len(state.trace):
        last = zip(state.trace.header(), state.trace.rows()[-1].tolist())
        final_obs = {col[len("obs_"):]: v for col, v in last if col.startswith("obs_")}
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

