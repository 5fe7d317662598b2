"""The benchmark's workloads, their correctness checks and the golden
reference comparison.

Each workload has three steps: ``setup`` (timed as ``setup_s``, repeated by
the runner), ``run`` (timed as ``run_s``, one op at a time, with a
speedometer slice every ``slice_every`` ops) and ``check`` (untimed).  They
reach pfcc only through its public entry points: ``scenario.load_bundled``,
``simulation.init_world``, ``simulation.step_world``, ``scenario.export_run``,
``cli.effective_coefficients`` and ``cli.compare_agent_gains``.
See WORKLOADS.md for why each workload exists.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pfcc import cli
from pfcc import learning as ln
from pfcc import scenario as sc
from pfcc import simulation as sim
from pfcc.errors import PfccError, SimulationAbort
from speed import Speedometer

#: Seed of the bundled scenarios; runs at this seed are compared with the
#: golden references.
DEFAULT_SEED = 7

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
#: Golden rows are the trace rows at ticks that are multiples of this.
GOLDEN_EVERY = 40
#: Allowed deviation from a golden value, relative to the largest magnitude
#: in the value's column.
GOLDEN_RTOL = 1e-9

# Limits of the acceptance suite (tests/test_acceptance.py), never looser.
OBSERVER_LIMIT = 1e-6   # criterion 5
TAIL_LIMIT = 1e-4       # criterion 7
TAIL_TICKS = 2000       # criterion 7: last 200 samples at interval 10
GAP_LIMIT = 1e-3        # criterion 4

AUDIT_SCENARIOS = ("hexagon", "hexagon_static")
#: Probe seeds per gain_audit run: 52 seeds x 20 agents = 1040 ops, which
#: leaves at least ten ops beyond the 99th percentile.
AUDIT_PROBE_SEEDS = 52

clock = time.perf_counter


@dataclass
class Outcome:
    """What one timed run produced.  ``run_s`` excludes the speedometer
    slices taken between ops."""

    run_s: float
    op_times: list[float]
    attempted: int
    facts: dict = field(default_factory=dict)
    result: object = None


@dataclass
class SimContext:
    cfg: sim.ScenarioConfig
    state: sim.WorldState

    @property
    def configs(self) -> list:
        return [self.cfg]


@dataclass
class AuditContext:
    configs: list
    coefficients: list
    probe_seeds: list[int]


class SimulationWorkload:
    """One full-horizon run of a bundled scenario, ticked one
    ``step_world`` call at a time and exported like ``pfcc run``."""

    op_name = "tick"
    #: Ops between two speedometer slices.
    slice_every = 40

    def __init__(self, name: str, scenario: str, **overrides):
        self.name = name
        self.scenario = scenario
        self.overrides = overrides

    def setup(self, seed: int) -> SimContext:
        cfg = sc.load_bundled(self.scenario)
        cfg.seed = seed
        for key, value in self.overrides.items():
            setattr(cfg, key, value)
        return SimContext(cfg=cfg, state=sim.init_world(cfg))

    def run(self, ctx: SimContext, out_dir: Path, meter: Speedometer) -> Outcome:
        cfg, state = ctx.cfg, ctx.state
        ticks: list[float] = []
        error = None
        changes, fixed_point_tick = state.propagation_changes, 0
        start = clock()
        try:
            for k in range(cfg.horizon):
                if k % self.slice_every == 0:
                    meter.slice()
                t0 = clock()
                sim.step_world(state, cfg)
                ticks.append(clock() - t0)
                if state.propagation_changes != changes:
                    changes, fixed_point_tick = state.propagation_changes, state.tick
        except SimulationAbort as exc:
            error = exc
        except PfccError as exc:
            error = SimulationAbort(state.tick, "engine", exc)
        meter.slice()
        result = sim.RunResult(trace=state.trace, state=state,
                               summary=sim.summarize(state, cfg), error=error)
        paths = sc.export_run(result, out_dir)
        run_s = clock() - start - meter.total_s
        learners = state.learners.values()
        return Outcome(run_s=run_s, op_times=ticks, attempted=cfg.horizon, result=result,
                       facts={
                           "learning.iterations": sum(lr.controller.iterations
                                                      for lr in learners),
                           "learning.flushes": sum(lr.flushes for lr in learners),
                           "propagation.fixed_point_tick": fixed_point_tick,
                           "scenario.export_bytes": sum(Path(p).stat().st_size
                                                        for p in paths),
                           "trace_path": paths[0],
                       })

    def check(self, ctx: SimContext, outcome: Outcome, golden: bool
              ) -> tuple[list[str], int, dict[str, tuple[float, str]]]:
        """Failures, failed ops and accuracy figures of a finished run,
        compared with the golden reference when ``golden`` is set.  A
        failure spoils the run's output, so it fails every tick."""
        cfg, result = ctx.cfg, outcome.result
        if not result.completed:
            return [f"run aborted: {result.error}"], outcome.attempted, {}
        header, rows = read_trace(outcome.facts["trace_path"])
        failures: list[str] = []
        ticks = rows[:, 0]
        obs_cols = [j for j, h in enumerate(header) if h.startswith("obs_")]
        err_cols = [j for j, h in enumerate(header) if h.startswith("e_")]
        tail_err_max = 0.0
        for boundary in [t for t, _ in cfg.schedule.entries[1:] if t < cfg.horizon] + [cfg.horizon]:
            before = np.nonzero(ticks < boundary)[0]
            last = before[-1]
            obs_err = float(rows[last, obs_cols].max())
            if not obs_err < OBSERVER_LIMIT:
                failures.append(f"observer error {obs_err:.3e} at tick {int(ticks[last])} "
                                f"is not below {OBSERVER_LIMIT:g}")
            window = before[ticks[before] >= boundary - TAIL_TICKS]
            tail_err_max = max(tail_err_max, float(rows[np.ix_(window, err_cols)].max()))
        if not tail_err_max < TAIL_LIMIT:
            failures.append(f"tail error {tail_err_max:.3e} is not below {TAIL_LIMIT:g}")
        failures += self._check_controllers(ctx)
        if golden:
            failures += compare_golden(load_golden(self.name), golden_record(ctx, header, rows))
        failed = outcome.attempted if failures else 0
        return failures, failed, {"tail_err_max": (tail_err_max, "abs")}

    def _check_controllers(self, ctx: SimContext) -> list[str]:
        cfg, state = ctx.cfg, ctx.state
        agents = cfg.topology.follower_nodes + cfg.topology.leader_nodes
        if cfg.mode == sim.MODE_ORACLE:
            missing = [cfg.agent_name(a) for a in agents if a not in state.oracle_gains]
            return [f"no oracle gain for {missing}"] if missing else []
        failures = []
        for node in agents:
            lr = state.learners[node]
            if lr.controller.status != ln.CONVERGED:
                failures.append(f"learner {cfg.agent_name(node)} ended "
                                f"{lr.controller.status}")
            if lr.flushes > sim.MAX_WINDOW_FLUSHES:
                failures.append(f"learner {cfg.agent_name(node)} flushed {lr.flushes} "
                                f"windows (limit {sim.MAX_WINDOW_FLUSHES})")
        return failures


class GainAudit:
    """``compare_agent_gains`` for every agent of both bundled scenarios,
    repeated over probe seeds derived from the benchmark seed."""

    name = "gain_audit"
    op_name = "agent"
    slice_every = 5

    def setup(self, seed: int) -> AuditContext:
        configs = [sc.load_bundled(name) for name in AUDIT_SCENARIOS]
        return AuditContext(
            configs=configs,
            coefficients=[cli.effective_coefficients(cfg) for cfg in configs],
            probe_seeds=[seed * 1000 + k for k in range(AUDIT_PROBE_SEEDS)])

    def run(self, ctx: AuditContext, out_dir: Path, meter: Speedometer) -> Outcome:
        reports: list = []
        times: list[float] = []
        start = clock()
        for probe_seed in ctx.probe_seeds:
            for cfg, coeffs in zip(ctx.configs, ctx.coefficients):
                cfg.seed = probe_seed
                topo = cfg.topology
                for node in topo.follower_nodes + topo.leader_nodes:
                    if len(times) % self.slice_every == 0:
                        meter.slice()
                    t0 = clock()
                    try:
                        report = cli.compare_agent_gains(
                            cfg, node, coeffs.get(node) if topo.is_follower(node) else None)
                    except PfccError as exc:
                        report = {"agent": cfg.agent_name(node), "error": str(exc)}
                    times.append(clock() - t0)
                    reports.append(report)
        meter.slice()
        run_s = clock() - start - meter.total_s
        return Outcome(run_s=run_s, op_times=times, attempted=len(reports), result=reports,
                       facts={
                           "learning.iterations": sum(r.get("iterations", 0) for r in reports),
                           "learning.flushes": 0,
                           "propagation.fixed_point_tick": 0,
                           "scenario.export_bytes": 0,
                       })

    def check(self, ctx: AuditContext, outcome: Outcome, golden: bool
              ) -> tuple[list[str], int, dict[str, tuple[float, str]]]:
        """One failure per op that errored or missed the gap limit."""
        failures = []
        gap_max = 0.0
        for report in outcome.result:
            if "error" in report:
                failures.append(f"{report['agent']}: {report['error']}")
                continue
            gap = max(report["k_gap"], report["p_gap"])
            gap_max = max(gap_max, gap)
            if not gap < GAP_LIMIT:
                failures.append(f"{report['agent']}: gain gap {gap:.3e} is not below "
                                f"{GAP_LIMIT:g}")
        return failures, len(failures), {"gain_gap_max": (gap_max, "rel")}


WORKLOADS = {
    "hexagon_learn": SimulationWorkload("hexagon_learn", "hexagon"),
    "static_oracle": SimulationWorkload("static_oracle", "hexagon_static",
                                        mode=sim.MODE_ORACLE, sample_interval=1,
                                        record_states=True),
    "gain_audit": GainAudit(),
}


# ---------------------------------------------------------------------------
# golden reference
# ---------------------------------------------------------------------------

def read_trace(path) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, rows


def golden_record(ctx: SimContext, header: list[str], rows: np.ndarray) -> dict:
    """The part of a run that the golden reference pins."""
    cfg, state = ctx.cfg, ctx.state
    names = cfg.agent_name
    return {
        "header": header,
        "rows": rows[rows[:, 0] % GOLDEN_EVERY == 0].tolist(),
        "learners": {names(node): {"status": lr.controller.status,
                                   "iterations": lr.controller.iterations,
                                   "layout": [names(q) for q in lr.layout]}
                     for node, lr in sorted(state.learners.items())},
        "oracle_layouts": {names(node): [names(q) for q in key[0]]
                           for node, key in sorted(state.oracle_layouts.items())},
    }


def golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json"


def load_golden(workload: str) -> dict:
    with open(golden_path(workload), encoding="utf-8") as fh:
        return json.load(fh)


def compare_golden(golden: dict, got: dict) -> list[str]:
    """Failures of a default-seed run against its golden reference: trace
    values within ``GOLDEN_RTOL`` of their column's scale, everything else
    exactly equal."""
    failures = [f"golden: {key} differ" for key in ("header", "learners", "oracle_layouts")
                if got[key] != golden[key]]
    ref, rows = np.array(golden["rows"]), np.array(got["rows"])
    if ref.shape != rows.shape or not np.array_equal(ref[:, 0], rows[:, 0]):
        return failures + [f"golden: sampled ticks differ ({rows.shape} vs {ref.shape})"]
    scale = np.maximum(np.abs(ref).max(axis=0), np.finfo(float).tiny)
    deviation = float((np.abs(rows - ref) / scale).max())
    if not deviation <= GOLDEN_RTOL:
        failures.append(f"golden: trace deviates by {deviation:.3e} of column scale "
                        f"(limit {GOLDEN_RTOL:g})")
    return failures
