"""Command-line front end: validate, run, compare-gains.

Exit codes: 0 success, 2 schema failure, 3 assumption failure, 4 persistent
excitation failure, 5 solver/learner non-convergence, 1 anything else.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from . import learning as ln
from . import model_control as mc
from . import propagation as pr
from . import scenario as sc
from . import simulation as sim
from .errors import (AssumptionError, ConvergenceError, PersistentExcitationError,
                     PfccError, SchemaError)

EXIT_OK = 0
EXIT_GENERIC = 1
EXIT_SCHEMA = 2
EXIT_ASSUMPTION = 3
EXIT_EXCITATION = 4
EXIT_CONVERGENCE = 5

#: Probing-input standard deviation of the gain-comparison diagnostic.
COMPARE_NOISE_STD = 1.0


def _exit_code_for(exc: PfccError) -> int:
    if isinstance(exc, SchemaError):
        return EXIT_SCHEMA
    if isinstance(exc, AssumptionError):
        return EXIT_ASSUMPTION
    if isinstance(exc, PersistentExcitationError):
        return EXIT_EXCITATION
    if isinstance(exc, ConvergenceError):
        return EXIT_CONVERGENCE
    return EXIT_GENERIC


def _apply_overrides(cfg: sim.ScenarioConfig, args) -> sim.ScenarioConfig:
    """Copy of ``cfg`` with the command-line overrides, validated like the
    scenario file's own values."""
    overrides = {key: getattr(args, key)
                 for key in ("seed", "horizon", "mode", "sample_interval")
                 if getattr(args, key) is not None}
    try:
        return replace(cfg, **overrides)
    except ValueError as exc:
        raise SchemaError(f"invalid override: {exc}") from exc


def cmd_validate(args) -> int:
    try:
        cfg = _apply_overrides(sc.load_scenario(args.scenario), args)
    except SchemaError as exc:
        print(f"schema: FAIL - {exc}")
        return EXIT_SCHEMA
    except AssumptionError as exc:
        print("schema: ok")
        print(f"assumptions: FAIL - {exc}")
        return EXIT_ASSUMPTION
    print("schema: ok")
    problems = cfg.validate()
    if problems:
        for issue in problems:
            print(f"assumptions: FAIL - {issue}")
        return EXIT_ASSUMPTION
    print("assumptions: ok (graph structure, factor positivity, spectral radii, "
          "stabilizability, regulation solvability)")
    return EXIT_OK


def cmd_run(args) -> int:
    try:
        cfg = _apply_overrides(sc.load_scenario(args.scenario), args)
        result = sim.run(cfg)
        trace_path, meta_path = sc.export_run(result, args.out)
    except PfccError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code_for(exc)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
        return EXIT_GENERIC
    print(f"wrote {trace_path} and {meta_path}")
    if not result.completed:
        print(f"run aborted: {result.error}", file=sys.stderr)
        cause = result.error.cause
        return _exit_code_for(cause) if isinstance(cause, PfccError) else EXIT_GENERIC
    return EXIT_OK


def effective_coefficients(cfg: sim.ScenarioConfig) -> dict[int, dict[int, float]]:
    """Follower weights at the initial-schedule fixed point (or the
    Laplacian weights in baseline mode)."""
    if cfg.mode == sim.MODE_BASELINE:
        return sim._baseline_weights(cfg.topology)
    knowledge, _ = pr.propagation_fixed_point(
        pr.init_knowledge(cfg.topology, cfg.schedule.initial()), cfg.topology)
    return {i: knowledge[i].coefficients for i in cfg.topology.follower_nodes}


def probe_window(cfg: sim.ScenarioConfig, node: int, sys_: mc.AugmentedSystem,
                 noise_std: float = COMPARE_NOISE_STD) -> ln.DataBuffer:
    """Synthetic excitation window for one agent's true augmented system.

    Every row is an exact transition from an independently sampled state
    under the warm-up behaviour gain plus probing noise; independent rows
    sidestep the rank collapse of period-two formation orbits, so the full
    gain/value matrices are identified.
    """
    agent_cfg = replace(cfg.agent_learner_config(node), noise_std=noise_std)
    rows = agent_cfg.rows_for(sys_.dim, sys_.m)
    buf = ln.DataBuffer(sys_.dim, sys_.m, rows)
    rng = np.random.default_rng([cfg.seed & 0x7FFFFFFF, node])
    warm = np.zeros((sys_.m, sys_.dim))
    warm[:, : cfg.state_dim] = np.atleast_2d(
        cfg.warmup_gains.get(node, np.zeros((sys_.m, cfg.state_dim))))
    # one draw of the whole stack is the same stream as one draw per row
    x = rng.normal(size=(rows, sys_.dim))
    u = np.empty((rows, sys_.m))
    x_next = np.empty_like(x)
    for t in range(rows):
        u[t] = warm @ x[t] + ln.exploration_noise(agent_cfg, sys_.m, t)
        x_next[t] = sys_.A_bar @ x[t] + sys_.B_bar @ u[t]
    return buf.record(x, u, x_next)


def compare_agent_gains(cfg: sim.ScenarioConfig, node: int,
                        alphas: dict[int, float] | None = None) -> dict:
    """Learn one agent's controller from a synthetic probe window and
    compare against the model-based solution.  ``alphas`` are a follower's
    coefficients; ``None`` stands for a leader's own formation at weight 1."""
    if alphas is None:
        alphas = {node: 1.0}
    layout = tuple(sorted(alphas))
    sys_ = cfg.augmented_system(node, layout, alphas)
    oracle = mc.oracle_solution(sys_)
    buf = probe_window(cfg, node, sys_)
    agent_cfg = cfg.agent_learner_config(node)
    ctrl = ln.LearnedController.create(sys_.dim, sys_.m)
    for _ in range(agent_cfg.max_iterations):
        ctrl = ln.learning_tick(ctrl, buf, cfg.q_weights[node], sys_.C, agent_cfg)
        if ctrl.status == ln.CONVERGED:
            break
    if ctrl.status != ln.CONVERGED:
        raise ConvergenceError(
            f"learner for {cfg.agent_name(node)} did not converge "
            f"(last gain delta {ctrl.last_gain_delta:.3e})")
    k_gap = float(np.linalg.norm(ctrl.K_hat - oracle.K)
                  / max(np.linalg.norm(oracle.K), 1e-30))
    p_gap = float(np.linalg.norm(ctrl.P_hat - oracle.P)
                  / max(np.linalg.norm(oracle.P), 1e-30))
    return {"agent": cfg.agent_name(node), "iterations": ctrl.iterations,
            "k_gap": k_gap, "p_gap": p_gap, "layout": len(layout)}


def cmd_compare_gains(args) -> int:
    try:
        cfg = _apply_overrides(sc.load_scenario(args.scenario), args)
        cfg.require_valid()
        coeffs = effective_coefficients(cfg)
        reports = []
        failures = []
        topo = cfg.topology
        for node in topo.follower_nodes + topo.leader_nodes:
            try:
                reports.append(compare_agent_gains(cfg, node, coeffs.get(node)))
            except (ConvergenceError, PersistentExcitationError) as exc:
                failures.append((cfg.agent_name(node), exc))
    except PfccError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code_for(exc)
    print(f"{'agent':<8}{'iters':>6}{'|K-K*|/|K*|':>16}{'|P-P*|/|P*|':>16}")
    for rep in reports:
        print(f"{rep['agent']:<8}{rep['iterations']:>6}"
              f"{rep['k_gap']:>16.3e}{rep['p_gap']:>16.3e}")
    for name, exc in failures:
        print(f"{name:<8}  FAILED: {exc}")
    return EXIT_CONVERGENCE if failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pfcc",
        description="Propensity formation-containment control: scenario "
                    "validation, simulation runs, and learner-vs-oracle "
                    "gain comparison.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("scenario", help="path to a scenario JSON file")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--horizon", type=int, default=None)
    common.add_argument("--mode", choices=list(sim.MODES), default=None)
    common.add_argument("--sample-interval", type=int, default=None,
                        dest="sample_interval")

    p_val = sub.add_parser("validate", parents=[common],
                           help="schema and assumption checks")
    p_val.set_defaults(func=cmd_validate)

    p_run = sub.add_parser("run", parents=[common],
                           help="simulate and export the trace")
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare-gains", parents=[common],
                           help="learned-vs-model gain and value gaps per agent")
    p_cmp.set_defaults(func=cmd_compare_gains)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
