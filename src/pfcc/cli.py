"""Command-line front end: validate, run, compare-gains.

Exit codes: 0 success, 2 schema failure, 3 assumption failure, 4 persistent
excitation failure, 5 solver/learner non-convergence, 1 anything else.
"""

from __future__ import annotations

import argparse
import os
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


def _exit_code_for(exc: Exception) -> int:
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
    print("schema: ok")
    problems = cfg.validate()
    if problems:
        for issue in problems:
            print(f"assumptions: FAIL - {issue}")
        return EXIT_ASSUMPTION
    print("assumptions: ok (graph structure, schedule factors for every leader, "
          "factor positivity, spectral radii, q_weight positive definiteness, "
          "stabilizability, regulation solvability)")
    return EXIT_OK


def cmd_run(args) -> int:
    try:
        cfg = _apply_overrides(sc.load_scenario(args.scenario), args)
        # an unwritable output directory fails before the run, not after it
        os.makedirs(args.out, exist_ok=True)
        result = sim.run(cfg)
        trace_path, meta_path = sc.export_run(result, args.out)
    except (PfccError, MemoryError) as exc:  # a learner window too large: exit 1
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
    """Follower weights at the initial-schedule fixed point, as
    ``simulation.follower_coefficients`` gives them."""
    known, _ = pr.propagation_fixed_point(pr.initial_influence(cfg.topology), cfg.topology)
    return sim.follower_coefficients(cfg, known, cfg.schedule.initial())


# a warm-up gain near the float range overflows the rows; the window plan
# then rejects them as not finite, without a warning
@np.errstate(over="ignore", invalid="ignore")
def probe_window(cfg: sim.ScenarioConfig, node: int,
                 sys_: mc.AugmentedSystem) -> ln.DataBuffer:
    """Synthetic excitation window for one agent's true augmented system.

    Every row is an exact transition from an independently sampled state
    under the warm-up behaviour gain plus probing noise; independent rows
    sidestep the rank collapse of period-two formation orbits, so the full
    gain/value matrices are identified.  The probe's own generator, seeded
    with the scenario seed and the node, draws the states of every row and
    then the probing inputs of every row, with standard deviation
    ``COMPARE_NOISE_STD``; the engine's ``exploration_noise`` is not drawn.
    """
    buf = ln.DataBuffer(sys_.dim, sys_.m)
    rows = buf.capacity
    rng = np.random.default_rng([cfg.seed & 0x7FFFFFFF, node])
    warm = np.zeros((sys_.m, sys_.dim))
    warm[:, : cfg.state_dim] = np.atleast_2d(
        cfg.warmup_gains.get(node, np.zeros((sys_.m, cfg.state_dim))))
    # one draw of the whole stack is the same stream as one draw per row, and
    # a stacked matmul over (rows, dim, 1) columns gives each row's
    # matrix-vector product bit for bit (``x @ M.T`` does not)
    x = rng.normal(size=(rows, sys_.dim))
    u = (np.matmul(warm, x[:, :, None])[:, :, 0]
         + COMPARE_NOISE_STD * rng.standard_normal((rows, sys_.m)))
    x_next = (np.matmul(sys_.A_bar, x[:, :, None])[:, :, 0]
              + np.matmul(sys_.B_bar, u[:, :, None])[:, :, 0])
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
    ctrl = ln.iterate(buf, mc.stage_cost(cfg.q_weights[node], sys_.C))
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
    except (PfccError, MemoryError) as exc:  # a learner window too large: exit 1
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code_for(exc)
    print(f"{'agent':<8}{'iters':>6}{'|K-K*|/|K*|':>16}{'|P-P*|/|P*|':>16}")
    for rep in reports:
        print(f"{rep['agent']:<8}{rep['iterations']:>6}"
              f"{rep['k_gap']:>16.3e}{rep['p_gap']:>16.3e}")
    for name, exc in failures:
        print(f"{name:<8}  FAILED: {exc}")
    # the most severe failure decides: 5 if any agent failed to converge,
    # else 4 when every failure is a window without enough excitation
    return max((_exit_code_for(exc) for _, exc in failures), default=EXIT_OK)


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
