"""Acceptance suite: one test per release criterion, each printing a
PASS line with its headline numbers.

The two full-horizon runs (oscillating and station-keeping shapes) are
shared across criteria through module-scoped fixtures; their wall time is
recorded for the runtime checks.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from conftest import SWAP, observer_of, relay_line_topology
from pfcc import cli
from pfcc import matops as mo
from pfcc import model_control as mc
from pfcc import observers as ob
from pfcc import propagation as pr
from pfcc import scenario as sc
from pfcc import simulation as sim


def _timed_run(cfg):
    start = time.perf_counter()
    result = sim.run(cfg)
    elapsed = time.perf_counter() - start
    assert result.completed, f"run aborted: {result.error}"
    return result, elapsed


def _columns(trace, prefix):
    hdr = trace.header()
    return [i for i, h in enumerate(hdr) if h.startswith(prefix)]


@pytest.fixture(scope="module")
def hexagon_run():
    cfg = sc.load_bundled("hexagon")
    cfg.sample_interval = 10
    result, elapsed = _timed_run(cfg)
    return cfg, result, elapsed


@pytest.fixture(scope="module")
def static_run():
    cfg = sc.load_bundled("hexagon_static")
    cfg.sample_interval = 10
    cfg.record_states = True
    result, elapsed = _timed_run(cfg)
    return cfg, result, elapsed


def test_criterion_1_propagation(hexagon_config):
    start = time.perf_counter()
    topo = hexagon_config.topology
    know, used = pr.propagation_fixed_point(
        pr.init_knowledge(topo, hexagon_config.schedule.initial()), topo)
    assert used <= 9
    assert know[1].influential == {5, 6}
    assert know[2].influential == {5, 6, 7, 8}
    assert know[3].influential == {5, 7}
    assert know[4].influential == {5, 6, 7, 8, 9, 10}

    line = relay_line_topology()
    know_line, _ = pr.propagation_fixed_point(
        pr.init_knowledge(line, {q: 0.1 for q in line.leader_nodes}), line)
    relays = pr.itfl_sets(know_line, line)
    assert relays[4] == {5, 6}
    assert relays[5] == {6}
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\n[PASS] criterion 1: influence sets exact, {used} propagation "
          f"steps, relay sets exact ({elapsed:.3f}s)")


def test_criterion_2_operator_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(20240810)
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        x = rng.normal(size=n)
        p = rng.normal(size=(n, n))
        p = 0.5 * (p + p.T)
        assert abs(mo.vecv(x) @ mo.vecm(p) - x @ p @ x) < 1e-12 * max(
            1.0, abs(x @ p @ x))
    for _ in range(1000):
        b = rng.normal(size=(int(rng.integers(1, 5)), int(rng.integers(1, 5))))
        bp = mo.pinv(b)
        assert np.linalg.norm(b @ bp @ b - b) < 1e-10
        assert np.linalg.norm(bp @ b @ bp - bp) < 1e-10
        assert np.linalg.norm((b @ bp) - (b @ bp).T) < 1e-10
        assert np.linalg.norm((bp @ b) - (bp @ b).T) < 1e-10
    for _ in range(1000):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        a = rng.normal(size=(n, n))
        b = rng.normal(size=(n, m))
        s = a + b @ rng.normal(size=(m, n))
        u = mo.pinv(b) @ (s - a)
        assert np.linalg.norm(mo.pinv(b) @ b @ u - u) < 1e-10
    checks = 0
    while checks < 1000:
        n = int(rng.integers(1, 4))
        l_mat = float(rng.choice([1.0, 100.0])) * np.eye(n)
        xi = float(rng.uniform(1.0, 6.0))
        for _ in range(10):
            x_bar = ob.regressor(rng.normal(size=n))
            l_mat = ob.rls_update_L(l_mat, x_bar)
            gram = x_bar.T @ x_bar
            diff = np.linalg.inv(l_mat) - gram
            assert np.min(np.linalg.eigvalsh(0.5 * (diff + diff.T))) > -1e-9
            prod = gram @ np.linalg.inv(np.linalg.inv(l_mat) + xi * np.eye(n))
            sig2 = np.linalg.norm(x_bar, 2) ** 2
            assert np.max(np.abs(np.linalg.eigvals(prod))) < sig2 / (xi + sig2) + 1e-12
            checks += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"\n[PASS] criterion 2: 4x1000 operator identities ({elapsed:.1f}s)")


def test_criterion_3_gain_identities(hexagon_config):
    start = time.perf_counter()
    cfg = hexagon_config
    topo = cfg.topology
    coeffs = cli.effective_coefficients(cfg)
    worst = 0.0
    for node in topo.follower_nodes + topo.leader_nodes:
        dyn = cfg.dynamics_of(node)
        u_o = mc.min_norm_regulation_solution(dyn.A, dyn.B, cfg.tracking_a)
        if topo.is_leader(node):
            gains = sim.synthesize_oracle_gains(cfg, node, (node,), {})
            u_h = mc.min_norm_regulation_solution(
                dyn.A, dyn.B, cfg.formation[topo.leader_index(node)].S)
            report = mc.verify_gain_identities(dyn, gains, u_h, u_o)
        else:
            alphas = coeffs[node]
            layout = tuple(sorted(alphas))
            gains = sim.synthesize_oracle_gains(cfg, node, layout, alphas)
            u_h = {q: mc.min_norm_regulation_solution(
                dyn.A, dyn.B, cfg.formation[topo.leader_index(q)].S)
                for q in layout}
            report = mc.verify_gain_identities(dyn, gains, u_h, u_o, alphas)
        assert report.max_residual < 1e-6, cfg.agent_name(node)
        assert report.closed_loop_radius < 1.0
        worst = max(worst, report.max_residual)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"\n[PASS] criterion 3: regulation identities for all 10 agents, "
          f"worst residual {worst:.2e} ({elapsed:.1f}s)")


def test_criterion_4_learner_matches_oracle(hexagon_config):
    start = time.perf_counter()
    cfg = hexagon_config
    coeffs = cli.effective_coefficients(cfg)
    worst_k = worst_p = 0.0
    for node in cfg.topology.follower_nodes + cfg.topology.leader_nodes:
        rep = cli.compare_agent_gains(
            cfg, node, coeffs.get(node) if cfg.topology.is_follower(node) else None)
        assert rep["k_gap"] < 1e-3, rep
        assert rep["p_gap"] < 1e-3, rep
        worst_k = max(worst_k, rep["k_gap"])
        worst_p = max(worst_p, rep["p_gap"])
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"\n[PASS] criterion 4: learned gains match the model solution for "
          f"all 10 agents, worst |K| gap {worst_k:.2e}, |P| gap {worst_p:.2e} "
          f"({elapsed:.1f}s)")


def test_criterion_5_observer_convergence(hexagon_run):
    cfg, result, elapsed = hexagon_run
    rows = np.array(result.trace.rows())
    ticks = rows[:, 0]
    obs_cols = _columns(result.trace, "obs_")
    before_switch = rows[ticks == 3990][0]
    at_end = rows[ticks == 7990][0]
    first = max(before_switch[i] for i in obs_cols)
    second = max(at_end[i] for i in obs_cols)
    assert first < 1e-6
    assert second < 1e-6
    # relayed model estimates: the two followers reached only through
    # transit leaders identify the first leader's shape dynamics
    for node in (3, 4):
        a_hat = observer_of(result.state, node, 5).A_hat
        assert np.max(np.abs(a_hat - SWAP)) < 1e-6
    assert elapsed < 60.0
    print(f"\n[PASS] criterion 5: observer errors {first:.1e} / {second:.1e} "
          f"at the window ends; relayed shape models within "
          f"{max(np.max(np.abs(observer_of(result.state, n, 5).A_hat - SWAP)) for n in (3, 4)):.1e} "
          f"({elapsed:.0f}s)")


def test_criterion_6_station_keeping_limits(static_run):
    cfg, result, elapsed = static_run
    rows = np.array(result.trace.rows())
    hdr = result.trace.header()
    cols = {h: i for i, h in enumerate(hdr)}
    ticks = rows[:, 0]

    def position(name, tick):
        row = rows[ticks == tick][0]
        return np.array([row[cols[f"x_{name}_0"]], row[cols[f"x_{name}_1"]]])

    targets_before = {
        "F3": np.array([1.0, -1.0]),
        "F4": np.array([0.0, 0.0]),
    }
    gaps = {}
    for name, target in targets_before.items():
        gaps[name] = float(np.max(np.abs(position(name, 3990) - target)))
        assert gaps[name] < 1e-4, (name, position(name, 3990), target)
    f1_target = np.array([5.0 / 3.0, 1.0 / 3.0])
    gaps["F1"] = float(np.max(np.abs(position("F1", 7990) - f1_target)))
    assert gaps["F1"] < 1e-4
    assert elapsed < 60.0
    print(f"\n[PASS] criterion 6: station-keeping limits within "
          f"{max(gaps.values()):.1e} of the weighted combinations ({elapsed:.0f}s)")


def test_criterion_7_error_decay(hexagon_run):
    cfg, result, elapsed = hexagon_run
    rows = np.array(result.trace.rows())
    ticks = rows[:, 0]
    err_cols = _columns(result.trace, "e_")
    worst = 0.0
    for boundary in (4000, 8000):
        window = np.where(ticks < boundary)[0][-200:]
        assert len(window) == 200
        worst = max(worst, float(rows[np.ix_(window, err_cols)].max()))
    assert worst < 1e-4
    assert elapsed < 60.0
    print(f"\n[PASS] criterion 7: formation/containment error tails below "
          f"{worst:.1e} ({elapsed:.0f}s)")


def test_criterion_8_propensity_scaling_invariance(hexagon_run):
    cfg_base, result_base, _ = hexagon_run
    cfg = sc.load_bundled("hexagon")
    cfg.sample_interval = 10
    cfg.schedule = sim.PropensitySchedule(entries=tuple(
        (t, {q: 7.0 * v for q, v in factors.items()})
        for t, factors in cfg.schedule.entries))
    result, elapsed = _timed_run(cfg)
    assert elapsed < 60.0
    assert sc.trace_to_csv(result.trace) == sc.trace_to_csv(result_base.trace)
    print(f"\n[PASS] criterion 8: scaling every propensity factor by 7 "
          f"reproduces the trace byte for byte ({elapsed:.0f}s)")


def test_criterion_9_determinism(hexagon_run, tmp_path):
    cfg_base, result_base, elapsed_base = hexagon_run
    cfg = sc.load_bundled("hexagon")
    cfg.sample_interval = 10
    result, elapsed = _timed_run(cfg)
    assert elapsed_base + elapsed < 120.0
    a_trace, a_meta = sc.export_run(result_base, tmp_path / "a")
    b_trace, b_meta = sc.export_run(result, tmp_path / "b")
    assert Path(a_trace).read_bytes() == Path(b_trace).read_bytes()
    assert Path(a_meta).read_bytes() == Path(b_meta).read_bytes()
    print(f"\n[PASS] criterion 9: repeated runs byte-identical "
          f"({elapsed_base:.0f}s + {elapsed:.0f}s)")
