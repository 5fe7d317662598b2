import dataclasses
import warnings

import numpy as np
import pytest

from conftest import (SWAP, containment_error, formation_error, observer_of,
                      reference_alphas, reference_augmented_state, reference_noise,
                      reference_trace_row)
from pfcc import learning as ln
from pfcc import model_control as mc
from pfcc import observers as ob
from pfcc import scenario as sc
from pfcc import simulation as sim
from pfcc.errors import ConvergenceError, PersistentExcitationError, SimulationAbort
from pfcc.topology import DirectedTopology


def column(trace, name):
    """The trace column headed ``name``."""
    return trace.rows()[:, trace.header().index(name)]


def tiny_config(mode=sim.MODE_DATA, horizon=40, h0=(1.0,), noise=0.1,
                learn_start=1000, s_value=0.5, max_iterations=2000):
    """One leader pinned by the tracking node driving one follower; scalar
    states keep it fast."""
    topo = DirectedTopology(1, 1, np.zeros((1, 1)), np.zeros((1, 1)),
                            np.array([[1.0]]), np.array([1.0]))
    obs_cfg = ob.ObserverConfig(xi=4.0, coupling=8.0, consensus_gain=0.5,
                                gain_matrix=[[1.0]], init_scale=0.05)
    return sim.ScenarioConfig(
        name="tiny",
        topology=topo,
        follower_dynamics=[mc.AgentDynamics([[0.4]], [[1.0]])],
        leader_dynamics=[mc.AgentDynamics([[0.3]], [[1.0]])],
        formation=[mc.FormationDynamics([[s_value]], list(h0))],
        tracking_a=[[0.5]],
        tracking_x0=[0.0],
        schedule=sim.PropensitySchedule(entries=((0, {2: 0.1}),)),
        q_weights={1: np.eye(1), 2: np.eye(1)},
        leader_tracking_observer=obs_cfg,
        follower_tracking_observer=obs_cfg,
        formation_observers={2: obs_cfg},
        learner=ln.LearnerConfig(noise_std=noise, max_iterations=max_iterations),
        warmup_gains={1: np.array([[-0.4]]), 2: np.array([[-0.3]])},
        learn_start_tick=learn_start,
        horizon=horizon,
        sample_interval=1,
        mode=mode,
        seed=3,
    )


class TestSchedule:
    def test_must_start_at_zero(self):
        with pytest.raises(ValueError, match="tick 0"):
            sim.PropensitySchedule(entries=((5, {2: 0.1}),))

    def test_strictly_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            sim.PropensitySchedule(entries=((0, {2: 0.1}), (0, {2: 0.2})))

    def test_positive_factors(self):
        with pytest.raises(ValueError, match="positive"):
            sim.PropensitySchedule(entries=((0, {2: -0.1}),))

    def test_nan_factor_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            sim.PropensitySchedule(entries=((0, {2: 0.1, 3: float("nan")}),))


class TestErrorMetrics:
    def test_formation_error_literal_formula(self):
        x, h, x_o = np.array([3.0, 1.0]), np.array([1.0, 1.0]), np.array([0.5, 0.0])
        np.testing.assert_allclose(formation_error(x, h, x_o), [1.5, 0.0])
        np.testing.assert_allclose(formation_error(h + x_o, h, x_o), [0.0, 0.0])

    def test_containment_error_at_combination_is_zero(self):
        h_all = {5: np.array([2.0, 0.0]), 7: np.array([0.0, -2.0])}
        x_o = np.array([0.0, 0.0])
        alphas = {5: 0.5, 7: 0.5}
        x = 0.5 * (h_all[5] + x_o) + 0.5 * (h_all[7] + x_o)
        np.testing.assert_allclose(
            containment_error(x, h_all, x_o, alphas), np.zeros(2), atol=1e-15)

    def test_containment_error_midpoint_value(self):
        # equal weighting over two leaders puts the target at their midpoint
        h_all = {5: np.array([2.0, 0.0]), 7: np.array([0.0, -2.0])}
        e = containment_error(np.zeros(2), h_all, np.zeros(2), {5: 0.5, 7: 0.5})
        np.testing.assert_allclose(e, [-1.0, 1.0])

    def test_center_of_six_leaders(self, hexagon_config):
        h_all = {1 + 4 + k: f.h0 for k, f in enumerate(hexagon_config.formation)}
        alphas = {q: 1.0 / 6.0 for q in h_all}
        e = containment_error(np.zeros(2), h_all, np.zeros(2), alphas)
        np.testing.assert_allclose(e, np.zeros(2), atol=1e-15)


class TestWorldStepping:
    def test_quiescent_world_stays_at_origin(self):
        cfg = tiny_config(noise=0.0, h0=(0.0,), horizon=30)
        res = sim.run(cfg)
        assert res.completed
        assert np.linalg.norm(res.state.x[0]) == 0
        assert np.linalg.norm(res.state.x[1]) == 0
        assert np.linalg.norm(res.state.targets[0]) == 0

    def test_tracking_state_fixed_at_origin(self, hexagon_config):
        cfg = hexagon_config
        cfg.horizon = 8
        res = sim.run(cfg)
        np.testing.assert_array_equal(res.state.targets[0], np.zeros(2))

    def test_formation_state_alternates_with_period_two(self, hexagon_config):
        cfg = hexagon_config
        cfg.horizon = 5
        res = sim.run(cfg)
        # h(5) = S^5 h0 = S h0 for the involutive shape dynamics
        np.testing.assert_allclose(res.state.targets[1], SWAP @ cfg.formation[0].h0)
        cfg2 = sc.load_bundled("hexagon")
        cfg2.horizon = 6
        res2 = sim.run(cfg2)
        np.testing.assert_allclose(res2.state.targets[1], cfg.formation[0].h0)

    def test_horizon_zero_gives_empty_trace(self):
        cfg = tiny_config(horizon=0)
        res = sim.run(cfg)
        assert len(res.trace) == 0
        assert res.trace.rows().shape == (0, len(res.trace.header()))
        assert res.summary["final_observer_errors"] == {}
        assert sc.trace_to_csv(res.trace).count("\n") == 1  # header only

    def test_trace_is_sampled_at_interval(self):
        cfg = tiny_config(horizon=20)
        cfg.sample_interval = 7
        res = sim.run(cfg)
        assert len(res.trace) == 3
        np.testing.assert_array_equal(column(res.trace, "tick"), [0.0, 7.0, 14.0])

    def test_learner_lifecycle_on_tiny_world(self):
        cfg = tiny_config(horizon=400, learn_start=5)
        res = sim.run(cfg)
        assert res.completed
        for lr in res.state.learners.values():
            assert lr.controller.status == ln.CONVERGED
        # follower ends on its leader's (stationary-dynamics) target
        assert column(res.trace, "e_cont_F1")[-1] < 1e-6

    def test_all_zero_features_raise_excitation_error(self):
        # zero shapes, zero noise, zero states: the window is identically
        # zero and the learner reports missing excitation
        cfg = tiny_config(horizon=120, h0=(0.0,), noise=0.0, learn_start=1)
        res = sim.run(cfg)
        assert not res.completed
        assert isinstance(res.error.cause, PersistentExcitationError)
        assert len(res.trace) > 0  # partial trace retained

    def test_oracle_mode_on_tiny_world(self):
        cfg = tiny_config(mode=sim.MODE_ORACLE, horizon=300)
        res = sim.run(cfg)
        assert res.completed
        assert column(res.trace, "e_cont_F1")[-1] < 1e-8
        assert column(res.trace, "e_form_L1")[-1] < 1e-8


def early_switch(cfg, tick):
    """``cfg`` with its second schedule entry moved to ``tick``."""
    (_, first), (_, second) = cfg.schedule.entries
    return dataclasses.replace(cfg, schedule=sim.PropensitySchedule(
        entries=((0, first), (tick, second))))


class TestTraceTable:
    @pytest.mark.parametrize("scenario, mode, states", [
        ("hexagon", sim.MODE_DATA, False),
        ("hexagon", sim.MODE_ORACLE, True),
        ("hexagon_static", sim.MODE_BASELINE, True),
    ])
    def test_every_row_equals_per_vector_reference(self, monkeypatch, scenario,
                                                   mode, states):
        # propagation changes in the first ticks, a propensity switch at 60
        cfg = dataclasses.replace(early_switch(sc.load_bundled(scenario), 60),
                                  mode=mode, horizon=150, sample_interval=1,
                                  record_states=states)
        expected = []
        sample = sim._sample_trace

        def checked(state, cfg, *args):
            expected.append(reference_trace_row(state, cfg))
            sample(state, cfg, *args)
        monkeypatch.setattr(sim, "_sample_trace", checked)
        res = sim.run(cfg)
        assert res.completed and len(res.trace) == len(expected) == 150
        assert res.trace.rows().tolist() == expected  # bit for bit

    def test_stepping_past_horizon_grows_the_table(self):
        cfg = tiny_config(horizon=4)
        state = sim.init_world(cfg)
        for _ in range(4):
            sim.step_world(state, cfg)
        first = state.trace.rows().copy()
        for _ in range(26):
            sim.step_world(state, cfg)
        assert len(state.trace) == 30
        np.testing.assert_array_equal(column(state.trace, "tick"), np.arange(30.0))
        np.testing.assert_array_equal(state.trace.rows()[:4], first)

    def test_unreachable_horizon_allocates_a_bounded_table(self):
        cfg = tiny_config(horizon=10**15)
        state = sim.init_world(cfg)
        assert len(state.trace.table) == sim.TRACE_PREALLOCATED_ROWS
        for _ in range(3):
            sim.step_world(state, cfg)
        assert len(state.trace) == 3

    def test_column_matches_rows(self):
        cfg = tiny_config(horizon=25)
        cfg.record_states = True
        trace = sim.run(cfg).trace
        # every header name is unique, so it names one column of the table
        for j, name in enumerate(trace.header()):
            np.testing.assert_array_equal(column(trace, name), trace.rows()[:, j])


class TestControlPlans:
    @pytest.mark.parametrize("scenario, mode", [
        ("hexagon", sim.MODE_DATA),
        ("hexagon", sim.MODE_ORACLE),
        ("hexagon_static", sim.MODE_BASELINE),
    ])
    def test_gather_equals_concatenation(self, monkeypatch, scenario, mode):
        # propagation changes in the first ticks, a propensity switch at 60;
        # a moving tracking state tells the agents' tracking estimates apart
        cfg = dataclasses.replace(early_switch(sc.load_bundled(scenario), 60),
                                  mode=mode, horizon=150, sample_interval=1,
                                  tracking_x0=np.array([1.0, -0.5]))

        def check_gathers(state):
            for node, plan in state.plans.items():
                assert plan.alphas == reference_alphas(state, cfg, node)
                assert plan.layout == tuple(sorted(plan.alphas))
                assert plan.gather is not None
                np.testing.assert_array_equal(  # bit for bit
                    state.world[plan.gather],
                    reference_augmented_state(state, cfg, node, plan.layout))

        seen = []
        sample = sim._sample_trace

        def checked(state, cfg, *args):
            # the tick's knowledge is final here: controls gather from this
            check_gathers(state)
            seen.append((state.knowledge, state.plans, state.weights))
            sample(state, cfg, *args)
        monkeypatch.setattr(sim, "_sample_trace", checked)
        state = sim.init_world(cfg)
        for _ in range(cfg.horizon):
            sim.step_world(state, cfg)
            check_gathers(state)  # the next states the learners record
        assert len(seen) == cfg.horizon
        rebuilds = 0
        for (know_a, plans_a, weights_a), (know_b, plans_b, weights_b) in zip(seen, seen[1:]):
            if know_b is know_a:
                assert plans_b is plans_a and weights_b is weights_a
            else:
                assert plans_b is not plans_a and weights_b is not weights_a
                rebuilds += 1
        assert 0 < rebuilds < 20  # propagation to its fixed point, the switch

    def test_plant_advance_equals_per_agent_form(self, hexagon_config):
        # input widths 1 to 3 share one zero-padded matmul
        cfg = dataclasses.replace(hexagon_config, mode=sim.MODE_ORACLE)
        state = sim.init_world(cfg)
        while state.propagation_stable_for < 10:  # past the fixed point
            sim.step_world(state, cfg)
        for _ in range(40):
            x, world = state.x, state.world
            sim.step_world(state, cfg)
            for node, dyn in enumerate(cfg.follower_dynamics + cfg.leader_dynamics, 1):
                u = state.oracle_gains[node].K @ world[state.plans[node].gather]
                assert (state.x[node - 1] == dyn.A @ x[node - 1] + dyn.B @ u).all()


class TestObserverDivergence:
    def test_diverging_observers_abort_cleanly(self):
        # consensus gain 20 makes every formation network unstable; the run
        # ends in an observer abort, with no raw numpy error or warning
        cfg = sc.load_bundled("hexagon")
        cfg.horizon = 400
        cfg.formation_observers = {
            q: dataclasses.replace(o, consensus_gain=20.0)
            for q, o in cfg.formation_observers.items()}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = sim.run(cfg)
        assert not res.completed
        assert isinstance(res.error, SimulationAbort)
        assert res.error.agent == "observers"
        assert isinstance(res.error.cause, ConvergenceError)
        assert "diverged" in str(res.error)
        assert 0 < res.error.tick < cfg.horizon
        assert len(res.trace) > 0  # the partial trace is kept


class TestPlantGuard:
    @pytest.mark.parametrize("follower, leader, group", [
        (1e10, 0.0, "followers"),
        (0.0, np.nan, "leaders"),
        (1e10, np.nan, "followers"),  # followers are checked first
    ])
    def test_diverged_plant_names_its_group(self, follower, leader, group):
        cfg = tiny_config(horizon=5)
        cfg.warmup_gains = {1: np.zeros((1, 1)), 2: np.zeros((1, 1))}
        state = sim.init_world(cfg)
        state.x[0] = follower
        state.x[1] = leader
        with pytest.raises(SimulationAbort) as info:
            sim.step_world(state, cfg)
        assert (info.value.tick, info.value.agent) == (0, group)
        assert isinstance(info.value.cause, ConvergenceError)
        assert "plant state diverged" in str(info.value)


class TestConfigChecks:
    @pytest.mark.parametrize("name, value, message", [
        ("sample_interval", 0, "sample interval"),
        ("horizon", -1, "horizon"),
        ("mode", "model_free", "mode"),
    ])
    def test_field_set_after_construction_fails_before_tick_0(self, name, value,
                                                              message):
        cfg = tiny_config()
        setattr(cfg, name, value)
        with pytest.raises(ValueError, match=message):
            sim.run(cfg)


class TestDeterminism:
    def test_identical_runs_bit_identical(self):
        cfg_a = sc.load_bundled("hexagon")
        cfg_b = sc.load_bundled("hexagon")
        for c in (cfg_a, cfg_b):
            c.horizon = 420
            c.sample_interval = 20
        csv_a = sc.trace_to_csv(sim.run(cfg_a).trace)
        csv_b = sc.trace_to_csv(sim.run(cfg_b).trace)
        assert csv_a == csv_b

    def test_seed_changes_trace(self):
        cfg_a = sc.load_bundled("hexagon")
        cfg_b = sc.load_bundled("hexagon")
        for c in (cfg_a, cfg_b):
            c.horizon = 420
            c.sample_interval = 20
        cfg_b.seed = cfg_a.seed + 1
        assert (sc.trace_to_csv(sim.run(cfg_a).trace)
                != sc.trace_to_csv(sim.run(cfg_b).trace))

    def test_propensity_scaling_invariance_short(self):
        cfg_a = sc.load_bundled("hexagon")
        cfg_b = sc.load_bundled("hexagon")
        for c in (cfg_a, cfg_b):
            c.horizon = 420
            c.sample_interval = 20
        cfg_b.schedule = sim.PropensitySchedule(entries=tuple(
            (t, {q: 7.0 * v for q, v in factors.items()})
            for t, factors in cfg_b.schedule.entries))
        assert (sc.trace_to_csv(sim.run(cfg_a).trace)
                == sc.trace_to_csv(sim.run(cfg_b).trace))


class TestProbingNoise:
    def test_block_boundary_ticks_match_the_per_call_form(self):
        cfg = ln.LearnerConfig(rng_seed=777, noise_std=0.4)
        lr = sim.AgentLearner(node=1, cfg=cfg, layout=(1,),
                              controller=ln.LearnedController.create(6, 2),
                              buffer=ln.DataBuffer(6, 2, 30), warmup=np.zeros((2, 2)))
        block = sim.NOISE_BLOCK_TICKS
        last = 2**32 - 1
        # forward across boundaries, back into an earlier block, and the
        # last block below the tick limit
        ticks = [0, 1, block - 1, block, block + 1, 2 * block - 1, 2 * block,
                 block - 1, 5 * block, 5 * block - 1, last - block, last - block + 1,
                 last]
        for tick in ticks:
            noise = sim._probing_noise(lr, tick)
            assert noise.tobytes() == reference_noise(cfg, 2, tick).tobytes(), tick


class TestLargeCostScale:
    def test_huge_state_weight_learns_the_bundled_gain_without_overflow(self):
        # q_weight 1e300 I puts F1's value matrices near 1e300, where the
        # squared norms of the window's consistency check overflow; the
        # gain is invariant to the cost scale, up to the learner's
        # convergence threshold (the start P = I weighs nothing against the
        # scaled cost, so the iteration takes another path to the same gain)
        gains = []
        for scale in (1.0, 1e300):
            cfg = sc.load_bundled("hexagon")
            node = cfg.topology.follower_nodes[cfg.follower_names.index("F1")]
            q_weights = dict(cfg.q_weights)
            q_weights[node] = scale * q_weights[node]
            cfg = dataclasses.replace(cfg, q_weights=q_weights, horizon=1800)
            cfg.require_valid()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                result = sim.run(cfg)
            learner = result.state.learners[node]
            assert result.completed and learner.controller.status == ln.CONVERGED
            gains.append(learner.controller.K_hat)
        bundled, scaled = gains
        assert np.linalg.norm(scaled - bundled) <= 1e-6 * np.linalg.norm(bundled)


class TestObserverPlantDecoupling:
    def test_observer_traces_ignore_follower_dynamics(self):
        # swapping a follower's plant changes controls and states but not a
        # single observer estimate
        cfg_a = sc.load_bundled("hexagon")
        cfg_b = sc.load_bundled("hexagon")
        for c in (cfg_a, cfg_b):
            c.horizon = 320
            c.sample_interval = 20
        cfg_b.follower_dynamics[0] = mc.AgentDynamics([[0.0, 1.0], [0.5, 2.0]],
                                                      [[0.0], [2.0]])
        cfg_b.warmup_gains[1] = np.array([[-0.25, -1.0]])
        res_a, res_b = sim.run(cfg_a), sim.run(cfg_b)
        assert res_a.completed and res_b.completed
        for node in cfg_a.topology.follower_nodes + cfg_a.topology.leader_nodes:
            np.testing.assert_array_equal(observer_of(res_a.state, node, 0).x_hat,
                                          observer_of(res_b.state, node, 0).x_hat)
            for q in res_a.state.knowledge[node].influential - {node}:
                np.testing.assert_array_equal(
                    observer_of(res_a.state, node, q).x_hat,
                    observer_of(res_b.state, node, q).x_hat)
        # but the follower plant state itself differs
        assert not np.allclose(res_a.state.x[0],
                               res_b.state.x[0])


class TestBaselineMode:
    def test_laplacian_weights_differ_from_propensity_weights(self):
        # under non-uniform factors the classical weights ignore the change
        cfg = sc.load_bundled("hexagon_static")
        w = sim._baseline_weights(cfg.topology)
        f3 = 3
        assert w[f3] == {7: pytest.approx(1.0)}  # pure L3 tracking

    def test_terminal_positions_differ(self):
        base = sc.load_bundled("hexagon_static")
        pfcc_cfg = sc.load_bundled("hexagon_static")
        for c in (base, pfcc_cfg):
            c.horizon = 1600
            c.sample_interval = 100
            c.record_states = True
            c.learn_start_tick = 300
        base.mode = sim.MODE_BASELINE
        res_base = sim.run(base)
        res_pfcc = sim.run(pfcc_cfg)
        assert res_base.completed and res_pfcc.completed
        x_base = res_base.state.x[2]
        x_pfcc = res_pfcc.state.x[2]
        np.testing.assert_allclose(x_base, [0.0, -2.0], atol=1e-3)  # tracks L3
        np.testing.assert_allclose(x_pfcc, [1.0, -1.0], atol=1e-3)  # midpoint
        assert np.linalg.norm(x_base - x_pfcc) > 1.0

    def test_baseline_errors_decay_too(self):
        cfg = sc.load_bundled("hexagon_static")
        cfg.horizon = 1600
        cfg.sample_interval = 100
        cfg.learn_start_tick = 300
        cfg.mode = sim.MODE_BASELINE
        res = sim.run(cfg)
        last = dict(zip(res.trace.header(), res.trace.rows()[-1]))
        assert max(v for k, v in last.items() if k.startswith("e_cont_")) < 1e-3
        assert max(v for k, v in last.items() if k.startswith("e_form_")) < 1e-3


class TestSummary:
    def test_summary_fields(self):
        cfg = tiny_config(horizon=30)
        res = sim.run(cfg)
        assert res.summary["mode"] == sim.MODE_DATA
        assert "propagation_change_ticks" in res.summary
        assert set(res.summary["learners"]) == {"F1", "L1"}
