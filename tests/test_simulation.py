import dataclasses
import json
import re
import sys
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from conftest import (SWAP, block_topology, containment_error, drawn_plants,
                      drawn_topology_config, estimate_of, formation_error, hop_distances,
                      known_leaders, reference_alphas,
                      reference_augmented_state, reference_noise, reference_trace_row,
                      regulation_problems, transitive_closure)
from pfcc import cli
from pfcc import learning as ln
from pfcc import matops as mo
from pfcc import model_control as mc
from pfcc import observers as ob
from pfcc import propagation as pr
from pfcc import scenario as sc
from pfcc import simulation as sim
from pfcc.errors import (AssumptionError, ConvergenceError, PersistentExcitationError,
                         SimulationAbort)


def column(trace, name):
    """The trace column headed ``name``."""
    return trace.rows()[:, trace.header().index(name)]


def tiny_config(mode=sim.MODE_DATA, horizon=40, h0=(1.0,), learn_start=1000, s_value=0.5):
    """One leader pinned by the tracking node driving one follower; scalar
    states keep it fast."""
    topo = block_topology(1, 1, np.zeros((1, 1)), np.zeros((1, 1)),
                          np.array([[1.0]]), np.array([1.0]))
    obs_cfg = ob.ObserverConfig(coupling=8.0, consensus_gain=0.5, gain_matrix=[[1.0]])
    return sim.ScenarioConfig(
        name="tiny",
        topology=topo,
        dynamics=[mc.AgentDynamics([[0.4]], [[1.0]]), mc.AgentDynamics([[0.3]], [[1.0]])],
        formation=[mc.FormationDynamics([[s_value]], list(h0))],
        tracking_a=[[0.5]],
        tracking_x0=[0.0],
        schedule=sim.PropensitySchedule(entries=((0, {2: 0.1}),)),
        q_weights={1: np.eye(1), 2: np.eye(1)},
        xi=4.0,
        init_scale=0.05,
        leader_tracking_observer=obs_cfg,
        follower_tracking_observer=obs_cfg,
        formation_observers={2: obs_cfg},
        warmup_gains={1: np.array([[-0.4]]), 2: np.array([[-0.3]])},
        learn_start_tick=learn_start,
        horizon=horizon,
        sample_interval=1,
        mode=mode,
        seed=3,
        x0=[np.zeros(1), np.zeros(1)],
        names=["F1", "L1"],
    )


class TestSchedule:
    @pytest.mark.parametrize("factor", [-0.1, 0.0])
    def test_positive_factors(self, factor):
        cfg = dataclasses.replace(tiny_config(), schedule=sim.PropensitySchedule(
            entries=((0, {2: 0.1}), (5, {2: factor}))))
        message = f"propensity factor for L1 must be positive, got {factor}"
        assert cfg.validate() == [message]
        with pytest.raises(AssumptionError, match=re.escape(message)):
            sim.init_world(cfg)

    def test_nan_factor_rejected(self, hexagon_config):
        # a NaN is not a factor validate judges: check_fields rejects it
        factors = {**hexagon_config.schedule.initial(), 7: float("nan")}
        with pytest.raises(ValueError, match="^schedule: factor for L3 must be finite$"):
            dataclasses.replace(hexagon_config, schedule=sim.PropensitySchedule(((0, factors),)))


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
    def test_quiescent_world_stays_at_origin(self, monkeypatch):
        monkeypatch.setattr(ln, "NOISE_STD", 0.0)
        cfg = tiny_config(h0=(0.0,), horizon=30)
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

    def test_all_zero_features_raise_excitation_error(self, monkeypatch):
        # zero shapes, zero noise, zero states: the window is identically
        # zero and the learner reports missing excitation
        monkeypatch.setattr(ln, "NOISE_STD", 0.0)
        cfg = tiny_config(horizon=120, h0=(0.0,), learn_start=1)
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
    @pytest.mark.parametrize("scenario, mode, states, horizon, switch, interval", [
        ("hexagon", sim.MODE_DATA, False, 150, 60, 1),
        ("hexagon", sim.MODE_ORACLE, True, 150, 60, 1),
        ("hexagon_static", sim.MODE_BASELINE, True, 150, 60, 1),
        # two full blocks, the switch inside the second, a partial block
        ("hexagon", sim.MODE_DATA, False, 700, 300, 1),
        ("hexagon_static", sim.MODE_ORACLE, True, 700, 300, 1),
        # the first block spans ticks 0-765, rebuilds and switch included
        ("hexagon_static", sim.MODE_ORACLE, True, 1000, 300, 3),
    ])
    def test_every_row_equals_per_vector_reference(self, monkeypatch, scenario, mode,
                                                   states, horizon, switch, interval):
        # propagation changes in the first ticks, then a propensity switch
        cfg = dataclasses.replace(early_switch(sc.load_bundled(scenario), switch),
                                  mode=mode, horizon=horizon, sample_interval=interval,
                                  record_states=states)
        expected = []
        sample = sim._sample_trace

        def checked(state, cfg, *args):
            expected.append(reference_trace_row(state, cfg))
            sample(state, cfg, *args)
        monkeypatch.setattr(sim, "_sample_trace", checked)
        res = sim.run(cfg)
        assert res.completed and len(res.trace) == len(expected) == -(-horizon // interval)
        assert res.trace.rows().tolist() == expected  # bit for bit

    def test_reads_between_ticks_keep_later_samples_in_order(self):
        cfg = dataclasses.replace(sc.load_bundled("hexagon"), horizon=1000, sample_interval=1)
        read, unread = sim.init_world(cfg), sim.init_world(cfg)
        for k in range(cfg.horizon):
            sim.step_world(read, cfg)
            sim.step_world(unread, cfg)
            if k in (0, 100, 255, 256, 600):  # mid-block, at a block's end, after it
                assert len(read.trace) == k + 1
                assert read.trace.rows()[-1, 0] == k
            assert len(unread.trace.pending) < sim.TRACE_BLOCK_SAMPLES
        assert len(unread.trace.pending) == cfg.horizon % sim.TRACE_BLOCK_SAMPLES
        assert read.trace.rows().tobytes() == unread.trace.rows().tobytes()
        np.testing.assert_array_equal(column(read.trace, "tick"), np.arange(1000.0))

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
            seen.append((state.known, state.factors, state.plans, state.weights))
            sample(state, cfg, *args)
        monkeypatch.setattr(sim, "_sample_trace", checked)
        state = sim.init_world(cfg)
        seen.append((state.known, state.factors, state.plans, state.weights))
        for _ in range(cfg.horizon):
            sim.step_world(state, cfg)
            check_gathers(state)  # the next states the learners record
        assert len(seen) == 1 + cfg.horizon
        rebuilds = 0
        for (known_a, factors_a, plans_a, weights_a), after in zip(seen, seen[1:]):
            known_b, factors_b, plans_b, weights_b = after
            if known_b is known_a and factors_b is factors_a:
                assert plans_b is plans_a and weights_b is weights_a
            else:
                assert plans_b is not plans_a and weights_b is not weights_a
                rebuilds += 1
        # one rebuild per propagation step that grows a set, one per switch
        switches = sum(0 < t < cfg.horizon for t, _ in cfg.schedule.entries)
        assert rebuilds == state.propagation_changes + switches == 2

    def test_plant_advance_equals_per_agent_form(self, hexagon_config):
        # input widths 1 to 3 share one zero-padded matmul, and the plants'
        # A x and the next targets one stacked product; each next state
        # equals its own product bit for bit
        cfg = dataclasses.replace(hexagon_config, mode=sim.MODE_ORACLE)
        state = sim.init_world(cfg)
        while not state.propagation_settled:  # past the fixed point
            sim.step_world(state, cfg)
        for _ in range(40):
            x, targets, world = state.x, state.targets, state.world
            sim.step_world(state, cfg)
            for node, dyn in enumerate(cfg.dynamics, 1):
                u = state.oracle_gains[node] @ world[state.plans[node].gather]
                assert (state.x[node - 1] == dyn.A @ x[node - 1] + dyn.B @ u).all()
            assert state.targets[0].tobytes() == (cfg.tracking_a @ targets[0]).tobytes()
            for h_next, form, h in zip(state.targets[1:], cfg.formation, targets[1:]):
                assert h_next.tobytes() == (form.S @ h).tobytes()


def relay_tiny_config(mode=sim.MODE_ORACLE, horizon=30):
    """``tiny_config`` with the leader (node 4) reaching followers 2 and 3
    only through the relay line 1 -> 2 -> 3: propagation brings it to
    follower 3 after the control of tick 0, which runs its warm-up gain,
    and from then on every gain shares the leader's shape."""
    base = tiny_config(mode=mode, horizon=horizon)
    ff = np.zeros((3, 3))
    ff[1, 0] = ff[2, 1] = 1.0
    topo = block_topology(3, 1, ff, np.zeros((1, 1)), np.array([[1.0], [0.0], [0.0]]),
                          np.array([1.0]))
    return dataclasses.replace(
        base, topology=topo,
        dynamics=base.dynamics[:1] * 3 + base.dynamics[1:], x0=[np.zeros(1)] * 4,
        names=["F1", "F2", "F3", "L1"],
        schedule=sim.PropensitySchedule(entries=((0, {4: 0.1}),)),
        q_weights={node: np.eye(1) for node in (1, 2, 3, 4)},
        formation_observers={4: base.formation_observers[2]},
        warmup_gains={1: np.array([[-0.4]]), 2: np.array([[-0.2]]), 3: np.array([[-0.1]]),
                      4: np.array([[-0.3]])})


class TestWorldVector:
    @pytest.mark.parametrize("scenario, mode", [
        ("hexagon", sim.MODE_DATA),
        ("hexagon", sim.MODE_ORACLE),
        ("hexagon_static", sim.MODE_BASELINE),
    ])
    def test_world_is_the_concatenated_state(self, monkeypatch, scenario, mode):
        # propagation rebuilds the bank in the first ticks, a propensity
        # switch at 60; the world is committed from the stacked next states
        # and must begin with the concatenation of x and the targets, bit for
        # bit, followed by one estimate row per bank row; x, the targets and
        # the estimates are views of it, so the state is stored only once
        cfg = dataclasses.replace(early_switch(sc.load_bundled(scenario), 60),
                                  mode=mode, horizon=150)

        def check(state):
            expected = np.concatenate((state.x.ravel(), state.targets.ravel()))
            assert state.world[: expected.size].tobytes() == expected.tobytes()
            assert state.world.size == expected.size + len(state.bank.rows) * cfg.state_dim
            for part in (state.x, state.targets, estimate_of(state, *state.bank.rows[-1])):
                assert np.shares_memory(part, state.world)

        sample, sync, rebuilds = sim._sample_trace, sim._sync_observer_networks, []

        def checked(state, cfg, *args):
            check(state)  # mid-tick, after any rebuild
            sample(state, cfg, *args)

        def rebuilt(state, cfg):
            sync(state, cfg)
            check(state)
            rebuilds.append(state.tick)
        monkeypatch.setattr(sim, "_sample_trace", checked)
        monkeypatch.setattr(sim, "_sync_observer_networks", rebuilt)
        state = sim.init_world(cfg)
        check(state)
        banks = {id(state.bank)}
        for _ in range(cfg.horizon):
            sim.step_world(state, cfg)
            check(state)
            banks.add(id(state.bank))
        assert len(banks) == len(rebuilds) == 1 + state.propagation_changes > 1

    def test_committed_world_vectors_keep_their_bytes(self, monkeypatch):
        # a tick builds the next world vector in place in the buffer of its
        # transition-stack product and corrects the stack's model tail in
        # place; a committed world vector is kept by reference (the trace's
        # pending samples, a learner's tick-k read) and must keep its bytes
        # through the bank rebuilds of the first ticks, the learners'
        # records from tick 1400 and the propensity switch at tick 4000
        cfg = dataclasses.replace(sc.load_bundled("hexagon"), horizon=4002)
        assert cfg.mode == sim.MODE_DATA and 4000 in [t for t, _ in cfg.schedule.entries]
        record, records = ln.DataBuffer.record, []

        def counted(buf, *args):
            records.append(state.tick)
            return record(buf, *args)
        monkeypatch.setattr(ln.DataBuffer, "record", counted)
        state = sim.init_world(cfg)
        kept = [(state.world, state.world.tobytes())]
        for _ in range(cfg.horizon):
            sim.step_world(state, cfg)
            assert not np.may_share_memory(state.world, kept[-1][0])
            kept.append((state.world, state.world.tobytes()))
        assert state.propagation_changes > 0 and records[0] > cfg.learn_start_tick
        assert [world.tobytes() == snapshot for world, snapshot in kept] == [True] * len(kept)


class TestOracleControl:
    @staticmethod
    def run_recorded(monkeypatch, cfg):
        """Run ``cfg`` and return, per tick, the world, plans, oracle gains
        and inputs the control step saw and applied, and the synthesis
        calls."""
        seen, synthesized = [], []
        controls, synthesize = sim._control_inputs, sim.synthesize_oracle_gains

        def recorded(state, cfg):
            u = controls(state, cfg)
            seen.append((state.world, state.plans, dict(state.oracle_gains),
                         state.gain_groups, u))
            return u

        def counted(cfg, node, layout, alphas):
            synthesized.append((node, layout, tuple(sorted(alphas.items()))))
            return synthesize(cfg, node, layout, alphas)
        monkeypatch.setattr(sim, "_control_inputs", recorded)
        monkeypatch.setattr(sim, "synthesize_oracle_gains", counted)
        state = sim.init_world(cfg)
        for _ in range(cfg.horizon):
            sim.step_world(state, cfg)
        return state, seen, synthesized

    @staticmethod
    def check_inputs(cfg, state, seen, synthesized):
        """Each applied input equals its agent's own product bit for bit,
        and each plan key was synthesized once, when it first applied."""
        n = cfg.state_dim
        keys = {}
        for world, plans, gains, _, u in seen:
            for node in range(1, cfg.topology.n_nodes):
                r, plan = node - 1, plans[node]
                if plan.layout:
                    want = gains[node] @ world[plan.gather]
                    if keys.get(node) != plan.key:
                        keys[node] = plan.key
                        assert synthesized.pop(0) == (node, *plan.key)
                else:
                    want = cfg.warmup_gains[node] @ world[(node - 1) * n : node * n]
                assert u[r, : want.size].tobytes() == want.tobytes()
                assert not u[r, want.size :].any()
        assert synthesized == []

    @pytest.mark.parametrize("scenario", ["hexagon", "hexagon_static"])
    def test_grouped_inputs_equal_per_agent_products(self, monkeypatch, scenario):
        cfg = dataclasses.replace(early_switch(sc.load_bundled(scenario), 60),
                                  mode=sim.MODE_ORACLE, horizon=150,
                                  tracking_x0=np.array([1.0, -0.5]))
        state, seen, synthesized = self.run_recorded(monkeypatch, cfg)
        agents = len(state.x)
        # every agent once, then the followers whose weights the switch moved
        assert agents < len(synthesized) <= agents + cfg.topology.n_followers
        self.check_inputs(cfg, state, seen, synthesized)
        # the groups share shapes: fewer stacked products than agents
        assert all(len(groups) < agents for _, _, _, groups, _ in seen)

    def test_warm_up_and_leaders_with_followers_in_one_group(self, monkeypatch):
        cfg = relay_tiny_config()
        state, seen, synthesized = self.run_recorded(monkeypatch, cfg)
        assert not seen[0][1][3].layout and seen[1][1][3].layout
        assert seen[0][3][1].gains.shape == (1, 1, 1)  # the warm-up gain
        self.check_inputs(cfg, state, seen, synthesized)
        [group] = seen[-1][3]
        width = seen[-1][4].shape[1]  # the flattened inputs' row length
        assert (group.flat // width + 1).ravel().tolist() == [1, 2, 3, 4]


class TestLearnerControl:
    @staticmethod
    def run_recorded(monkeypatch, cfg):
        """Run ``cfg`` and return, per tick, the state the control step
        saw, the plans, each learner with its gain state and the applied
        inputs (then the final state), and every recorded transition with
        its tick index and agent."""
        ticks, records = [], []
        controls, record = sim._control_inputs, ln.DataBuffer.record

        def snapshot(state):
            # a tick replaces these arrays and tuples, it does not mutate them
            return types.SimpleNamespace(tick=state.tick, x=state.x, targets=state.targets,
                                         world=state.world, bank=state.bank)

        def recorded(state, cfg):
            u = controls(state, cfg)
            learners = {node: (lr, lr.controller.status, lr.controller.K_hat.copy(),
                               lr.behavior_full) for node, lr in state.learners.items()}
            ticks.append((snapshot(state), state.plans, learners, u))
            return u

        def logged(buffer, x, u, x_next):
            [node] = [node for node, lr in state.learners.items() if lr.buffer is buffer]
            records.append((len(ticks) - 1, node, *(np.array(a) for a in (x, u, x_next))))
            return record(buffer, x, u, x_next)
        monkeypatch.setattr(sim, "_control_inputs", recorded)
        monkeypatch.setattr(ln.DataBuffer, "record", logged)
        state = sim.init_world(cfg)
        for _ in range(cfg.horizon):
            sim.step_world(state, cfg)
        ticks.append((snapshot(state), None, None, None))
        return state, ticks, records

    @pytest.mark.parametrize("mode, switch", [(sim.MODE_DATA, 60), (sim.MODE_BASELINE, 60),
                                              (sim.MODE_DATA, 1600)])
    def test_inputs_and_records_are_each_agents_own_product(self, monkeypatch, mode, switch):
        # propagation changes in the first ticks, learning starts at 1400
        # and a propensity switch at 60 restarts the followers' learners
        # before it, one at 1600 after their convergence, when the previous
        # gain is their behaviour policy
        cfg = dataclasses.replace(early_switch(sc.load_bundled("hexagon"), switch),
                                  mode=mode, horizon=1700)
        state, ticks, records = self.run_recorded(monkeypatch, cfg)
        probing, sources = set(), set()
        for k, (snap, plans, learners, u) in enumerate(ticks[:-1]):
            for node in range(1, cfg.topology.n_nodes):
                r, plan, (lr, status, k_hat, behavior) = node - 1, plans[node], learners[node]
                assert lr.layout == plan.layout
                m = lr.buffer.input_dim
                converged = status == ln.CONVERGED
                gain = k_hat if converged else behavior
                if gain is None or plan.gather is None:
                    gain, z = cfg.warmup_gains[node], snap.x[node - 1]
                    sources.add("warm-up")
                else:
                    z = reference_augmented_state(snap, cfg, node, plan.layout)
                    sources.add("K_hat" if converged else "behaviour")
                want = gain @ z
                if not converged:  # probing: no noise reaches a converged learner
                    want = want + reference_noise(ln.NOISE_STD, cfg.seed * 100003 + node, m,
                                                  snap.tick)
                    if plan.gather is not None and snap.tick >= cfg.learn_start_tick:
                        probing.add((k, node))
                assert u[r, :m].tobytes() == want.tobytes(), (snap.tick, node)
                assert not u[r, m:].any()
        assert sources == {"warm-up", "K_hat"} | ({"behaviour"} if switch > 1400 else set())
        # each record is a probing learner's transition of its own z, with
        # the observer rows of its plan, once per tick
        assert len({(k, node) for k, node, *_ in records}) == len(records) > 0
        for k, node, z, u_k, z_next in records:
            (snap, plans, _, u), (snap_next, *_) = ticks[k], ticks[k + 1]
            layout, r = plans[node].layout, node - 1
            assert (k, node) in probing
            assert z.tobytes() == reference_augmented_state(snap, cfg, node, layout).tobytes()
            assert u_k.tobytes() == u[r, : u_k.size].tobytes()
            assert z_next.tobytes() == reference_augmented_state(
                snap_next, cfg, node, layout).tobytes()

    def test_gains_regroup_only_on_events(self, monkeypatch):
        # the gain groups are rebuilt when the plans are, when a learner
        # restarts and when one converges, never once per tick
        cfg = dataclasses.replace(sc.load_bundled("hexagon"), horizon=1700)
        counts = dict.fromkeys(["group", "plans", "reset", "converged"], 0)

        def counted(name, fn):
            def call(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return call

        update = sim._learner_update

        def learner_update(state, cfg, lr, *args):
            before = lr.controller.status
            update(state, cfg, lr, *args)
            counts["converged"] += (before != ln.CONVERGED == lr.controller.status)
        for name, attr in [("group", "_group_gains"), ("plans", "_build_plans"),
                           ("reset", "_reset_learner")]:
            monkeypatch.setattr(sim, attr, counted(name, getattr(sim, attr)))
        monkeypatch.setattr(sim, "_learner_update", learner_update)
        state = sim.init_world(cfg)
        for _ in range(cfg.horizon):
            sim.step_world(state, cfg)
        assert counts["converged"] == len(state.learners)
        assert 0 < counts["group"] <= counts["plans"] + counts["reset"] + counts["converged"]

    def test_every_window_is_solved_on_the_tick_it_fills(self, monkeypatch):
        # each learner converges in the update that fills its window: the
        # leaders and followers once, and the followers' relearn after the
        # tick-4000 switch again, with no flush and no window left over
        cfg = sc.load_bundled("hexagon")
        update, fills = sim._learner_update, []

        def learner_update(state, cfg, lr, *args):
            rows = len(lr.buffer)
            update(state, cfg, lr, *args)
            if rows + 1 == lr.buffer.capacity and len(lr.buffer) != rows:
                fills.append((state.tick, lr.node, lr.controller.status))
        monkeypatch.setattr(sim, "_learner_update", learner_update)
        result = sim.run(cfg)
        assert result.completed
        assert all(status == ln.CONVERGED for *_, status in fills)
        switch, followers = cfg.schedule.entries[1][0], list(cfg.topology.follower_nodes)
        assert sorted(node for tick, node, _ in fills if tick > switch) == followers
        assert len(fills) == len(result.state.learners) + len(followers)


class TestLearnerRestarts:
    SWITCH = 1600

    @classmethod
    def run_logged(cls, monkeypatch, reweigh=None):
        """Run ``hexagon`` with its switch at ``SWITCH``, after the learners
        converged, and with the switch doubling only leader ``reweigh``'s
        factor if given; return the state, each restart's ``(tick, node)``,
        and the followers' coefficients, learners and gains just before the
        switch."""
        cfg = early_switch(sc.load_bundled("hexagon"), cls.SWITCH)
        if reweigh is not None:
            first = cfg.schedule.initial()
            cfg.schedule = sim.PropensitySchedule(
                ((0, first), (cls.SWITCH, {**first, reweigh: 2.0 * first[reweigh]})))
        cfg = dataclasses.replace(cfg, horizon=1700)
        restarts = []
        reset = sim._reset_learner

        def logged(state, cfg, node):
            restarts.append((state.tick, node))
            reset(state, cfg, node)
        monkeypatch.setattr(sim, "_reset_learner", logged)
        state = sim.init_world(cfg)
        while state.tick < cls.SWITCH:
            sim.step_world(state, cfg)
        before = {i: (pr.coefficients(state.known, i, state.factors), state.learners[i],
                      state.learners[i].controller.K_hat.tobytes())
                  for i in cfg.topology.follower_nodes}
        assert all(lr.controller.status == ln.CONVERGED for _, lr, _ in before.values())
        while state.tick < cfg.horizon:
            sim.step_world(state, cfg)
        return state, restarts, before

    @pytest.mark.parametrize("reweigh", [None, 10])
    def test_relearn_restarts_exactly_the_reweighted_followers(self, monkeypatch, reweigh):
        # the bundled switch reweighs every follower; doubling only L6's
        # factor reweighs only the followers it reaches
        state, restarts, before = self.run_logged(monkeypatch, reweigh)
        changed = [i for i, (coeffs, *_) in before.items()
                   if pr.coefficients(state.known, i, state.factors) != coeffs]
        assert changed == (list(before) if reweigh is None else [4])
        assert [r for r in restarts if r[0] >= self.SWITCH] == [
            (self.SWITCH, i) for i in changed]


class TestObserverDivergence:
    @pytest.mark.parametrize("interval", [40, 1])
    def test_diverging_observers_abort_cleanly(self, interval):
        # consensus gain 20 makes every formation network unstable; the run
        # ends in an observer abort, with no raw numpy error or warning, and
        # the trace keeps the diverged errors up to the aborted tick
        cfg = sc.load_bundled("hexagon")
        cfg.horizon = 400
        cfg.sample_interval = interval
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
        assert re.fullmatch(r"observer [FL]\d of L\d's network diverged",
                            str(res.error.cause)), res.error
        assert len(res.trace) > 0  # the partial trace is kept
        if interval == 1:
            assert res.trace.rows()[-1, 0] == res.error.tick


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


def schedule_ticks(*ticks):
    """A field edit: the schedule's factor maps at ``ticks``."""
    return lambda schedule: sim.PropensitySchedule(tuple(
        (tick, factors) for tick, (_, factors) in zip(ticks, schedule.entries)))


def replaced(**changes):
    """A field edit: the field's dataclass with ``changes``."""
    return lambda value: dataclasses.replace(value, **changes)


#: hexagon's nodes of leaders L2 and L3
L2, L3 = 6, 7


def l3_network(**gains):
    """A field edit: the formation networks with L3's given ``gains``."""
    return lambda networks: {**networks, L3: dataclasses.replace(networks[L3], **gains)}


def without_l3_network(networks):
    return {q: obs for q, obs in networks.items() if q != L3}


def with_key(node, value):
    """A field edit: the node-keyed field with ``value`` at ``node``."""
    return lambda fields: {**fields, node: value}


def with_factor(node, factor=0.1):
    """A field edit: the schedule with ``factor`` for ``node`` at tick 0."""
    return lambda schedule: sim.PropensitySchedule(
        ((0, {**schedule.initial(), node: factor}),) + schedule.entries[1:])


#: An observer network's gains, in the library and in a scenario file.
NETWORK = ob.ObserverConfig(1.0, 1.0, np.eye(2))
NETWORK_ENTRY = {"coupling": 1.0, "consensus_gain": 1.0, "gain_matrix": [[1.0, 0.0], [0.0, 1.0]]}


#: Value rules of ``check_fields``, each made to fail on hexagon: (field,
#: edit of its value, key path in the scenario file, the value put there or
#: None to delete the key, message).  A file and a config built in Python
#: fail with one message, a non-finite number's included.  The first three
#: keep the ids they had before the schedule, observer and learner rules
#: joined them.
VALUE_RULES = [
    pytest.param("sample_interval", lambda _: 0, ("sample_interval",), 0,
                 "sample interval must be >= 1", id="sample_interval-0-sample interval"),
    pytest.param("horizon", lambda _: -1, ("horizon",), -1, "horizon must be >= 0",
                 id="horizon--1-horizon"),
    pytest.param("mode", lambda _: "model_free", ("mode",), "model_free",
                 f"mode must be one of {sim.MODES}", id="mode-model_free-mode"),
    pytest.param("learn_start_tick", lambda _: -1, ("learn_start_tick",), -1,
                 "learn start tick must be >= 0", id="learn_start_tick--1"),
    pytest.param("schedule", schedule_ticks(), ("propensity_schedule",), [],
                 "schedule needs at least one entry", id="schedule-empty"),
    pytest.param("schedule", schedule_ticks(5, 4000), ("propensity_schedule", 0, "tick"), 5,
                 "first schedule entry must activate at tick 0", id="schedule-start"),
    pytest.param("schedule", schedule_ticks(0, 0), ("propensity_schedule", 1, "tick"), 0,
                 "schedule ticks must be strictly increasing", id="schedule-order"),
    pytest.param("schedule", with_factor(1), ("propensity_schedule", 0, "factors", "F1"), 0.1,
                 "schedule: factor for F1, which is not a leader",
                 id="schedule-factor-of-follower"),
    pytest.param("schedule", with_factor(L2, np.inf),
                 ("propensity_schedule", 0, "factors", "L2"), np.inf,
                 "schedule: factor for L2 must be finite", id="schedule-factor-inf"),
    pytest.param("xi", lambda _: np.inf, ("observers", "xi"), np.inf,
                 "observers: xi must be finite", id="xi-inf"),
    # an int past the float range, which math.isfinite cannot convert, and
    # in a file a literal of more than 308 digits, which parses as inf
    pytest.param("xi", lambda _: 10**400, ("observers", "xi"), 10**400,
                 "observers: xi must be finite", id="xi-int-past-float-range"),
    pytest.param("schedule", with_factor(L2, -10**400),
                 ("propensity_schedule", 0, "factors", "L2"), -10**400,
                 "schedule: factor for L2 must be finite",
                 id="schedule-factor-int-past-float-range"),
    pytest.param("tracking_x0", lambda _: [10**400, 0], ("tracking", "x0"), [10**400, 0],
                 "tracking x0 must be finite", id="tracking-x0-int-past-float-range"),
    pytest.param("x0", lambda x0: [[10**400, 0], *x0[1:]], ("followers", 0, "x0"),
                 [10**400, 0], "x0 of F1 must be finite", id="x0-int-past-float-range"),
    pytest.param("q_weights", with_key(1, [[10**400, 0], [0, 1]]), ("followers", 0, "q_weight"),
                 [[10**400, 0], [0, 1]], "q_weight of F1 must be finite",
                 id="q_weight-int-past-float-range"),
    pytest.param("warmup_gains", with_key(1, [[10**400, 0]]), ("followers", 0, "warmup_gain"),
                 [[10**400, 0]], "warmup_gain of F1 must be finite",
                 id="warmup_gain-int-past-float-range"),
    # the record constructors read such an int as NaN, so check_fields
    # names the field
    pytest.param("dynamics", lambda dyn: [mc.AgentDynamics([[10**400, 0], [0, 1]], dyn[0].B),
                                          *dyn[1:]],
                 ("followers", 0, "A"), [[10**400, 0], [0, 1]], "A of F1 must be finite",
                 id="dynamics-A-int-past-float-range"),
    pytest.param("formation", lambda forms: [mc.FormationDynamics(forms[0].S, [10**400, 0]),
                                             *forms[1:]],
                 ("leaders", 0, "h0"), [10**400, 0], "formation h0 of L1 must be finite",
                 id="formation-h0-int-past-float-range"),
    pytest.param("leader_tracking_observer", replaced(gain_matrix=[[10**400, 0], [0, 1]]),
                 ("observers", "leader_tracking", "gain_matrix"), [[10**400, 0], [0, 1]],
                 "leader tracking observer gain matrix must be finite",
                 id="leader-tracking-gain-matrix-int-past-float-range"),
    pytest.param("init_scale", lambda _: np.inf, ("observers", "init_scale"), np.inf,
                 "observers: init scale must be finite", id="init-scale-inf"),
    pytest.param("formation_observers", with_key(1, NETWORK), ("observers", "formation", "F1"),
                 NETWORK_ENTRY, "observers: formation network for F1, which is not a leader",
                 id="formation-network-of-follower"),
    pytest.param("formation_observers", l3_network(coupling=-1.0),
                 ("observers", "formation", "L3", "coupling"), -1.0,
                 "observers: formation L3 coupling must be positive", id="formation-coupling"),
    pytest.param("formation_observers", l3_network(coupling=np.nan),
                 ("observers", "formation", "L3", "coupling"), np.nan,
                 "observers: formation L3 coupling must be finite", id="formation-coupling-nan"),
    pytest.param("formation_observers", l3_network(coupling=np.inf),
                 ("observers", "formation", "L3", "coupling"), np.inf,
                 "observers: formation L3 coupling must be finite", id="formation-coupling-inf"),
    pytest.param("leader_tracking_observer",
                 replaced(consensus_gain=np.nan),
                 ("observers", "leader_tracking", "consensus_gain"), np.nan,
                 "observers: leader tracking consensus_gain must be finite",
                 id="leader-tracking-consensus-nan"),
    pytest.param("follower_tracking_observer",
                 replaced(consensus_gain=0.0),
                 ("observers", "follower_tracking", "consensus_gain"), 0.0,
                 "observers: follower tracking consensus_gain must be positive",
                 id="follower-tracking-consensus"),
    pytest.param("follower_tracking_observer",
                 replaced(consensus_gain=np.inf),
                 ("observers", "follower_tracking", "consensus_gain"), np.inf,
                 "observers: follower tracking consensus_gain must be finite",
                 id="follower-tracking-consensus-inf"),
    pytest.param("formation_observers", without_l3_network, ("observers", "formation", "L3"),
                 None, "observers: no formation network for L3", id="formation-network-missing"),
]

#: Node keys of ``check_fields``' rules that no scenario file can hold,
#: each made to fail on hexagon, in the columns of ``VALUE_RULES``.
NODE_KEY_RULES = [
    pytest.param("q_weights", with_key(0, np.eye(2)), None, None,
                 "q_weight for T, which is not an agent", id="q_weight-of-T"),
    pytest.param("q_weights", with_key(99, np.eye(2)), None, None,
                 "q_weight for node 99, which is not an agent", id="q_weight-of-node-99"),
    pytest.param("warmup_gains", with_key(99, np.zeros((1, 2))), None, None,
                 "warmup_gain for node 99, which is not an agent", id="warmup_gain-of-node-99"),
    pytest.param("formation_observers", with_key(-1, NETWORK), None, None,
                 "observers: formation network for node -1, which is not a leader",
                 id="formation-network-of-node--1"),
    pytest.param("schedule", with_factor(99), None, None,
                 "schedule: factor for node 99, which is not a leader",
                 id="schedule-factor-of-node-99"),
]


#: float32 scalars, which no scenario file can hold, in the columns of
#: ``VALUE_RULES``: an inf or nan one is not finite, and judging it warns
#: of nothing (the warning filter would fail the test).
FLOAT32_RULES = [
    pytest.param("xi", lambda _: np.float32(np.inf), None, None,
                 "observers: xi must be finite", id="xi-float32-inf"),
    pytest.param("init_scale", lambda _: np.float32(np.nan), None, None,
                 "observers: init scale must be finite", id="init-scale-float32-nan"),
    pytest.param("schedule", with_factor(L2, np.float32(-np.inf)), None, None,
                 "schedule: factor for L2 must be finite", id="schedule-factor-float32-inf"),
]


class TestConfigChecks:
    """Each value rule gives one message through ``dataclasses.replace``,
    through a field set after construction and then ``sim.run``, and
    through a scenario file, where ``pfcc validate`` exits 2 with that
    line."""

    @pytest.mark.parametrize("name, edit, path, value, message",
                             VALUE_RULES + NODE_KEY_RULES + FLOAT32_RULES)
    def test_replaced_field_fails_its_value_rule(self, hexagon_config, name, edit, path,
                                                 value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(hexagon_config, **{name: edit(getattr(hexagon_config, name))})

    @pytest.mark.parametrize("name, edit, path, value, message",
                             VALUE_RULES + NODE_KEY_RULES + FLOAT32_RULES)
    def test_field_set_after_construction_fails_before_tick_0(
            self, hexagon_config, name, edit, path, value, message):
        setattr(hexagon_config, name, edit(getattr(hexagon_config, name)))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sim.run(hexagon_config)

    @pytest.mark.parametrize("name, edit, path, value, message", VALUE_RULES)
    def test_scenario_file_fails_its_value_rule(self, hexagon_config, tmp_path, capsys, name,
                                                edit, path, value, message):
        raw = sc.scenario_to_dict(hexagon_config)
        entry = raw
        for key in path[:-1]:
            entry = entry[key]
        if value is None:
            del entry[path[-1]]
        else:
            entry[path[-1]] = value
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(raw))
        assert cli.main(["validate", str(scenario)]) == cli.EXIT_SCHEMA
        assert capsys.readouterr().out == f"schema: FAIL - {message}\n"

    def test_finite_float32_scalars_are_accepted(self, hexagon_config):
        # accepted without a warning, which the warning filter would raise
        cfg = dataclasses.replace(
            hexagon_config, xi=np.float32(2.0), init_scale=np.float32(0.5),
            schedule=with_factor(L2, np.float32(0.25))(hexagon_config.schedule))
        assert (cfg.xi, cfg.init_scale, cfg.schedule.initial()[L2]) == (2.0, 0.5, 0.25)

    @pytest.mark.parametrize("name", ["xi", "init_scale"])
    def test_nan_gain_rejected(self, name):
        # every observer network shares the config's one xi and init scale
        with pytest.raises(ValueError, match=f"^observers: {name.replace('_', ' ')} "
                                             "must be finite$"):
            dataclasses.replace(tiny_config(), **{name: float("nan")})

    def test_validate_names_a_schedule_entry_missing_factors(self, hexagon_config):
        first = hexagon_config.schedule.initial()
        cfg = dataclasses.replace(hexagon_config, schedule=sim.PropensitySchedule(
            ((0, first), (100, {5: 0.2, 6: 0.1, 8: 0.1, 9: 0.1}))))
        assert cfg.validate() == ["schedule entry missing factors for leaders L3, L6"]
        with pytest.raises(AssumptionError, match="missing factors for leaders"):
            sim.init_world(cfg)

    def test_spectral_lines_match_one_radius_per_matrix(self, hexagon_config):
        # targets scaled to spectral radii around the margin, judged by
        # ref.spectral_radius one matrix at a time
        rng = np.random.default_rng(11)
        limit = 1.0 + mc.MARGINAL_TOL

        def near_margin():
            a = rng.normal(size=(2, 2))
            scale = rng.choice([1.0, limit, 1.0 + 2 * mc.MARGINAL_TOL, 1.1])
            return scale * a / ref.spectral_radius(a)

        for _ in range(30):
            cfg = dataclasses.replace(
                hexagon_config, tracking_a=near_margin(),
                formation=[mc.FormationDynamics(near_margin(), f.h0)
                           for f in hexagon_config.formation])
            expected = (["tracking dynamics must have spectral radius <= 1"]
                        if ref.spectral_radius(cfg.tracking_a) > limit else [])
            expected += [f"formation dynamics of {cfg.agent_name(q)} expand"
                         for q, f in zip(cfg.topology.leader_nodes, cfg.formation)
                         if ref.spectral_radius(f.S) > limit]
            assert [p for p in cfg.validate()
                    if p.startswith(("tracking dynamics", "formation dynamics"))] == expected


def regulation_variants():
    """(what, config, unsolvable?) of the regulation check: both bundled
    scenarios; hexagon with each regulation target in turn made the shape
    S = I, which its single-input agents cannot reach; and hexagon_static
    with every agent's input narrowed to its second column, which cannot
    reach the formations' S = I."""
    cfg = sc.load_bundled("hexagon")
    yield "hexagon", cfg, False
    yield "hexagon tracking", dataclasses.replace(cfg, tracking_a=np.eye(2)), True
    for k, form in enumerate(cfg.formation):
        formation = list(cfg.formation)
        formation[k] = mc.FormationDynamics(np.eye(2), form.h0)
        yield f"hexagon formation {k}", dataclasses.replace(cfg, formation=formation), True
    cfg = sc.load_bundled("hexagon_static")
    yield "hexagon_static", cfg, False
    narrow = dict(dynamics=[mc.AgentDynamics(d.A, d.B[:, 1:]) for d in cfg.dynamics],
                  warmup_gains={})
    yield "hexagon_static narrowed", dataclasses.replace(cfg, **narrow), True


def regulation_lines(problems: list[str]) -> list[str]:
    return [p for p in problems if p.startswith("regulation equation")]


def drawn_assumptions(base: sim.ScenarioConfig, seed: int) -> sim.ScenarioConfig:
    """``base`` (state dimension 2) with every agent's plant and q_weight
    redrawn from ``seed`` to meet the edges of the per-agent checks, and no
    warm-up gains.  Input widths 1 to 3 mix in one config.  A is random,
    a rotation (a complex pair inside, on or outside the unit circle), a
    marginal Jordan block, diagonal at the margin's tolerance, or
    A = S - B V with S the swap, which solves every swap target.  B is
    random, zero or of rank one, rescaled by 1e-150 to 1e150.  A q_weight
    is positive definite, asymmetric within or beyond ``SYMMETRY_ATOL``,
    indefinite or near singular.  The tracking target or a formation may
    become the identity, which a plant of rank-one B cannot reach."""
    rng = np.random.default_rng(seed)
    atol = mo.SYMMETRY_ATOL
    dynamics, q_weights = [], {}
    for node in range(1, len(base.dynamics) + 1):
        m = int(rng.integers(1, 4))
        b = rng.normal(size=(2, m))
        kind = rng.integers(3)
        if kind == 1:
            b[:] = 0.0
        elif kind == 2:
            b = np.outer(rng.normal(size=2), rng.normal(size=m))
        b *= 10.0 ** float(rng.integers(-150, 151))
        angle = rng.uniform(0.0, np.pi)
        rotation = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        a = [rng.normal(size=(2, 2)) * rng.choice([0.3, 1.0, 3.0]),
             rng.choice([0.5, 1.0, 1.5]) * rotation,
             np.array([[1.0, 1.0], [0.0, 1.0]]),
             np.diag([rng.choice([1.0 - mc.MARGINAL_TOL, np.nextafter(1.0 - mc.MARGINAL_TOL, 0.0),
                                  1.0, 2.0]), rng.uniform(-0.9, 0.9)]),
             SWAP - b @ rng.normal(size=(m, 2))][rng.integers(5)]
        g = rng.normal(size=(2, 2))
        q = [g @ g.T + np.eye(2), np.diag([1.0, -0.5]), np.array([[1.0, 1.0], [1.0, 1.0]]),
             np.array([[1.0, 1.0], [1.0, 1.0 + 4e-16]]),
             np.array([[2.0, 0.0], [rng.choice([0.5, 1.0, 2.0]) * atol, 2.0]])][rng.integers(5)]
        dynamics.append(mc.AgentDynamics(a, b))
        q_weights[node] = q
    targets = dict(tracking_a=base.tracking_a, formation=list(base.formation))
    if rng.random() < 0.3:
        targets["tracking_a"] = np.eye(2)
    if rng.random() < 0.3:
        k = int(rng.integers(len(base.formation)))
        targets["formation"][k] = mc.FormationDynamics(np.eye(2), base.formation[k].h0)
    return dataclasses.replace(base, dynamics=dynamics, q_weights=q_weights,
                               warmup_gains={}, **targets)


class TestStackedValidation:
    """``validate`` runs each per-agent check once over every agent; its
    problem list is the per-agent reference's, text and order."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_validate_matches_the_per_agent_reference(self, seed):
        cfg = drawn_assumptions(sc.load_bundled("hexagon"), seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            problems = cfg.validate()
        assert problems == ref.validate_per_agent(cfg)

    def test_draws_meet_every_per_agent_problem(self):
        # the drawn configs are not vacuous: over 40 seeds each per-agent
        # check fails for at least a tenth of the agents and passes for at
        # least a tenth
        base = sc.load_bundled("hexagon")
        agents = 40 * len(base.dynamics)
        failures = {"q_weight": 0, "agent": 0, "regulation": 0}
        for seed in range(40):
            for problem in drawn_assumptions(base, seed).validate():
                failures[problem.split(" ", 1)[0]] += 1
        assert all(agents / 10 <= count <= agents * 9 / 10
                   for count in failures.values()), failures


class TestRegulationCheck:
    def test_validate_names_the_agents_the_per_target_loop_names(self):
        for what, cfg, unsolvable in regulation_variants():
            expected = regulation_problems(cfg)
            assert regulation_lines(cfg.validate()) == expected, what
            assert bool(expected) == unsolvable, what

    @pytest.mark.parametrize("field", ["A", "B", "both"])
    @pytest.mark.parametrize("scale", [1e150, 1e300])
    def test_validate_judges_overflowing_residuals_as_the_loop(self, field, scale):
        cfg = sc.load_bundled("hexagon")
        dynamics = list(cfg.dynamics)
        dyn = dynamics[0]
        dynamics[0] = mc.AgentDynamics(dyn.A * (scale if field != "B" else 1.0),
                                       dyn.B * (scale if field != "A" else 1.0))
        cfg = dataclasses.replace(cfg, dynamics=dynamics)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            problems = cfg.validate()
        assert regulation_lines(problems) == regulation_problems(cfg)

    @pytest.mark.parametrize("name, widths", [("hexagon", 3), ("hexagon_static", 1)])
    def test_one_validation_pseudo_inverse_per_input_width(self, name, widths, monkeypatch):
        calls = []
        pinv = mc.pinv

        def counted(b):
            calls.append(sys._getframe(1).f_code.co_name)
            return pinv(b)

        monkeypatch.setattr(mc, "pinv", counted)
        cfg = sc.load_bundled(name)
        sim.init_world(cfg)
        assert len({dyn.m for dyn in cfg.dynamics}) == widths
        assert calls.count("min_norm_regulation_solution") == widths


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
    # the agent's seed is masked to 31 bits once, by the noise itself: seed
    # 30000 gives 30000 * 100003 + 1 >= 2**31
    @pytest.mark.parametrize("seed", [777, 30000])
    def test_block_boundary_ticks_match_the_per_call_form(self, seed):
        cfg = dataclasses.replace(tiny_config(), seed=seed)
        lr = sim.AgentLearner(node=1, layout=(1,),
                              controller=ln.LearnedController.create(6, 2),
                              buffer=ln.DataBuffer(6, 2, 30))
        block = sim.NOISE_BLOCK_TICKS
        last = 2**32 - 1
        # forward across boundaries, back into an earlier block, and the
        # last block below the tick limit
        ticks = [0, 1, block - 1, block, block + 1, 2 * block - 1, 2 * block,
                 block - 1, 5 * block, 5 * block - 1, last - block, last - block + 1,
                 last]
        for tick in ticks:
            noise = sim._probing_noise(cfg, lr, tick)
            expected = reference_noise(ln.NOISE_STD, (seed * 100003 + 1) & 0x7FFFFFFF, 2, tick)
            assert noise.tobytes() == expected.tobytes(), tick


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
            node = 1 + cfg.names.index("F1")
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
        cfg_b.dynamics[0] = mc.AgentDynamics([[0.0, 1.0], [0.5, 2.0]], [[0.0], [2.0]])
        cfg_b.warmup_gains[1] = np.array([[-0.25, -1.0]])
        res_a, res_b = sim.run(cfg_a), sim.run(cfg_b)
        assert res_a.completed and res_b.completed
        for node in cfg_a.topology.follower_nodes + cfg_a.topology.leader_nodes:
            np.testing.assert_array_equal(estimate_of(res_a.state, node, 0),
                                          estimate_of(res_b.state, node, 0))
            for q in known_leaders(res_a.state.known, node) - {node}:
                np.testing.assert_array_equal(
                    estimate_of(res_a.state, node, q),
                    estimate_of(res_b.state, node, q))
        # but the follower plant state itself differs
        assert not np.allclose(res_a.state.x[0],
                               res_b.state.x[0])


class TestDrawnPlantRuns:
    @pytest.mark.parametrize("mode", [sim.MODE_ORACLE, sim.MODE_DATA])
    @pytest.mark.parametrize("seed", range(4))
    def test_run_meets_the_observer_and_error_limits(self, hexagon_config, seed, mode):
        # every agent's plant redrawn: the run completes, the learners
        # converge within the flush limit, the final observer error is
        # below criterion 5's limit and the error tail below criterion 7's
        cfg = dataclasses.replace(drawn_plants(hexagon_config, seed), mode=mode,
                                  horizon=3000, sample_interval=10)
        result = sim.run(cfg)
        assert result.completed, result.error
        for node, lr in result.state.learners.items():
            assert lr.controller.status == ln.CONVERGED, cfg.agent_name(node)
            assert lr.flushes <= sim.MAX_WINDOW_FLUSHES, cfg.agent_name(node)
        assert len(result.state.learners) == (10 if mode == sim.MODE_DATA else 0)
        header, rows = result.trace.header(), result.trace.rows()
        obs_cols = [j for j, h in enumerate(header) if h.startswith("obs_")]
        err_cols = [j for j, h in enumerate(header) if h.startswith("e_")]
        assert rows[-1, obs_cols].max() < 1e-6
        assert rows[rows[:, 0] >= 2500][:, err_cols].max() < 1e-4


class TestDrawnTopologyRuns:
    """Scenarios over ``random_topology`` draws (``drawn_topology_config``)
    with a propensity switch at tick 300."""

    SWITCH = 300

    def drawn(self, seed, mode=sim.MODE_ORACLE, **change):
        return dataclasses.replace(
            drawn_topology_config(sc.load_bundled("hexagon"), seed, self.SWITCH),
            mode=mode, **change)

    @pytest.mark.parametrize("seed", range(8))
    def test_observer_rows_appear_as_propagation_reaches_the_agent(self, seed):
        # entering tick k, after k propagation steps, an agent knows leader
        # q, and runs an observer of it, exactly when q has a path of at
        # most k + 1 edges to it
        cfg = self.drawn(seed, horizon=20)
        topo = cfg.topology
        hops = hop_distances(topo.adjacency)
        leaders = np.isin(np.arange(topo.n_nodes), topo.leader_nodes)
        state = sim.init_world(cfg)
        for tick in range(topo.n_nodes):
            within = (hops <= tick + 1) & leaders
            np.testing.assert_array_equal(state.known, within)
            assert {key for key in state.bank.rows if key[1] != 0} == {
                (a, q) for a, q in zip(*np.nonzero(within)) if a != q}
            sim.step_world(state, cfg)
        assert state.propagation_settled

    @pytest.mark.parametrize("seed", [
        *range(6),
        # the hexagon's observer gains diverge on rows with a large weighted
        # in-degree: row (F3, L3) at 2.45 in draw 6, the L2 and L4 networks
        # in draw 7 (a finding, kept as drawn)
        *(pytest.param(seed, marks=pytest.mark.xfail(
            reason="observers diverge under the hexagon's gains", strict=True))
          for seed in (6, 7))])
    def test_run_completes_on_the_switched_coefficients(self, seed):
        cfg = self.drawn(seed, horizon=600, sample_interval=10)
        assert cfg.validate() == []
        result = sim.run(cfg)
        assert result.completed, result.error
        topo, factors = cfg.topology, cfg.schedule.entries[1][1]
        reach = transitive_closure(topo.adjacency)
        for i in topo.follower_nodes:
            assert result.state.plans[i].alphas == pr.convex_coefficients(
                {q: factors[q] for q in topo.leader_nodes if reach[i, q]})

    @pytest.mark.parametrize("seed, tick, row", [
        (6, 12, "F3 of L3"),
        # the plants would trip at tick 12
        (7, 10, "L3 of L4")])
    def test_diverging_observer_is_named(self, seed, tick, row):
        # the estimate guard catches the row before its agent's plant
        # diverges, where the plant guard used to blame the followers
        cfg = self.drawn(seed, horizon=20, sample_interval=10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = sim.run(cfg)
        assert (result.error.tick, result.error.agent) == (tick, "observers")
        assert isinstance(result.error.cause, ConvergenceError)
        assert str(result.error.cause) == f"observer {row}'s network diverged"

    @pytest.mark.parametrize("seed", [
        1, 3, 4,
        # at tick 1439, the tick its window fills, one follower's learner
        # (F5 in draw 0, F3 in draws 2 and 5) spends its 3000 iterations
        # with a gain delta of 1e-11 to 2e-9 but a relative value step of
        # 1.3e-6 to 9.9e-6, which never falls to VALUE_STEP_RTOL (a
        # finding, kept as drawn)
        *(pytest.param(seed, marks=pytest.mark.xfail(
            reason="value step stalls above VALUE_STEP_RTOL", strict=True))
          for seed in (0, 2, 5)),
        *(pytest.param(seed, marks=pytest.mark.xfail(
            reason="observers diverge under the hexagon's gains", strict=True))
          for seed in (6, 7))])
    def test_learners_converge_across_the_switch(self, seed):
        cfg = self.drawn(seed, mode=sim.MODE_DATA, horizon=2000, sample_interval=10)
        result = sim.run(cfg)
        assert result.completed, result.error
        assert len(result.state.learners) == cfg.topology.n_nodes - 1
        for node, lr in result.state.learners.items():
            assert lr.controller.status == ln.CONVERGED, cfg.agent_name(node)
            assert lr.flushes <= sim.MAX_WINDOW_FLUSHES, cfg.agent_name(node)

    def test_stalled_learner_aborts_on_its_fill_tick(self):
        # draw 0's F5 records from learn_start_tick on and spends all its
        # sweeps on the tick its window fills (the stall marked above)
        cfg = self.drawn(0, mode=sim.MODE_DATA, horizon=2000, sample_interval=10)
        result = sim.run(cfg)
        assert (result.error.tick, result.error.agent) == (1439, "F5")
        assert isinstance(result.error.cause, ConvergenceError)
        assert str(result.error.cause).startswith(
            "learner did not converge in 3000 iterations")
        [lr] = [lr for node, lr in result.state.learners.items()
                if cfg.agent_name(node) == "F5"]
        assert cfg.learn_start_tick + lr.buffer.capacity - 1 == 1439
        assert lr.buffer.is_full and lr.controller.iterations == ln.MAX_ITERATIONS


class TestBaselineMode:
    def test_laplacian_weights_differ_from_propensity_weights(self):
        # under non-uniform factors the classical weights ignore the change
        cfg = dataclasses.replace(sc.load_bundled("hexagon_static"),
                                  mode=sim.MODE_BASELINE)
        known = pr.initial_influence(cfg.topology)
        w = sim.follower_coefficients(cfg, known, cfg.schedule.initial())
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

    def test_trace_ignores_the_propensity_schedule(self):
        # the classical weights do not read the propensity factors, so a
        # switch after the learners converged restarts none of them
        cfg = dataclasses.replace(sc.load_bundled("hexagon"), mode=sim.MODE_BASELINE,
                                  horizon=1800, sample_interval=1)
        first = cfg.schedule.initial()
        texts = []
        for c in (early_switch(cfg, 1600),
                  dataclasses.replace(cfg, schedule=sim.PropensitySchedule(((0, first),)))):
            res = sim.run(c)
            assert res.completed
            texts.append(sc.trace_to_csv(res.trace))
        switched, unswitched = texts
        assert switched == unswitched


class TestSummary:
    def test_summary_fields(self):
        cfg = tiny_config(horizon=30)
        res = sim.run(cfg)
        assert res.summary["mode"] == sim.MODE_DATA
        assert "propagation_change_ticks" in res.summary
        assert set(res.summary["learners"]) == {"F1", "L1"}
