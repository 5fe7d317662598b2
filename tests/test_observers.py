import numpy as np
import pytest

from conftest import SWAP, consensus_error
from pfcc import observers as ob
from pfcc import scenario as sc
from pfcc import simulation as sim
from pfcc.errors import ConvergenceError, PfccError

FA = np.array([[0.1, 0.5], [0.5, 0.1]])
BUNDLED_CFG = ob.ObserverConfig(xi=4.0, coupling=8.0, consensus_gain=0.7,
                              gain_matrix=FA, init_scale=0.05)


def predict(obs, eta):
    """One observer's prediction."""
    cfg = obs.config
    return ob.predict_state(obs.A_hat, obs.x_hat, cfg.consensus_gain, cfg.gain_matrix,
                            np.asarray(eta, dtype=float))


class TestObserverConfig:
    @pytest.mark.parametrize("name", ["xi", "coupling", "consensus_gain", "init_scale"])
    def test_nan_gain_rejected(self, name):
        gains = dict(xi=4.0, coupling=8.0, consensus_gain=0.7, init_scale=0.05)
        with pytest.raises(ValueError, match="xi must|must be positive"):
            ob.ObserverConfig(gain_matrix=FA, **dict(gains, **{name: float("nan")}))


class TestRlsUpdate:
    def test_zero_regressor_leaves_L_unchanged(self):
        l0 = 3.0 * np.eye(2)
        np.testing.assert_allclose(ob.rls_update_L(l0, ob.regressor(np.zeros(2))),
                                   l0)

    def test_scalar_halving(self):
        out = ob.rls_update_L(np.array([[1.0]]), ob.regressor(np.array([1.0])))
        np.testing.assert_allclose(out, [[0.5]], atol=1e-14)

    def test_matches_direct_inverse_form(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            a = rng.normal(size=(n, n))
            l0 = a @ a.T + 0.5 * np.eye(n)
            x_bar = ob.regressor(rng.normal(size=n))
            expected = np.linalg.inv(np.linalg.inv(l0) + x_bar.T @ x_bar)
            np.testing.assert_allclose(ob.rls_update_L(l0, x_bar), expected,
                                       atol=1e-10)

    def test_non_positive_definite_rejected(self):
        with pytest.raises(PfccError, match="positive definite"):
            ob.rls_update_L(-np.eye(2), ob.regressor(np.ones(2)))

    @pytest.mark.parametrize("beta", [1.0, 100.0])
    def test_parameter_matrix_inequalities(self, beta):
        # L_{k+1}^-1 dominates the current regressor gram, and the gain
        # product stays below the excitation ratio
        rng = np.random.default_rng(17)
        xi = 4.0
        for _ in range(20):
            n = int(rng.integers(1, 4))
            l = beta * np.eye(n)
            for _ in range(15):
                x = rng.normal(size=n)
                x_bar = ob.regressor(x)
                l = ob.rls_update_L(l, x_bar)
                gram = x_bar.T @ x_bar
                diff = np.linalg.inv(l) - gram
                assert np.min(np.linalg.eigvalsh(0.5 * (diff + diff.T))) > -1e-9
                prod = gram @ np.linalg.inv(np.linalg.inv(l) + xi * np.eye(n))
                sig2 = np.linalg.norm(x_bar, 2) ** 2
                bound = sig2 / (xi + sig2)
                assert np.max(np.abs(np.linalg.eigvals(prod))) < bound + 1e-12


class TestObserverStep:
    def test_converged_observer_only_downdates_L(self):
        target_a = SWAP
        x = np.array([1.0, -2.0])
        obs = ob.RlsObserver(config=BUNDLED_CFG, c=1.0, A_hat=target_a,
                             x_hat=x)
        nxt = ob.observer_step_tracking_leader(obs, np.zeros(2), np.zeros(2))
        np.testing.assert_allclose(nxt.A_hat, target_a)
        np.testing.assert_allclose(nxt.x_hat, target_a @ x)
        assert nxt.c != obs.c

    def test_dimension_mismatch(self):
        obs = ob.RlsObserver.create(BUNDLED_CFG, 2)
        with pytest.raises(ValueError, match="dimension"):
            ob.observer_step_tracking_leader(obs, np.zeros(3), np.zeros(3))

    def test_single_pinned_observer_error_decreases(self):
        # one agent pinned to the moving target, no neighbours: the error
        # norm trends down over 500 ticks for any initial estimate in the
        # unit ball
        rng = np.random.default_rng(23)
        for _ in range(5):
            obs = ob.RlsObserver.create(BUNDLED_CFG, 2,
                                        x0=rng.normal(size=2) * 0.7)
            x_o = np.array([2.0, 0.0])
            errs = []
            for _ in range(500):
                errs.append(np.linalg.norm(obs.x_hat - x_o))
                eta = consensus_error(obs.x_hat, [], 1.0, x_o)
                x_o_next = SWAP @ x_o
                pred = predict(obs, eta)
                eta_next = consensus_error(pred, [], 1.0, x_o_next)
                obs = ob.observer_step_tracking_leader(obs, eta, eta_next)
                x_o = x_o_next
            final = np.linalg.norm(obs.x_hat - x_o)
            assert final < 1e-3 * max(errs[0], 1.0)
            tail = np.array(errs[250:])
            assert tail[-50:].mean() <= tail[:50].mean()

    def test_leader_network_error_decays(self, hexagon_config):
        # the bundled leader wiring (two pinned roots, four relays) with the
        # published parameter set and a formation-scale target
        topo = hexagon_config.topology
        rng = np.random.default_rng(3)
        nodes = topo.leader_nodes
        observers = {q: ob.RlsObserver.create(BUNDLED_CFG, 2,
                                              x0=rng.normal(size=2))
                     for q in nodes}
        x_o = np.array([2.0, 0.0])

        def etas(values, pin):
            out = {}
            for q in nodes:
                qi = topo.leader_index(q)
                terms = [(topo.leader_adjacency[qi, topo.leader_index(j)],
                          values[j]) for j in nodes if j != q]
                out[q] = consensus_error(values[q], terms,
                                         topo.tracking_to_leader[qi], pin)
            return out

        total0 = sum(np.linalg.norm(observers[q].x_hat - x_o) for q in nodes)
        for _ in range(2000):
            vals = {q: observers[q].x_hat for q in nodes}
            e_now = etas(vals, x_o)
            x_o_next = SWAP @ x_o
            preds = {q: predict(observers[q], e_now[q]) for q in nodes}
            e_next = etas(preds, x_o_next)
            observers = {q: ob.observer_step_tracking_leader(
                observers[q], e_now[q], e_next[q]) for q in nodes}
            x_o = x_o_next
        total = sum(np.linalg.norm(observers[q].x_hat - x_o) for q in nodes)
        assert total < 1e-3 < total0


def matrix_step(obs, L, eta, eta_next):
    """The general update: rank-one downdate of the parameter matrix L,
    gain solve against L_next^-1 + xi I, row-major unstacked model update."""
    cfg = obs.config
    n = obs.x_hat.size
    x_bar = ob.regressor(obs.x_hat)
    l_next = ob.rls_update_L(L, x_bar)
    gain = np.linalg.solve(np.linalg.inv(l_next) + cfg.xi * np.eye(n), eta_next)
    a_next = obs.A_hat - cfg.coupling * (x_bar @ gain).reshape(n, n)
    x_next = obs.A_hat @ obs.x_hat - cfg.consensus_gain * cfg.gain_matrix @ eta
    return l_next, a_next, x_next


def random_config(rng, n):
    return ob.ObserverConfig(xi=float(rng.uniform(1.0, 6.0)),
                             coupling=float(rng.uniform(0.5, 10.0)),
                             consensus_gain=float(rng.uniform(0.1, 2.0)),
                             gain_matrix=rng.normal(size=(n, n)),
                             init_scale=float(10.0 ** rng.uniform(-2, 2)))


def assert_rel_close(actual, expected, rtol=1e-12):
    scale = max(float(np.max(np.abs(expected))), 1e-300)
    assert float(np.max(np.abs(np.asarray(actual) - expected))) <= rtol * scale


class TestScalarParameter:
    def test_step_matches_matrix_update(self):
        # from the same state, the scalar step equals the matrix path with
        # L = c I for every output, for excitations c |x|^2 up to ~1e6
        rng = np.random.default_rng(41)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            obs = ob.RlsObserver(config=random_config(rng, n),
                                 c=float(10.0 ** rng.uniform(-3, 1)),
                                 A_hat=rng.normal(size=(n, n)),
                                 x_hat=rng.normal(size=n) * 10.0 ** rng.uniform(-2, 2))
            eta, eta_next = rng.normal(size=n), rng.normal(size=n)
            nxt = ob.observer_step_tracking_leader(obs, eta, eta_next)
            l_next, a_next, x_next = matrix_step(obs, obs.c * np.eye(n), eta, eta_next)
            assert_rel_close(nxt.c * np.eye(n), l_next)
            assert_rel_close(nxt.A_hat, a_next)
            assert_rel_close(nxt.x_hat, x_next)

    def test_scale_follows_matrix_downdates_over_sequences(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            cfg = random_config(rng, n)
            obs = ob.RlsObserver.create(cfg, n)
            L = cfg.init_scale * np.eye(n)
            for _ in range(40):
                obs = ob.RlsObserver(cfg, obs.c, obs.A_hat, rng.normal(size=n))
                L, _, _ = matrix_step(obs, L, np.zeros(n), np.zeros(n))
                obs = ob.observer_step_tracking_leader(obs, np.zeros(n), np.zeros(n))
                assert_rel_close(obs.c * np.eye(n), L)

    def test_given_prediction_is_used(self):
        obs = ob.RlsObserver.create(BUNDLED_CFG, 2, x0=[1.0, 2.0])
        eta = np.array([0.3, -0.1])
        plain = ob.observer_step_tracking_leader(obs, eta, eta)
        given = ob.observer_step_tracking_leader(
            obs, eta, eta, x_next=predict(obs, eta))
        np.testing.assert_array_equal(plain.x_hat, given.x_hat)
        np.testing.assert_array_equal(plain.A_hat, given.A_hat)
        assert plain.c == given.c

    def test_blown_up_estimate_is_a_convergence_error(self):
        # |x|^2 overflows, so the downdated scale is zero
        obs = ob.RlsObserver.create(BUNDLED_CFG, 2, x0=[1e200, 0.0])
        with np.errstate(over="ignore"), pytest.raises(ConvergenceError, match="diverged"):
            ob.observer_step_tracking_leader(obs, np.zeros(2), np.zeros(2))


def reference_etas(cfg, state, target, values, pin_value):
    """Per-node consensus errors of one network from the topology blocks,
    gating out neighbours that do not observe the target (0 = tracking)."""
    topo = cfg.topology
    if target == 0:
        members = topo.leader_nodes + topo.follower_nodes
    else:
        members = [a for a in topo.follower_nodes + topo.leader_nodes
                   if a != target and target in state.knowledge[a].influential]

    def weight(dst, src):
        if topo.is_leader(dst):
            if src == 0:
                return topo.tracking_to_leader[topo.leader_index(dst)]
            if topo.is_follower(src):
                return 0.0
            return topo.leader_adjacency[topo.leader_index(dst), topo.leader_index(src)]
        if src == 0:
            return 0.0
        if topo.is_leader(src):
            return topo.leader_to_follower[topo.follower_index(dst),
                                           topo.leader_index(src)]
        return topo.follower_adjacency[topo.follower_index(dst), topo.follower_index(src)]

    out = {}
    for m in members:
        terms = [(weight(m, j), values[j]) for j in members if j != m]
        out[m] = consensus_error(values[m], terms, weight(m, target), pin_value)
    return out


def single_network_bank(adjacency, members, target):
    """A bank of one network whose observers all use BUNDLED_CFG."""
    return ob.ObserverBank.stack(np.asarray(adjacency, dtype=float),
                                 [(target, members, [BUNDLED_CFG] * len(members))])


def bank_targets(cfg, state):
    """Current and next stacked targets, in the bank's network order."""
    now = state.targets
    nxt = np.array([cfg.tracking_a @ now[0]]
                   + [f.S @ h for f, h in zip(cfg.formation, now[1:])])
    return now, nxt


def step_networks_separately(bank, observers, targets_now, targets_next):
    """Reference for a bank step: each network on its own graph block, with
    per-observer predictions and kernel steps."""
    out = []
    for slot in range(len(targets_now)):
        rows = np.flatnonzero(bank.target == slot)
        obs = [observers[r] for r in rows]
        if not obs:
            continue
        graph, pin = bank.graph[np.ix_(rows, rows)], bank.pin[rows]
        x = np.array([o.x_hat for o in obs])
        etas = graph @ x - pin[:, None] * targets_now[slot]
        preds = np.array([predict(o, e) for o, e in zip(obs, etas)])
        etas_next = graph @ preds - pin[:, None] * targets_next[slot]
        out += [ob.observer_step_tracking_leader(o, e, e_next)
                for o, e, e_next in zip(obs, etas, etas_next)]
    return out


class TestObserverNetwork:
    @pytest.mark.parametrize("scenario", ["hexagon", "hexagon_static"])
    def test_graph_block_matches_per_node_sums(self, scenario):
        cfg = sc.load_bundled(scenario)
        state = sim.init_world(cfg)
        rng = np.random.default_rng(11)
        observed = [0] + cfg.topology.leader_nodes
        checked = 0
        for tick in range(121):
            if tick in (0, 1, 2, 3, 5, 40, 120):
                bank = state.bank
                estimates = np.array([o.x_hat for o in state.observers])
                randoms = rng.normal(size=estimates.shape)
                targets = rng.normal(size=(len(observed), cfg.state_dim))
                for values in (estimates, randoms):
                    eta = bank.consensus_errors(values, targets)
                    for slot, target in enumerate(observed):
                        rows = np.flatnonzero(bank.target == slot)
                        members = [bank.rows[r][0] for r in rows]
                        ref = reference_etas(cfg, state, target,
                                             dict(zip(members, values[rows])),
                                             targets[slot])
                        assert set(members) == set(ref)
                        if not members:
                            continue
                        scale = (max(np.abs(values[rows]).max(),
                                     np.abs(targets[slot]).max())
                                 * np.abs(bank.graph[rows]).sum(axis=1).max())
                        for k, a in zip(rows, members):
                            np.testing.assert_allclose(eta[k], ref[a], rtol=1e-12,
                                                       atol=1e-12 * scale)
                            checked += 1
            sim.step_world(state, cfg)
        assert checked > 0

    def test_networks_rebuilt_only_when_influence_spreads(self, hexagon_config):
        cfg = hexagon_config
        topo = cfg.topology
        agents = topo.leader_nodes + topo.follower_nodes
        state = sim.init_world(cfg)
        seen = [state.bank]
        changes = state.propagation_changes
        for _ in range(60):
            sim.step_world(state, cfg)
            if state.propagation_changes != changes:
                changes = state.propagation_changes
                seen.append(state.bank)
            else:
                assert state.bank is seen[-1]
        assert len(seen) == 1 + changes
        for bank in seen:
            # tracking network first, then each leader's network in leader
            # order; rows are the union of the members in that order
            observed = [0] + topo.leader_nodes
            assert [q for _, q in bank.rows] == [observed[s] for s in bank.target]
            assert np.all(np.diff(bank.target) >= 0)
            assert [a for a, q in bank.rows if q == 0] == agents
        for q in topo.leader_nodes:
            assert [a for a, node in state.bank.rows if node == q] == sorted(
                a for a in agents if a != q and q in state.knowledge[a].influential)

    def test_rows_keep_their_observers_across_rebuilds(self, monkeypatch, hexagon_config):
        # every propagation change rebuilds the bank: a row that existed keeps
        # its observer object, a new row starts fresh, none is dropped, and
        # ``row`` inverts ``rows``
        cfg = hexagon_config
        cfg.mode = sim.MODE_ORACLE  # faster, and observers ignore the mode
        sync = sim._sync_observer_networks
        rebuilds = []

        def checked(state, cfg):
            before = dict(zip(state.bank.rows, state.observers)) if state.bank else {}
            sync(state, cfg)
            bank = state.bank
            assert len(state.observers) == len(bank.rows) == len(bank.configs)
            assert all(bank.row[key] == r for r, key in enumerate(bank.rows))
            assert set(before) <= set(bank.rows)
            for key, obs, config in zip(bank.rows, state.observers, bank.configs):
                assert obs.config is config
                if key in before:
                    assert obs is before[key]
                else:
                    assert obs.c == config.init_scale
                    assert not obs.x_hat.any() and not obs.A_hat.any()
            rebuilds.append(len(bank.rows) - len(before))
        monkeypatch.setattr(sim, "_sync_observer_networks", checked)
        state = sim.init_world(cfg)
        for _ in range(60):
            sim.step_world(state, cfg)
        assert len(rebuilds) == 1 + state.propagation_changes > 1
        assert all(added > 0 for added in rebuilds)

    def test_non_finite_prediction_is_a_convergence_error(self):
        bank = single_network_bank([[0.0, 1.0], [0.0, 0.0]], [1], 0)
        obs = ob.RlsObserver.create(BUNDLED_CFG, 2, x0=[np.inf, 0.0])
        with np.errstate(invalid="ignore"), pytest.raises(ConvergenceError,
                                                          match="diverged"):
            bank.step([obs], obs.x_hat[None], np.zeros((1, 2)), np.zeros((1, 2)))

    def test_step_matches_per_observer_updates(self):
        # the bank equals each network stepped on its own, bit for bit: from
        # the start, after influence has spread, and across the propensity
        # switch at tick 4000
        ticks = {0, 1, 2, 3, 4, 5, 40, 120, 3999, 4000, 4001}
        for scenario in ("hexagon", "hexagon_static"):
            cfg = sc.load_bundled(scenario)
            assert 4000 in [t for t, _ in cfg.schedule.entries]
            cfg.mode = sim.MODE_ORACLE  # faster, and observers ignore the mode
            state = sim.init_world(cfg)
            for tick in range(max(ticks) + 1):
                if tick in ticks:
                    observers = state.observers
                    targets_now, targets_next = bank_targets(cfg, state)
                    got = state.bank.step(observers, np.array([o.x_hat for o in observers]),
                                          targets_now, targets_next)
                    ref = step_networks_separately(state.bank, observers,
                                                   targets_now, targets_next)
                    assert len(got) == len(ref) == len(state.bank.rows)
                    for new, expected in zip(got, ref):
                        np.testing.assert_array_equal(new.x_hat, expected.x_hat)
                        np.testing.assert_array_equal(new.A_hat, expected.A_hat)
                        assert new.c == expected.c
                sim.step_world(state, cfg)


class TestFormationObserverGating:
    def test_gated_out_neighbour_gives_no_pull(self):
        # agent 1 hears agent 2, which does not observe the leader (node 3),
        # and has no pin: the edge is gated out, so the estimate never
        # moves toward the target
        adjacency = np.zeros((4, 4))
        adjacency[1, 2] = 1.0
        bank = single_network_bank(adjacency, [1], 3)
        np.testing.assert_array_equal(bank.graph, [[0.0]])
        np.testing.assert_array_equal(bank.pin, [0.0])
        obs = ob.RlsObserver.create(BUNDLED_CFG, 2)  # x_hat = 0
        h = np.array([2.0, 0.0])
        for _ in range(50):
            h_next = SWAP @ h
            [obs] = bank.step([obs], obs.x_hat[None], h[None], h_next[None])
            h = h_next
        np.testing.assert_allclose(obs.x_hat, np.zeros(2))
        np.testing.assert_allclose(obs.A_hat, np.zeros((2, 2)))

    def test_pinned_formation_observer_tracks(self):
        adjacency = np.zeros((3, 3))
        adjacency[1, 2] = 1.0  # the leader (node 2) pins agent 1
        bank = single_network_bank(adjacency, [1], 2)
        obs = ob.RlsObserver.create(BUNDLED_CFG, 2)
        h = np.array([2.0, 0.0])
        for _ in range(500):
            h_next = SWAP @ h
            [obs] = bank.step([obs], obs.x_hat[None], h[None], h_next[None])
            h = h_next
        assert np.linalg.norm(obs.x_hat - h) < 1e-5
        # the model estimate identifies the formation dynamics as well
        assert np.max(np.abs(obs.A_hat - SWAP)) < 1e-4
