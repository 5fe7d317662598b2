import numpy as np
import pytest

import reference as ref
from conftest import SWAP, consensus_error, drawn_topology_config, estimate_of, model_of
from pfcc import observers as ob
from pfcc import scenario as sc
from pfcc import simulation as sim
from pfcc.errors import ConvergenceError, PfccError
from pfcc.matops import row_sq_norms

FA = np.array([[0.1, 0.5], [0.5, 0.1]])
BUNDLED_CFG = ob.ObserverConfig(coupling=8.0, consensus_gain=0.7, gain_matrix=FA)
XI, INIT_SCALE = 4.0, 0.05


def lone_bank(config=BUNDLED_CFG, pinned=True, xi=XI):
    """A bank of one observer, agent 1 of node 0, with no neighbours and
    pinned to its target at weight 1 (its errors are x - target) or not at
    all (its errors are zero)."""
    return single_network_bank([[0.0, 0.0], [float(pinned), 0.0]], [1], 0, config, xi)


def bank_step(bank, observers, models, x_hat, targets_now, targets_next, carried=None):
    """One ``ObserverBank.step`` from the rows' models (R, n, n) as the
    engine makes it: the stacked products ``A_hat x_hat`` corrected in place
    into the next estimates, and the returned correction subtracted from the
    models.  Returns the stepped records, the next models, the next
    estimates and the carried pair."""
    pred = np.matmul(models, x_hat[..., None])[..., 0]
    stepped, correction, pair = bank.step(observers, x_hat, pred, targets_now,
                                          targets_next, carried)
    return stepped, models - correction, pred, pair


def lone_step(bank, obs, model, x, target, target_next):
    """One step of a one-row bank from the record ``obs``, its model and
    its estimate ``x`` against the (n,) target's current and next values;
    returns the stepped record, model and estimate."""
    [nxt], models, pred, _ = bank_step(bank, [obs], model[None], x[None], target[None],
                                       target_next[None])
    return nxt, models[0], pred[0]


def ref_step(obs, xi, x, eta_next):
    """One reference row step with the regularizer ``xi`` from the estimate
    ``x`` and the (n,) next-tick error, given the squared norm and error
    column the way the per-row update takes them."""
    return ref.row_observer_step(obs, xi, x, float(x.dot(x)), eta_next[:, None])


def predict(obs, x, eta):
    """One reference observer's prediction from its estimate ``x``."""
    cfg = obs.config
    return ref.predict_state(obs.A_hat, x, cfg.consensus_gain, cfg.gain_matrix,
                             np.asarray(eta, dtype=float))


class TestRlsUpdate:
    def test_zero_regressor_leaves_L_unchanged(self):
        l0 = 3.0 * np.eye(2)
        np.testing.assert_allclose(ref.rls_update_L(l0, ref.regressor(np.zeros(2))),
                                   l0)

    def test_scalar_halving(self):
        out = ref.rls_update_L(np.array([[1.0]]), ref.regressor(np.array([1.0])))
        np.testing.assert_allclose(out, [[0.5]], atol=1e-14)

    def test_matches_direct_inverse_form(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            a = rng.normal(size=(n, n))
            l0 = a @ a.T + 0.5 * np.eye(n)
            x_bar = ref.regressor(rng.normal(size=n))
            expected = np.linalg.inv(np.linalg.inv(l0) + x_bar.T @ x_bar)
            np.testing.assert_allclose(ref.rls_update_L(l0, x_bar), expected,
                                       atol=1e-10)

    def test_non_positive_definite_rejected(self):
        with pytest.raises(PfccError, match="positive definite"):
            ref.rls_update_L(-np.eye(2), ref.regressor(np.ones(2)))

    def test_asymmetry_tolerance_edge(self):
        # asymmetry up to 1e-9 is symmetric enough, the next float is not
        x_bar = ref.regressor(np.ones(2))
        ref.rls_update_L(np.array([[2.0, 1e-9], [0.0, 2.0]]), x_bar)
        with pytest.raises(PfccError, match="positive definite"):
            ref.rls_update_L(np.array([[2.0, np.nextafter(1e-9, 1.0)], [0.0, 2.0]]), x_bar)

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
                x_bar = ref.regressor(x)
                l = ref.rls_update_L(l, x_bar)
                gram = x_bar.T @ x_bar
                diff = np.linalg.inv(l) - gram
                assert np.min(np.linalg.eigvalsh(0.5 * (diff + diff.T))) > -1e-9
                prod = gram @ np.linalg.inv(np.linalg.inv(l) + xi * np.eye(n))
                sig2 = np.linalg.norm(x_bar, 2) ** 2
                bound = sig2 / (xi + sig2)
                assert np.max(np.abs(np.linalg.eigvals(prod))) < bound + 1e-12


class TestObserverStep:
    def test_converged_observer_only_downdates_L(self):
        # no pin and no neighbours: both consensus errors are zero
        target_a = SWAP
        x = np.array([1.0, -2.0])
        obs = ob.RlsObserver(config=BUNDLED_CFG, c=1.0)
        nxt, model, x_next = lone_step(lone_bank(pinned=False), obs, target_a, x,
                                       np.zeros(2), np.zeros(2))
        np.testing.assert_allclose(model, target_a)
        np.testing.assert_allclose(x_next, target_a @ x)
        assert nxt.c != obs.c

    def test_single_pinned_observer_error_decreases(self):
        # one agent pinned to the moving target, no neighbours: the error
        # norm trends down over 500 ticks for any initial estimate in the
        # unit ball
        rng = np.random.default_rng(23)
        bank = lone_bank()
        for _ in range(5):
            obs, x = ob.RlsObserver(BUNDLED_CFG, INIT_SCALE), rng.normal(size=2) * 0.7
            model = np.zeros((2, 2))
            x_o = np.array([2.0, 0.0])
            errs = []
            for _ in range(500):
                errs.append(np.linalg.norm(x - x_o))
                x_o_next = SWAP @ x_o
                obs, model, x = lone_step(bank, obs, model, x, x_o, x_o_next)
                x_o = x_o_next
            final = np.linalg.norm(x - x_o)
            assert final < 1e-3 * max(errs[0], 1.0)
            tail = np.array(errs[250:])
            assert tail[-50:].mean() <= tail[:50].mean()

    def test_leader_network_error_decays(self, hexagon_config):
        # the bundled leader wiring (two pinned roots, four relays) with the
        # published parameter set and a formation-scale target
        topo = hexagon_config.topology
        rng = np.random.default_rng(3)
        nodes = topo.leader_nodes
        # the leaders' network over their own edges, pinned to node 0
        bank = ob.ObserverBank.stack(topo.adjacency, [(0, nodes, [BUNDLED_CFG] * len(nodes))],
                                     XI)
        observers = [ob.RlsObserver(BUNDLED_CFG, INIT_SCALE)] * len(nodes)
        models = np.zeros((len(nodes), 2, 2))
        vals = rng.normal(size=(len(nodes), 2))
        x_o = np.array([2.0, 0.0])

        total0 = np.linalg.norm(vals - x_o, axis=1).sum()
        for _ in range(2000):
            x_o_next = SWAP @ x_o
            observers, models, vals, _ = bank_step(bank, observers, models, vals, x_o[None],
                                                   x_o_next[None])
            x_o = x_o_next
        total = np.linalg.norm(vals - x_o, axis=1).sum()
        assert total < 1e-3 < total0


def matrix_step(cfg, xi, a_hat, x, L, eta, eta_next):
    """The general update of the model ``a_hat`` from the estimate ``x``:
    rank-one downdate of the parameter matrix L, gain solve against
    L_next^-1 + xi I, row-major unstacked model update."""
    n = x.size
    x_bar = ref.regressor(x)
    l_next = ref.rls_update_L(L, x_bar)
    gain = np.linalg.solve(np.linalg.inv(l_next) + xi * np.eye(n), eta_next)
    a_next = a_hat - cfg.coupling * (x_bar @ gain).reshape(n, n)
    x_next = a_hat @ x - cfg.consensus_gain * cfg.gain_matrix @ eta
    return l_next, a_next, x_next


def random_gains(rng, n):
    """A random observer config, regularizer xi and initial scale."""
    xi = float(rng.uniform(1.0, 6.0))
    config = ob.ObserverConfig(coupling=float(rng.uniform(0.5, 10.0)),
                               consensus_gain=float(rng.uniform(0.1, 2.0)),
                               gain_matrix=rng.normal(size=(n, n)))
    return config, xi, float(10.0 ** rng.uniform(-2, 2))


def assert_rel_close(actual, expected, rtol=1e-12):
    scale = max(float(np.max(np.abs(expected))), 1e-300)
    assert float(np.max(np.abs(np.asarray(actual) - expected))) <= rtol * scale


class TestScalarParameter:
    def test_step_matches_matrix_update(self):
        # from the same state, a bank step of one pinned row equals the
        # matrix path with L = c I, fed the consensus errors the bank made,
        # for every output, for excitations c |x|^2 up to ~1e6
        rng = np.random.default_rng(41)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            cfg, xi, _ = random_gains(rng, n)
            obs = ob.RlsObserver(config=cfg, c=float(10.0 ** rng.uniform(-3, 1)))
            a_hat = rng.normal(size=(n, n))
            x = rng.normal(size=n) * 10.0 ** rng.uniform(-2, 2)
            target, target_next = rng.normal(size=n), rng.normal(size=n)
            bank = lone_bank(cfg, xi=xi)
            nxt, model, pred = lone_step(bank, obs, a_hat, x, target, target_next)
            eta = bank.consensus_errors(x[None], target[None])[0]
            eta_next = bank.consensus_errors(pred[None], target_next[None])[0]
            l_next, a_next, x_next = matrix_step(cfg, xi, a_hat, x, obs.c * np.eye(n),
                                                 eta, eta_next)
            assert_rel_close(nxt.c * np.eye(n), l_next)
            assert_rel_close(model, a_next)
            assert_rel_close(pred, x_next)

    def test_scale_follows_matrix_downdates_over_sequences(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            cfg, xi, init_scale = random_gains(rng, n)
            obs = ob.RlsObserver(cfg, init_scale)
            L = init_scale * np.eye(n)
            for _ in range(40):
                x = rng.normal(size=n)
                L, _, _ = matrix_step(cfg, xi, np.zeros((n, n)), x, L, np.zeros(n),
                                      np.zeros(n))
                obs = ob.observer_step_tracking_leader(obs, float(x.dot(x)))
                assert_rel_close(obs.c * np.eye(n), L)

    def test_given_prediction_is_used(self):
        # a bank step corrects the products A_hat x_hat it is handed in
        # place into the next estimates, each bit for bit its row's stacked
        # prediction
        rng = np.random.default_rng(29)
        bank = single_network_bank([[0.0, 0.0, 0.0], [1.0, 0.0, 0.5], [0.0, 2.0, 0.0]],
                                   [1, 2], 0)
        observers = [ob.RlsObserver(BUNDLED_CFG, INIT_SCALE)] * 2
        models = rng.normal(size=(2, 2, 2))
        x_hat, targets_now = rng.normal(size=(2, 2)), rng.normal(size=(1, 2))
        pred = ref.predict_state(models, x_hat, bank.mu, bank.gain,
                                 bank.consensus_errors(x_hat, targets_now))
        targets_next = targets_now @ SWAP.T
        estimates = np.matmul(models, x_hat[..., None])[..., 0]
        _, _, (eta_next, pred_sq) = bank.step(observers, x_hat, estimates, targets_now,
                                              targets_next)
        assert estimates.tobytes() == pred.tobytes()
        # the carried pair is the next estimates' consensus errors and
        # squared norms
        assert eta_next.tobytes() == bank.consensus_errors(pred, targets_next).tobytes()
        assert pred_sq.tobytes() == row_sq_norms(pred).tobytes()

    def test_blown_up_estimate_is_a_convergence_error(self):
        # |x|^2 overflows, so the downdated scale is zero
        obs = ob.RlsObserver(BUNDLED_CFG, INIT_SCALE)
        x = np.array([1e200, 0.0])
        with np.errstate(over="ignore"), pytest.raises(ConvergenceError, match="diverged"):
            ob.observer_step_tracking_leader(obs, float(x.dot(x)))


def reference_etas(cfg, state, target, values, pin_value):
    """Per-node consensus errors of one network from the topology's
    adjacency, gating out neighbours that do not observe the target (0 = tracking)."""
    topo = cfg.topology
    if target == 0:
        members = topo.leader_nodes + topo.follower_nodes
    else:
        members = [a for a in topo.follower_nodes + topo.leader_nodes
                   if a != target and state.known[a, target]]

    a = topo.adjacency
    out = {}
    for m in members:
        terms = [(a[m, j], values[j]) for j in members if j != m]
        out[m] = consensus_error(values[m], terms, a[m, target], pin_value)
    return out


def single_network_bank(adjacency, members, target, config=BUNDLED_CFG, xi=XI):
    """A bank of one network whose observers all use ``config``."""
    return ob.ObserverBank.stack(np.asarray(adjacency, dtype=float),
                                 [(target, members, [config] * len(members))], xi)


def bank_targets(cfg, state):
    """Current and next stacked targets, in the bank's network order."""
    now = state.targets
    nxt = np.array([cfg.tracking_a @ now[0]]
                   + [f.S @ h for f, h in zip(cfg.formation, now[1:])])
    return now, nxt


def step_networks_separately(bank, observers, models, x_hat, targets_now, targets_next):
    """Reference for a bank step: each network on its own graph block, with
    per-observer predictions and reference row steps.  Returns the stepped
    reference records (scale and model) and the next estimates, each in
    row order."""
    out, estimates = [], []
    for slot in range(len(targets_now)):
        rows = np.flatnonzero(bank.target == slot)
        obs = [ref.RowObserver(observers[r].config, observers[r].c, models[r]) for r in rows]
        if not obs:
            continue
        graph, pin = bank.graph[np.ix_(rows, rows)], bank.pin[rows]
        x = x_hat[rows]
        etas = graph @ x - pin[:, None] * targets_now[slot]
        preds = np.array([predict(o, x_o, e) for o, x_o, e in zip(obs, x, etas)])
        etas_next = graph @ preds - pin[:, None] * targets_next[slot]
        out += [ref_step(o, bank.xi, x_o, e_next)
                for o, x_o, e_next in zip(obs, x, etas_next)]
        estimates += list(preds)
    return out, estimates


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
                estimates = np.array([estimate_of(state, *key) for key in bank.rows])
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
                a for a in agents if a != q and state.known[a, q])

    def test_rows_keep_their_observers_across_rebuilds(self, monkeypatch, hexagon_config):
        # every propagation change rebuilds the bank: a row that existed keeps
        # its observer object and, bit for bit, its model and its estimate in
        # the world tail; a new row starts fresh at a zero model and
        # estimate, none is dropped, and ``row`` inverts ``rows``.  The
        # hexagon's knowledge changes only at tick 0, before any observer
        # step; drawn topology 4's changes again at ticks 1 and 2, so its
        # rebuilds carry moved models and estimates
        sync = sim._sync_observer_networks
        rebuilds, moved, moved_models = [], [], []

        def config_of(cfg, agent, target):
            if target:
                return cfg.formation_observers[target]
            return (cfg.leader_tracking_observer if cfg.topology.is_leader(agent)
                    else cfg.follower_tracking_observer)

        def checked(state, cfg):
            before = {key: (obs, estimate_of(state, *key).copy(), model_of(state, *key).copy())
                      for key, obs in zip(state.bank.rows, state.observers)
                      } if state.bank else {}
            sync(state, cfg)
            bank = state.bank
            n = cfg.state_dim
            assert len(state.observers) == len(bank.rows)
            # the stack holds one block per world block: the head's dynamics
            # unchanged, then one model per row
            head = state.x.shape[0] + state.targets.shape[0]
            assert state.stack.shape == (head + len(bank.rows), n, n)
            assert state.world.size == len(state.stack) * n
            np.testing.assert_array_equal(state.stack[:head], np.array(
                [dyn.A for dyn in cfg.dynamics] + [cfg.tracking_a]
                + [form.S for form in cfg.formation]))
            assert all(bank.row[key] == r for r, key in enumerate(bank.rows))
            assert set(before) <= set(bank.rows)
            for key, obs in zip(bank.rows, state.observers):
                model = model_of(state, *key)
                config = config_of(cfg, *key)
                assert obs.config is config
                if key in before:
                    assert obs is before[key][0]
                    assert estimate_of(state, *key).tobytes() == before[key][1].tobytes()
                    assert model.tobytes() == before[key][2].tobytes()
                    moved.append(before[key][1].any())
                    moved_models.append(before[key][2].any())
                else:
                    assert obs.c == cfg.init_scale
                    assert not estimate_of(state, *key).any() and not model.any()
            rebuilds.append(len(bank.rows) - len(before))
        monkeypatch.setattr(sim, "_sync_observer_networks", checked)
        for cfg, ticks in ((hexagon_config, 60),
                           (drawn_topology_config(hexagon_config, 4, 4000), 10)):
            cfg.mode = sim.MODE_ORACLE  # faster, and observers ignore the mode
            rebuilds.clear()
            state = sim.init_world(cfg)
            for _ in range(ticks):
                sim.step_world(state, cfg)
            assert len(rebuilds) == 1 + state.propagation_changes > 1
            assert all(added > 0 for added in rebuilds)
        assert any(moved) and any(moved_models)

    def test_non_finite_prediction_is_a_convergence_error(self):
        bank = single_network_bank([[0.0, 1.0], [0.0, 0.0]], [1], 0)
        obs = ob.RlsObserver(BUNDLED_CFG, INIT_SCALE)
        with np.errstate(invalid="ignore"), pytest.raises(ConvergenceError,
                                                          match="diverged"):
            bank_step(bank, [obs], np.zeros((1, 2, 2)), np.array([[np.inf, 0.0]]),
                      np.zeros((1, 2)), np.zeros((1, 2)))

    def test_first_past_guard_is_the_first_row_beyond_it_or_nan(self):
        def first(d):
            return ob.first_past_guard(row_sq_norms(np.array(d)))
        assert first([[ob.STATE_GUARD, 0.0], [3.0, 4.0]]) is None
        assert first([[1.0, 0.0], [2e9, 0.0], [np.inf, 0.0]]) == 1
        assert first([[1.0, 0.0], [0.0, np.nan]]) == 1

    def test_first_past_guard_matches_the_sqrt_form_at_the_boundary(self):
        # the guard compares the squared norms with 1e18 and takes no square
        # root; it must agree with the square-root form on every input.
        # 1e18 is the guard's square exactly, and the next float above it
        # has a square root one ulp above the guard, so both forms find it
        # past the guard
        def sqrt_form(sq_norms):
            norms = np.sqrt(sq_norms)
            if norms.max() <= ob.STATE_GUARD:
                return None
            return int(np.argmin(norms <= ob.STATE_GUARD))

        guard_sq, above = 1e18, np.nextafter(1e18, np.inf)
        assert guard_sq == ob.STATE_GUARD ** 2 and np.sqrt(guard_sq) == ob.STATE_GUARD
        assert np.sqrt(above) == np.nextafter(ob.STATE_GUARD, np.inf)
        cases = [([guard_sq], None), ([1.0, guard_sq, 0.0], None), ([above], 0),
                 ([guard_sq, 3.0, above], 2), ([np.inf], 0), ([1.0, np.inf, above], 1),
                 ([np.nan, 1.0], 0), ([1.0, guard_sq, np.nan], 2), ([np.nan, np.inf], 0)]
        for sq_norms, first in cases:
            assert ob.first_past_guard(np.array(sq_norms)) == sqrt_form(np.array(sq_norms)) \
                == first, sq_norms
        rng = np.random.default_rng(31)
        # floats within 64 ulps (128 each) of 1e18, the same capped at 1e18,
        # and squared norms across magnitudes
        steps = 1e18 + 128.0 * rng.integers(-64, 65, size=(300, 4))
        spread = 10.0 ** rng.uniform(14, 22, size=(300, 4))
        sweep = np.concatenate((steps, np.minimum(steps, guard_sq), spread))
        found = [ob.first_past_guard(sq_norms) for sq_norms in sweep]
        assert found == [sqrt_form(sq_norms) for sq_norms in sweep]
        assert found.count(None) > 300 and {0, 1, 2, 3} <= set(found)

    @pytest.mark.parametrize("bad, row", [
        # agent 2 listens to agent 1, so only its own prediction leaves the
        # guard
        (2e9, (2, 0)),
        # a nan fails the guard too; the graph product spreads it to every
        # row (0 * nan is nan), so the row whose current estimate is nan is
        # named, not the first row
        (np.nan, (2, 0))])
    def test_estimate_past_the_guard_names_its_row(self, bad, row):
        bank = single_network_bank([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 2.0, 0.0]],
                                   [1, 2], 0)
        observers = [ob.RlsObserver(BUNDLED_CFG, INIT_SCALE)] * 2
        x_hat = np.array([[1.0, 0.0], [bad, 0.0]])
        with np.errstate(invalid="ignore"), pytest.raises(ob.ObserverDivergence,
                                                          match="diverged") as info:
            bank_step(bank, observers, np.array([np.eye(2)] * 2), x_hat, np.zeros((1, 2)),
                      np.zeros((1, 2)))
        assert info.value.row == row

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
                    models = np.array([model_of(state, *key) for key in state.bank.rows])
                    x_hat = np.array([estimate_of(state, *key) for key in state.bank.rows])
                    targets_now, targets_next = bank_targets(cfg, state)
                    got, got_models, estimates, _ = bank_step(
                        state.bank, observers, models, x_hat, targets_now, targets_next)
                    expected, ref_estimates = step_networks_separately(
                        state.bank, observers, models, x_hat, targets_now, targets_next)
                    assert len(got) == len(expected) == len(state.bank.rows)
                    # the stacked next estimates are each row's own prediction
                    np.testing.assert_array_equal(estimates, ref_estimates)
                    for new, model, row in zip(got, got_models, expected):
                        np.testing.assert_array_equal(model, row.A_hat)
                        assert new.c == row.c
                sim.step_world(state, cfg)


    @pytest.mark.parametrize("draw, ticks", [(None, 4002), (4, 10)])
    def test_run_matches_the_per_row_reference(self, monkeypatch, hexagon_config,
                                               draw, ticks):
        # every bank step of an oracle run equals, bit for bit, each row
        # updated on its own by the per-row reference, which carries its own
        # scale, model and estimate from a fresh start: through the hexagon's
        # rebuild at tick 0 and its propensity switch at tick 4000, and
        # through drawn topology 4's rebuilds at ticks 1 and 2, which carry
        # rows whose models have moved.  The consensus errors and squared
        # norms a step is handed equal, bit for bit, fresh ones of its
        # estimates, and only a rebuilt bank's first step is handed none.
        # The transition stack's model tail holds the reference models at
        # every step and after the last commit, and the products a step is
        # handed are those models' A_hat x_hat
        cfg = (hexagon_config if draw is None
               else drawn_topology_config(hexagon_config, draw, 4000))
        cfg.mode = sim.MODE_ORACLE  # faster, and observers ignore the mode
        step, n = ob.ObserverBank.step, cfg.state_dim
        carried, banks, fresh_ticks = {}, [], []

        def checked(bank, observers, x_hat, pred, targets_now, targets_next, pair):
            fresh = (None, np.zeros(n))
            refs, x_ref = zip(*(carried.get(key, fresh) for key in bank.rows))
            refs = [ref.RowObserver(o.config, cfg.init_scale, np.zeros((n, n))) if r is None
                    else r for r, o in zip(refs, observers)]
            models = np.array([r.A_hat for r in refs])
            assert state.stack[state.head :].tobytes() == models.tobytes()
            assert pred.tobytes() == np.matmul(models, x_hat[..., None])[..., 0].tobytes()
            got = step(bank, observers, x_hat, pred, targets_now, targets_next, pair)
            assert x_hat.tobytes() == np.array(x_ref).tobytes()
            eta = bank.consensus_errors(x_hat, targets_now)
            if pair is None:
                fresh_ticks.append(len(banks))
            else:
                assert pair[0].tobytes() == eta.tobytes()
                assert pair[1].tobytes() == row_sq_norms(x_hat).tobytes()
            preds = np.array([predict(r, x, e) for r, x, e in zip(refs, x_hat, eta)])
            eta_next = bank.consensus_errors(preds, targets_next)
            stepped = [ref_step(r, bank.xi, x, e) for r, x, e in zip(refs, x_hat, eta_next)]
            carried.update(zip(bank.rows, zip(stepped, preds)))
            records, correction, _ = got
            assert [o.c for o in records] == [r.c for r in stepped]
            assert ((models - correction).tobytes()
                    == np.array([r.A_hat for r in stepped]).tobytes())
            assert pred.tobytes() == preds.tobytes()
            banks.append(bank)
            return got

        monkeypatch.setattr(ob.ObserverBank, "step", checked)
        state = sim.init_world(cfg)
        for _ in range(ticks):
            sim.step_world(state, cfg)
        assert len(banks) == ticks
        assert state.propagation_changes > 0 and banks[-1] is state.bank
        assert state.stack[state.head :].tobytes() == np.array(
            [carried[key][0].A_hat for key in state.bank.rows]).tobytes()
        rebuilt = [k for k, bank in enumerate(banks) if k == 0 or bank is not banks[k - 1]]
        assert fresh_ticks == rebuilt == ([0] if draw is None else [0, 1, 2])
        if draw is None:
            assert 4000 in [t for t, _ in cfg.schedule.entries]


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
        obs, models, x = ob.RlsObserver(BUNDLED_CFG, INIT_SCALE), np.zeros((1, 2, 2)), np.zeros((1, 2))
        h = np.array([2.0, 0.0])
        for _ in range(50):
            h_next = SWAP @ h
            [obs], models, x, _ = bank_step(bank, [obs], models, x, h[None], h_next[None])
            h = h_next
        np.testing.assert_allclose(x[0], np.zeros(2))
        np.testing.assert_allclose(models[0], np.zeros((2, 2)))

    def test_pinned_formation_observer_tracks(self):
        adjacency = np.zeros((3, 3))
        adjacency[1, 2] = 1.0  # the leader (node 2) pins agent 1
        bank = single_network_bank(adjacency, [1], 2)
        obs, models, x = ob.RlsObserver(BUNDLED_CFG, INIT_SCALE), np.zeros((1, 2, 2)), np.zeros((1, 2))
        h = np.array([2.0, 0.0])
        for _ in range(500):
            h_next = SWAP @ h
            [obs], models, x, _ = bank_step(bank, [obs], models, x, h[None], h_next[None])
            h = h_next
        assert np.linalg.norm(x[0] - h) < 1e-5
        # the model estimate identifies the formation dynamics as well
        assert np.max(np.abs(models[0] - SWAP)) < 1e-4


class TestStackedSquaredNorms:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_rows_match_their_own_dot_bit_for_bit(self, n):
        # the kernel's x_sq and the state guards read row_sq_norms; each row
        # must equal float(x.dot(x)) exactly, at every magnitude from 1e-150
        # to 1e150 and with magnitudes mixed within a row
        rng = np.random.default_rng(100 + n)
        signs = rng.choice([-1.0, 1.0], size=(400, n))
        mixed = signs * 10.0 ** rng.uniform(-150, 150, size=(400, n))
        scaled = signs * rng.uniform(1.0, 10.0, size=(400, n)) * 10.0 ** rng.uniform(
            -150, 150, size=(400, 1))
        for d in (mixed, scaled):
            stacked = row_sq_norms(d).tolist()
            assert all(type(v) is float for v in stacked)
            expected = [float(x.dot(x)) for x in d]
            assert np.array(stacked).tobytes() == np.array(expected).tobytes()


class TestObserverConfig:
    def test_int_past_float_range_reads_as_nan(self):
        # no OverflowError: ScenarioConfig.check_fields names the field
        cfg = ob.ObserverConfig(1.0, 1.0, [[10**400, 0], [0, 1]])
        assert cfg.gain_matrix.shape == (2, 2) and np.isnan(cfg.gain_matrix).all()
