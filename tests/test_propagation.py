import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from conftest import (block_topology, chain_topology, direct_leaders_topology,
                      drop_edges, hop_distances, known_leaders, mixed_relay_topology,
                      random_topology, reference_itfl_sets, relay_line_topology,
                      star_topology, transitive_closure)
from pfcc import propagation as pr


def uniform_theta(topo, value=0.1):
    return {q: value for q in topo.leader_nodes}


def fixed_point(topo):
    return pr.propagation_fixed_point(pr.initial_influence(topo), topo)


class TestInit:
    def test_direct_neighbours_only(self):
        topo = chain_topology()  # L1 -> L2 -> F1 -> F2 -> F3
        known = pr.initial_influence(topo)
        l1, l2 = topo.leader_nodes
        f1, f2, f3 = topo.follower_nodes
        assert known_leaders(known, f1) == {l2}
        assert known_leaders(known, f2) == set()
        assert known_leaders(known, l2) == {l1}
        assert known_leaders(known, l1) == set()  # no leader in-neighbours
        assert pr.coefficients(known, f1, uniform_theta(topo)) == {l2: 1.0}

    def test_tracking_leader_is_known_by_none(self):
        topo = chain_topology()  # T pins L1
        known = pr.initial_influence(topo)
        assert known.shape == (topo.n_nodes, topo.n_nodes)
        assert not known[:, 0].any() and not known[0].any()

    def test_bundled_f4_starts_with_direct_leaders_only(self, hexagon_config):
        topo = hexagon_config.topology
        known = pr.initial_influence(topo)
        f4 = topo.follower_nodes[3]
        assert known_leaders(known, f4) == {8, 9, 10}  # L4, L5, L6 direct only


class TestStep:
    def test_two_hop_chain(self):
        topo = chain_topology()
        known = pr.initial_influence(topo)
        l1, l2 = topo.leader_nodes
        f1 = topo.follower_nodes[0]
        assert known_leaders(known, f1) == {l2}
        known = pr.step_propagation(known, topo)
        assert known_leaders(known, f1) == {l1, l2}

    def test_known_leaders_weighted_by_the_factors_in_force(self):
        topo = chain_topology()
        theta = {topo.leader_nodes[0]: 0.5, topo.leader_nodes[1]: 0.1}
        known = pr.step_propagation(pr.initial_influence(topo), topo)
        f1 = topo.follower_nodes[0]
        assert pr.coefficients(known, f1, theta) == pr.convex_coefficients(theta)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_sets_never_shrink(self, seed):
        topo = random_topology(np.random.default_rng(seed))
        known = pr.initial_influence(topo)
        for _ in range(4):
            nxt = pr.step_propagation(known, topo)
            assert not (known & ~nxt).any()
            known = nxt

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_k_steps_reach_exactly_the_leaders_within_k_plus_one_edges(self, seed):
        topo = random_topology(np.random.default_rng(seed))
        hops = hop_distances(topo.adjacency)
        is_leader = np.isin(np.arange(topo.n_nodes), topo.leader_nodes)
        known = pr.initial_influence(topo)
        for k in range(topo.n_nodes):
            np.testing.assert_array_equal(known, (hops <= k + 1) & is_leader, err_msg=f"k={k}")
            known = pr.step_propagation(known, topo)


class TestCoefficients:
    def test_equal_factors_give_equal_weights(self):
        coeffs = pr.convex_coefficients({5: 0.1, 7: 0.1})
        assert coeffs == {5: 0.5, 7: 0.5}

    def test_ratio_weighting(self):
        coeffs = pr.convex_coefficients({5: 0.5, 6: 0.1})
        assert coeffs[5] == pytest.approx(5.0 / 6.0, abs=1e-12)
        assert coeffs[6] == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_scaling_invariance_is_exact(self):
        base = {5: 0.1, 6: 0.5, 7: 0.2}
        scaled = {q: 7.0 * v for q, v in base.items()}
        assert pr.convex_coefficients(base) == pr.convex_coefficients(scaled)

    def test_keys_are_python_ints(self, hexagon_config):
        topo = hexagon_config.topology
        known, _ = fixed_point(topo)
        coeffs = pr.coefficients(known, 4, hexagon_config.schedule.initial())
        assert all(type(q) is int for q in coeffs)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_normalization_and_ratios(self, seed):
        rng = np.random.default_rng(seed)
        members = sorted(rng.choice(50, size=rng.integers(1, 8), replace=False))
        theta = {int(q): float(rng.uniform(0.05, 5.0)) for q in members}
        coeffs = pr.convex_coefficients(theta)
        assert sum(coeffs.values()) == pytest.approx(1.0, abs=1e-12)
        qs = list(theta)
        for a in qs:
            for b in qs:
                assert coeffs[a] / coeffs[b] == pytest.approx(
                    theta[a] / theta[b], rel=1e-9)


class TestFixedPoint:
    def test_chain_takes_the_full_bound(self):
        topo = chain_topology()  # N + M - 1 == 4
        known, used = fixed_point(topo)
        assert used == 4
        f3 = topo.follower_nodes[2]
        assert known_leaders(known, f3) == set(topo.leader_nodes)

    def test_star_confirms_in_one(self):
        topo = star_topology()
        _, used = fixed_point(topo)
        assert used == 1

    def test_bundled_sets(self, hexagon_config):
        topo = hexagon_config.topology
        known, used = fixed_point(topo)
        assert used <= 9
        assert used == 2
        f1, f2, f3, f4 = topo.follower_nodes
        assert known_leaders(known, f1) == {5, 6}
        assert known_leaders(known, f2) == {5, 6, 7, 8}
        assert known_leaders(known, f3) == {5, 7}
        assert known_leaders(known, f4) == {5, 6, 7, 8, 9, 10}

    def test_bundled_equal_factors_coefficients(self, hexagon_config):
        topo = hexagon_config.topology
        known, _ = fixed_point(topo)
        f3 = topo.follower_nodes[2]
        assert pr.coefficients(known, f3, hexagon_config.schedule.initial()) == {5: 0.5, 7: 0.5}

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_bound_and_closure_on_random_graphs(self, seed):
        topo = random_topology(np.random.default_rng(seed))
        known, used = fixed_point(topo)
        assert used <= max(topo.n_followers + topo.n_leaders - 1, 1)
        reach = transitive_closure(topo.adjacency)
        theta = uniform_theta(topo)
        for i in topo.follower_nodes + topo.leader_nodes:
            expected = {q for q in topo.leader_nodes if reach[i, q]}
            assert known_leaders(known, i) == expected
        for i in topo.follower_nodes:
            if known_leaders(known, i):
                coeffs = pr.coefficients(known, i, theta)
                assert sum(coeffs.values()) == pytest.approx(1.0)
                assert all(coeffs[q] > 0 for q in known_leaders(known, i))


class TestPropensityUpdate:
    def test_values_replaced_sets_unchanged(self):
        topo = chain_topology()
        known, _ = fixed_point(topo)
        l1, l2 = topo.leader_nodes
        before = known.copy()
        updated = {node: pr.coefficients(known, node, {l1: 0.5, l2: 0.1})
                   for node in topo.follower_nodes}
        np.testing.assert_array_equal(known, before)
        for node in topo.follower_nodes:
            assert set(updated[node]) == known_leaders(known, node)
        f3 = topo.follower_nodes[2]
        assert updated[f3][l1] == pytest.approx(5.0 / 6.0)


class TestRelayLeaders:
    def test_direct_graph_has_no_relays(self):
        topo = direct_leaders_topology()
        known, _ = fixed_point(topo)
        relays = ref.itfl_sets(known, topo)
        assert all(not v for v in relays.values())

    def test_relay_line(self):
        topo = relay_line_topology()
        known, _ = fixed_point(topo)
        relays = ref.itfl_sets(known, topo)
        assert relays[4] == {5, 6}
        assert relays[5] == {6}
        assert relays[6] == frozenset()

    def test_mixed_relay_graph(self):
        topo = mixed_relay_topology()
        known, _ = fixed_point(topo)
        # followers 1, 2 hear leaders 4..6; follower 3 hears all four
        assert known_leaders(known, 1) == {4, 5, 6}
        assert known_leaders(known, 2) == {4, 5, 6}
        assert known_leaders(known, 3) == {4, 5, 6, 7}
        relays = ref.itfl_sets(known, topo)
        assert relays[4] == {5, 6, 7}
        assert relays[5] == {6, 7}
        assert relays[6] == frozenset()
        assert relays[7] == frozenset()

    def test_single_leader_star_has_none(self):
        topo = block_topology(2, 1, np.zeros((2, 2)), np.zeros((1, 1)),
                              np.ones((2, 1)), np.array([1.0]))
        known, _ = fixed_point(topo)
        assert ref.itfl_sets(known, topo)[3] == frozenset()

    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_matches_node_by_node_reference(self, seed, drop):
        rng = np.random.default_rng(seed)
        topo = random_topology(rng)
        if drop:
            topo = drop_edges(topo, rng)
        known, _ = fixed_point(topo)
        assert ref.itfl_sets(known, topo) == reference_itfl_sets(known, topo)

    def test_bundled_relays(self, hexagon_config):
        topo = hexagon_config.topology
        known, _ = fixed_point(topo)
        relays = ref.itfl_sets(known, topo)
        assert relays[5] == {7, 9}   # L1 relayed by L3 and L5
        assert relays[6] == {8, 10}  # L2 relayed by L4 and L6
