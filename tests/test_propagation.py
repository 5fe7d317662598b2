import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (block_topology, chain_topology, direct_leaders_topology,
                      mixed_relay_topology, random_topology,
                      relay_line_topology, star_topology, transitive_closure)
from pfcc import propagation as pr
from pfcc.errors import ConsistencyError


def uniform_theta(topo, value=0.1):
    return {q: value for q in topo.leader_nodes}


class TestInit:
    def test_direct_neighbours_only(self):
        topo = chain_topology()  # L1 -> L2 -> F1 -> F2 -> F3
        know = pr.init_knowledge(topo, uniform_theta(topo))
        l1, l2 = topo.leader_nodes
        f1, f2, f3 = topo.follower_nodes
        assert know[f1].influential == {l2}
        assert know[f2].influential == set()
        assert know[l2].influential == {l1}
        assert know[l1].influential == set()  # no leader in-neighbours
        assert know[f1].propensities == {l2: 0.1}

    def test_missing_factor_rejected(self):
        topo = chain_topology()
        with pytest.raises(ValueError, match="missing propensity"):
            pr.init_knowledge(topo, {topo.leader_nodes[0]: 0.1})

    def test_bundled_f4_starts_with_direct_leaders_only(self, hexagon_config):
        topo = hexagon_config.topology
        know = pr.init_knowledge(topo, hexagon_config.schedule.initial())
        f4 = topo.follower_nodes[3]
        assert know[f4].influential == {8, 9, 10}  # L4, L5, L6 direct only


class TestStep:
    def test_two_hop_chain(self):
        topo = chain_topology()
        know = pr.init_knowledge(topo, uniform_theta(topo))
        l1, l2 = topo.leader_nodes
        f1 = topo.follower_nodes[0]
        assert know[f1].influential == {l2}
        know = pr.step_propagation(know, topo)
        assert know[f1].influential == {l1, l2}

    def test_dictionary_merge_carries_values(self):
        topo = chain_topology()
        theta = {topo.leader_nodes[0]: 0.5, topo.leader_nodes[1]: 0.1}
        know = pr.step_propagation(pr.init_knowledge(topo, theta), topo)
        f1 = topo.follower_nodes[0]
        assert know[f1].propensities == theta

    def test_conflicting_values_rejected(self):
        # both followers hear the leader directly; F2 also hears F1, so a
        # forged value at F1 collides with F2's own entry on the next step
        topo = block_topology(2, 1, np.array([[0.0, 0.0], [1.0, 0.0]]),
                              np.zeros((1, 1)), np.ones((2, 1)),
                              np.array([1.0]))
        leader = topo.leader_nodes[0]
        know = pr.init_knowledge(topo, {leader: 0.1})
        forged = dict(know)
        forged[1] = pr.AgentKnowledge(propensities={leader: 0.9},
                                      coefficients={leader: 1.0})
        with pytest.raises(ConsistencyError, match="conflicting propensity"):
            pr.step_propagation(forged, topo)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_sets_never_shrink(self, seed):
        topo = random_topology(np.random.default_rng(seed))
        know = pr.init_knowledge(topo, uniform_theta(topo))
        for _ in range(4):
            nxt = pr.step_propagation(know, topo)
            for node in know:
                assert know[node].influential <= nxt[node].influential
            know = nxt


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
        know, used = pr.propagation_fixed_point(
            pr.init_knowledge(topo, uniform_theta(topo)), topo)
        assert used == 4
        f3 = topo.follower_nodes[2]
        assert know[f3].influential == set(topo.leader_nodes)

    def test_star_confirms_in_one(self):
        topo = star_topology()
        _, used = pr.propagation_fixed_point(
            pr.init_knowledge(topo, uniform_theta(topo)), topo)
        assert used == 1

    def test_bundled_sets(self, hexagon_config):
        topo = hexagon_config.topology
        know, used = pr.propagation_fixed_point(
            pr.init_knowledge(topo, hexagon_config.schedule.initial()), topo)
        assert used <= 9
        f1, f2, f3, f4 = topo.follower_nodes
        assert know[f1].influential == {5, 6}
        assert know[f2].influential == {5, 6, 7, 8}
        assert know[f3].influential == {5, 7}
        assert know[f4].influential == {5, 6, 7, 8, 9, 10}

    def test_bundled_equal_factors_coefficients(self, hexagon_config):
        topo = hexagon_config.topology
        know, _ = pr.propagation_fixed_point(
            pr.init_knowledge(topo, hexagon_config.schedule.initial()), topo)
        f3 = topo.follower_nodes[2]
        assert know[f3].coefficients == {5: 0.5, 7: 0.5}

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_bound_and_closure_on_random_graphs(self, seed):
        topo = random_topology(np.random.default_rng(seed))
        know, used = pr.propagation_fixed_point(
            pr.init_knowledge(topo, uniform_theta(topo)), topo)
        assert used <= max(topo.n_followers + topo.n_leaders - 1, 1)
        reach = transitive_closure(topo.adjacency)
        for i in topo.follower_nodes + topo.leader_nodes:
            expected = {q for q in topo.leader_nodes if reach[i, q]}
            assert know[i].influential == expected
        for i in topo.follower_nodes:
            if know[i].influential:
                assert sum(know[i].coefficients.values()) == pytest.approx(1.0)
                assert all(know[i].coefficients[q] > 0
                           for q in know[i].influential)


class TestPropensityUpdate:
    def test_values_replaced_sets_unchanged(self):
        topo = chain_topology()
        know, _ = pr.propagation_fixed_point(
            pr.init_knowledge(topo, uniform_theta(topo)), topo)
        l1, l2 = topo.leader_nodes
        updated = pr.apply_propensity_update(know, {l1: 0.5, l2: 0.1}, topo)
        for node in know:
            assert updated[node].influential == know[node].influential
        f3 = topo.follower_nodes[2]
        assert updated[f3].coefficients[l1] == pytest.approx(5.0 / 6.0)


class TestRelayLeaders:
    def test_direct_graph_has_no_relays(self):
        topo = direct_leaders_topology()
        know, _ = pr.propagation_fixed_point(
            pr.init_knowledge(topo, uniform_theta(topo)), topo)
        relays = pr.itfl_sets(know, topo)
        assert all(not v for v in relays.values())

    def test_relay_line(self):
        topo = relay_line_topology()
        know, _ = pr.propagation_fixed_point(
            pr.init_knowledge(topo, uniform_theta(topo)), topo)
        relays = pr.itfl_sets(know, topo)
        assert relays[4] == {5, 6}
        assert relays[5] == {6}
        assert relays[6] == frozenset()

    def test_mixed_relay_graph(self):
        topo = mixed_relay_topology()
        know, _ = pr.propagation_fixed_point(
            pr.init_knowledge(topo, uniform_theta(topo)), topo)
        # followers 1, 2 hear leaders 4..6; follower 3 hears all four
        assert know[1].influential == {4, 5, 6}
        assert know[2].influential == {4, 5, 6}
        assert know[3].influential == {4, 5, 6, 7}
        relays = pr.itfl_sets(know, topo)
        assert relays[4] == {5, 6, 7}
        assert relays[5] == {6, 7}
        assert relays[6] == frozenset()
        assert relays[7] == frozenset()

    def test_single_leader_star_has_none(self):
        topo = block_topology(2, 1, np.zeros((2, 2)), np.zeros((1, 1)),
                              np.ones((2, 1)), np.array([1.0]))
        know, _ = pr.propagation_fixed_point(
            pr.init_knowledge(topo, uniform_theta(topo)), topo)
        assert pr.itfl_sets(know, topo)[3] == frozenset()

    def test_bundled_relays(self, hexagon_config):
        topo = hexagon_config.topology
        know, _ = pr.propagation_fixed_point(
            pr.init_knowledge(topo, hexagon_config.schedule.initial()), topo)
        relays = pr.itfl_sets(know, topo)
        assert relays[5] == {7, 9}   # L1 relayed by L3 and L5
        assert relays[6] == {8, 10}  # L2 relayed by L4 and L6
