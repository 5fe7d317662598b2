import json
from importlib import resources
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (block_topology, chain_topology, drop_edges, random_topology,
                      transitive_closure)
from pfcc import scenario as sc
from pfcc import simulation as sim
from pfcc.topology import DirectedTopology, closure, verify_assumption1


def two_agent_chain():
    return block_topology(1, 1, np.zeros((1, 1)), np.zeros((1, 1)),
                          np.array([[1.0]]), np.array([1.0]))


def with_edge(n: int, m: int, dst: int, src: int, weight: float) -> np.ndarray:
    """The all-zero (1+n+m)-square adjacency with one edge src -> dst."""
    a = np.zeros((1 + n + m, 1 + n + m))
    a[dst, src] = weight
    return a


class TestConstruction:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loops"):
            DirectedTopology(2, 1, np.diag([0.0, 1.0, 1.0, 0.0]))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            DirectedTopology(1, 1, with_edge(1, 1, 1, 2, -1.0))

    def test_nan_weight_rejected(self):
        with pytest.raises(ValueError, match="must be finite"):
            DirectedTopology(1, 1, with_edge(1, 1, 1, 2, np.nan))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DirectedTopology(2, 1, np.zeros((3, 3)))

    # nodes of a 2-follower, 2-leader graph: T = 0, followers 1-2, leaders 3-4
    @pytest.mark.parametrize("adjacency, match", [
        pytest.param(np.zeros((4, 4)), r"must be \(5,5\)", id="shape"),
        pytest.param(np.zeros((5, 4)), r"must be \(5,5\)", id="non-square"),
        pytest.param(with_edge(2, 2, 1, 3, -0.5), "finite and non-negative", id="negative"),
        pytest.param(with_edge(2, 2, 1, 3, np.nan), "finite and non-negative", id="nan"),
        pytest.param(with_edge(2, 2, 1, 3, np.inf), "finite and non-negative", id="inf"),
        pytest.param(with_edge(2, 2, 1, 1, 1.0), "self-loops", id="follower-self-loop"),
        pytest.param(with_edge(2, 2, 3, 3, 1.0), "self-loops", id="leader-self-loop"),
        pytest.param(with_edge(2, 2, 0, 3, 1.0), "nothing may transmit", id="leader-to-tracking"),
        pytest.param(with_edge(2, 2, 0, 1, 1.0), "nothing may transmit",
                     id="follower-to-tracking"),
        pytest.param(with_edge(2, 2, 2, 0, 1.0), "only pins formation leaders",
                     id="tracking-to-follower"),
        pytest.param(with_edge(2, 2, 4, 2, 1.0), "followers never transmit",
                     id="follower-to-leader"),
    ])
    def test_constructor_rejects(self, adjacency, match):
        with pytest.raises(ValueError, match=match):
            DirectedTopology(2, 2, adjacency)

    def test_adjacency_is_a_read_only_copy(self):
        a = with_edge(2, 2, 1, 3, 1.0)
        topo = DirectedTopology(2, 2, a)
        a[1, 3] = 2.0
        assert topo.adjacency[1, 3] == 1.0
        with pytest.raises(ValueError, match="read-only"):
            topo.adjacency[1, 3] = 2.0

    def test_node_indexing(self):
        topo = two_agent_chain()
        assert topo.follower_nodes == [1]
        assert topo.leader_nodes == [2]
        assert topo.is_follower(1) and topo.is_leader(2)


def laplacian_blocks(adjacency: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The follower rows [L1 L2] of the in-degree Laplacian D - A of a
    receiver-row adjacency with ``n`` followers."""
    lap = np.diag(adjacency.sum(axis=1)) - adjacency
    return lap[1 : 1 + n, 1 : 1 + n], lap[1 : 1 + n, 1 + n :]


def baseline_weights(topo: DirectedTopology) -> np.ndarray:
    """``simulation.follower_coefficients``' ``fcc_baseline`` weights as a
    follower-by-leader matrix, zero where it drops a weight."""
    cfg = SimpleNamespace(topology=topo, mode=sim.MODE_BASELINE)
    w = np.zeros((topo.n_followers, topo.n_leaders))
    for i, row in sim.follower_coefficients(cfg, None, {}).items():
        for q, v in row.items():
            w[topo.follower_index(i), topo.leader_index(q)] = v
    return w


class TestLaplacianWeights:
    """The classical containment weights -L1^-1 L2 of ``fcc_baseline``
    against Laplacian blocks built here."""

    def test_two_agent_chain(self):
        topo = two_agent_chain()
        l1, l2 = laplacian_blocks(topo.adjacency, 1)
        assert l1 == np.array([[1.0]]) and l2 == np.array([[-1.0]])
        assert baseline_weights(topo) == np.array([[1.0]])

    def test_graph_without_edges_has_no_baseline_weights(self):
        # L1 is zero, so -L1^-1 L2 does not exist; the structure check
        # rejects the graph before any run forms the weights
        topo = DirectedTopology(2, 2, np.zeros((5, 5)))
        l1, l2 = laplacian_blocks(topo.adjacency, 2)
        assert not l1.any() and not l2.any()
        report = verify_assumption1(topo)
        assert report.unreachable_from_tracking == (1, 2, 3, 4)
        assert report.followers_without_leader == (1, 2)

    def test_unreached_leader_gets_no_weight(self):
        # T -> L1 -> L2 -> F1 -> F2 -> F3: every follower follows L2 alone
        topo = chain_topology()
        cfg = SimpleNamespace(topology=topo, mode=sim.MODE_BASELINE)
        assert sim.follower_coefficients(cfg, None, {}) == {i: {5: 1.0} for i in (1, 2, 3)}

    def test_bundled_scenario_weights_match_recomputed(self):
        # independently rebuild degree-minus-adjacency from the raw edge list
        raw = json.loads(resources.files("pfcc.scenarios")
                         .joinpath("hexagon.json").read_text())
        names = ["T"] + [f["name"] for f in raw["followers"]] \
            + [l["name"] for l in raw["leaders"]]
        idx = {nm: k for k, nm in enumerate(names)}
        n_nodes = len(names)
        adj = np.zeros((n_nodes, n_nodes))
        for src, dst, w in raw["edges"]:
            adj[idx[dst], idx[src]] = w
        l1, l2 = laplacian_blocks(adj, len(raw["followers"]))
        assert l1.shape == (4, 4)
        # follower rows balance across the two blocks
        np.testing.assert_allclose(l1.sum(axis=1), -l2.sum(axis=1), atol=1e-12)

        cfg = sc.scenario_from_dict(raw)
        np.testing.assert_allclose(baseline_weights(cfg.topology),
                                   -np.linalg.solve(l1, l2), atol=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_weights_are_convex(self, seed):
        # rows of [L1 L2] sum to zero, L2 and the off-diagonal of L1 are
        # nonpositive and L1 is nonsingular, so each follower's weights are
        # nonnegative and sum to one
        topo = random_topology(np.random.default_rng(seed))
        l1, l2 = laplacian_blocks(topo.adjacency, topo.n_followers)
        assert np.all(l1 - np.diag(np.diag(l1)) <= 0) and np.all(l2 <= 0)
        np.testing.assert_allclose(np.hstack([l1, l2]).sum(axis=1),
                                   np.zeros(topo.n_followers), atol=1e-12)
        w = baseline_weights(topo)
        np.testing.assert_allclose(w, -np.linalg.solve(l1, l2), atol=1e-12)
        np.testing.assert_allclose(w.sum(axis=1), np.ones(topo.n_followers), atol=1e-12)
        assert np.all(w >= 0)


class TestAssumptionCheck:
    def test_chain_passes(self):
        report = verify_assumption1(two_agent_chain())
        assert report.unreachable_from_tracking == report.followers_without_leader == ()

    def test_isolated_follower_identified(self):
        topo = block_topology(2, 1, np.zeros((2, 2)), np.zeros((1, 1)),
                              np.array([[1.0], [0.0]]), np.array([1.0]))
        report = verify_assumption1(topo)
        # follower 2 hears no one, so no leader and no tracking path reach it
        assert report.unreachable_from_tracking == report.followers_without_leader == (2,)

    def test_bundled_scenario_passes(self, hexagon_config):
        report = verify_assumption1(hexagon_config.topology)
        # every node is reachable from the tracking leader, and every
        # follower from at least one leader
        assert report.unreachable_from_tracking == report.followers_without_leader == ()

    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_reachability_matches_transitive_closure(self, seed, drop):
        rng = np.random.default_rng(seed)
        topo = random_topology(rng)
        if drop:  # a random edge set dropped creates failures sometimes
            topo = drop_edges(topo, rng)
        reach = transitive_closure(topo.adjacency)
        report = verify_assumption1(topo)
        assert set(report.unreachable_from_tracking) == {
            i for i in range(1, topo.n_nodes) if not reach[i, 0]}
        led = set()
        for q in topo.leader_nodes:
            led |= {i for i in topo.follower_nodes if reach[i, q]}
        assert set(report.followers_without_leader) == set(topo.follower_nodes) - led


class TestClosure:
    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_matches_transitive_closure(self, seed, drop):
        rng = np.random.default_rng(seed)
        topo = random_topology(rng)
        if drop:
            topo = drop_edges(topo, rng)
        np.testing.assert_array_equal(closure(topo.adjacency > 0),
                                      transitive_closure(topo.adjacency))
