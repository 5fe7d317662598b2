import json
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_topology, transitive_closure
from pfcc.topology import DirectedTopology, build_laplacian, verify_assumption1


def two_agent_chain():
    return DirectedTopology(1, 1, np.zeros((1, 1)), np.zeros((1, 1)),
                            np.array([[1.0]]), np.array([1.0]))


class TestConstruction:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loops"):
            DirectedTopology(2, 1, np.eye(2), np.zeros((1, 1)),
                             np.zeros((2, 1)), np.zeros(1))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            DirectedTopology(1, 1, np.zeros((1, 1)), np.zeros((1, 1)),
                             np.array([[-1.0]]), np.zeros(1))

    def test_nan_weight_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            DirectedTopology(1, 1, np.zeros((1, 1)), np.zeros((1, 1)),
                             np.array([[np.nan]]), np.zeros(1))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DirectedTopology(2, 1, np.zeros((1, 1)), np.zeros((1, 1)),
                             np.zeros((2, 1)), np.zeros(1))

    def test_node_indexing(self):
        topo = two_agent_chain()
        assert topo.follower_nodes == [1]
        assert topo.leader_nodes == [2]
        assert topo.is_follower(1) and topo.is_leader(2)


class TestLaplacian:
    def test_two_agent_chain(self):
        blocks = build_laplacian(two_agent_chain())
        assert blocks.L1 == np.array([[1.0]])
        assert blocks.L2 == np.array([[-1.0]])
        assert blocks.L3 == np.array([[1.0]])
        assert blocks.L0 == np.array([[-1.0]])

    def test_empty_edges_all_zero(self):
        topo = DirectedTopology(2, 2, np.zeros((2, 2)), np.zeros((2, 2)),
                                np.zeros((2, 2)), np.zeros(2))
        blocks = build_laplacian(topo)
        for block in (blocks.L0, blocks.L1, blocks.L2, blocks.L3):
            np.testing.assert_array_equal(block, np.zeros_like(block))

    def test_bundled_scenario_blocks_match_recomputed(self):
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
        lap = np.diag(adj.sum(axis=1)) - adj
        n = len(raw["followers"])

        from pfcc import scenario as sc
        topo = sc.scenario_from_dict(raw).topology
        blocks = build_laplacian(topo)
        assert blocks.L1.shape == (4, 4)
        np.testing.assert_allclose(blocks.L1, lap[1:1 + n, 1:1 + n])
        np.testing.assert_allclose(blocks.L2, lap[1:1 + n, 1 + n:])
        np.testing.assert_allclose(blocks.L3, lap[1 + n:, 1 + n:])
        np.testing.assert_allclose(blocks.L0, lap[1 + n:, 0:1])
        # follower rows balance across the two blocks
        np.testing.assert_allclose(blocks.L1.sum(axis=1),
                                   -blocks.L2.sum(axis=1), atol=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_block_rows_sum_to_zero(self, seed):
        topo = random_topology(np.random.default_rng(seed))
        blocks = build_laplacian(topo)
        np.testing.assert_allclose(
            np.hstack([blocks.L1, blocks.L2]).sum(axis=1),
            np.zeros(topo.n_followers), atol=1e-12)
        np.testing.assert_allclose(
            np.hstack([blocks.L0, blocks.L3]).sum(axis=1),
            np.zeros(topo.n_leaders), atol=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_follower_block_sign_pattern(self, seed):
        topo = random_topology(np.random.default_rng(seed))
        l1 = build_laplacian(topo).L1
        assert np.all(np.diag(l1) >= 0)
        off = l1 - np.diag(np.diag(l1))
        assert np.all(off <= 0)


class TestAssumptionCheck:
    def test_chain_passes(self):
        assert verify_assumption1(two_agent_chain()).passed

    def test_isolated_follower_identified(self):
        topo = DirectedTopology(2, 1, np.zeros((2, 2)), np.zeros((1, 1)),
                                np.array([[1.0], [0.0]]), np.array([1.0]))
        report = verify_assumption1(topo)
        assert not report.passed
        assert 2 in report.followers_without_leader
        assert "2" in report.describe()

    def test_bundled_scenario_passes(self, hexagon_config):
        report = verify_assumption1(hexagon_config.topology)
        assert report.passed
        # every follower is reachable from at least one leader
        assert report.followers_without_leader == ()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_reachability_matches_transitive_closure(self, seed):
        rng = np.random.default_rng(seed)
        topo = random_topology(rng)
        # drop a random edge set to create failures sometimes
        reach = transitive_closure(topo.full_adjacency())
        report = verify_assumption1(topo)
        expect_tree = bool(np.all(reach[1:, 0]))
        assert report.spanning_tree_ok == expect_tree
        led = set()
        for q in topo.leader_nodes:
            led |= {i for i in topo.follower_nodes if reach[i, q]}
        assert set(report.followers_without_leader) == set(topo.follower_nodes) - led
