"""Directed communication graph over one tracking leader, formation leaders,
and followers.

Node indexing convention: the tracking leader is node 0, followers are
1..N, formation leaders are N+1..N+M.  Adjacency entries follow the
receiver-row convention: ``a[i, j]`` is the weight of the edge j -> i.
The type shape itself enforces that followers never transmit to leaders and
that nothing transmits to the tracking leader.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DirectedTopology:
    """Weighted directed graph, immutable after construction.

    follower_adjacency[i, j]: weight of follower j -> follower i
    leader_adjacency[q, m]:   weight of leader m -> leader q
    leader_to_follower[i, q]: weight of leader q -> follower i
    tracking_to_leader[q]:    weight of tracking leader -> leader q
    """

    n_followers: int
    n_leaders: int
    follower_adjacency: np.ndarray
    leader_adjacency: np.ndarray
    leader_to_follower: np.ndarray
    tracking_to_leader: np.ndarray

    def __post_init__(self):
        n, m = self.n_followers, self.n_leaders
        ff = np.asarray(self.follower_adjacency, dtype=float)
        ll = np.asarray(self.leader_adjacency, dtype=float)
        lf = np.asarray(self.leader_to_follower, dtype=float)
        tl = np.asarray(self.tracking_to_leader, dtype=float).ravel()
        if ff.shape != (n, n):
            raise ValueError(f"follower_adjacency must be ({n},{n}), got {ff.shape}")
        if ll.shape != (m, m):
            raise ValueError(f"leader_adjacency must be ({m},{m}), got {ll.shape}")
        if lf.shape != (n, m):
            raise ValueError(f"leader_to_follower must be ({n},{m}), got {lf.shape}")
        if tl.shape != (m,):
            raise ValueError(f"tracking_to_leader must be ({m},), got {tl.shape}")
        for name, arr in (("follower_adjacency", ff), ("leader_adjacency", ll),
                          ("leader_to_follower", lf), ("tracking_to_leader", tl)):
            if np.any(arr < 0):
                raise ValueError(f"{name} contains negative weights")
        if np.any(np.diag(ff) != 0) or np.any(np.diag(ll) != 0):
            raise ValueError("self-loops are not allowed")
        object.__setattr__(self, "follower_adjacency", ff)
        object.__setattr__(self, "leader_adjacency", ll)
        object.__setattr__(self, "leader_to_follower", lf)
        object.__setattr__(self, "tracking_to_leader", tl)

    # -- index helpers -------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return 1 + self.n_followers + self.n_leaders

    @property
    def follower_nodes(self) -> list[int]:
        return list(range(1, 1 + self.n_followers))

    @property
    def leader_nodes(self) -> list[int]:
        return list(range(1 + self.n_followers, self.n_nodes))

    def follower_index(self, node: int) -> int:
        if not 1 <= node <= self.n_followers:
            raise ValueError(f"node {node} is not a follower")
        return node - 1

    def leader_index(self, node: int) -> int:
        if not self.n_followers < node < self.n_nodes:
            raise ValueError(f"node {node} is not a leader")
        return node - 1 - self.n_followers

    def is_follower(self, node: int) -> bool:
        return 1 <= node <= self.n_followers

    def is_leader(self, node: int) -> bool:
        return self.n_followers < node < self.n_nodes

    def full_adjacency(self) -> np.ndarray:
        """(1+N+M)-square adjacency, rows are receivers, node 0 first."""
        n, m = self.n_followers, self.n_leaders
        a = np.zeros((self.n_nodes, self.n_nodes))
        a[1 : 1 + n, 1 : 1 + n] = self.follower_adjacency
        a[1 : 1 + n, 1 + n :] = self.leader_to_follower
        a[1 + n :, 1 + n :] = self.leader_adjacency
        a[1 + n :, 0] = self.tracking_to_leader
        return a

    def reachable_from(self, start: int) -> set[int]:
        """Nodes reachable from ``start`` by directed paths of length >= 1."""
        a = self.full_adjacency()
        seen: set[int] = set()
        stack = [j for j in range(self.n_nodes) if a[j, start] > 0]
        while stack:
            j = stack.pop()
            if j in seen:
                continue
            seen.add(j)
            stack.extend(k for k in range(self.n_nodes) if a[k, j] > 0 and k not in seen)
        return seen


@dataclass(frozen=True)
class LaplacianBlocks:
    """Partition of the full graph Laplacian.

    L0: leader rows against the tracking leader column (M x 1)
    L1: follower rows/columns (N x N)
    L2: follower rows against leader columns (N x M)
    L3: leader rows/columns (M x M)
    """

    L0: np.ndarray
    L1: np.ndarray
    L2: np.ndarray
    L3: np.ndarray


def build_laplacian(topo: DirectedTopology) -> LaplacianBlocks:
    """In-degree Laplacian L = D - A of the full graph, partitioned.

    Row sums of [L1 L2] and of the [L0 0 L3] block row are zero by
    construction.
    """
    a = topo.full_adjacency()
    lap = np.diag(a.sum(axis=1)) - a
    n = topo.n_followers
    return LaplacianBlocks(
        L0=lap[1 + n :, 0:1].copy(),
        L1=lap[1 : 1 + n, 1 : 1 + n].copy(),
        L2=lap[1 : 1 + n, 1 + n :].copy(),
        L3=lap[1 + n :, 1 + n :].copy(),
    )


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the spanning-tree / leader-coverage structure check."""

    spanning_tree_ok: bool
    unreachable_from_tracking: tuple[int, ...] = ()
    followers_without_leader: tuple[int, ...] = ()

    @property
    def passed(self) -> bool:
        return self.spanning_tree_ok and not self.followers_without_leader

    def describe(self) -> str:
        if self.passed:
            return "structure ok: spanning tree from tracking leader; every follower led"
        parts = []
        if not self.spanning_tree_ok:
            parts.append(
                "no spanning tree rooted at the tracking leader "
                f"(unreachable nodes: {sorted(self.unreachable_from_tracking)})"
            )
        if self.followers_without_leader:
            parts.append(
                "followers with no formation-leader path: "
                f"{sorted(self.followers_without_leader)}"
            )
        return "; ".join(parts)


def verify_assumption1(topo: DirectedTopology) -> ValidationReport:
    """Check the two structural requirements on the graph.

    (a) every node is reachable from the tracking leader, and (b) every
    follower is reachable from at least one formation leader.  Failures are
    reported, never raised.
    """
    reach0 = topo.reachable_from(0)
    unreachable = tuple(sorted(set(range(1, topo.n_nodes)) - reach0))

    led = set()
    for q in topo.leader_nodes:
        led |= {i for i in topo.reachable_from(q) if topo.is_follower(i)}
    orphans = tuple(sorted(set(topo.follower_nodes) - led))

    return ValidationReport(
        spanning_tree_ok=not unreachable,
        unreachable_from_tracking=unreachable,
        followers_without_leader=orphans,
    )
