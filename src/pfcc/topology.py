"""Directed communication graph over one tracking leader, formation leaders,
and followers.

Node indexing convention: the tracking leader is node 0, followers are
1..N, formation leaders are N+1..N+M.  Adjacency entries follow the
receiver-row convention: ``a[i, j]`` is the weight of the edge j -> i.
The constructor enforces that every weight is finite and non-negative,
that followers never transmit to leaders, that the tracking leader pins
only formation leaders and that nothing transmits to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DirectedTopology:
    """Weighted directed graph, immutable after construction.

    ``adjacency`` is the read-only (1+N+M)-square receiver-row matrix over
    every node, node 0 first: ``adjacency[i, j]`` is the weight of j -> i.
    """

    n_followers: int
    n_leaders: int
    adjacency: np.ndarray

    def __post_init__(self):
        size, followers = self.n_nodes, slice(1, 1 + self.n_followers)
        a = np.array(self.adjacency, dtype=float)
        if a.shape != (size, size):
            raise ValueError(f"adjacency must be ({size},{size}), got {a.shape}")
        if not np.all((a >= 0) & (a < np.inf)):  # a NaN fails too
            raise ValueError("adjacency weights must be finite and non-negative")
        if np.any(np.diag(a) != 0):
            raise ValueError("self-loops are not allowed")
        if np.any(a[0] != 0):
            raise ValueError("nothing may transmit to the tracking leader")
        if np.any(a[followers, 0] != 0):
            raise ValueError("the tracking leader only pins formation leaders")
        if np.any(a[1 + self.n_followers :, followers] != 0):
            raise ValueError("followers never transmit to leaders")
        a.flags.writeable = False
        object.__setattr__(self, "adjacency", a)

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


def closure(edge: np.ndarray) -> np.ndarray:
    """Transitive closure of a receiver-row boolean matrix: ``[i, j]`` is
    true when a directed path of one or more edges leads j -> i.

    Each step ORs in the paths of up to twice the length, until a step
    changes nothing.
    """
    while True:
        longer = edge | (edge @ edge)
        if (longer == edge).all():
            return edge
        edge = longer


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the spanning-tree / leader-coverage structure check: the
    nodes that break each part, none when it holds."""

    unreachable_from_tracking: tuple[int, ...]
    followers_without_leader: tuple[int, ...]


def verify_assumption1(topo: DirectedTopology) -> ValidationReport:
    """Check the two structural requirements on the graph.

    (a) every node is reachable from the tracking leader, and (b) every
    follower is reachable from at least one formation leader.  Failures are
    reported, never raised.
    """
    reach = closure(topo.adjacency > 0)
    followers, leaders = slice(1, 1 + topo.n_followers), slice(1 + topo.n_followers, None)
    unreachable = np.flatnonzero(~reach[1:, 0]) + 1
    orphans = np.flatnonzero(~reach[followers, leaders].any(axis=1)) + 1
    return ValidationReport(unreachable_from_tracking=tuple(unreachable.tolist()),
                            followers_without_leader=tuple(orphans.tolist()))
