"""Distributed propagation of influential-leader information.

Each agent keeps the propensity factor of each formation leader that can
influence it (their keys are its influential set) and, for followers, the
convex combination coefficients derived from those factors.  One
propagation step merges the previous-tick knowledge of in-neighbours, so
after at most N + M - 1 steps every agent knows exactly the leaders with a
directed path to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConsistencyError
from .topology import DirectedTopology

# Propensity ratios are canonicalized to this many significant digits before
# normalization, so scaling every factor by a common constant yields
# bit-identical coefficients.
_RATIO_DIGITS = 12


def _round_sig(x: float, digits: int = _RATIO_DIGITS) -> float:
    if x == 0.0:
        return 0.0
    return round(x, digits - 1 - math.floor(math.log10(abs(x))))


def convex_coefficients(propensities: dict[int, float]) -> dict[int, float]:
    """Normalized propensity weights over a set of leaders.

    Ratios against the largest factor are canonicalized before normalization
    so the result is invariant to a common positive scaling of all factors.
    """
    if not propensities:
        return {}
    members = sorted(propensities)
    vmax = max(propensities[q] for q in members)
    ratios = [_round_sig(propensities[q] / vmax) for q in members]
    total = sum(ratios)
    return {q: r / total for q, r in zip(members, ratios)}


@dataclass(frozen=True)
class AgentKnowledge:
    """One agent's view of its influential leaders at a given tick: the
    propensity factor of each leader it knows and, for a follower, the
    convex coefficients derived from them, positive on every such leader
    and summing to one (a leader carries none).

    The influential set is the key set of ``propensities``; it only ever
    grows across ticks."""

    propensities: dict[int, float]
    coefficients: dict[int, float]

    @property
    def influential(self) -> frozenset[int]:
        return frozenset(self.propensities)


def _with_coefficients(follower: bool, propensities: dict[int, float]) -> AgentKnowledge:
    return AgentKnowledge(propensities,
                          convex_coefficients(propensities) if follower else {})


def _merge_propensities(target: dict[int, float], source: dict[int, float]) -> None:
    for q, value in source.items():
        if q in target and target[q] != value:
            raise ConsistencyError(
                f"conflicting propensity values for leader {q}: {target[q]} vs {value}"
            )
        target[q] = value


def _in_neighbours(topo: DirectedTopology) -> dict[int, list[int]]:
    """Each agent's in-neighbour agents in node order, read from the
    receiver rows of the adjacency.  The tracking leader carries no leader
    knowledge and is left out."""
    a = topo.adjacency
    agents = range(1, topo.n_nodes)
    return {i: [j for j in agents if a[i, j] > 0] for i in agents}


def init_knowledge(topo: DirectedTopology,
                   propensities: dict[int, float]) -> dict[int, AgentKnowledge]:
    """Tick-0 knowledge: direct in-neighbour leaders only.

    ``propensities`` must provide a value for every leader node.
    """
    missing = [q for q in topo.leader_nodes if q not in propensities]
    if missing:
        raise ValueError(f"missing propensity factors for leaders {missing}")

    return {i: _with_coefficients(topo.is_follower(i),
                                  {j: propensities[j] for j in neighbours if topo.is_leader(j)})
            for i, neighbours in _in_neighbours(topo).items()}


def step_propagation(knowledge: dict[int, AgentKnowledge],
                     topo: DirectedTopology) -> dict[int, AgentKnowledge]:
    """One synchronous propagation step.

    All agents read the tick-k snapshot and emit tick-k+1 knowledge: each
    merges the sets of its in-neighbours in node order (a follower's
    neighbour followers, then its in-neighbour leaders; a leader's
    in-neighbour leaders).  Dictionaries merge identically; a value conflict
    for the same leader raises, since factors are globally consistent by
    assumption.
    """
    out: dict[int, AgentKnowledge] = {}
    for i, neighbours in _in_neighbours(topo).items():
        merged = dict(knowledge[i].propensities)
        for j in neighbours:
            _merge_propensities(merged, knowledge[j].propensities)
        out[i] = _with_coefficients(topo.is_follower(i), merged)
    return out


def propagation_fixed_point(knowledge: dict[int, AgentKnowledge],
                            topo: DirectedTopology) -> tuple[dict[int, AgentKnowledge], int]:
    """Iterate propagation until no set changes.

    Returns the stable knowledge and the number of steps taken, counting the
    final confirming step.  Exceeding N + M - 1 steps is impossible on a
    well-formed graph and raises.
    """
    bound = topo.n_followers + topo.n_leaders - 1
    current = knowledge
    for used in range(1, max(bound, 1) + 1):
        nxt = step_propagation(current, topo)
        if all(nxt[a].influential == current[a].influential for a in current):
            return nxt, used
        current = nxt
    raise ConsistencyError(
        f"influence propagation still changing after {bound} steps; "
        "the propagation bound was violated"
    )


def apply_propensity_update(knowledge: dict[int, AgentKnowledge],
                            propensities: dict[int, float],
                            topo: DirectedTopology) -> dict[int, AgentKnowledge]:
    """Inject a new factor schedule entry.

    Every agent rewrites the values of leaders it already knows and rebuilds
    its coefficients; influential sets are untouched because reachability is
    static.
    """
    return {node: _with_coefficients(topo.is_follower(node),
                                     {q: propensities[q] for q in know.propensities})
            for node, know in knowledge.items()}


def itfl_sets(knowledge: dict[int, AgentKnowledge],
              topo: DirectedTopology) -> dict[int, frozenset[int]]:
    """Relay leaders for each leader, computed at the knowledge fixed point.

    Leader m relays leader q when q influences m and m lies on a directed
    path from q to some follower that q cannot reach through followers
    alone.
    """
    reach_full = {q: topo.reachable_from(q) for q in topo.leader_nodes}
    neighbours = _in_neighbours(topo)

    # Follower-only reachability: paths whose intermediate nodes are followers.
    def leader_free_followers(q: int) -> set[int]:
        seen = {i for i in topo.follower_nodes if q in neighbours[i]}
        stack = list(seen)
        while stack:
            j = stack.pop()
            for i in topo.follower_nodes:
                if i not in seen and j in neighbours[i]:
                    seen.add(i)
                    stack.append(i)
        return seen

    result: dict[int, frozenset[int]] = {}
    for q in topo.leader_nodes:
        needy = {i for i in reach_full[q]
                 if topo.is_follower(i)} - leader_free_followers(q)
        if not needy:
            result[q] = frozenset()
            continue
        relays = set()
        for m in topo.leader_nodes:
            if m == q or q not in knowledge[m].influential:
                continue
            if needy & {i for i in topo.reachable_from(m) if topo.is_follower(i)}:
                relays.add(m)
        result[q] = frozenset(relays)
    return result
