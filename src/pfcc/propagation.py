"""Distributed propagation of influential-leader information.

What an agent knows is which formation leaders can influence it: one
boolean matrix over the nodes, ``known[i, q]`` true when node i knows
leader q.  At tick 0 an agent knows its direct in-neighbour leaders, and
one propagation step ORs in what its in-neighbours knew at the previous
tick, so after k steps ``known[i, q]`` holds exactly when q has a directed
path of at most k + 1 edges to i, and after at most N + M - 1 steps every
agent knows the leaders with a directed path to it.

The propensity factors themselves do not propagate: every agent reads the
schedule entry in force, and a follower's convex coefficients are derived
from it over the leaders it knows (``coefficients``).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .topology import DirectedTopology

# Propensity ratios are canonicalized to this many significant digits before
# normalization, so scaling every factor by a common constant yields
# bit-identical coefficients.
_RATIO_DIGITS = 12


def _round_sig(x: float) -> float:
    if x == 0.0:
        return 0.0
    return round(x, _RATIO_DIGITS - 1 - math.floor(math.log10(abs(x))))


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


def initial_influence(topo: DirectedTopology) -> np.ndarray:
    """Tick-0 knowledge: each node's direct in-neighbour leaders."""
    known = topo.adjacency > 0
    known[:, : 1 + topo.n_followers] = False
    return known


def step_propagation(known: np.ndarray, topo: DirectedTopology) -> np.ndarray:
    """One synchronous propagation step: every node adds what its
    in-neighbours knew at the previous tick.  The tracking leader's row
    stays empty, so it passes nothing on."""
    return known | ((topo.adjacency > 0) @ known)


def propagation_fixed_point(known: np.ndarray,
                            topo: DirectedTopology) -> tuple[np.ndarray, int]:
    """Iterate propagation until a step changes nothing.

    Returns the stable knowledge and the number of steps taken, counting
    the final confirming step.  Knowledge only grows over a finite matrix,
    so the loop ends.
    """
    for used in itertools.count(1):
        nxt = step_propagation(known, topo)
        if (nxt == known).all():
            return known, used
        known = nxt


def coefficients(known: np.ndarray, node: int,
                 factors: dict[int, float]) -> dict[int, float]:
    """A follower's convex coefficients: the factors in force, normalized
    over the leaders it knows."""
    return convex_coefficients({q: factors[q] for q in np.flatnonzero(known[node]).tolist()})
