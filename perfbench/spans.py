"""In-memory span recorder used by the traced benchmark run.

A span is (name, start, end, parent): the parent is the span that was open
when this one began, or -1 at the top.  Spans live in flat arrays while the
run goes on and are written out once, at the end.  A span's self time is its
duration minus the time its direct children cover; the self times of all
spans add up to the time covered by the top-level spans.
"""

from __future__ import annotations

import functools
import statistics
import time
from array import array

import numpy as np


class Tracer:
    """Records spans and call counts for wrapped callables."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.name_id)

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, fn, name: str, after=None):
        """Wrap ``fn`` so that each call records one span named ``name``.

        ``after(args, result)`` runs once the span is closed, outside the
        timed interval, and only when the call returned.
        """
        nid = self.name_index(name)
        ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                starts[i] = t0
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counter(self, fn, name: str):
        """Wrap ``fn`` so that each call only bumps ``counts[name]``."""
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def arrays(self) -> dict[str, np.ndarray]:
        """Views of the recorded spans; take them once recording has ended,
        since a live view stops the arrays from growing."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def wrapper_costs(calls: int = 50_000, repeats: int = 3) -> tuple[float, float]:
    """Seconds a span wrapper and a counter wrapper add to one call of a
    trivial function (median of ``repeats`` timings of ``calls`` calls)."""
    def noop(x):
        return x

    probe = Tracer()
    traced, counted = probe.span(noop, "noop"), probe.counter(noop, "noop")

    def per_call(fn) -> float:
        timings = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for i in range(calls):
                fn(i)
            timings.append(time.perf_counter() - t0)
        return statistics.median(timings) / calls

    base = per_call(noop)
    return per_call(traced) - base, per_call(counted) - base


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    duration = end - start
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=duration[nested],
                          minlength=parent.size)
    return duration - covered


def summarize(names: list[str], name_id: np.ndarray, parent: np.ndarray,
              start: np.ndarray, end: np.ndarray,
              first: int = 0, last: int | None = None) -> dict[str, dict]:
    """Per-name call count, inclusive seconds and self seconds over the spans
    with index in [first, last).

    The range must hold whole span trees: a span in it whose parent lies
    before ``first`` is treated as a top-level span.
    """
    last = name_id.size if last is None else last
    sel = slice(first, last)
    local_parent = parent[sel] - first
    local_parent[local_parent < 0] = -1
    own = self_times(local_parent, start[sel], end[sel])
    ids = name_id[sel]
    k = len(names)
    calls = np.bincount(ids, minlength=k)
    total = np.bincount(ids, weights=end[sel] - start[sel], minlength=k)
    self_s = np.bincount(ids, weights=own, minlength=k)
    return {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                   "self_s": float(self_s[i])}
            for i, name in enumerate(names)}
