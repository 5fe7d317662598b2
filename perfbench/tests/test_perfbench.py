"""Tests of the benchmark itself (not of pfcc).

    python3 -m pytest -q perfbench/tests

The run-based tests use shortened horizons; the full-horizon figures come
from the benchmark runs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

sys.path.insert(0, str(run.SRC))

import pfcc  # noqa: E402
import workloads  # noqa: E402
from instrument import Instrument, layer_metrics  # noqa: E402
from spans import Tracer, self_times, summarize  # noqa: E402

#: Long enough for every learner window to fill and iterate (learning
#: starts at tick 1400 in the bundled scenario).
LEARN_TICKS = 1700
ORACLE_TICKS = 300


def test_self_times_of_synthetic_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7]
    parent = np.array([-1, 0, 0, 2])
    start = np.array([0.0, 1.0, 5.0, 6.0])
    end = np.array([10.0, 4.0, 9.0, 7.0])
    assert self_times(parent, start, end).tolist() == [3.0, 3.0, 3.0, 1.0]

    names = ["root", "a", "b", "c"]
    stats = summarize(names, np.arange(4), parent, start, end)
    assert stats["root"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert sum(s["self_s"] for s in stats.values()) == 10.0
    # a range starting inside the tree treats b as a top-level span
    tail = summarize(names, np.arange(4), parent, start, end, first=2)
    assert tail["b"]["self_s"] == 3.0 and tail["root"]["calls"] == 0


def test_tracer_records_nesting_and_counts():
    tracer = Tracer()

    def inner(x):
        return x + 1

    inner_w = tracer.span(inner, "inner")
    outer_w = tracer.span(lambda x: inner_w(x) * 2, "outer")
    count_w = tracer.counter(inner, "counted")
    assert outer_w(1) == 4 and count_w(1) == 2 and count_w(2) == 3
    arrays = tracer.arrays()
    assert [tracer.names[i] for i in arrays["name_id"]] == ["outer", "inner"]
    assert arrays["parent"].tolist() == [-1, 0]
    assert arrays["start"][0] <= arrays["start"][1] <= arrays["end"][1] <= arrays["end"][0]
    assert tracer.counts == {"counted": 2}


def test_golden_comparison_tolerance():
    golden = workloads.load_golden("hexagon_learn")
    assert workloads.compare_golden(golden, golden) == []
    rows = np.array(golden["rows"])
    scale = np.abs(rows).max(axis=0)
    scale[0] = 0.0  # ticks stay exact
    nudged = dict(golden, rows=(rows + 1e-10 * scale).tolist())
    assert workloads.compare_golden(golden, nudged) == []
    moved = dict(golden, rows=(rows + 1e-8 * scale).tolist())
    assert any("deviates" in f for f in workloads.compare_golden(golden, moved))
    learners = json.loads(json.dumps(golden["learners"]))
    learners["F1"]["iterations"] += 1
    assert workloads.compare_golden(golden, dict(golden, learners=learners)) == [
        "golden: learners differ"]


def _run(workload, tmp_path: Path, traced: bool):
    inst = Instrument(pfcc) if traced else None
    if inst is not None:
        inst.install()
    try:
        m = run.measure(workload, workloads.DEFAULT_SEED, tmp_path, inst)
    finally:
        if inst is not None:
            inst.uninstall()
    return m, inst


def _counts(m, inst) -> dict:
    marks = m["marks"]
    metrics = layer_metrics(inst, [inst.stats(a, b) for a, b in zip(marks, marks[1:])],
                            inst.stats(marks[-1]), m["run_counts"])
    return {k: metrics[k][0] for k in ("observers.step_calls", "learning.tick_calls",
                                       "model_control.riccati_calls",
                                       "topology.index_calls")}


def test_traced_run_reproduces_untraced_trace_and_restores_package(tmp_path):
    originals = (pfcc.matops.vecv, pfcc.learning.vecv, pfcc.simulation.step_world,
                 pfcc.topology.DirectedTopology.leader_index)
    workload = workloads.SimulationWorkload("t", "hexagon", horizon=LEARN_TICKS)
    _run(workload, tmp_path / "plain", traced=False)
    _, inst = _run(workload, tmp_path / "traced", traced=True)
    for name in ("trace.csv", "metadata.json"):
        assert ((tmp_path / "plain" / name).read_bytes()
                == (tmp_path / "traced" / name).read_bytes())
    assert len(inst.tracer) > 0
    assert (pfcc.matops.vecv, pfcc.learning.vecv, pfcc.simulation.step_world,
            pfcc.topology.DirectedTopology.leader_index) == originals


@pytest.mark.parametrize("scenario, overrides, ticks", [
    ("hexagon", {}, LEARN_TICKS),
    ("hexagon_static", {"mode": "model_based_oracle"}, ORACLE_TICKS),
])
def test_layer_counts_repeat_between_traced_runs(tmp_path, scenario, overrides, ticks):
    workload = workloads.SimulationWorkload("t", scenario, horizon=ticks, **overrides)
    first = _counts(*_run(workload, tmp_path / "a", traced=True))
    second = _counts(*_run(workload, tmp_path / "b", traced=True))
    assert first == second
    assert first["observers.step_calls"] == 28 * ticks
    assert first["topology.index_calls"] > 0
    if scenario == "hexagon":
        assert first["learning.tick_calls"] > 0
    else:
        assert first["model_control.riccati_calls"] > 0


def test_bare_directory_fails_without_result(tmp_path):
    root = Path(run.__file__).resolve().parent.parent
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "gain_audit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_speedometer_normalises_each_block_by_its_bounding_slices():
    from speed import REF_SLICE_S, Speedometer

    meter = Speedometer()
    meter.slices = [REF_SLICE_S, 3 * REF_SLICE_S, REF_SLICE_S]
    assert meter.factor() == pytest.approx(5 / 3)
    assert meter.normalise([2.0, 2.0, 4.0], every=2) == pytest.approx([1.0, 1.0, 2.0])
    meter.slices = []
    meter.slice()
    assert len(meter.slices) == 1 and meter.slices[0] > 0
