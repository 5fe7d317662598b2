"""Full seed-7 runs of the benchmark's simulation workloads against their
pinned golden traces (``perfbench/golden``): trace values within 1e-9 of
their column's scale, learner status, iterations and layouts exactly.

The workloads, the export and the comparison are the benchmark's own, so
this test and ``perfbench/run.py`` judge a run the same way.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402
from speed import Speedometer  # noqa: E402


@pytest.mark.parametrize("name", ["hexagon_learn", "static_oracle"])
def test_default_seed_run_matches_golden(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    ctx = workload.setup(workloads.DEFAULT_SEED)
    outcome = workload.run(ctx, tmp_path, Speedometer())
    assert outcome.result.completed, outcome.result.error
    header, rows = workloads.read_trace(outcome.facts["trace_path"])
    got = workloads.golden_record(ctx, header, rows)
    assert workloads.compare_golden(workloads.load_golden(name), got) == []
