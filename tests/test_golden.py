"""Full seed-7 runs of the benchmark's simulation workloads against their
pinned golden traces (``perfbench/golden``): trace values within 1e-9 of
their column's scale, learner status, iterations and layouts exactly.

The workloads, the export and the comparison are the benchmark's own, so
this test and ``perfbench/run.py`` judge a run the same way.

Short runs of every mode also pin the exported bytes exactly, and so do
the ``compare-gains`` reports of both bundled scenarios.
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from pfcc import cli
from pfcc import scenario as sc
from pfcc import simulation as sim

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


#: SHA-256 of the exported trace.csv and metadata.json of short runs:
#: bundled scenario, overrides, digests.  Pinned from the per-sample trace
#: records that the column table replaced.
EXPORTS = {
    "hexagon_data_driven": (
        "hexagon", dict(horizon=1700, sample_interval=10),
        ("c310493ac0720f323240b0c8c8f5190a82b11a31e82d7cc6e8f101efc36dd415",
         "6cee00b3023c0689a14e3d24a2d49a496c057ccb3bbb5a2e4b246f3e6bd8bcf4")),
    "hexagon_oracle": (
        "hexagon", dict(horizon=1200, mode=sim.MODE_ORACLE),
        ("19b4a3c278a921e031d44c2bfa44aa192e6399c027487d353f11472066f8d53c",
         "cb441657ff8d6a0f8ba943278ea5c307c7d442af38f6ec086eb2e40f1c66383d")),
    "hexagon_static_baseline": (
        "hexagon_static", dict(horizon=1700, sample_interval=1, mode=sim.MODE_BASELINE),
        ("ab28e2196eca5f19ab825916ddcbbe049305158be4cbf2b095afe23278c13adf",
         "5c3021f3e56419416d8ff9b8f62b99e08fc2b3931b4e6557977291a00277e3b9")),
    # past the tick-4000 propensity switch
    "hexagon_static_oracle_states": (
        "hexagon_static", dict(horizon=4100, sample_interval=1, mode=sim.MODE_ORACLE,
                               record_states=True),
        ("ed2be51746a6643ab95e97920956f94857eb4a379636f86d4c3c0eae11d3fc95",
         "17647761df5554572bd754be34e6527193dbae55fabd484a138db86dcfa38e71")),
}


@pytest.mark.parametrize("name", sorted(EXPORTS))
def test_export_bytes_match_pinned_digests(name, tmp_path):
    scenario, overrides, digests = EXPORTS[name]
    cfg = dataclasses.replace(sc.load_bundled(scenario), **overrides)
    paths = sc.export_run(sim.run(cfg), tmp_path)
    assert tuple(hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths) == digests


#: Probe seeds of the pinned ``compare-gains`` reports.
COMPARE_SEEDS = (7, 11, 2024, 31337)
#: SHA-256 of the JSON of every agent's full-precision ``compare_agent_gains``
#: report at each probe seed, pinned from a Riccati solve per call.
COMPARE_REPORTS = {
    "hexagon": "f246accaaa1761638713d1b111a9fb9f1f115ec684a1e21de422f06c53286f8f",
    "hexagon_static": "ba447cb34369d7d288e56f6a8ead1b88afe43c0d8cedd44be366cd935355afd1",
}


@pytest.mark.parametrize("name", sorted(COMPARE_REPORTS))
def test_compare_gains_reports_match_pinned_digests(name):
    cfg = sc.load_bundled(name)
    coeffs = cli.effective_coefficients(cfg)
    agents = cfg.topology.follower_nodes + cfg.topology.leader_nodes
    reports = [cli.compare_agent_gains(dataclasses.replace(cfg, seed=seed), node,
                                       coeffs.get(node))
               for seed in COMPARE_SEEDS for node in agents]
    digest = hashlib.sha256(json.dumps(reports).encode()).hexdigest()
    assert digest == COMPARE_REPORTS[name]
