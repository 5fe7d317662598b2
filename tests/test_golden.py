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
#: records that the column table replaced; ``hexagon_baseline`` and
#: ``hexagon_data_driven_switch`` from the per-agent augmented-state
#: concatenation that the control plans replaced.
EXPORTS = {
    "hexagon_data_driven": (
        "hexagon", dict(horizon=1700, sample_interval=10),
        ("c310493ac0720f323240b0c8c8f5190a82b11a31e82d7cc6e8f101efc36dd415",
         "6cee00b3023c0689a14e3d24a2d49a496c057ccb3bbb5a2e4b246f3e6bd8bcf4")),
    "hexagon_oracle": (
        "hexagon", dict(horizon=1200, mode=sim.MODE_ORACLE),
        ("19b4a3c278a921e031d44c2bfa44aa192e6399c027487d353f11472066f8d53c",
         "cb441657ff8d6a0f8ba943278ea5c307c7d442af38f6ec086eb2e40f1c66383d")),
    # the baseline learner with input widths 1 to 3
    "hexagon_baseline": (
        "hexagon", dict(horizon=1700, sample_interval=10, mode=sim.MODE_BASELINE),
        ("d3931891369fa38b22ba956219b0b64b26edd65f250b7c33d34e8e7e3d790f57",
         "5410998ea45c70f33323dca7ca9c887a7345d92054394f69c9b30b820d3581d5")),
    # past the tick-4000 propensity switch, through the relearn; its
    # metadata.json re-pinned when the gain delta of F2 and F4, still
    # collecting their relearn window, became null instead of Infinity
    "hexagon_data_driven_switch": (
        "hexagon", dict(horizon=4100, sample_interval=50),
        ("7e87248bc19ed99fd0b1acf421df739746a47e9525f900c5002bd44d957e2f1b",
         "05465f59dbd4d601a1755d562c70c9fc535be92c58c37045c69292048d243c97")),
    # F2 and F4 settle their gain at sweep 2 of their first window and their
    # value matrix at sweeps 22-23; pinned with the stop test that waits
    # for both
    "hexagon_static_data_driven": (
        "hexagon_static", dict(horizon=1700, sample_interval=10),
        ("7f800d26403922f9b9ac5b077d5e01bb3b028cfd3d92e7ff2871ddd98a7f157f",
         "b242529a56a363696e8b784b3bbf8f4d5c7f8ea9430f2f638d888d8267bb215f")),
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
#: report at each probe seed: bundled scenario, overrides, digest.  The
#: bundled scenarios' pinned from a Riccati solve per call;
#: ``hexagon_static_baseline`` reads the Laplacian weights of
#: ``fcc_baseline`` mode, pinned before they and the propensity
#: coefficients moved into one ``follower_coefficients``.
COMPARE_REPORTS = {
    "hexagon": (
        "hexagon", {},
        "f246accaaa1761638713d1b111a9fb9f1f115ec684a1e21de422f06c53286f8f"),
    "hexagon_static": (
        "hexagon_static", {},
        "ba447cb34369d7d288e56f6a8ead1b88afe43c0d8cedd44be366cd935355afd1"),
    "hexagon_static_baseline": (
        "hexagon_static", dict(mode=sim.MODE_BASELINE),
        "e6ed99dc020b8b0664101d70539a12369f2a41dc6cfa6a38091eef0f93bbced0"),
}


@pytest.mark.parametrize("name", sorted(COMPARE_REPORTS))
def test_compare_gains_reports_match_pinned_digests(name):
    scenario, overrides, pinned = COMPARE_REPORTS[name]
    cfg = dataclasses.replace(sc.load_bundled(scenario), **overrides)
    coeffs = cli.effective_coefficients(cfg)
    agents = cfg.topology.follower_nodes + cfg.topology.leader_nodes
    reports = [cli.compare_agent_gains(dataclasses.replace(cfg, seed=seed), node,
                                       coeffs.get(node))
               for seed in COMPARE_SEEDS for node in agents]
    digest = hashlib.sha256(json.dumps(reports).encode()).hexdigest()
    assert digest == pinned
