import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import drawn_plants, drawn_topology_config
from pfcc import cli
from pfcc import learning as ln
from pfcc import model_control as mc
from pfcc import scenario as sc
from pfcc import simulation as sim
from pfcc.errors import AssumptionError, ConvergenceError, PersistentExcitationError, SchemaError
from test_scenario_fuzz import cases


def bundled_dict(name="hexagon"):
    return sc.scenario_to_dict(sc.load_bundled(name))


SRC = Path(__file__).resolve().parent.parent / "src"


def write(tmp_path, raw, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw, indent=2))
    return str(path)


#: The fields of ``ScenarioConfig`` keyed by node, the schedule's factors aside.
NODE_KEYED = ("formation_observers", "q_weights", "warmup_gains")


def node_key_edits(cfg, rng) -> dict:
    """Changes for ``dataclasses.replace``: zero to three entries of
    ``cfg``'s node-keyed fields or schedule factors, each added or removed
    at a node drawn from -1 to ``n_nodes + 1``."""
    changes = {name: dict(getattr(cfg, name)) for name in NODE_KEYED}
    entries = [(tick, dict(factors)) for tick, factors in cfg.schedule.entries]
    dim, n_nodes = cfg.state_dim, cfg.topology.n_nodes
    for _ in range(rng.integers(4)):
        node = int(rng.integers(-1, n_nodes + 2))
        width = cfg.dynamics_of(node).m if 0 < node < n_nodes else 1
        name = rng.choice(NODE_KEYED + ("schedule",))
        fields = entries[rng.integers(len(entries))][1] if name == "schedule" else changes[name]
        values = {"formation_observers": cfg.leader_tracking_observer,
                  "q_weights": rng.uniform(0.5, 2.0) * np.eye(dim),
                  "warmup_gains": rng.normal(size=(width, dim)),
                  "schedule": float(rng.uniform(0.05, 1.0))}
        if rng.random() < 0.5:
            fields.pop(node, None)
        else:
            fields[node] = values[name]
    return {**changes, "schedule": sim.PropensitySchedule(tuple(entries))}


def assert_survives_export(cfg, context=""):
    """``cfg``'s exported file loads back to the same digest, and with the
    same node keys, which the digest alone would not show: it reads the
    export, so a key the export drops is missing from both sides."""
    loaded = sc.scenario_from_dict(sc.parse_scenario_text(json.dumps(sc.scenario_to_dict(cfg))))
    assert sc.config_digest(loaded) == sc.config_digest(cfg), context
    for name in NODE_KEYED:
        assert getattr(loaded, name).keys() == getattr(cfg, name).keys(), (context, name)
    assert ([factors.keys() for _, factors in loaded.schedule.entries]
            == [factors.keys() for _, factors in cfg.schedule.entries]), context


class TestParsing:
    def test_round_trip_is_identity(self):
        cfg = sc.load_bundled("hexagon")
        text = json.dumps(sc.scenario_to_dict(cfg), indent=2)
        cfg2 = sc.scenario_from_dict(sc.parse_scenario_text(text))
        assert sc.config_digest(cfg) == sc.config_digest(cfg2)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_every_accepted_config_survives_its_export(self, seed):
        # bundled and drawn configs with node keys added or removed at
        # nodes that exist and nodes that do not
        rng = np.random.default_rng(seed)
        kind = rng.integers(3)
        base = (drawn_topology_config(sc.load_bundled("hexagon"), seed, 100) if kind == 2
                else sc.load_bundled(("hexagon", "hexagon_static")[kind]))
        try:
            cfg = dataclasses.replace(base, **node_key_edits(base, rng))
        except ValueError:
            return  # check_fields rejects it, so nothing exports it
        assert_survives_export(cfg)

    @pytest.mark.parametrize("name", ["hexagon", "hexagon_static"])
    def test_every_fuzzed_file_that_loads_survives_its_export(self, name):
        for case, raw, what in cases(name):
            try:
                cfg = sc.scenario_from_dict(sc.parse_scenario_text(json.dumps(raw)))
            except SchemaError:
                continue
            assert_survives_export(cfg, f"case {case} ({what})")

    def test_static_round_trip(self):
        cfg = sc.load_bundled("hexagon_static")
        cfg2 = sc.scenario_from_dict(json.loads(json.dumps(sc.scenario_to_dict(cfg))))
        assert sc.config_digest(cfg) == sc.config_digest(cfg2)

    def test_unknown_key_rejected(self):
        raw = bundled_dict()
        raw["mystery"] = 1
        with pytest.raises(SchemaError, match="mystery"):
            sc.scenario_from_dict(sc.parse_scenario_text(json.dumps(raw)))

    def test_parse_error_carries_line_context(self):
        with pytest.raises(SchemaError, match="line"):
            sc.parse_scenario_text("{\n  broken\n}")

    def test_ragged_matrix_rejected(self):
        raw = bundled_dict()
        raw["followers"][0]["A"] = [[0.0, 1.0], [1.0]]
        with pytest.raises(SchemaError, match="rectangular"):
            sc.scenario_from_dict(raw)

    def test_q_weight_matrix_entries_must_be_numbers(self):
        raw = bundled_dict()
        raw["leaders"][0]["q_weight"][1][0] = {}
        with pytest.raises(SchemaError, match="q_weight of L1"):
            sc.scenario_from_dict(sc.parse_scenario_text(json.dumps(raw)))

    def test_follower_to_leader_edge_rejected(self):
        raw = bundled_dict()
        raw["edges"].append(["F1", "L1", 1.0])
        with pytest.raises(SchemaError, match="never transmit"):
            sc.scenario_from_dict(raw)

    def test_edge_to_tracking_rejected(self):
        raw = bundled_dict()
        raw["edges"].append(["L1", "T", 1.0])
        with pytest.raises(SchemaError, match="tracking"):
            sc.scenario_from_dict(raw)

    def test_repeated_edge_rejected(self, tmp_path, capsys):
        # a second weight for the same pair would silently replace the first
        raw = bundled_dict()
        raw["edges"].append(["T", "L1", 5.0])
        with pytest.raises(SchemaError, match="edge listed twice: T -> L1"):
            sc.scenario_from_dict(raw)
        assert cli.main(["validate", write(tmp_path, raw)]) == cli.EXIT_SCHEMA
        out = capsys.readouterr().out
        assert out == "schema: FAIL - edge listed twice: T -> L1\n"

    def test_unknown_edge_agent_rejected(self):
        raw = bundled_dict()
        raw["edges"].append(["Lx", "F1", 1.0])
        with pytest.raises(SchemaError, match="unknown agent"):
            sc.scenario_from_dict(raw)

    @pytest.mark.parametrize("edge, match", [
        (["L1", "F3", -1.0], "negative"),
        (["T", "F1", 1.0], "only pins formation leaders")])
    def test_constructor_edge_rules_are_schema_errors(self, tmp_path, capsys, edge, match):
        # the topology constructor alone holds the edge-class rules
        raw = bundled_dict()
        raw["edges"].append(edge)
        with pytest.raises(SchemaError, match=match):
            sc.scenario_from_dict(raw)
        assert cli.main(["validate", write(tmp_path, raw)]) == cli.EXIT_SCHEMA
        assert match in capsys.readouterr().out

    @pytest.mark.parametrize("names", [("F1", "F1"), ("T", "F2")],
                             ids=["duplicate", "tracking"])
    def test_agent_names_checked_for_files_and_configs(self, names):
        # one rule for a scenario file and for a config built in code,
        # which would otherwise write a trace with repeated or "T" columns
        message = "agent names must be unique and must not shadow"
        raw = bundled_dict()
        raw["followers"][0]["name"], raw["followers"][1]["name"] = names
        with pytest.raises(SchemaError, match=message):
            sc.scenario_from_dict(raw)
        cfg = sc.load_bundled("hexagon")
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(cfg, names=[*names, *cfg.names[2:]])
        cfg.names[:2] = names
        with pytest.raises(ValueError, match=message):
            sim.init_world(cfg)

    def test_schedule_for_unknown_leader_rejected(self):
        raw = bundled_dict()
        raw["propensity_schedule"][0]["factors"]["Lx"] = 0.1
        with pytest.raises(SchemaError, match="unknown leader"):
            sc.scenario_from_dict(raw)

    def test_nonpositive_factor_is_assumption_failure(self):
        # positivity of the factors is a design assumption, not a
        # file-format matter
        raw = bundled_dict()
        raw["propensity_schedule"][0]["factors"]["L1"] = 0
        cfg = sc.scenario_from_dict(raw)
        assert cfg.validate() == ["propensity factor for L1 must be positive, got 0.0"]

    def test_invalid_observer_gain_is_schema_error(self):
        raw = bundled_dict()
        raw["observers"]["xi"] = 0.5
        with pytest.raises(SchemaError, match="xi"):
            sc.scenario_from_dict(raw)

    def test_dimension_mismatch_rejected(self):
        raw = bundled_dict()
        raw["followers"][0]["A"] = [[0.0]]
        with pytest.raises(SchemaError):
            sc.scenario_from_dict(raw)

    def test_digest_tracks_content(self):
        a = sc.load_bundled("hexagon")
        b = sc.load_bundled("hexagon")
        assert sc.config_digest(a) == sc.config_digest(b)
        b.seed += 1
        assert sc.config_digest(a) != sc.config_digest(b)


def hand_filled_trace(cfg, samples):
    """A trace of ``cfg`` with ``samples`` unset rows, to be written through
    ``rows()``."""
    trace = sim.TraceLog(cfg)
    trace.table, trace.size = np.empty((samples, len(trace.header()))), samples
    return trace


def f_string_csv(trace, start=0, stop=None):
    """``trace_to_csv``'s text written cell by cell with f-strings."""
    lines = [",".join(trace.header()) + "\n"] if start == 0 else []
    for tick, *values in trace.rows()[start:stop].tolist():
        lines.append(",".join([f"{int(tick)}"] + [f"{v:.17g}" for v in values]) + "\n")
    return "".join(lines)


class TestTraceExport:
    def test_csv_shape_and_precision(self, tmp_path, hexagon_config):
        cfg = hexagon_config
        cfg.horizon = 30
        cfg.sample_interval = 10
        result = sim.run(cfg)
        trace_path, meta_path = sc.export_run(result, tmp_path / "out")
        lines = Path(trace_path).read_text().splitlines()
        header = lines[0].split(",")
        assert header[0] == "tick"
        assert len(lines) == 1 + 3  # ticks 0, 10, 20
        # numbers round-trip exactly through the 17-digit format
        row = lines[1].split(",")
        rebuilt = [float(v) for v in row[1:]]
        np.testing.assert_array_equal(rebuilt, result.trace.rows()[0][1:])
        meta = json.loads(Path(meta_path).read_text())
        assert meta["config_sha256"] == sc.config_digest(cfg)
        assert meta["completed"] is True


    def test_rows_match_the_f_string_form_byte_for_byte(self, hexagon_config):
        rng = np.random.default_rng(5)
        specials = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.2250738585072014e-308,
                    1.7976931348623157e308, 0.1, 1 / 3, 1e16, 123456789.0]
        trace = hand_filled_trace(hexagon_config, 60)
        for tick, row in enumerate(trace.rows()):
            row[0] = tick * 7
            row[1:] = (rng.normal(size=row.size - 1)
                       * 10.0 ** rng.uniform(-320, 308, row.size - 1))
            row[1 + tick % (row.size - 1)] = specials[tick % len(specials)]
        assert sc.trace_to_csv(trace) == f_string_csv(trace)

    def test_values_that_compare_equal_keep_their_own_text(self, tmp_path, hexagon_config):
        # each distinct value is formatted once per chunk; values are told
        # apart by their bits, so 0.0 and -0.0 print as "0" and "-0" and
        # every nan, whatever its sign and payload, as "nan"
        nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                         0xFFF4000000000ABC], dtype=np.uint64).view(np.float64).tolist()
        specials = [0.0, -0.0, *nans, np.inf, -np.inf, 5e-324, -5e-324, 0.1, 1 / 3, -2.5]
        samples = 2 * sc.CSV_CHUNK_ROWS + 3
        trace = hand_filled_trace(hexagon_config, samples)
        rows = trace.rows()
        rows[:, 0] = 3 * np.arange(samples)
        # every special in every chunk, in a different column on each row
        columns = rows.shape[1] - 1
        rows[:, 1:] = np.array(specials)[
            (np.arange(samples)[:, None] + np.arange(columns)) % len(specials)]
        bits = np.unique(np.ascontiguousarray(rows[:, 1:]).view(np.int64))
        assert len(bits) == len(specials)
        assert sc.trace_to_csv(trace) == f_string_csv(trace)
        edge = sc.CSV_CHUNK_ROWS
        for start, stop in [(0, 0), (0, 1), (5, 5), (edge - 1, edge + 1), (edge, edge + 1),
                            (2 * edge, samples), (samples, samples)]:
            assert sc.trace_to_csv(trace, start, stop) == f_string_csv(trace, start, stop)
        result = sim.RunResult(trace=trace, state=None, summary={}, error=None)
        trace_path, _ = sc.export_run(result, tmp_path)
        with open(trace_path, encoding="utf-8", newline="") as fh:
            assert fh.read() == sc.trace_to_csv(trace)

    @pytest.mark.parametrize("samples", [0, 1, sc.CSV_CHUNK_ROWS, sc.CSV_CHUNK_ROWS + 1,
                                         2 * sc.CSV_CHUNK_ROWS + 3])
    def test_chunked_export_writes_the_one_string_form(self, tmp_path, hexagon_config,
                                                       samples):
        trace = hand_filled_trace(hexagon_config, samples)
        rows = trace.rows()
        rows[:, 0] = np.arange(samples)
        rows[:, 1:] = np.random.default_rng(samples).normal(size=(samples, rows.shape[1] - 1))
        result = sim.RunResult(trace=trace, state=None, summary={}, error=None)
        trace_path, _ = sc.export_run(result, tmp_path)
        with open(trace_path, encoding="utf-8", newline="") as fh:
            assert fh.read() == sc.trace_to_csv(trace)


def reject_constant(token):
    raise ValueError(f"{token} is not JSON")


class TestStrictMetadata:
    """``metadata.json`` is strict JSON: a number that is not finite is
    written as null, not as ``Infinity`` or ``NaN``."""

    def read(self, result, tmp_path):
        _, meta_path = sc.export_run(result, tmp_path)
        return json.loads(Path(meta_path).read_text(), parse_constant=reject_constant)

    def test_learners_before_their_first_sweep(self, tmp_path, hexagon_config):
        meta = self.read(sim.run(dataclasses.replace(hexagon_config, horizon=300)), tmp_path)
        learners = meta["summary"]["learners"].values()
        assert learners and all(lr["iterations"] == 0 for lr in learners)
        assert all(lr["last_gain_delta"] is None for lr in learners)

    def test_aborted_run_with_overflowed_observer_errors(self, tmp_path, hexagon_config):
        # the tracking target's norm overflows, so every observer's error
        # at tick 0 is inf and the tracking network aborts the run
        cfg = dataclasses.replace(hexagon_config, horizon=10, sample_interval=1,
                                  tracking_x0=np.array([1e308, 1e308]))
        result = sim.run(cfg)
        assert not result.completed
        assert not np.isfinite(result.trace.rows()[-1]).all()
        meta = self.read(result, tmp_path)
        assert meta["completed"] is False and "diverged" in meta["error"]["message"]
        assert set(meta["summary"]["final_observer_errors"].values()) == {None}

    def test_a_new_non_finite_field_fails_the_export(self, tmp_path, hexagon_config):
        trace = hand_filled_trace(hexagon_config, 0)
        result = sim.RunResult(trace=trace, state=None, summary={"x": np.inf}, error=None)
        with pytest.raises(ValueError, match="not JSON compliant"):
            sc.export_run(result, tmp_path)


class TestValidateCommand:
    def test_bundled_passes(self, tmp_path):
        path = write(tmp_path, bundled_dict())
        assert cli.main(["validate", path]) == cli.EXIT_OK

    @pytest.mark.parametrize("name", ["hexagon", "hexagon_static"])
    def test_success_names_every_check(self, name, tmp_path, capsys):
        # every check ScenarioConfig.validate runs, in the order it runs them
        path = write(tmp_path, bundled_dict(name))
        assert cli.main(["validate", path]) == cli.EXIT_OK
        assert capsys.readouterr().out.splitlines() == [
            "schema: ok",
            "assumptions: ok (graph structure, schedule factors for every leader, "
            "factor positivity, spectral radii, q_weight positive definiteness, "
            "stabilizability, regulation solvability)"]

    def test_schema_failure_exit_code(self, tmp_path):
        raw = bundled_dict()
        raw["surprise"] = True
        path = write(tmp_path, raw)
        assert cli.main(["validate", path]) == cli.EXIT_SCHEMA

    def test_isolated_follower_named(self, tmp_path, capsys):
        # F3 hears only L3: without that edge no leader and no tracking
        # path reach it
        raw = bundled_dict()
        raw["edges"] = [e for e in raw["edges"] if e[1] != "F3"]
        path = write(tmp_path, raw)
        assert cli.main(["validate", path]) == cli.EXIT_ASSUMPTION
        assert capsys.readouterr().out.splitlines() == [
            "schema: ok",
            "assumptions: FAIL - no spanning tree rooted at the tracking leader "
            "(unreachable nodes: F3); followers with no formation-leader path: F3"]

    def test_unreachable_agents_named(self, tmp_path, capsys):
        raw = bundled_dict()
        raw["edges"] = [e for e in raw["edges"] if e[0] != "T"]
        path = write(tmp_path, raw)
        assert cli.main(["validate", path]) == cli.EXIT_ASSUMPTION
        assert capsys.readouterr().out.splitlines() == [
            "schema: ok",
            "assumptions: FAIL - no spanning tree rooted at the tracking leader "
            "(unreachable nodes: F1, F2, F3, F4, L1, L2, L3, L4, L5, L6)"]

    def test_schedule_entry_missing_factors_named(self, tmp_path, capsys):
        raw = bundled_dict()
        factors = raw["propensity_schedule"][1]["factors"]
        del factors["L3"], factors["L6"]
        path = write(tmp_path, raw)
        assert cli.main(["validate", path]) == cli.EXIT_ASSUMPTION
        assert capsys.readouterr().out.splitlines() == [
            "schema: ok",
            "assumptions: FAIL - schedule entry missing factors for leaders L3, L6"]

    def test_nonpositive_factor_exit_code(self, tmp_path):
        raw = bundled_dict()
        raw["propensity_schedule"][0]["factors"]["L1"] = -1.0
        path = write(tmp_path, raw)
        assert cli.main(["validate", path]) == cli.EXIT_ASSUMPTION

    def test_unsolvable_regulation_reported(self, tmp_path):
        raw = bundled_dict()
        raw["leaders"][0]["S"] = [[1.0, 0.0], [0.0, 1.0]]  # unreachable shape
        path = write(tmp_path, raw)
        assert cli.main(["validate", path]) == cli.EXIT_ASSUMPTION


class TestScenarioText:
    """Text that the JSON parser cannot read as written fails as a schema
    error: one line, exit 2."""

    @pytest.mark.parametrize("command", ["validate", "run", "compare-gains"])
    def test_non_utf8_file_is_one_line_schema_error(self, tmp_path, capsys, command):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + json.dumps(bundled_dict()).encode("utf-16-le"))
        out = ["--out", str(tmp_path / "out")] if command == "run" else []
        assert cli.main([command, str(path), *out]) == cli.EXIT_SCHEMA
        captured = capsys.readouterr()
        text = captured.out + captured.err
        assert text.count("\n") == 1, text
        assert text.endswith(f"cannot read scenario {path}: not UTF-8 text\n"), text

    @pytest.mark.parametrize("key, old, new", [
        # a parser that keeps the last value would run all 8000 ticks
        ("horizon", '{"name"', '{"horizon": 10, "name"'),
        ("L1", '"factors": {', '"factors": {"L1": 2.0, ')])
    def test_duplicate_key_is_schema_error(self, tmp_path, capsys, key, old, new):
        text = json.dumps(bundled_dict())
        assert old in text
        path = tmp_path / "duplicate.json"
        path.write_text(text.replace(old, new, 1))
        assert cli.main(["validate", str(path)]) == cli.EXIT_SCHEMA
        assert capsys.readouterr().out == (
            f"schema: FAIL - scenario has a duplicate key {key!r}\n")


class TestRunCommand:
    def test_zero_horizon_writes_header_only(self, tmp_path):
        path = write(tmp_path, bundled_dict())
        out = str(tmp_path / "out")
        code = cli.main(["run", path, "--horizon", "0", "--out", out])
        assert code == cli.EXIT_OK
        lines = Path(out, "trace.csv").read_text().splitlines()
        assert len(lines) == 1

    def test_mode_and_seed_overrides_reach_metadata(self, tmp_path):
        path = write(tmp_path, bundled_dict())
        out = str(tmp_path / "out")
        code = cli.main(["run", path, "--horizon", "40", "--mode",
                         "model_based_oracle", "--seed", "99",
                         "--sample-interval", "20", "--out", out])
        assert code == cli.EXIT_OK
        meta = json.loads(Path(out, "metadata.json").read_text())
        assert meta["summary"]["mode"] == "model_based_oracle"
        assert meta["summary"]["seed"] == 99
        assert meta["summary"]["sample_interval"] == 20

    def test_learner_nonconvergence_exit_code_and_partial_trace(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ln, "MAX_ITERATIONS", 1)
        raw = bundled_dict()
        raw["learn_start_tick"] = 100
        raw["horizon"] = 600
        path = write(tmp_path, raw)
        out = str(tmp_path / "out")
        assert cli.main(["run", path, "--out", out]) == cli.EXIT_CONVERGENCE
        meta = json.loads(Path(out, "metadata.json").read_text())
        assert meta["completed"] is False
        assert "error" in meta
        lines = Path(out, "trace.csv").read_text().splitlines()
        assert len(lines) > 1  # partial trace retained

    def test_integral_float_sample_interval_reads_as_an_integer(self, tmp_path, capsys):
        # JSON Schema counts 10.0 as an integer: it runs, and exports
        # exactly as 10 does
        exports = []
        for interval in (10, 10.0):
            raw = bundled_dict("hexagon_static")
            raw["sample_interval"] = interval
            path = write(tmp_path, raw)
            out = tmp_path / f"run-{interval}"
            assert cli.main(["run", path, "--horizon", "30", "--out", str(out)]) == cli.EXIT_OK
            assert capsys.readouterr().err == ""
            exports.append([(out / name).read_bytes() for name in ("trace.csv",
                                                                   "metadata.json")])
        assert exports[0] == exports[1]

    def test_schema_error_exit_code(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope}")
        assert cli.main(["run", str(path), "--out", str(tmp_path / "o")]) \
            == cli.EXIT_SCHEMA

    @pytest.mark.parametrize("flag, value", [("--sample-interval", "0"),
                                             ("--horizon", "-5")])
    def test_invalid_override_is_schema_error(self, tmp_path, capsys, flag, value):
        path = write(tmp_path, bundled_dict())
        out = tmp_path / "out"
        assert cli.main(["run", path, flag, value, "--out", str(out)]) == cli.EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "override" in err
        assert not out.exists()
        assert cli.main(["validate", path, flag, value]) == cli.EXIT_SCHEMA

    @pytest.mark.parametrize("key, value", [
        *(pytest.param(key, value, id=key)
          for key, value in [("noise_std", 0.1), ("gain_delta_threshold", 1e-8),
                             ("max_iterations", 3000), ("window", 40),
                             ("relearn_on_alpha_change", False)]),
        # values the removed learner rules rejected fail the same way
        *(pytest.param(key, value, id=f"{key}-{value}")
          for key, value in [("noise_std", -0.1), ("noise_std", float("inf")),
                             ("gain_delta_threshold", 0.0), ("max_iterations", 0)])])
    def test_invalid_learner_setting_is_schema_error(self, tmp_path, capsys, key, value):
        # the learner's settings are constants of ``learning``, so a file
        # with a learner section fails the schema, whatever it sets
        message = ("scenario schema violation at <root>: Additional properties are not "
                   "allowed ('learner' was unexpected)")
        raw = bundled_dict()
        raw["learner"] = {key: value}
        path = write(tmp_path, raw)
        out = tmp_path / "out"
        assert cli.main(["run", path, "--horizon", "50", "--out", str(out)]) == cli.EXIT_SCHEMA
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()
        assert cli.main(["compare-gains", path]) == cli.EXIT_SCHEMA
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert cli.main(["validate", path]) == cli.EXIT_SCHEMA
        assert capsys.readouterr() == (f"schema: FAIL - {message}\n", "")

    @pytest.mark.parametrize("path, value, message", [
        (("followers", 0, "x0"), [0.0, 0.0, 0.0], "x0 of F1"),
        (("leaders", 1, "x0"), [1.0], "x0 of L2"),
        (("tracking", "x0"), [0.0], "tracking x0"),
        (("followers", 1, "warmup_gain"), [[0.1, 0.2, 0.3]], "warmup_gain of F2"),
        (("leaders", 0, "warmup_gain"), [[0.1, 0.2], [0.3, 0.4]], "warmup_gain of L1"),
        (("observers", "leader_tracking", "gain_matrix"), [[1.0]], "leader tracking"),
        (("observers", "formation", "L3", "gain_matrix"),
         [[1.0, 0.0, 0.0]] * 3, "formation L3"),
        (("followers", 2, "q_weight"), [[1.0, 0.0, 0.0]] * 3, "q_weight of F3"),
        (("leaders", 2, "q_weight"), [[1.0]], "q_weight of L3"),
        (("followers", 0, "A"), [[float("inf"), 1.0], [1.0, 3.0]], "A of F1 must be finite"),
        (("leaders", 1, "q_weight"), [[1.0, 0.0], [0.0, float("nan")]],
         "q_weight of L2 must be finite"),
        (("followers", 0, "A"), [[0.0, 1.0]], "A of F1 must have shape (2, 2), got (1, 2)"),
        (("followers", 1, "B"), [[0.0], [1.0], [0.0]],
         "B of F2 must have shape (2, 1), got (3, 1)"),
        (("leaders", 0, "S"), [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
         "formation S of L1 must have shape (2, 2), got (3, 3)"),
        (("leaders", 1, "h0"), [1.0, 0.0, 0.0],
         "formation h0 of L2 must have shape (2,), got (3,)"),
    ])
    def test_shape_error_is_schema_error(self, tmp_path, capsys, path, value, message):
        raw = bundled_dict()
        entry = raw
        for key in path[:-1]:
            entry = entry[key]
        entry[path[-1]] = value
        scenario = write(tmp_path, raw)
        out = tmp_path / "out"
        for command in (["validate", scenario], ["run", scenario, "--out", str(out)],
                        ["compare-gains", scenario, "--mode", "model_based_oracle"]):
            assert cli.main(command) == cli.EXIT_SCHEMA
            captured = capsys.readouterr()
            text = captured.out + captured.err
            assert text.count("\n") == 1 and message in text
        assert not out.exists()

    # a number field's non-finite value fails the finiteness rule of its
    # owner, an integer field's the schema's integer type; a 5000-digit
    # literal is past Python's int-string length limit
    @pytest.mark.parametrize("path, token, message", [
        pytest.param(("propensity_schedule", 0, "factors", "L1"), "NaN",
                     "schedule: factor for L1 must be finite", id="path0-NaN"),
        pytest.param(("propensity_schedule", 1, "factors", "L2"), "Infinity",
                     "schedule: factor for L2 must be finite", id="path1-Infinity"),
        pytest.param(("observers", "xi"), "Infinity", "observers: xi must be finite",
                     id="path2-Infinity"),
        pytest.param(("observers", "init_scale"), "Infinity",
                     "observers: init scale must be finite", id="path3-Infinity"),
        pytest.param(("observers", "formation", "L3", "coupling"), "Infinity",
                     "observers: formation L3 coupling must be finite", id="path4-Infinity"),
        pytest.param(("observers", "leader_tracking", "consensus_gain"), "NaN",
                     "observers: leader tracking consensus_gain must be finite",
                     id="path5-NaN"),
        pytest.param(("tracking", "x0", 0), "Infinity", "tracking x0 must be finite",
                     id="path6-Infinity"),
        pytest.param(("edges", 0, 2), "Infinity",
                     "adjacency weights must be finite and non-negative", id="path7-Infinity"),
        pytest.param(("leaders", 0, "h0", 1), "-Infinity", "formation h0 of L1 must be finite",
                     id="path8--Infinity"),
        pytest.param(("followers", 1, "A", 0, 0), "1e400", "A of F2 must be finite",
                     id="path9-1e400"),
        pytest.param(("followers", 0, "x0", 1), "-1e400", "x0 of F1 must be finite",
                     id="path10--1e400"),
        pytest.param(("observers", "follower_tracking", "coupling"), "1" + "0" * 400,
                     "observers: follower tracking coupling must be finite",
                     id="path11-401-digit-integer"),
        pytest.param(("followers", 0, "q_weight"), "Infinity", "q_weight of F1 must be finite",
                     id="scalar-q_weight-Infinity"),
        pytest.param(("observers", "xi"), "1" + "0" * 4999, "observers: xi must be finite",
                     id="xi-5000-digit-integer"),
        pytest.param(("horizon",), "1" + "0" * 4999,
                     "scenario schema violation at horizon: inf is not of type 'integer'",
                     id="horizon-5000-digit-integer"),
    ])
    def test_non_finite_number_is_schema_error(self, tmp_path, capsys, path, token, message):
        raw = bundled_dict()
        entry = raw
        for key in path[:-1]:
            entry = entry[key]
        entry[path[-1]] = "@non-finite@"
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(raw).replace('"@non-finite@"', token))
        out = tmp_path / "out"
        for command in (["validate", str(scenario)],
                        ["run", str(scenario), "--horizon", "3", "--out", str(out)],
                        ["compare-gains", str(scenario)]):
            assert cli.main(command) == cli.EXIT_SCHEMA
            captured = capsys.readouterr()
            text = captured.out + captured.err
            assert text.count("\n") == 1 and "Traceback" not in text
            assert text.rstrip("\n").endswith(f" {message}"), text
        assert not out.exists()

    @pytest.mark.parametrize("path, value, message", [
        (("followers", 0, "B"), [[0.0], [0.0]], "agent F1 is not stabilizable"),
        (("leaders", 0, "B"), [[0.0], [0.0]], "agent L1 is not stabilizable"),
        (("tracking", "A"), [[1.2, 0.0], [0.0, 1.0]], "tracking dynamics"),
        (("followers", 0, "A", 0, 0), 1e200, "agent F1 is not stabilizable"),
        (("followers", 0, "q_weight"), [[-1.0, 0.0], [0.0, 1.0]],
         "q_weight of F1 must be symmetric positive definite"),
        (("leaders", 3, "q_weight"), [[0.0, 0.0], [0.0, 0.0]],
         "q_weight of L4 must be symmetric positive definite"),
        (("leaders", 0, "S"), [[0.0, 1.5], [1.5, 0.0]], "formation dynamics of L1 expand"),
        (("leaders", 5, "S"), [[1.0, 0.0], [0.0, 1.01]], "formation dynamics of L6 expand"),
        (("propensity_schedule", 0, "factors", "L1"), -1.0,
         "propensity factor for L1 must be positive, got -1.0"),
        (("propensity_schedule", 1, "factors", "L6"), 0,
         "propensity factor for L6 must be positive, got 0.0"),
    ])
    def test_assumption_failure_exits_before_any_solve(self, tmp_path, capsys, monkeypatch,
                                                       path, value, message):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the assumption checks")
        monkeypatch.setattr(mc, "riccati_value_iteration", no_solve)
        monkeypatch.setattr(mc, "oracle_solution", no_solve)
        raw = bundled_dict()
        entry = raw
        for key in path[:-1]:
            entry = entry[key]
        entry[path[-1]] = value
        scenario = write(tmp_path, raw)
        for command in (["compare-gains", scenario],
                        ["run", scenario, "--horizon", "50", "--out", str(tmp_path / "out")]):
            assert cli.main(command) == cli.EXIT_ASSUMPTION
            captured = capsys.readouterr()
            text = captured.out + captured.err
            assert text.count("\n") == 1 and message in text
        assert cli.main(["validate", scenario]) == cli.EXIT_ASSUMPTION
        assert f"assumptions: FAIL - {message}" in capsys.readouterr().out

    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    def test_unwritable_out_is_one_line_error(self, tmp_path, capsys, out):
        # an existing file, and a directory below one
        path = write(tmp_path, bundled_dict())
        (tmp_path / "afile").write_text("")
        out = str(tmp_path / out)
        assert cli.main(["run", path, "--horizon", "0", "--out", out]) == cli.EXIT_GENERIC
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: cannot write {out}: ")

    def test_unwritable_out_fails_before_the_run(self, tmp_path, capsys, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("ran before the output directory was checked")
        monkeypatch.setattr(sim, "run", no_run)
        path = write(tmp_path, bundled_dict())
        (tmp_path / "afile").write_text("")
        out = str(tmp_path / "afile")
        assert cli.main(["run", path, "--out", out]) == cli.EXIT_GENERIC
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: cannot write {out}: ")

    def test_missing_scenario_is_schema_error(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.json")
        assert cli.main(["run", missing, "--out", str(tmp_path / "o")]) == cli.EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "absent.json" in err
        assert cli.main(["validate", missing]) == cli.EXIT_SCHEMA

    def test_observer_divergence_exit_code(self, tmp_path, capsys):
        raw = bundled_dict()
        raw["horizon"] = 400
        for entry in raw["observers"]["formation"].values():
            entry["consensus_gain"] = 20.0
        path = write(tmp_path, raw)
        out = str(tmp_path / "out")
        assert cli.main(["run", path, "--out", out]) == cli.EXIT_CONVERGENCE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "observers" in err and "diverged" in err
        meta = json.loads(Path(out, "metadata.json").read_text())
        assert meta["completed"] is False

    def test_iteration_limit_is_enforced_during_the_run(self, tmp_path, capsys, monkeypatch):
        # every learner needs more than 20 sweeps on its first window
        monkeypatch.setattr(ln, "MAX_ITERATIONS", 20)
        path = write(tmp_path, bundled_dict())
        out = str(tmp_path / "out")
        assert cli.main(["run", path, "--horizon", "1500", "--out", out]) \
            == cli.EXIT_CONVERGENCE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "20 iterations" in err
        meta = json.loads(Path(out, "metadata.json").read_text())
        assert meta["completed"] is False
        # the learner that hit the bound reports its 20 sweeps
        assert max(lr["iterations"] for lr in meta["summary"]["learners"].values()) == 20
        assert cli.main(["compare-gains", path]) == cli.EXIT_CONVERGENCE

    @pytest.mark.parametrize("mode", sim.MODES)
    def test_leaders_several_hops_away_run_in_every_mode(self, tmp_path, capsys, mode):
        # the relays put F2..F4 more than one propagation step from the
        # leaders their baseline weights name
        raw = bundled_dict("hexagon_static")
        edges = ("T-L1 T-L2 L1-L3 L2-L4 L1-L5 L2-L6 L1-F1 F1-F2 F2-F3 F3-F4 "
                 "L2-F4 L3-F1 L4-F2 L5-F3 L6-F4")
        raw["edges"] = [[*edge.split("-"), 1.0] for edge in edges.split()]
        path = write(tmp_path, raw)
        assert cli.main(["validate", path]) == cli.EXIT_OK
        out = str(tmp_path / "out")
        assert cli.main(["run", path, "--mode", mode, "--horizon", "20",
                         "--out", out]) == cli.EXIT_OK
        assert capsys.readouterr().err == ""
        meta = json.loads(Path(out, "metadata.json").read_text())
        assert meta["completed"] is True


class TestCompareGainsExitCode:
    """``compare-gains`` reports every agent and exits with its most severe
    failure.  Every learner's window has 12 rows more than its regression's
    unknowns, so no agent fails for want of rows."""

    @staticmethod
    def compare(tmp_path, capsys):
        path = write(tmp_path, bundled_dict("hexagon_static"))
        assert cli.main(["validate", path]) == cli.EXIT_OK
        capsys.readouterr()
        code = cli.main(["compare-gains", path])
        out = capsys.readouterr()
        assert out.err == ""
        return code, [line for line in out.out.splitlines() if "FAILED" in line]

    @staticmethod
    def followers_unexcited(monkeypatch):
        """Make every follower's comparison fail for want of excitation, as
        no probe window of the bundled scenario does."""
        compare = cli.compare_agent_gains

        def unexcited(cfg, node, alphas=None):
            if cfg.topology.is_leader(node):
                return compare(cfg, node, alphas)
            raise PersistentExcitationError("regression matrix is zero; no excitation "
                                            "in the window")
        monkeypatch.setattr(cli, "compare_agent_gains", unexcited)

    def test_excitation_failures_alone_exit_4(self, tmp_path, capsys, monkeypatch):
        self.followers_unexcited(monkeypatch)
        code, lines = self.compare(tmp_path, capsys)
        assert code == cli.EXIT_EXCITATION
        assert [line.split()[0] for line in lines] == ["F1", "F2", "F3", "F4"]
        assert all(line.endswith("FAILED: regression matrix is zero; no excitation in the "
                                 "window") for line in lines)

    def test_a_convergence_failure_outranks_excitation(self, tmp_path, capsys, monkeypatch):
        # the leaders stop at 2 sweeps
        self.followers_unexcited(monkeypatch)
        monkeypatch.setattr(ln, "MAX_ITERATIONS", 2)
        code, lines = self.compare(tmp_path, capsys)
        assert code == cli.EXIT_CONVERGENCE
        assert sum("no excitation in the window" in line for line in lines) == 4
        assert sum("did not converge in 2 iterations" in line for line in lines) == 6


class TestOverflowingCost:
    """F1's q_weight scaled up, as far as the edge of the float range: each
    command ends in its documented exit code with one line and no warning
    or traceback, as a user's shell sees it."""

    @staticmethod
    def pfcc(tmp_path, scale, *args):
        raw = bundled_dict()
        raw["followers"][0]["q_weight"] = [[scale, 0.0], [0.0, scale]]
        path = write(tmp_path, raw)
        return subprocess.run([sys.executable, "-m", "pfcc.cli", args[0], path, *args[1:]],
                              env={**os.environ, "PYTHONPATH": str(SRC)},
                              capture_output=True, text=True, timeout=300)

    @staticmethod
    def assert_one_line(err, message):
        assert err.count("\n") == 1 and message in err, err
        assert "Traceback" not in err and "Warning" not in err

    # at 5e307 the first sweep's value matrix, about half the cost, is
    # finite, and its regression, about A^T P A, overflows
    @pytest.mark.parametrize("scale, message", [
        (1.7e308, "value matrix is not finite"),
        (5e307, "window regression is not finite")])
    def test_learner_run_aborts(self, tmp_path, scale, message):
        assert self.pfcc(tmp_path, scale, "validate").returncode == cli.EXIT_OK
        proc = self.pfcc(tmp_path, scale, "run", "--horizon", "1500",
                         "--out", str(tmp_path / "out"))
        assert proc.returncode == cli.EXIT_CONVERGENCE
        self.assert_one_line(proc.stderr, "run aborted: tick 1456, agent F1: " + message)

    def test_riccati_divergence_is_reported(self, tmp_path):
        proc = self.pfcc(tmp_path, 1.7e308, "compare-gains")
        assert proc.returncode == cli.EXIT_CONVERGENCE and proc.stderr == ""
        assert "F1        FAILED: value iteration diverged at iteration 1\n" in proc.stdout
        proc = self.pfcc(tmp_path, 1.7e308, "run", "--mode", "model_based_oracle",
                         "--horizon", "50", "--out", str(tmp_path / "out"))
        assert proc.returncode == cli.EXIT_CONVERGENCE
        self.assert_one_line(proc.stderr, "agent F1: value iteration diverged at iteration 1")


    @pytest.mark.parametrize("scale", [1e14, 1e20])
    def test_large_finite_cost_solves(self, tmp_path, scale):
        # the Riccati iteration's divergence and stopping bounds follow the
        # cost's scale, which the gain does not depend on
        proc = self.pfcc(tmp_path, scale, "compare-gains")
        assert proc.returncode == cli.EXIT_OK and proc.stderr == "", proc.stderr
        [f1] = [line.split() for line in proc.stdout.splitlines() if line.startswith("F1 ")]
        # the gain settles within two sweeps at these scales; the value
        # matrix must still be carried to its limit
        assert float(f1[2]) < 1e-3 and float(f1[3]) < 1e-3
        out = tmp_path / "out"
        proc = self.pfcc(tmp_path, scale, "run", "--mode", "model_based_oracle",
                         "--horizon", "50", "--out", str(out))
        assert proc.returncode == cli.EXIT_OK and proc.stderr == "", proc.stderr
        assert json.loads((out / "metadata.json").read_text())["completed"] is True


def set_f1_x0(raw):
    # the second entry: F1's warm-up gain cancels an x0 of [1e308, 0] exactly
    raw["followers"][0]["x0"] = [0.0, 1e308]


def set_l1_x0(raw):
    raw["leaders"][0]["x0"] = [0.0, 1e308]


def set_f1_warmup_gain(raw, gain):
    raw["followers"][0]["warmup_gain"] = [[gain, gain]]


class TestOverflowingInputs:
    """Finite inputs at the edge of the float range that ``validate``
    passes: each command ends in its documented exit code with one line
    and no warning or traceback, as a user's shell sees it."""

    @staticmethod
    def pfcc(tmp_path, edit, *args):
        raw = bundled_dict()
        edit(raw)
        path = write(tmp_path, raw)
        return path, subprocess.run(
            [sys.executable, "-m", "pfcc.cli", args[0], path, *args[1:]],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, timeout=300)

    @pytest.mark.parametrize("edit, group", [(set_f1_x0, "followers"),
                                             (set_l1_x0, "leaders")],
                             ids=["set_f1_x0", "set_l1_x0"])
    def test_plant_overflow_aborts_the_run(self, tmp_path, edit, group):
        path, proc = self.pfcc(tmp_path, edit, "run", "--horizon", "10",
                               "--out", str(tmp_path / "out"))
        assert proc.returncode == cli.EXIT_CONVERGENCE
        TestOverflowingCost.assert_one_line(
            proc.stderr, f"run aborted: tick 0, agent {group}: plant state diverged")
        cfg = dataclasses.replace(sc.load_scenario(path), horizon=10)
        assert cfg.validate() == []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = sim.run(cfg)
        assert not result.completed and result.error.tick == 0
        assert "plant state diverged" in str(result.error)

    # at 1e100 each row's norm overflows though its entries stay finite
    @pytest.mark.parametrize("gain", [1e100, 1e308])
    def test_huge_warm_up_gain_fails_its_agent(self, tmp_path, gain):
        def edit(raw):
            set_f1_warmup_gain(raw, gain)
        _, proc = self.pfcc(tmp_path, edit, "validate")
        assert proc.returncode == cli.EXIT_OK
        _, proc = self.pfcc(tmp_path, edit, "compare-gains")
        assert proc.returncode == cli.EXIT_CONVERGENCE and proc.stderr == "", proc.stderr
        failed = [line for line in proc.stdout.splitlines() if "FAILED" in line]
        assert failed == ["F1        FAILED: window regression is not finite; "
                          "the window has left the float range"]
        assert "Traceback" not in proc.stdout and "Warning" not in proc.stdout

    @pytest.mark.parametrize("rows", [10**20, 10**12])
    @pytest.mark.parametrize("command", [["run", "--horizon", "10"], ["compare-gains"]])
    def test_window_too_large_to_allocate(self, tmp_path, capsys, monkeypatch, rows, command):
        # windows sized for an augmented state far beyond the bundled ones
        monkeypatch.setattr(ln, "window_rows", lambda state_dim, input_dim: rows)
        path = write(tmp_path, bundled_dict())
        args = [command[0], path, *command[1:]]
        if command[0] == "run":
            args += ["--out", str(tmp_path / "out")]
        assert cli.main(args) == cli.EXIT_GENERIC
        err = capsys.readouterr().err
        assert err == f"error: learner window of {rows} rows does not fit in memory\n"


class TestObserverAbort:
    def test_diverging_observer_is_named_in_one_line(self, tmp_path):
        # drawn topology 6 diverges on the F3 row of L3's formation network
        cfg = dataclasses.replace(drawn_topology_config(sc.load_bundled("hexagon"), 6, 300),
                                  mode=sim.MODE_ORACLE)
        path = write(tmp_path, sc.scenario_to_dict(cfg))
        proc = subprocess.run(
            [sys.executable, "-m", "pfcc.cli", "run", path, "--horizon", "20",
             "--out", str(tmp_path / "out")],
            env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True,
            timeout=300)
        assert proc.returncode == cli.EXIT_CONVERGENCE
        TestOverflowingCost.assert_one_line(
            proc.stderr,
            "run aborted: tick 12, agent observers: observer F3 of L3's network diverged")


class TestExitCodeMapping:
    def test_distinct_documented_codes(self):
        assert cli._exit_code_for(SchemaError("x")) == 2
        assert cli._exit_code_for(AssumptionError("x")) == 3
        assert cli._exit_code_for(PersistentExcitationError("x")) == 4
        assert cli._exit_code_for(ConvergenceError("x")) == 5
        codes = {cli.EXIT_SCHEMA, cli.EXIT_ASSUMPTION, cli.EXIT_EXCITATION,
                 cli.EXIT_CONVERGENCE, cli.EXIT_OK, cli.EXIT_GENERIC}
        assert len(codes) == 6


class TestCompareGains:
    def test_command_reports_small_gaps(self, tmp_path, capsys):
        path = write(tmp_path, bundled_dict())
        assert cli.main(["compare-gains", path]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "F1" in out and "L6" in out

    @pytest.mark.parametrize("name", ["hexagon", "hexagon_static"])
    def test_probe_window_matches_row_by_row_form(self, name):
        bundled = sc.load_bundled(name)
        coeffs = cli.effective_coefficients(bundled)
        topo = bundled.topology
        for seed in (bundled.seed, 1, 2**31 - 1, 918273):
            cfg = dataclasses.replace(bundled, seed=seed)
            for node in topo.follower_nodes + topo.leader_nodes:
                alphas = coeffs.get(node, {node: 1.0})
                sys_ = cfg.augmented_system(node, tuple(sorted(alphas)), alphas)
                # the per-row form from one generator: a state draw per
                # row, then a noise draw per row, then one record per row
                expected = ln.DataBuffer(sys_.dim, sys_.m)
                rows = expected.capacity
                rng = np.random.default_rng([cfg.seed & 0x7FFFFFFF, node])
                warm = np.zeros((sys_.m, sys_.dim))
                warm[:, : cfg.state_dim] = np.atleast_2d(
                    cfg.warmup_gains.get(node, np.zeros((sys_.m, cfg.state_dim))))
                states = [rng.normal(size=sys_.dim) for _ in range(rows)]
                noise = [rng.normal(0.0, cli.COMPARE_NOISE_STD, sys_.m) for _ in range(rows)]
                for x, z in zip(states, noise):
                    u = warm @ x + z
                    expected.record(x, u, sys_.A_bar @ x + sys_.B_bar @ u)
                buf = cli.probe_window(cfg, node, sys_)
                assert len(buf) == rows
                np.testing.assert_array_equal(buf.theta(), expected.theta())
                np.testing.assert_array_equal(buf.psi_next(), expected.psi_next())

    def test_identical_solutions_give_exact_zero_gap(self, hexagon_config):
        cfg = hexagon_config
        sys_ = mc.build_augmented(cfg.dynamics_of(5), [cfg.formation[0]],
                                  cfg.tracking_a, [1.0], cfg.q_weights[5])
        a = mc.riccati_value_iteration(sys_)
        b = mc.riccati_value_iteration(sys_)
        assert np.linalg.norm(a.K - b.K) == 0.0
        assert np.linalg.norm(a.P - b.P) == 0.0

    def test_objective_mismatch_is_flagged(self, hexagon_config):
        # negative control: a learner run against a different convex
        # weighting of the leaders shows a visible gain gap against the
        # matched oracle (the weights enter the error selector, so the
        # formation gain blocks scale with them)
        cfg = hexagon_config
        node = 3  # follower with two influential leaders
        matched = {5: 0.5, 7: 0.5}
        skewed = {5: 5.0 / 6.0, 7: 1.0 / 6.0}
        rep_match = cli.compare_agent_gains(cfg, node, matched)
        assert rep_match["k_gap"] < 1e-3
        forms = [cfg.formation[0], cfg.formation[2]]
        oracle_matched = mc.riccati_value_iteration(mc.build_augmented(
            cfg.dynamics_of(3), forms, cfg.tracking_a,
            [matched[5], matched[7]], cfg.q_weights[node]))
        oracle_skewed = mc.riccati_value_iteration(mc.build_augmented(
            cfg.dynamics_of(3), forms, cfg.tracking_a,
            [skewed[5], skewed[7]], cfg.q_weights[node]))
        gap = (np.linalg.norm(oracle_skewed.K - oracle_matched.K)
               / np.linalg.norm(oracle_matched.K))
        assert gap > 1e-2
        # the learner trained at the skewed weighting reproduces its oracle
        rep_skew = cli.compare_agent_gains(cfg, node, skewed)
        assert rep_skew["k_gap"] < 1e-3

    @staticmethod
    def scaled_f1(cfg, scale):
        node = 1 + cfg.names.index("F1")
        q_weights = dict(cfg.q_weights)
        q_weights[node] = scale * q_weights[node]
        return dataclasses.replace(cfg, q_weights=q_weights), node

    def test_iteration_bound_names_the_value_step(self, hexagon_config, monkeypatch):
        # at q_weight 1e14 I the gain settles at sweep 2 and the value
        # matrix at sweep 24
        cfg, node = self.scaled_f1(hexagon_config, 1e14)
        monkeypatch.setattr(ln, "MAX_ITERATIONS", 10)
        coeffs = cli.effective_coefficients(cfg)
        with pytest.raises(ConvergenceError,
                           match=r"did not converge in 10 iterations \(last gain delta "
                                 r"\S+, last value step \S+\)"):
            cli.compare_agent_gains(cfg, node, coeffs[node])

    @pytest.mark.parametrize("seed, f1_scale", [(seed, 1.0) for seed in range(6)]
                             + [(6, 1e14)])
    def test_drawn_heterogeneous_plants_learn_the_oracle(self, hexagon_config, seed,
                                                         f1_scale):
        cfg, _ = self.scaled_f1(drawn_plants(hexagon_config, seed), f1_scale)
        assert cfg.validate() == []
        coeffs = cli.effective_coefficients(cfg)
        topo = cfg.topology
        for node in topo.follower_nodes + topo.leader_nodes:
            rep = cli.compare_agent_gains(cfg, node, coeffs.get(node))
            assert rep["k_gap"] < 1e-3 and rep["p_gap"] < 1e-3, (seed, rep)

    def test_effective_coefficients_baseline_mode(self):
        cfg = sc.load_bundled("hexagon_static")
        cfg.mode = sim.MODE_BASELINE
        coeffs = cli.effective_coefficients(cfg)
        assert coeffs[3] == {7: pytest.approx(1.0)}
