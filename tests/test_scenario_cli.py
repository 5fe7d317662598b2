import json
import os

import numpy as np
import pytest

from pfcc import cli
from pfcc import model_control as mc
from pfcc import scenario as sc
from pfcc import simulation as sim
from pfcc.errors import AssumptionError, ConvergenceError, PersistentExcitationError, SchemaError


def bundled_dict(name="hexagon"):
    return sc.scenario_to_dict(sc.load_bundled(name))


def write(tmp_path, raw, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw, indent=2))
    return str(path)


class TestParsing:
    def test_round_trip_is_identity(self):
        cfg = sc.load_bundled("hexagon")
        text = sc.serialize_scenario(cfg)
        cfg2 = sc.scenario_from_dict(sc.parse_scenario_text(text))
        assert sc.config_digest(cfg) == sc.config_digest(cfg2)

    def test_static_round_trip(self):
        cfg = sc.load_bundled("hexagon_static")
        cfg2 = sc.scenario_from_dict(json.loads(sc.serialize_scenario(cfg)))
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

    def test_unknown_edge_agent_rejected(self):
        raw = bundled_dict()
        raw["edges"].append(["Lx", "F1", 1.0])
        with pytest.raises(SchemaError, match="unknown agent"):
            sc.scenario_from_dict(raw)

    def test_schedule_for_unknown_leader_rejected(self):
        raw = bundled_dict()
        raw["propensity_schedule"][0]["factors"]["Lx"] = 0.1
        with pytest.raises(SchemaError, match="unknown leader"):
            sc.scenario_from_dict(raw)

    def test_nonpositive_factor_is_assumption_failure(self):
        raw = bundled_dict()
        raw["propensity_schedule"][0]["factors"]["L1"] = 0.0
        with pytest.raises(AssumptionError, match="positive"):
            sc.scenario_from_dict(raw)

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


class TestTraceExport:
    def test_csv_shape_and_precision(self, tmp_path, hexagon_config):
        cfg = hexagon_config
        cfg.horizon = 30
        cfg.sample_interval = 10
        result = sim.run(cfg)
        trace_path, meta_path = sc.export_run(result, tmp_path / "out")
        lines = open(trace_path).read().splitlines()
        header = lines[0].split(",")
        assert header[0] == "tick"
        assert len(lines) == 1 + 3  # ticks 0, 10, 20
        # numbers round-trip exactly through the 17-digit format
        row = lines[1].split(",")
        rebuilt = [float(v) for v in row[1:]]
        np.testing.assert_array_equal(rebuilt, result.trace.rows()[0][1:])
        meta = json.load(open(meta_path))
        assert meta["config_sha256"] == sc.config_digest(cfg)
        assert meta["completed"] is True


class TestValidateCommand:
    def test_bundled_passes(self, tmp_path):
        path = write(tmp_path, bundled_dict())
        assert cli.main(["validate", path]) == cli.EXIT_OK

    def test_schema_failure_exit_code(self, tmp_path):
        raw = bundled_dict()
        raw["surprise"] = True
        path = write(tmp_path, raw)
        assert cli.main(["validate", path]) == cli.EXIT_SCHEMA

    def test_isolated_follower_named(self, tmp_path, capsys):
        raw = bundled_dict()
        raw["edges"] = [e for e in raw["edges"] if e[1] != "F3"]
        path = write(tmp_path, raw)
        assert cli.main(["validate", path]) == cli.EXIT_ASSUMPTION
        out = capsys.readouterr().out
        assert "3" in out  # the orphaned follower is identified

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


class TestRunCommand:
    def test_zero_horizon_writes_header_only(self, tmp_path):
        path = write(tmp_path, bundled_dict())
        out = str(tmp_path / "out")
        code = cli.main(["run", path, "--horizon", "0", "--out", out])
        assert code == cli.EXIT_OK
        lines = open(os.path.join(out, "trace.csv")).read().splitlines()
        assert len(lines) == 1

    def test_mode_and_seed_overrides_reach_metadata(self, tmp_path):
        path = write(tmp_path, bundled_dict())
        out = str(tmp_path / "out")
        code = cli.main(["run", path, "--horizon", "40", "--mode",
                         "model_based_oracle", "--seed", "99",
                         "--sample-interval", "20", "--out", out])
        assert code == cli.EXIT_OK
        meta = json.load(open(os.path.join(out, "metadata.json")))
        assert meta["summary"]["mode"] == "model_based_oracle"
        assert meta["summary"]["seed"] == 99
        assert meta["summary"]["sample_interval"] == 20

    def test_learner_nonconvergence_exit_code_and_partial_trace(self, tmp_path):
        raw = bundled_dict()
        raw["learner"]["max_iterations"] = 1
        raw["learn_start_tick"] = 100
        raw["horizon"] = 600
        path = write(tmp_path, raw)
        out = str(tmp_path / "out")
        assert cli.main(["run", path, "--out", out]) == cli.EXIT_CONVERGENCE
        meta = json.load(open(os.path.join(out, "metadata.json")))
        assert meta["completed"] is False
        assert "error" in meta
        lines = open(os.path.join(out, "trace.csv")).read().splitlines()
        assert len(lines) > 1  # partial trace retained

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
        meta = json.load(open(os.path.join(out, "metadata.json")))
        assert meta["completed"] is False


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

    def test_identical_solutions_give_exact_zero_gap(self, hexagon_config):
        cfg = hexagon_config
        sys_ = mc.build_augmented(cfg.leader_dynamics[0], [cfg.formation[0]],
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
            cfg.follower_dynamics[2], forms, cfg.tracking_a,
            [matched[5], matched[7]], cfg.q_weights[node]))
        oracle_skewed = mc.riccati_value_iteration(mc.build_augmented(
            cfg.follower_dynamics[2], forms, cfg.tracking_a,
            [skewed[5], skewed[7]], cfg.q_weights[node]))
        gap = (np.linalg.norm(oracle_skewed.K - oracle_matched.K)
               / np.linalg.norm(oracle_matched.K))
        assert gap > 1e-2
        # the learner trained at the skewed weighting reproduces its oracle
        rep_skew = cli.compare_agent_gains(cfg, node, skewed)
        assert rep_skew["k_gap"] < 1e-3

    def test_effective_coefficients_baseline_mode(self):
        cfg = sc.load_bundled("hexagon_static")
        cfg.mode = sim.MODE_BASELINE
        coeffs = cli.effective_coefficients(cfg)
        assert coeffs[3] == {7: pytest.approx(1.0)}
