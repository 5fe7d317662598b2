import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import reference_noise
from pfcc import cli
from pfcc import learning as ln
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
        text = json.dumps(sc.scenario_to_dict(cfg), indent=2)
        cfg2 = sc.scenario_from_dict(sc.parse_scenario_text(text))
        assert sc.config_digest(cfg) == sc.config_digest(cfg2)

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
        trace = sim.TraceLog(hexagon_config)
        rng = np.random.default_rng(5)
        specials = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.2250738585072014e-308,
                    1.7976931348623157e308, 0.1, 1 / 3, 1e16, 123456789.0]
        for tick in range(60):
            row = trace.next_row()
            row[0] = tick * 7
            row[1:] = (rng.normal(size=row.size - 1)
                       * 10.0 ** rng.uniform(-320, 308, row.size - 1))
            row[1 + tick % (row.size - 1)] = specials[tick % len(specials)]
        lines = [",".join(trace.header())]
        for tick, *values in trace.rows().tolist():
            lines.append(",".join([f"{int(tick)}"] + [f"{v:.17g}" for v in values]))
        assert sc.trace_to_csv(trace) == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("samples", [0, 1, sc.CSV_CHUNK_ROWS, sc.CSV_CHUNK_ROWS + 1,
                                         2 * sc.CSV_CHUNK_ROWS + 3])
    def test_chunked_export_writes_the_one_string_form(self, tmp_path, hexagon_config,
                                                       samples):
        trace = sim.TraceLog(hexagon_config)
        rng = np.random.default_rng(samples)
        for tick in range(samples):
            row = trace.next_row()
            row[0] = tick
            row[1:] = rng.normal(size=row.size - 1)
        result = sim.RunResult(trace=trace, state=None, summary={}, error=None)
        trace_path, _ = sc.export_run(result, tmp_path)
        with open(trace_path, encoding="utf-8", newline="") as fh:
            assert fh.read() == sc.trace_to_csv(trace)


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

    def test_learner_nonconvergence_exit_code_and_partial_trace(self, tmp_path):
        raw = bundled_dict()
        raw["learner"]["max_iterations"] = 1
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

    @pytest.mark.parametrize("key, value", [("window", -5), ("noise_std", -0.1),
                                            ("noise_std", float("inf")),
                                            ("gain_delta_threshold", 0.0),
                                            ("max_iterations", 0)])
    def test_invalid_learner_setting_is_schema_error(self, tmp_path, capsys, key, value):
        raw = bundled_dict()
        raw["learner"][key] = value
        path = write(tmp_path, raw)
        out = tmp_path / "out"
        assert cli.main(["run", path, "--horizon", "50", "--out", str(out)]) == cli.EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and key in err
        assert not out.exists()
        assert cli.main(["validate", path]) == cli.EXIT_SCHEMA
        assert capsys.readouterr().out.count("\n") == 1

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

    @pytest.mark.parametrize("path, token", [
        (("propensity_schedule", 0, "factors", "L1"), "NaN"),
        (("propensity_schedule", 1, "factors", "L2"), "Infinity"),
        (("observers", "xi"), "Infinity"),
        (("observers", "init_scale"), "Infinity"),
        (("observers", "formation", "L3", "coupling"), "Infinity"),
        (("observers", "leader_tracking", "consensus_gain"), "NaN"),
        (("learner", "gain_delta_threshold"), "Infinity"),
        (("edges", 0, 2), "Infinity"),
        (("leaders", 0, "h0", 1), "-Infinity"),
        (("followers", 1, "A", 0, 0), "1e400"),
        (("learner", "noise_std"), "-1e400"),
        pytest.param(("observers", "follower_tracking", "coupling"), "1" + "0" * 400,
                     id="path11-401-digit-integer"),
    ])
    def test_non_finite_number_is_schema_error(self, tmp_path, capsys, path, token):
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
            assert text.count("\n") == 1
            assert f"at {'/'.join(map(str, path))}: " in text and "must be finite" in text
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

    def test_iteration_limit_is_enforced_during_the_run(self, tmp_path, capsys):
        # every learner needs more than 20 sweeps on its first window
        raw = bundled_dict()
        raw["learner"]["max_iterations"] = 20
        path = write(tmp_path, raw)
        out = str(tmp_path / "out")
        assert cli.main(["run", path, "--horizon", "1500", "--out", out]) \
            == cli.EXIT_CONVERGENCE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "20 iterations" in err
        meta = json.loads(Path(out, "metadata.json").read_text())
        assert meta["completed"] is False
        assert all(lr["iterations"] <= 20 for lr in meta["summary"]["learners"].values())
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
                # the per-row form: one state draw, one seeded noise
                # generator and one record per row
                agent_cfg = dataclasses.replace(cfg.agent_learner_config(node),
                                                noise_std=cli.COMPARE_NOISE_STD)
                rows = agent_cfg.rows_for(sys_.dim, sys_.m)
                expected = ln.DataBuffer(sys_.dim, sys_.m, rows)
                rng = np.random.default_rng([cfg.seed & 0x7FFFFFFF, node])
                warm = np.zeros((sys_.m, sys_.dim))
                warm[:, : cfg.state_dim] = np.atleast_2d(
                    cfg.warmup_gains.get(node, np.zeros((sys_.m, cfg.state_dim))))
                for t in range(rows):
                    x = rng.normal(size=sys_.dim)
                    u = warm @ x + reference_noise(agent_cfg, sys_.m, t)
                    expected.record(x, u, sys_.A_bar @ x + sys_.B_bar @ u)
                buf = cli.probe_window(cfg, node, sys_)
                assert len(buf) == rows
                np.testing.assert_array_equal(buf.theta(), expected.theta())
                np.testing.assert_array_equal(buf.psi_next(), expected.psi_next())

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
