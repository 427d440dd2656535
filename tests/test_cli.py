"""CLI: subcommands, reports, schema validation, determinism, exit codes."""

import json
from importlib import resources

import jsonschema
import pytest

from cbcdyn import cli

SCHEMA = json.loads(
    resources.files("cbcdyn").joinpath("schemas/report.schema.json").read_text()
)


def run(argv, tmp_path, monkeypatch, out_dir=None):
    """Run the CLI in-process with the report directory redirected."""
    target = tmp_path if out_dir is None else out_dir
    monkeypatch.setenv(cli.ENV_OUT_DIR, str(target))
    return cli.main([str(a) for a in argv])


def load_report(directory, command):
    path = directory / f"{command}-report.json"
    report = json.loads(path.read_text())
    jsonschema.validate(report, SCHEMA)
    return report


class TestGraphCommand:
    def test_permutation_graph_report(self, tmp_path, monkeypatch):
        code = run(
            ["graph", "--cipher", "permutation", "--n-bits", "4", "--seed", "1",
             "--convention", "xor"],
            tmp_path, monkeypatch,
        )
        assert code == 0
        report = load_report(tmp_path, "graph")
        assert report["results"]["strongly_connected"] is True
        assert report["results"]["scc_count"] == 1
        assert report["results"]["complete"] is True
        assert report["config"]["cipher"] == "permutation"

    def test_degenerate_inner_function(self, tmp_path, monkeypatch):
        code = run(
            ["graph", "--cipher", "identity", "--n-bits", "2",
             "--convention", "paper-complement", "--inner-function", "identity"],
            tmp_path, monkeypatch,
        )
        assert code == 0
        report = load_report(tmp_path, "graph")
        assert report["results"]["conclusion"] == "condition-fails"
        assert report["results"]["scc_count"] == 4

    def test_dot_and_adjacency_exports(self, tmp_path, monkeypatch):
        dot = tmp_path / "g.dot"
        adj = tmp_path / "g-adj.json"
        code = run(
            ["graph", "--n-bits", "2", "--dot-out", dot, "--adjacency-out", adj],
            tmp_path, monkeypatch,
        )
        assert code == 0
        assert dot.read_text().startswith("digraph")
        assert len(json.loads(adj.read_text())["adjacency"]) == 4


class TestSimulateCommand:
    def test_zero_steps_single_csv_row(self, tmp_path, monkeypatch):
        code = run(
            ["simulate", "--cipher", "identity", "--n-bits", "2", "--iv", "00",
             "--message", "11,01", "--steps", "0"],
            tmp_path, monkeypatch,
        )
        assert code == 0
        csv = (tmp_path / "simulate-trajectory.csv").read_text()
        assert csv == "step,state,next_block\n0,00,11\n"

    def test_trajectory_rows(self, tmp_path, monkeypatch):
        code = run(
            ["simulate", "--n-bits", "2", "--iv", "01", "--message", "11",
             "--steps", "2"],
            tmp_path, monkeypatch,
        )
        assert code == 0
        lines = (tmp_path / "simulate-trajectory.csv").read_text().splitlines()
        assert lines[0] == "step,state,next_block"
        assert lines[1] == "0,01,11"
        assert lines[2] == "1,10,00"  # identity cipher: 01 xor 11
        report = load_report(tmp_path, "simulate")
        assert report["results"]["final_point"]["state"] == "10"

    def test_explicit_out_keeps_csv_beside_report(self, tmp_path, monkeypatch):
        out = tmp_path / "runs" / "r.json"
        code = run(["simulate", "--n-bits", "2", "--steps", "3", "--out", out],
                   tmp_path, monkeypatch)
        assert code == 0
        csv = tmp_path / "runs" / "simulate-trajectory.csv"
        assert csv.read_text().startswith("step,state,next_block\n")
        report = json.loads(out.read_text())
        jsonschema.validate(report, SCHEMA)
        assert report["results"]["trajectory_csv"] == "simulate-trajectory.csv"
        assert report["config"]["csv_out"] == "simulate-trajectory.csv"

    def test_iv_drawn_from_seed_when_absent(self, tmp_path, monkeypatch):
        code = run(
            ["simulate", "--n-bits", "2", "--steps", "1", "--rng-seed", "0"],
            tmp_path, monkeypatch,
        )
        assert code == 0
        report = load_report(tmp_path, "simulate")
        assert report["config"]["iv"] == "11"  # splitmix64(0) first draw mod 4 = 3


class TestDistanceCommand:
    def test_exact_values(self, tmp_path, monkeypatch):
        code = run(
            ["distance", "--n-bits", "2", "--a-state", "01", "--a-prefix", "10",
             "--b-state", "11", "--b-prefix", "00"],
            tmp_path, monkeypatch,
        )
        assert code == 0
        results = load_report(tmp_path, "distance")["results"]
        assert results["state_distance"] == 1
        assert results["message_distance"] == "9/20"
        assert results["distance"] == "29/20"
        assert results["distance_decimal"].startswith("1.45")

    def test_bowen_section(self, tmp_path, monkeypatch):
        code = run(
            ["distance", "--n-bits", "2", "--a-state", "00", "--b-state", "00",
             "--b-prefix", "11", "--bowen-n", "2"],
            tmp_path, monkeypatch,
        )
        assert code == 0
        results = load_report(tmp_path, "distance")["results"]
        assert results["bowen"] == {"n": 2, "value": "2", "value_decimal": "2.000000000000"}


class TestMixCommand:
    def test_spec_example(self, tmp_path, monkeypatch):
        code = run(
            ["mix", "--cipher", "identity", "--n-bits", "2", "--epsilon", "1/2",
             "--target-state", "11"],
            tmp_path, monkeypatch,
        )
        assert code == 0
        results = load_report(tmp_path, "mix")["results"]
        assert results["steps"] == 3
        assert results["verified"] is True
        assert results["in_ball"] is True
        assert results["arrived"] is True

    def test_verification_failure_exit_code(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "verify_mixing", lambda cfg, w: False)
        code = run(
            ["mix", "--n-bits", "2", "--epsilon", "1/2", "--target-state", "01"],
            tmp_path, monkeypatch,
        )
        assert code == cli.EXIT_VERIFICATION_FAILURE

    def test_decimal_epsilon_rejected(self, tmp_path, monkeypatch, capsys):
        code = run(
            ["mix", "--n-bits", "2", "--epsilon", "0.5", "--target-state", "11"],
            tmp_path, monkeypatch,
        )
        assert code == cli.EXIT_CONFIG_ERROR
        assert "exact fraction" in capsys.readouterr().err

    def test_missing_target_is_config_error(self, tmp_path, monkeypatch):
        code = run(["mix", "--n-bits", "2", "--epsilon", "1/2"], tmp_path, monkeypatch)
        assert code == cli.EXIT_CONFIG_ERROR


class TestSensitivityCommand:
    def test_reaches_block_size(self, tmp_path, monkeypatch):
        code = run(
            ["sensitivity", "--cipher", "feistel", "--n-bits", "4", "--seed", "3",
             "--epsilon", "1/10", "--state", "0000"],
            tmp_path, monkeypatch,
        )
        assert code == 0
        results = load_report(tmp_path, "sensitivity")["results"]
        assert results["achieved"] == "4"
        assert results["meets_delta"] is True
        assert results["in_ball"] is True
        assert results["n"] == 3


class TestEntropyCommand:
    def test_reference_profile(self, tmp_path, monkeypatch):
        code = run(
            ["entropy", "--cipher", "identity", "--n-bits", "2", "--epsilon", "1",
             "--n-max", "2", "--prefix-len", "2"],
            tmp_path, monkeypatch,
        )
        assert code == 0
        results = load_report(tmp_path, "entropy")["results"]
        assert results["grid_size"] == 64
        assert [e["h_lower"] for e in results["entries"]] == [4, 16]

    def test_grid_guard_is_config_error(self, tmp_path, monkeypatch, capsys):
        code = run(
            ["entropy", "--n-bits", "8", "--epsilon", "1", "--prefix-len", "3"],
            tmp_path, monkeypatch,
        )
        assert code == cli.EXIT_CONFIG_ERROR
        assert "grid" in capsys.readouterr().err

    def test_4096_point_grid_admitted(self, tmp_path, monkeypatch):
        code = run(
            ["entropy", "--cipher", "identity", "--n-bits", "4", "--epsilon", "1",
             "--n-max", "3", "--prefix-len", "2"],
            tmp_path, monkeypatch,
        )
        assert code == 0
        results = load_report(tmp_path, "entropy")["results"]
        assert results["grid_size"] == 4096
        assert [e["greedy_cardinality"] for e in results["entries"]] == [16, 256, 4096]

    def test_larger_grid_refused_by_cost_guard(self, tmp_path, monkeypatch, capsys):
        code = run(
            ["entropy", "--cipher", "identity", "--n-bits", "4", "--epsilon", "1",
             "--n-max", "1", "--prefix-len", "3"],
            tmp_path, monkeypatch,
        )
        assert code == cli.EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert "65536-point grid" in err and "cap" in err
        assert not (tmp_path / "entropy-report.json").exists()


class TestProbeCommand:
    def test_probe_report(self, tmp_path, monkeypatch):
        code = run(
            ["probe-expansivity", "--n-bits", "2", "--horizon", "50",
             "--samples", "6", "--rng-seed", "2"],
            tmp_path, monkeypatch,
        )
        assert code == 0
        results = load_report(tmp_path, "probe-expansivity")["results"]
        assert results["min_max_orbit_distance"] == "0"
        assert results["conclusive"] is False


class TestConfigFile:
    def test_file_values_used_and_flags_win(self, tmp_path, monkeypatch):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"cipher": "permutation", "n_bits": 4, "seed": 9}))
        code = run(
            ["graph", "--config", cfg_file, "--seed", "1"],
            tmp_path, monkeypatch,
        )
        assert code == 0
        config = load_report(tmp_path, "graph")["config"]
        assert config["cipher"] == "permutation"
        assert config["n_bits"] == 4
        assert config["seed"] == 1  # flag overrides the file

    def test_unknown_key_rejected(self, tmp_path, monkeypatch, capsys):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"block_size": 4}))
        code = run(["graph", "--config", cfg_file], tmp_path, monkeypatch)
        assert code == cli.EXIT_CONFIG_ERROR
        assert "block_size" in capsys.readouterr().err

    def test_malformed_file_rejected(self, tmp_path, monkeypatch):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text("{not json")
        code = run(["graph", "--config", cfg_file], tmp_path, monkeypatch)
        assert code == cli.EXIT_CONFIG_ERROR


class TestGuardsAndErrors:
    def test_graph_size_guard_names_guard(self, tmp_path, monkeypatch, capsys):
        code = run(["graph", "--n-bits", "14"], tmp_path, monkeypatch)
        assert code == cli.EXIT_CONFIG_ERROR
        assert "n_bits <= 12" in capsys.readouterr().err

    def test_unknown_flag_exits_two(self, tmp_path, monkeypatch):
        with pytest.raises(SystemExit) as exc:
            run(["graph", "--no-such-flag"], tmp_path, monkeypatch)
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", [
        ["distance", "--n-bits", "2", "--a-state", "01", "--b-state", "11"],
        ["simulate", "--n-bits", "2", "--steps", "3"],
    ])
    def test_unwritable_output_exits_one(self, command, tmp_path, monkeypatch, capsys):
        code = run(command + ["--out", "/dev/null/r.json"], tmp_path, monkeypatch)
        assert code == cli.EXIT_WRITE_ERROR == 1
        assert "cannot write" in capsys.readouterr().err

    def test_bad_bitstring_width(self, tmp_path, monkeypatch, capsys):
        code = run(
            ["simulate", "--n-bits", "2", "--iv", "0000", "--steps", "1"],
            tmp_path, monkeypatch,
        )
        assert code == cli.EXIT_CONFIG_ERROR
        assert "bits" in capsys.readouterr().err


class TestDeterminism:
    CASES = {
        "graph": ["graph", "--cipher", "permutation", "--n-bits", "4", "--seed", "1"],
        "simulate": ["simulate", "--n-bits", "2", "--message", "11,01", "--steps", "5"],
        "distance": ["distance", "--n-bits", "2", "--a-state", "01", "--a-prefix",
                     "10", "--b-state", "11"],
        "mix": ["mix", "--n-bits", "2", "--epsilon", "1/2", "--target-state", "11"],
        "sensitivity": ["sensitivity", "--n-bits", "4", "--epsilon", "1/10"],
        "entropy": ["entropy", "--n-bits", "2", "--epsilon", "1", "--prefix-len", "1"],
        "probe-expansivity": ["probe-expansivity", "--n-bits", "2", "--samples", "4",
                              "--rng-seed", "11"],
    }

    @pytest.mark.parametrize("command", sorted(CASES))
    def test_identical_runs_are_byte_identical(self, command, tmp_path, monkeypatch):
        argv = self.CASES[command]
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        assert run(argv, tmp_path, monkeypatch, out_dir=dir_a) == 0
        assert run(argv, tmp_path, monkeypatch, out_dir=dir_b) == 0
        name = f"{command}-report.json"
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    def test_worker_count_never_changes_bytes(self, tmp_path, monkeypatch):
        argv = ["graph", "--cipher", "feistel", "--n-bits", "6", "--seed", "2"]
        dir_a = tmp_path / "w1"
        dir_b = tmp_path / "w3"
        assert run(argv + ["--workers", "1"], tmp_path, monkeypatch, out_dir=dir_a) == 0
        assert run(argv + ["--workers", "3"], tmp_path, monkeypatch, out_dir=dir_b) == 0
        assert (dir_a / "graph-report.json").read_bytes() == (
            dir_b / "graph-report.json"
        ).read_bytes()

    def test_reports_validate_and_echo_seeds(self, tmp_path, monkeypatch):
        for command, argv in self.CASES.items():
            sub = tmp_path / command.replace("-", "_")
            assert run(argv, tmp_path, monkeypatch, out_dir=sub) == 0
            report = load_report(sub, command)
            assert report["tool_version"]
            assert "seed" in report["config"]
            assert "rng_seed" in report["config"]


class TestReportFormat:
    def test_fraction_fields_match_schema_pattern(self, tmp_path, monkeypatch):
        import re

        run(
            ["distance", "--n-bits", "4", "--a-state", "0001", "--a-prefix",
             "0110,1000", "--b-state", "1110", "--b-prefix", "0111"],
            tmp_path, monkeypatch,
        )
        results = load_report(tmp_path, "distance")["results"]
        pattern = re.compile(r"^-?[0-9]+(/[0-9]+)?$")
        assert pattern.match(results["distance"])
        assert pattern.match(results["message_distance"])

    def test_report_ends_with_newline_and_sorted_keys(self, tmp_path, monkeypatch):
        run(["graph", "--n-bits", "2"], tmp_path, monkeypatch)
        raw = (tmp_path / "graph-report.json").read_text()
        assert raw.endswith("\n")
        top_keys = list(json.loads(raw))
        assert top_keys == sorted(top_keys)

    def test_explicit_out_flag(self, tmp_path, monkeypatch):
        out = tmp_path / "custom" / "report.json"
        code = run(["graph", "--n-bits", "2", "--out", out], tmp_path, monkeypatch)
        assert code == 0
        assert out.exists()
