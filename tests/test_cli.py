"""CLI: subcommands, reports, schema validation, determinism, exit codes."""

import json
from decimal import Decimal
from fractions import Fraction
from importlib import resources

import jsonschema
import pytest
from conftest import oracle_distance, oracle_message_distance

from cbcdyn import chaoslab, cli
from cbcdyn import cipher as cipher_module
from cbcdyn import graph as graph_module
from cbcdyn import metric as metric_module
from cbcdyn.cipher import BlockVector, make_cipher
from cbcdyn.dynamics import MessageSequence, SystemConfig, SystemPoint, identity_table, iterate
from cbcdyn.metric import SCALE_GUARD, Ball, in_ball, max_orbit_distance

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

    def test_sidecar_directories_are_created(self, tmp_path, monkeypatch):
        dot = tmp_path / "dot" / "g.dot"
        adj = tmp_path / "adj" / "g.json"
        code = run(
            ["graph", "--n-bits", "2", "--dot-out", dot, "--adjacency-out", adj],
            tmp_path, monkeypatch,
        )
        assert code == 0
        assert dot.read_text().startswith("digraph")
        assert len(json.loads(adj.read_text())["adjacency"]) == 4
        load_report(tmp_path, "graph")

    def test_export_builds_the_graph_once(self, tmp_path, monkeypatch):
        real_build = graph_module.build_graph
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return real_build(*args, **kwargs)

        monkeypatch.setattr(graph_module, "build_graph", spy)
        monkeypatch.setattr(cli, "build_graph", spy)
        dot = tmp_path / "g.dot"
        adj = tmp_path / "g-adj.json"
        argv = ["graph", "--n-bits", "3", "--convention", "paper-complement",
                "--inner-function", "identity"]
        code = run(argv + ["--dot-out", dot, "--adjacency-out", adj], tmp_path, monkeypatch,
                   out_dir=tmp_path / "export")
        assert code == 0
        assert len(calls) == 1
        cfg = SystemConfig(make_cipher("identity", 3), identity_table(3), "paper-complement")
        expected = real_build(cfg)
        assert not expected.is_complete()
        assert dot.read_text() == cli.graph_to_dot(cfg, expected)
        assert adj.read_text() == json.dumps(
            cli.graph_to_json(cfg, expected), sort_keys=True, indent=2) + "\n"
        assert run(argv, tmp_path, monkeypatch, out_dir=tmp_path / "plain") == 0
        assert (load_report(tmp_path / "export", "graph")["results"]
                == load_report(tmp_path / "plain", "graph")["results"])


def reference_trajectory_csv(points, n_bits):
    """The trajectory CSV rendered row by row with f-strings."""
    lines = ["step,state,next_block"]
    for i, X in enumerate(points):
        lines.append(f"{i},{X.state:0{n_bits}b},{X.message.block(0).value:0{n_bits}b}")
    return "\n".join(lines) + "\n"


class TestSimulateCommand:
    @pytest.mark.parametrize("n_bits", [1, 5, 8, 9, 16])
    @pytest.mark.parametrize("steps", [0, 1, 37, 100, 1000])
    @pytest.mark.parametrize("csv_out", [False, True])
    def test_csv_bytes_match_row_by_row_rendering(self, tmp_path, monkeypatch, n_bits, steps, csv_out):
        size = 1 << n_bits
        prefix, cycle = (size - 1, 1 % size), (0, size // 2, 3 % size)
        start = SystemPoint(size // 3, MessageSequence.from_values(n_bits, prefix, cycle))
        argv = [
            "simulate", "--cipher", "permutation", "--n-bits", n_bits, "--seed", 7,
            "--iv", f"{start.state:0{n_bits}b}",
            "--message", ",".join(f"{v:0{n_bits}b}" for v in prefix),
            "--cycle", ",".join(f"{v:0{n_bits}b}" for v in cycle),
            "--steps", steps,
        ]
        path = tmp_path / "simulate-trajectory.csv"
        if csv_out:
            path = tmp_path / "csv" / "trajectory.csv"
            argv += ["--csv-out", path]
        assert run(argv, tmp_path, monkeypatch) == 0
        cfg = SystemConfig(make_cipher("permutation", n_bits, seed=7))
        expected = reference_trajectory_csv(iterate(cfg, start, steps), n_bits)
        assert path.read_bytes() == expected.encode("ascii")

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

    def test_pair_scored_once(self, tmp_path, monkeypatch):
        real, calls = metric_module.scaled_distance, []

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(metric_module, "scaled_distance", spy)
        code = run(
            ["distance", "--n-bits", "3", "--a-state", "011", "--a-prefix", "101,110", "--a-cycle", "001",
             "--b-state", "110", "--b-cycle", "010,111"],
            tmp_path, monkeypatch,
        )
        assert code == 0
        assert len(calls) == 1
        results = load_report(tmp_path, "distance")["results"]
        X = SystemPoint(3, MessageSequence.from_values(3, (5, 6), (1,)))
        Y = SystemPoint(6, MessageSequence.from_values(3, (), (2, 7)))
        assert results["message_distance"] == cli.fraction_str(oracle_message_distance(X.message, Y.message))
        assert results["distance"] == cli.fraction_str(oracle_distance(X, Y))

    def test_bowen_section(self, tmp_path, monkeypatch):
        code = run(
            ["distance", "--n-bits", "2", "--a-state", "00", "--b-state", "00",
             "--b-prefix", "11", "--bowen-n", "2"],
            tmp_path, monkeypatch,
        )
        assert code == 0
        results = load_report(tmp_path, "distance")["results"]
        assert results["bowen"] == {"n": 2, "value": "2", "value_decimal": "2.000000000000"}

    @staticmethod
    def parse_exact(text):
        """A "p/q" string of any length as a Fraction, read without the int-from-str digit limit."""
        return Fraction(*(int(Decimal(part)) for part in text.split("/")))

    def test_joint_period_past_the_digit_limit(self, tmp_path, monkeypatch):
        """Cycles of 61 and 71 blocks: D has about 4,330 digits, past the default limit of 4,300."""
        a_cycle, b_cycle = (1,) * 60 + (2,), (1,) * 70 + (3,)
        code = run(
            ["distance", "--n-bits", "4", "--a-state", "0000", "--b-state", "0001",
             "--a-cycle", ",".join(f"{v:04b}" for v in a_cycle),
             "--b-cycle", ",".join(f"{v:04b}" for v in b_cycle)],
            tmp_path, monkeypatch,
        )
        assert code == 0
        results = load_report(tmp_path, "distance")["results"]
        X = SystemPoint(0, MessageSequence.from_values(4, (), a_cycle))
        Y = SystemPoint(1, MessageSequence.from_values(4, (), b_cycle))
        expected = oracle_distance(X, Y)
        assert len(results["distance"]) > 8000
        assert self.parse_exact(results["distance"]) == expected
        assert self.parse_exact(results["message_distance"]) == oracle_message_distance(X.message, Y.message)

    def test_joint_period_past_the_scale_cap_is_config_error(self, tmp_path, monkeypatch, capsys):
        """Coprime cycles of 211 and 223 blocks: P = 47,053 weight columns, past ``SCALE_GUARD``."""
        a_cycle, b_cycle = ("1",) + ("0",) * 210, ("1",) + ("0",) * 222
        code = run(
            ["distance", "--n-bits", "1", "--a-state", "0", "--b-state", "1",
             "--a-cycle", ",".join(a_cycle), "--b-cycle", ",".join(b_cycle)],
            tmp_path, monkeypatch,
        )
        assert code == cli.EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == (
            "error: the exact scale for longest prefix L = 0 and joint period P = 47053 "
            f"needs L+P = 47053 weight columns, above the cap of {SCALE_GUARD}\n"
        )
        assert not (tmp_path / "distance-report.json").exists()

    def test_decimal_past_the_digit_limit(self, tmp_path, monkeypatch):
        code = run(
            ["distance", "--n-bits", "4", "--a-state", "0000", "--b-state", "0001",
             "--a-cycle", "0000,0001,0011", "--digits", "5000"],
            tmp_path, monkeypatch,
        )
        assert code == 0
        results = load_report(tmp_path, "distance")["results"]
        X = SystemPoint(0, MessageSequence.from_values(4, (), (0, 1, 3)))
        Y = SystemPoint(1, MessageSequence.from_values(4))
        expected = oracle_distance(X, Y)
        assert self.parse_exact(results["distance"]) == expected
        whole, fraction = results["distance_decimal"].split(".")
        assert len(fraction) == 5000
        assert int(Decimal(whole + fraction)) == expected.numerator * 10**5000 // expected.denominator


class TestMixCommand:
    def test_spec_example(self, tmp_path, monkeypatch):
        code = run(
            ["mix", "--cipher", "identity", "--n-bits", "2", "--epsilon", "1/2",
             "--target-state", "11"],
            tmp_path, monkeypatch,
        )
        assert code == 0
        report = load_report(tmp_path, "mix")
        results = report["results"]
        assert results["steps"] == 3
        # the report states no verification flags: re-check the point from outside
        point = SystemPoint.from_json(results["constructed_point"])
        center = SystemPoint.from_json(report["config"]["center"])
        assert in_ball(Ball(center, Fraction(1, 2)), point)
        cfg = SystemConfig(make_cipher("identity", 2))
        assert iterate(cfg, point, 3)[-1] == SystemPoint.from_json(report["config"]["target"])

    def test_verification_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        # the witness's own verification rejects the construction
        monkeypatch.setattr(chaoslab, "verify_mixing", lambda cfg, witness: False)
        code = run(
            ["mix", "--n-bits", "2", "--epsilon", "1/2", "--target-state", "01"],
            tmp_path, monkeypatch,
        )
        assert code == cli.EXIT_VERIFICATION_FAILURE
        assert "verification failure" in capsys.readouterr().err
        assert not (tmp_path / "mix-report.json").exists()

    def test_epsilon_past_the_scale_cap_is_config_error(self, tmp_path, monkeypatch, capsys):
        # k = 32,001 copied blocks and the correction block: L = 32,002, past ``SCALE_GUARD``
        code = run(
            ["mix", "--n-bits", "2", "--epsilon", "1/1" + "0" * 32000, "--target-state", "01"],
            tmp_path, monkeypatch,
        )
        assert code == cli.EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == (
            "error: the exact scale for longest prefix L = 32002 and joint period P = 1 "
            f"needs L+P = 32003 weight columns, above the cap of {SCALE_GUARD}\n"
        )
        assert not (tmp_path / "mix-report.json").exists()

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

    def test_results_are_the_witness_json(self, tmp_path, monkeypatch):
        code = run(
            ["mix", "--cipher", "permutation", "--n-bits", "4", "--seed", "5",
             "--epsilon", "3/100", "--target-state", "1001", "--target-prefix", "0110",
             "--target-cycle", "0011,1100", "--center-state", "0101",
             "--center-prefix", "1110,0001"],
            tmp_path, monkeypatch,
        )
        assert code == 0
        cfg = SystemConfig(make_cipher("permutation", 4, seed=5))
        center = SystemPoint(BlockVector.from_bits("0101"), MessageSequence.from_values(4, (14, 1)))
        target = SystemPoint(BlockVector.from_bits("1001"), MessageSequence.from_values(4, (6,), (3, 12)))
        witness = chaoslab.mixing_witness(cfg, Ball(center, Fraction(3, 100)), target)
        assert load_report(tmp_path, "mix")["results"] == witness.to_json()


class TestSensitivityCommand:
    def test_reaches_block_size(self, tmp_path, monkeypatch):
        code = run(
            ["sensitivity", "--cipher", "feistel", "--n-bits", "4", "--seed", "3",
             "--epsilon", "1/10", "--state", "0000"],
            tmp_path, monkeypatch,
        )
        assert code == 0
        report = load_report(tmp_path, "sensitivity")
        results = report["results"]
        assert results["achieved"] == "4"
        assert results["n"] == 3
        # the report states no membership or separation flags: re-check both from outside
        center = SystemPoint.from_json(report["config"]["center"])
        perturbed = SystemPoint.from_json(results["perturbed_point"])
        assert in_ball(Ball(center, Fraction(1, 10)), perturbed)
        cfg = SystemConfig(make_cipher("feistel", 4, seed=3))
        assert max_orbit_distance(cfg, center, perturbed, 3, 4) == 4

    def test_delta_up_to_block_size(self, tmp_path, monkeypatch, capsys):
        argv = ["sensitivity", "--cipher", "feistel", "--n-bits", "4", "--seed", "3",
                "--epsilon", "1/10", "--state", "0000", "--delta"]
        assert run(argv + ["4"], tmp_path, monkeypatch) == 0
        results = load_report(tmp_path, "sensitivity")["results"]
        assert results["achieved"] == "4"
        capsys.readouterr()
        assert run(argv + ["9/2"], tmp_path, monkeypatch) == cli.EXIT_CONFIG_ERROR
        assert "delta must not exceed the block size 4" in capsys.readouterr().err

    @pytest.mark.parametrize("delta", ["0", "-3"])
    def test_nonpositive_delta_is_config_error(self, delta, tmp_path, monkeypatch, capsys):
        argv = ["sensitivity", "--n-bits", "4", "--epsilon", "1/10", "--delta", delta]
        assert run(argv, tmp_path, monkeypatch) == cli.EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == "error: delta must be positive\n"
        assert not (tmp_path / "sensitivity-report.json").exists()

    @pytest.mark.parametrize("epsilon", ["0", "1"])
    def test_epsilon_outside_the_open_unit_interval_is_config_error(self, epsilon, tmp_path, monkeypatch, capsys):
        argv = ["sensitivity", "--n-bits", "4", "--epsilon", epsilon]
        assert run(argv, tmp_path, monkeypatch) == cli.EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == "error: epsilon must lie strictly between 0 and 1\n"
        assert not (tmp_path / "sensitivity-report.json").exists()


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

    def test_epsilon_past_the_digit_limit_parses_exactly(self, tmp_path, monkeypatch):
        # 4,401 digits: past the interpreter's default int-from-str limit of 4,300
        epsilon = "1/1" + "0" * 4400
        code = run(["entropy", "--n-bits", "2", "--epsilon", epsilon], tmp_path, monkeypatch)
        assert code == 0
        report = load_report(tmp_path, "entropy")
        assert report["config"]["epsilon"] == epsilon
        assert cli.parse_fraction(epsilon) == Fraction(1, 10**4400)
        # every distinct orbit pair separates at so small an epsilon
        assert [e["greedy_cardinality"] for e in report["results"]["entries"]] == [64, 64]

    def test_fraction_digit_cap(self, tmp_path, monkeypatch, capsys):
        cap = cli.FRACTION_DIGIT_CAP
        nines = 10**cap - 1
        # a sign is no digit: both parts exactly at the cap are admitted
        assert cli.parse_fraction("-" + "9" * cap + "/" + "7" * cap) == Fraction(-nines, nines // 9 * 7)
        for text in ("1" * (cap + 1), "-" + "1" * (cap + 1) + "/3", "1/" + "0" * cap + "1"):
            part = "denominator" if text.startswith("1/") else "numerator"
            with pytest.raises(cli.ConfigError, match=f"{part} has {cap + 1:,} digits, past the cap of {cap:,}"):
                cli.parse_fraction(text)
        # refused before it is read, as a flag or from a config file
        block = "1" * 16
        assert run(["mix", "--n-bits", "16", "--epsilon", "1/" + "3" * 200_000, "--target-state", block],
                   tmp_path, monkeypatch) == cli.EXIT_CONFIG_ERROR
        assert "denominator has 200,000 digits" in capsys.readouterr().err
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"epsilon": "7" * 200_000}))
        assert run(["entropy", "--config", cfg_file], tmp_path, monkeypatch) == cli.EXIT_CONFIG_ERROR
        assert "numerator has 200,000 digits" in capsys.readouterr().err
        assert not list(tmp_path.glob("*-report.json"))

    @pytest.mark.parametrize("value, expected", [
        ("1/2x" + "3" * 199_997,
         "error: expected an exact fraction such as 1/2 or 3, got '1/2x" + "3" * 36 + "'... (200,001 characters)\n"),
        ("9" * 35_000 + "/0", "error: fraction '" + "9" * 40 + "'... (35,002 characters) has a zero denominator\n"),
    ])
    def test_long_fraction_errors_echo_a_bounded_start(self, value, expected, tmp_path, monkeypatch, capsys):
        assert run(["mix", "--n-bits", "2", "--epsilon", value, "--target-state", "11"],
                   tmp_path, monkeypatch) == cli.EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err == expected and len(err) < 200
        assert not list(tmp_path.glob("*-report.json"))

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

    @pytest.mark.parametrize("epsilon", ["0", "-1"])
    def test_nonpositive_epsilon_is_config_error(self, epsilon, tmp_path, monkeypatch, capsys):
        argv = ["entropy", "--n-bits", "2", "--epsilon", epsilon]
        assert run(argv, tmp_path, monkeypatch) == cli.EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == "error: epsilon must be positive\n"
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

    def test_results_are_the_probe_json(self, tmp_path, monkeypatch):
        code = run(
            ["probe-expansivity", "--cipher", "feistel", "--n-bits", "6", "--seed", "4",
             "--rounds", "3", "--convention", "paper-complement", "--horizon", "9",
             "--samples", "11", "--rng-seed", "23"],
            tmp_path, monkeypatch,
        )
        assert code == 0
        cfg = SystemConfig(make_cipher("feistel", 6, seed=4, rounds=3), convention="paper-complement")
        report = chaoslab.expansivity_probe(cfg, 9, 11, 23)
        assert load_report(tmp_path, "probe-expansivity")["results"] == report.to_json()


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

    @pytest.mark.parametrize("command, entry", [
        ("simulate", {"steps": "3"}),
        ("simulate", {"steps": None}),
        ("entropy", {"epsilon": 1}),
        ("graph", {"workers": "2"}),
        ("graph", {"inner_function": "bogus"}),
        ("graph", {"n_bits": True}),
    ])
    def test_bad_value_rejected(self, command, entry, tmp_path, monkeypatch, capsys):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps(entry))
        code = run([command, "--config", cfg_file], tmp_path, monkeypatch)
        assert code == cli.EXIT_CONFIG_ERROR
        (key,) = entry
        first_line = capsys.readouterr().err.splitlines()[0]
        assert first_line.startswith(f"error: config file key {key!r} has an invalid value")
        assert not (tmp_path / f"{command}-report.json").exists()

    def test_null_accepted_where_default_is_null(self, tmp_path, monkeypatch):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"iv": None, "csv_out": None}))
        code = run(["simulate", "--config", cfg_file, "--n-bits", "2", "--steps", "1"],
                   tmp_path, monkeypatch)
        assert code == 0
        assert load_report(tmp_path, "simulate")["config"]["iv"] == "11"

    # required flags only; every other value comes from the table
    REQUIRED = {
        "graph": [],
        "simulate": [],
        "distance": ["--a-state", "0001", "--b-state", "1000"],
        "mix": ["--epsilon", "1/2", "--target-state", "1111"],
        "sensitivity": ["--epsilon", "1/10"],
        "entropy": ["--n-bits", "2"],
        "probe-expansivity": [],
    }

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_table_defaults_round_trip(self, command, tmp_path, monkeypatch):
        _, _, own_flags = cli._COMMANDS[command]
        defaults = {
            flag.name.replace("-", "_"): flag.default
            for flag in cli._COMMON_FLAGS + own_flags
            if flag.default is not None
        }
        cfg_file = tmp_path / "defaults.json"
        cfg_file.write_text(json.dumps(defaults))
        argv = [command] + self.REQUIRED[command]
        assert run(argv, tmp_path, monkeypatch, out_dir=tmp_path / "plain") == 0
        assert run(argv + ["--config", cfg_file], tmp_path, monkeypatch,
                   out_dir=tmp_path / "file") == 0
        name = f"{command}-report.json"
        assert (tmp_path / "file" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


class TestGuardsAndErrors:
    def test_graph_size_guard_names_guard(self, tmp_path, monkeypatch, capsys):
        dot = tmp_path / "g.dot"
        code = run(["graph", "--n-bits", "16", "--dot-out", dot], tmp_path, monkeypatch)
        assert code == cli.EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert f"{1 << 32} edges" in err
        assert f"GRAPH_EDGE_GUARD = {1 << 24}" in err
        assert not dot.exists()
        assert not (tmp_path / "graph-report.json").exists()

    def test_graph_verdict_past_the_edge_guard(self, tmp_path, monkeypatch):
        code = run(["graph", "--n-bits", "14"], tmp_path, monkeypatch)
        assert code == 0
        results = load_report(tmp_path, "graph")["results"]
        assert results["edge_count"] == 1 << 28
        assert results["complete"] is True
        assert results["scc_sizes"] == [1 << 14]
        assert results["conclusion"] == "sufficient-condition-holds"

    def test_simulate_and_distance_never_build_the_inverse_table(self, tmp_path, monkeypatch):
        ciphers = []

        def recording_make_cipher(*args, **kwargs):
            ciphers.append(make_cipher(*args, **kwargs))
            return ciphers[-1]

        monkeypatch.setattr(cli, "make_cipher", recording_make_cipher)
        cipher_module._built_cipher.cache_clear()  # no earlier call has inverted this key
        common = ["--cipher", "permutation", "--n-bits", "16", "--seed", "3"]
        state, block = "0" * 15 + "1", "1" * 16
        runs = {
            "simulate": ["--iv", state, "--message", block, "--steps", "50"],
            "distance": ["--a-state", state, "--b-state", block, "--b-prefix", block, "--bowen-n", "20"],
            "mix": ["--epsilon", "1/100", "--target-state", block],
        }
        # the runs share one cipher, so each is checked before the next starts;
        # mix steers through the inverse, so the check would see a built table
        for (command, flags), inverted in zip(runs.items(), [False, False, True]):
            assert run([command, *common, *flags], tmp_path, monkeypatch) == 0
            assert ("inverse_table" in vars(ciphers[-1])) is inverted, command
        assert all(c is ciphers[0] for c in ciphers)

    def test_parser_is_built_once_and_reused(self, tmp_path, monkeypatch):
        argv = ["graph", "--n-bits", "3", "--seed", "2", "--cipher", "permutation"]
        assert run(argv, tmp_path, monkeypatch, out_dir=tmp_path / "a") == 0
        assert cli._parser() is cli._parser()
        with pytest.raises(SystemExit):
            run(["graph", "--no-such-flag"], tmp_path, monkeypatch)
        assert run(["graph", "--n-bits", "14", "--dot-out", tmp_path / "g.dot"],
                   tmp_path, monkeypatch) == cli.EXIT_CONFIG_ERROR
        assert run(["entropy", "--n-bits", "2", "--prefix-len", "1"],
                   tmp_path, monkeypatch, out_dir=tmp_path / "e") == 0
        assert run(argv, tmp_path, monkeypatch, out_dir=tmp_path / "b") == 0
        assert (tmp_path / "a" / "graph-report.json").read_bytes() == (
            tmp_path / "b" / "graph-report.json"
        ).read_bytes()

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

    @pytest.mark.parametrize("command, key, value", [
        ("graph", "seed", -1),
        ("probe-expansivity", "rng_seed", -5),
    ])
    def test_negative_seed_rejected(self, command, key, value, tmp_path, monkeypatch, capsys):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({key: value}))
        flag = "--" + key.replace("_", "-")
        base = [command, "--cipher", "permutation", "--n-bits", "3"]
        for argv in (base + [flag, value], base + ["--config", cfg_file]):
            assert run(argv, tmp_path, monkeypatch) == cli.EXIT_CONFIG_ERROR
            assert capsys.readouterr().err.splitlines()[0] == f"error: {key} must be >= 0"
            assert not (tmp_path / f"{command}-report.json").exists()

    @pytest.mark.parametrize("command, key, extra", [
        ("entropy", "epsilon", []),
        ("mix", "epsilon", ["--target-state", "11"]),
        ("sensitivity", "delta", ["--epsilon", "1/10"]),
    ])
    @pytest.mark.parametrize("value", ["1/0", "3/00"])
    def test_zero_denominator_is_config_error(self, command, key, extra, value, tmp_path, monkeypatch, capsys):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({key: value}))
        base = [command, "--n-bits", "2"] + extra
        for argv in (base + ["--" + key, value], base + ["--config", cfg_file]):
            assert run(argv, tmp_path, monkeypatch) == cli.EXIT_CONFIG_ERROR
            assert capsys.readouterr().err == f"error: fraction {value!r} has a zero denominator\n"
            assert not (tmp_path / f"{command}-report.json").exists()

    @pytest.mark.parametrize("value", ["1/2\n", "1/2 "])
    def test_trailing_whitespace_is_not_a_fraction(self, value, tmp_path, monkeypatch, capsys):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"epsilon": value}))
        base = ["entropy", "--n-bits", "2"]
        for argv in (base + ["--epsilon", value], base + ["--config", cfg_file]):
            assert run(argv, tmp_path, monkeypatch) == cli.EXIT_CONFIG_ERROR
            expected = f"error: expected an exact fraction such as 1/2 or 3, got {value!r}\n"
            assert capsys.readouterr().err == expected
            assert not (tmp_path / "entropy-report.json").exists()

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

    @pytest.mark.parametrize("command", sorted(TestDeterminism.CASES))
    def test_handler_echo_never_overwrites_the_base_echo(self, command, tmp_path, monkeypatch):
        argv = TestDeterminism.CASES[command]
        monkeypatch.setenv(cli.ENV_OUT_DIR, str(tmp_path / "direct"))
        opts = cli.resolve_options(cli._parser().parse_args(argv))
        _, handler, _ = cli._COMMANDS[command]
        echo, results = handler(opts, cli._system_config(opts))
        base = cli._base_config_echo(opts)
        assert set(echo).isdisjoint(base)
        assert run(argv, tmp_path, monkeypatch, out_dir=tmp_path / "cli") == 0
        report = load_report(tmp_path / "cli", command)
        assert report["config"] == json.loads(json.dumps({**base, **echo}))
        assert report["results"] == json.loads(json.dumps(results))

    def test_explicit_out_flag(self, tmp_path, monkeypatch):
        out = tmp_path / "custom" / "report.json"
        code = run(["graph", "--n-bits", "2", "--out", out], tmp_path, monkeypatch)
        assert code == 0
        assert out.exists()
