"""Command-line front end: configure a system, run one analysis, write a report.

Every subcommand emits a canonical JSON report (sorted keys, fixed layout)
so that identical flags and seeds produce byte-identical files; wall-clock
timing goes to stderr and never into the report. Exact quantities appear as
fraction strings ("9/20"). Exit codes: 0 success, 1 an output file could
not be written, 2 configuration or guard error, 3 verification failure.

Epsilon-like flags take exact fraction strings only ("1/2", never "0.5").
Bit strings are big-endian: the leftmost character is bit 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import __version__
from .chaoslab import entropy_profile, expansivity_probe, mixing_witness, sensitivity_witness
from .cipher import BlockVector, SplitMix64, make_cipher
from .dynamics import (
    CONVENTIONS,
    MessageSequence,
    SystemConfig,
    SystemPoint,
    block_values,
    identity_table,
    point_after,
    shift_by,
    state_values,
)
from .graph import build_graph, devaney_verdict, graph_summary, graph_to_dot, graph_to_json
from .metric import Ball, bowen_distance, decimal_str, distance, fraction_str, in_ball, message_distance, state_distance

ENV_OUT_DIR = "CBCDYN_OUT_DIR"

EXIT_OK = 0
EXIT_WRITE_ERROR = 1
EXIT_CONFIG_ERROR = 2
EXIT_VERIFICATION_FAILURE = 3

_FRACTION_RE = re.compile(r"^-?[0-9]+(/[0-9]+)?$")


class ConfigError(ValueError):
    """Bad flags, bad config file, or a violated guard."""


def parse_fraction(text: str) -> Fraction:
    """Exact fraction strings only; decimal notation is rejected."""
    if not _FRACTION_RE.match(text):
        raise ConfigError(
            f"expected an exact fraction such as 1/2 or 3, got {text!r}"
        )
    return Fraction(text)


def parse_bits(text: str, n_bits: int) -> BlockVector:
    block = BlockVector.from_bits(text)
    if block.n_bits != n_bits:
        raise ConfigError(
            f"bit string {text!r} has {block.n_bits} bits, expected {n_bits}"
        )
    return block


def parse_block_list(text: str, n_bits: int) -> tuple:
    if text == "":
        return ()
    return tuple(parse_bits(part, n_bits) for part in text.split(","))


def write_report(report: dict, path) -> Path:
    """Canonical JSON: sorted keys, two-space indent, trailing newline."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = json.dumps(report, sort_keys=True, indent=2, ensure_ascii=True) + "\n"
    path.write_bytes(payload.encode("utf-8"))
    return path


# --------------------------------------------------------------------------
# flag definitions and config-file merging
# --------------------------------------------------------------------------

_COMMON_DEFAULTS = {
    "cipher": "identity",
    "n_bits": 4,
    "seed": 0,
    "rounds": 4,
    "convention": "xor",
    "rng_seed": 0,
    "workers": 1,
    "out": None,
}

_COMMAND_DEFAULTS = {
    "graph": {"inner_function": "negation", "dot_out": None, "adjacency_out": None},
    "simulate": {"iv": None, "message": "", "cycle": None, "steps": 10, "csv_out": None},
    "distance": {
        "a_state": None,
        "a_prefix": "",
        "a_cycle": None,
        "b_state": None,
        "b_prefix": "",
        "b_cycle": None,
        "bowen_n": None,
        "digits": 12,
    },
    "mix": {
        "epsilon": None,
        "target_state": None,
        "target_prefix": "",
        "target_cycle": None,
        "center_state": None,
        "center_prefix": "",
        "center_cycle": None,
    },
    "sensitivity": {
        "epsilon": None,
        "delta": None,
        "state": None,
        "prefix": "",
        "cycle": None,
    },
    "entropy": {"n_max": 2, "epsilon": "1", "prefix_len": 2},
    "probe-expansivity": {"horizon": 50, "samples": 40},
}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file of flag values; explicit flags win")
    parser.add_argument("--cipher", choices=["identity", "permutation", "feistel"])
    parser.add_argument("--n-bits", type=int, dest="n_bits")
    parser.add_argument("--seed", type=int, help="cipher key seed")
    parser.add_argument("--rounds", type=int, help="feistel rounds")
    parser.add_argument("--convention", choices=list(CONVENTIONS))
    parser.add_argument("--rng-seed", type=int, dest="rng_seed", help="seed for IVs and sampling")
    parser.add_argument("--workers", type=int, help="accepted, >= 1; never changes results or work")
    parser.add_argument("--out", help=f"report path (default: ${ENV_OUT_DIR} or cwd)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cbcdyn",
        description="chaos analysis of the CBC mode as a dynamical system",
    )
    parser.add_argument("--version", action="version", version=f"cbcdyn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("graph", help="transition graph and strong-connectivity verdict")
    _add_common(p)
    p.add_argument("--inner-function", choices=["negation", "identity"], dest="inner_function")
    p.add_argument("--dot-out", dest="dot_out", help="write the graph in DOT form")
    p.add_argument("--adjacency-out", dest="adjacency_out", help="write the adjacency as JSON")

    p = sub.add_parser("simulate", help="iterate the mode and dump the trajectory")
    _add_common(p)
    p.add_argument("--iv", help="initial state bits (default: drawn from --rng-seed)")
    p.add_argument("--message", help="comma-separated prefix blocks, e.g. 11,01")
    p.add_argument("--cycle", help="comma-separated repeating blocks (default: one zero block)")
    p.add_argument("--steps", type=int)
    p.add_argument("--csv-out", dest="csv_out", help="trajectory CSV path")

    p = sub.add_parser("distance", help="exact distance between two points")
    _add_common(p)
    p.add_argument("--a-state", dest="a_state")
    p.add_argument("--a-prefix", dest="a_prefix")
    p.add_argument("--a-cycle", dest="a_cycle")
    p.add_argument("--b-state", dest="b_state")
    p.add_argument("--b-prefix", dest="b_prefix")
    p.add_argument("--b-cycle", dest="b_cycle")
    p.add_argument("--bowen-n", type=int, dest="bowen_n", help="also compute the n-step orbit distance")
    p.add_argument("--digits", type=int, help="decimal digits in renderings")

    p = sub.add_parser("mix", help="construct and verify a mixing witness")
    _add_common(p)
    p.add_argument("--epsilon", help="ball radius, exact fraction < 1")
    p.add_argument("--target-state", dest="target_state")
    p.add_argument("--target-prefix", dest="target_prefix")
    p.add_argument("--target-cycle", dest="target_cycle")
    p.add_argument("--center-state", dest="center_state", help="default: IV drawn from --rng-seed")
    p.add_argument("--center-prefix", dest="center_prefix")
    p.add_argument("--center-cycle", dest="center_cycle")

    p = sub.add_parser("sensitivity", help="construct a sensitivity witness")
    _add_common(p)
    p.add_argument("--epsilon", help="neighborhood radius, exact fraction < 1")
    p.add_argument("--delta", help="required separation (default: block size)")
    p.add_argument("--state", help="default: IV drawn from --rng-seed")
    p.add_argument("--prefix")
    p.add_argument("--cycle")

    p = sub.add_parser("entropy", help="separated-orbit entropy lower bounds")
    _add_common(p)
    p.add_argument("--n-max", type=int, dest="n_max")
    p.add_argument("--epsilon")
    p.add_argument("--prefix-len", type=int, dest="prefix_len")

    p = sub.add_parser("probe-expansivity", help="bounded-horizon orbit-coalescence probe")
    _add_common(p)
    p.add_argument("--horizon", type=int)
    p.add_argument("--samples", type=int)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use rather than at import, then reused."""
    return build_parser()


def resolve_options(args: argparse.Namespace) -> dict:
    """Merge hard defaults, the optional config file, and explicit flags."""
    command = args.command
    defaults = dict(_COMMON_DEFAULTS)
    defaults.update(_COMMAND_DEFAULTS[command])

    resolved = dict(defaults)
    if args.config is not None:
        try:
            file_cfg = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, value in file_cfg.items():
            if key not in defaults:
                raise ConfigError(f"config file key {key!r} is not valid for {command}")
            resolved[key] = value
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            resolved[key] = value
    return resolved


def _system_config(opts: dict) -> SystemConfig:
    cipher = make_cipher(
        opts["cipher"], opts["n_bits"], seed=opts["seed"], rounds=opts["rounds"]
    )
    inner = None
    if opts.get("inner_function") == "identity":
        inner = identity_table(opts["n_bits"])
    return SystemConfig(cipher=cipher, inner_function=inner, convention=opts["convention"])


def _draw_iv(opts: dict) -> BlockVector:
    # IVs must be fresh per run in real use; here they come from a disclosed
    # seed so that runs are reproducible.
    stream = SplitMix64(opts["rng_seed"])
    return BlockVector(stream.next_below(1 << opts["n_bits"]), opts["n_bits"])


def _resolve_message(opts: dict, prefix_key: str, cycle_key: str) -> MessageSequence:
    n_bits = opts["n_bits"]
    prefix = parse_block_list(opts[prefix_key] or "", n_bits)
    cycle_text = opts[cycle_key]
    if cycle_text is None or cycle_text == "":
        cycle = (BlockVector(0, n_bits),)
    else:
        cycle = parse_block_list(cycle_text, n_bits)
    return MessageSequence(prefix, cycle)


def _base_config_echo(opts: dict) -> dict:
    """The config section every report carries; worker count is deliberately absent."""
    echo = {
        "cipher": opts["cipher"],
        "n_bits": opts["n_bits"],
        "seed": opts["seed"],
        "rounds": opts["rounds"] if opts["cipher"] == "feistel" else 0,
        "convention": opts["convention"],
        "rng_seed": opts["rng_seed"],
        "out": opts.get("out"),
    }
    return echo


def _default_out(opts: dict, command: str) -> Path:
    if opts.get("out"):
        return Path(opts["out"])
    return Path(os.environ.get(ENV_OUT_DIR, ".")) / f"{command}-report.json"


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def _cmd_graph(opts: dict) -> tuple:
    cfg = _system_config(opts)
    results = devaney_verdict(cfg, workers=opts["workers"]).to_json()
    results.update(graph_summary(cfg))
    if opts.get("dot_out") or opts.get("adjacency_out"):
        graph = build_graph(cfg, workers=opts["workers"])
        if opts.get("dot_out"):
            Path(opts["dot_out"]).write_text(graph_to_dot(graph))
        if opts.get("adjacency_out"):
            Path(opts["adjacency_out"]).write_text(
                json.dumps(graph_to_json(graph), sort_keys=True, indent=2) + "\n"
            )
    config = _base_config_echo(opts)
    config["inner_function"] = opts["inner_function"]
    config["dot_out"] = opts.get("dot_out")
    config["adjacency_out"] = opts.get("adjacency_out")
    return config, results, EXIT_OK


def _cmd_simulate(opts: dict) -> tuple:
    cfg = _system_config(opts)
    n_bits = opts["n_bits"]
    iv = parse_bits(opts["iv"], n_bits) if opts.get("iv") else _draw_iv(opts)
    message = _resolve_message(opts, "message", "cycle")
    steps = opts["steps"]
    if steps < 0:
        raise ConfigError("steps must be nonnegative")
    start = SystemPoint(iv, message)
    states = state_values(cfg, start, steps)

    if opts.get("csv_out"):
        csv_path = Path(opts["csv_out"])
        csv_echo = str(opts["csv_out"])
    else:
        # defaulted sidecar beside the report: echo the bare name so the
        # report does not depend on where it was written
        csv_path = _default_out(opts, "simulate").with_name("simulate-trajectory.csv")
        csv_echo = csv_path.name
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    lines = ["step,state,next_block"]
    for i, (x, m) in enumerate(zip(states, block_values(message, steps + 1))):
        lines.append(f"{i},{x:0{n_bits}b},{m:0{n_bits}b}")
    csv_path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
    final = SystemPoint(BlockVector(states[-1], n_bits), shift_by(message, steps))

    results = {
        "steps": steps,
        "initial_point": start.to_json(),
        "final_point": final.to_json(),
        "trajectory_csv": csv_echo,
    }
    config = _base_config_echo(opts)
    config["iv"] = iv.bits
    config["message"] = [b.bits for b in parse_block_list(opts["message"] or "", n_bits)]
    config["cycle"] = (
        [b.bits for b in parse_block_list(opts["cycle"], n_bits)]
        if opts.get("cycle")
        else ["0" * n_bits]
    )
    config["steps"] = steps
    config["csv_out"] = csv_echo
    return config, results, EXIT_OK


def _point_from_opts(opts: dict, state_key: str, prefix_key: str, cycle_key: str) -> SystemPoint:
    n_bits = opts["n_bits"]
    if not opts.get(state_key):
        raise ConfigError(f"--{state_key.replace('_', '-')} is required")
    state = parse_bits(opts[state_key], n_bits)
    return SystemPoint(state, _resolve_message(opts, prefix_key, cycle_key))


def _cmd_distance(opts: dict) -> tuple:
    cfg = _system_config(opts)  # validates cipher options even without --bowen-n
    X = _point_from_opts(opts, "a_state", "a_prefix", "a_cycle")
    Y = _point_from_opts(opts, "b_state", "b_prefix", "b_cycle")
    digits = opts["digits"]
    d = distance(X, Y)
    bowen = None
    if opts.get("bowen_n") is not None:
        value = bowen_distance(cfg, X, Y, opts["bowen_n"])
        bowen = {
            "n": opts["bowen_n"],
            "value": fraction_str(value),
            "value_decimal": decimal_str(value, digits),
        }
    results = {
        "state_distance": state_distance(X.state, Y.state),
        "message_distance": fraction_str(message_distance(X.message, Y.message)),
        "distance": fraction_str(d),
        "distance_decimal": decimal_str(d, digits),
        "bowen": bowen,
    }
    config = _base_config_echo(opts)
    config["point_a"] = X.to_json()
    config["point_b"] = Y.to_json()
    config["bowen_n"] = opts.get("bowen_n")
    config["digits"] = digits
    return config, results, EXIT_OK


def _cmd_mix(opts: dict) -> tuple:
    cfg = _system_config(opts)
    n_bits = opts["n_bits"]
    if not opts.get("epsilon"):
        raise ConfigError("--epsilon is required")
    if not opts.get("target_state"):
        raise ConfigError("--target-state is required")
    epsilon = parse_fraction(opts["epsilon"])
    target = SystemPoint(
        parse_bits(opts["target_state"], n_bits),
        _resolve_message(opts, "target_prefix", "target_cycle"),
    )
    center_state = (
        parse_bits(opts["center_state"], n_bits)
        if opts.get("center_state")
        else _draw_iv(opts)
    )
    center = SystemPoint(center_state, _resolve_message(opts, "center_prefix", "center_cycle"))
    ball = Ball(center, epsilon)

    witness = mixing_witness(cfg, ball, target)
    inside = in_ball(ball, witness.constructed_point)
    arrived = point_after(cfg, witness.constructed_point, witness.steps) == target
    verified = inside and arrived
    results = {
        "k": witness.k,
        "steps": witness.steps,
        "constructed_point": witness.constructed_point.to_json(),
        "correction_block": witness.constructed_point.message.block(witness.k).bits,
        "in_ball": inside,
        "arrived": arrived,
        "verified": verified,
    }
    config = _base_config_echo(opts)
    config["epsilon"] = fraction_str(epsilon)
    config["target"] = target.to_json()
    config["center"] = center.to_json()
    return config, results, EXIT_OK if verified else EXIT_VERIFICATION_FAILURE


def _cmd_sensitivity(opts: dict) -> tuple:
    cfg = _system_config(opts)
    n_bits = opts["n_bits"]
    if not opts.get("epsilon"):
        raise ConfigError("--epsilon is required")
    epsilon = parse_fraction(opts["epsilon"])
    delta = parse_fraction(opts["delta"]) if opts.get("delta") else Fraction(n_bits)
    state = parse_bits(opts["state"], n_bits) if opts.get("state") else _draw_iv(opts)
    X = SystemPoint(state, _resolve_message(opts, "prefix", "cycle"))

    Y, n, achieved = sensitivity_witness(cfg, X, epsilon, delta)
    inside = distance(X, Y) < epsilon
    meets = achieved >= delta
    results = {
        "k": n - 1,
        "n": n,
        "achieved": fraction_str(achieved),
        "perturbed_point": Y.to_json(),
        "steering_block": Y.message.block(n - 1).bits,
        "in_ball": inside,
        "meets_delta": meets,
    }
    config = _base_config_echo(opts)
    config["epsilon"] = fraction_str(epsilon)
    config["delta"] = fraction_str(delta)
    config["center"] = X.to_json()
    return config, results, EXIT_OK if (inside and meets) else EXIT_VERIFICATION_FAILURE


def _cmd_entropy(opts: dict) -> tuple:
    cfg = _system_config(opts)
    epsilon = parse_fraction(opts["epsilon"])
    entries = entropy_profile(cfg, opts["n_max"], epsilon, opts["prefix_len"])
    results = {
        "grid_size": (1 << cfg.n_bits) ** (opts["prefix_len"] + 1),
        "entries": [e.to_json() for e in entries],
    }
    config = _base_config_echo(opts)
    config["epsilon"] = fraction_str(epsilon)
    config["n_max"] = opts["n_max"]
    config["prefix_len"] = opts["prefix_len"]
    return config, results, EXIT_OK


def _cmd_probe(opts: dict) -> tuple:
    cfg = _system_config(opts)
    report = expansivity_probe(cfg, opts["horizon"], opts["samples"], opts["rng_seed"])
    results = report.to_json()
    results.pop("seed", None)
    config = _base_config_echo(opts)
    config["horizon"] = opts["horizon"]
    config["samples"] = opts["samples"]
    return config, results, EXIT_OK


_HANDLERS = {
    "graph": _cmd_graph,
    "simulate": _cmd_simulate,
    "distance": _cmd_distance,
    "mix": _cmd_mix,
    "sensitivity": _cmd_sensitivity,
    "entropy": _cmd_entropy,
    "probe-expansivity": _cmd_probe,
}


def run_command(argv) -> int:
    """Parse argv, execute, write the report; returns the exit code."""
    args = _parser().parse_args(argv)
    started = time.monotonic()
    try:
        opts = resolve_options(args)
        _validate_scalars(opts)
        config, results, code = _HANDLERS[args.command](opts)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except RuntimeError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILURE
    except OSError as exc:
        print(f"error: cannot write {exc.filename}: {exc}", file=sys.stderr)
        return EXIT_WRITE_ERROR

    report = {
        "tool_version": __version__,
        "command": args.command,
        "config": config,
        "results": results,
    }
    out_path = _default_out(opts, args.command)
    try:
        write_report(report, out_path)
    except OSError as exc:
        print(f"error: cannot write report {out_path}: {exc}", file=sys.stderr)
        return EXIT_WRITE_ERROR
    elapsed = time.monotonic() - started
    print(f"{args.command}: report written to {out_path} ({elapsed:.3f}s)", file=sys.stderr)
    return code


def _validate_scalars(opts: dict) -> None:
    if not isinstance(opts["n_bits"], int):
        raise ConfigError("n_bits must be an integer")
    if opts["workers"] < 1:
        raise ConfigError("workers must be >= 1")


def main(argv=None) -> int:
    return run_command(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
