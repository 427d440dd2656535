"""Command-line front end: configure a system, run one analysis, write a report.

Every subcommand emits a canonical JSON report (sorted keys, fixed layout)
so that identical flags and seeds produce byte-identical files; wall-clock
timing goes to stderr and never into the report. Exact quantities appear as
fraction strings ("9/20"). Exit codes: 0 success, 1 an output file could
not be written, 2 configuration or guard error, 3 verification failure.

Epsilon-like flags take exact fraction strings only ("1/2", never "0.5").
Bit strings are big-endian: the leftmost character is bit 1.

Each flag is one row of a table that gives its name, default, type, choices
and help; the parser and the defaults both come from it. A JSON config file
(``--config``) holds values keyed like the flag destinations (``n_bits`` for
``--n-bits``); explicit flags win. A config value must have its flag's JSON
type (a string or an integer; a boolean is not an integer) and lie in its
choices, and ``null`` means "use the default" only where the default is
null. A bad value exits 2 with the key named. Seeds must be nonnegative
and --workers at least 1, on the command line and in the file alike.

Each subcommand is a handler ``_cmd_x(opts, cfg) -> (echo, results)``.
``run_command`` resolves the options, builds the ``SystemConfig`` once, and
calls the handler; the report's ``config`` is the base echo every report
carries merged with the handler's ``echo``, whose keys never overlap it,
and ``results`` is written as the handler returns it. A handler writes its
own sidecar files and signals failure only by raising: ConfigError or
ValueError exits 2, RuntimeError 3, OSError 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .chaoslab import entropy_profile, expansivity_probe, grid_size, mixing_witness, sensitivity_witness
from .cipher import BlockVector, SplitMix64, make_cipher
from .dynamics import (
    CONVENTIONS,
    MessageSequence,
    SystemConfig,
    SystemPoint,
    identity_table,
    shift_by,
    state_values,
)
from .graph import _verdict, build_graph, graph_to_dot, graph_to_json
from .metric import Ball, bowen_distance, decimal_str, distance, fraction_str, state_distance

ENV_OUT_DIR = "CBCDYN_OUT_DIR"

EXIT_OK = 0
EXIT_WRITE_ERROR = 1
EXIT_CONFIG_ERROR = 2
EXIT_VERIFICATION_FAILURE = 3

_FRACTION_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")
# digits in a fraction's numerator or denominator; reading is quadratic in
# them: one part at the cap parses in about 0.05 s, two in about 0.1 s
FRACTION_DIGIT_CAP = 35_000


class ConfigError(ValueError):
    """Bad flags, bad config file, or a violated guard."""


def _quoted(text: str) -> str:
    """``text`` quoted for an error message: past 40 characters, its first 40 and its length."""
    return repr(text) if len(text) <= 40 else f"{text[:40]!r}... ({len(text):,} characters)"


def parse_fraction(text: str) -> Fraction:
    """Exact fraction strings only, decimal notation rejected.

    Each part is read through Decimal, free of the interpreter's
    int-from-str digit limit, and may have up to FRACTION_DIGIT_CAP digits.
    """
    if not _FRACTION_RE.fullmatch(text):
        raise ConfigError(
            f"expected an exact fraction such as 1/2 or 3, got {_quoted(text)}"
        )
    numerator, _, denominator = text.partition("/")
    for name, digits in (("numerator", numerator.lstrip("-")), ("denominator", denominator)):
        if len(digits) > FRACTION_DIGIT_CAP:
            raise ConfigError(
                f"fraction {name} has {len(digits):,} digits, past the cap of {FRACTION_DIGIT_CAP:,}"
            )
    denominator = int(Decimal(denominator or "1"))
    if denominator == 0:
        raise ConfigError(f"fraction {_quoted(text)} has a zero denominator")
    return Fraction(int(Decimal(numerator)), denominator)


def parse_bits(text: str, n_bits: int) -> int:
    """An N-digit bit string as its block value."""
    block = BlockVector.from_bits(text)
    if block.n_bits != n_bits:
        raise ConfigError(
            f"bit string {text!r} has {block.n_bits} bits, expected {n_bits}"
        )
    return block.value


def parse_block_list(text: str, n_bits: int) -> tuple:
    """Comma-separated bit strings as block values."""
    if text == "":
        return ()
    return tuple(parse_bits(part, n_bits) for part in text.split(","))


def _write(path, *chunks) -> Path:
    """Write byte chunks (any C-contiguous buffers) in order, creating the parent directory first."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as f:
        f.writelines(chunks)
    return path


def write_report(report: dict, path) -> Path:
    """Canonical JSON: sorted keys, two-space indent, trailing newline."""
    return _write(path, (json.dumps(report, sort_keys=True, indent=2, ensure_ascii=True) + "\n").encode())


# --------------------------------------------------------------------------
# flag table and config-file merging
# --------------------------------------------------------------------------


class Flag(NamedTuple):
    """One flag: its argparse definition, its default and its config-file check."""

    name: str
    default: object = None
    type: type = str
    choices: tuple | None = None
    help: str | None = None
    minimum: int | None = None

    def admits(self, value) -> bool:
        """Whether a config-file value has this flag's type and lies in its choices."""
        if value is None:
            return self.default is None
        return type(value) is self.type and (self.choices is None or value in self.choices)


_COMMON_FLAGS = (
    Flag("cipher", "identity", str, ("identity", "permutation", "feistel")),
    Flag("n-bits", 4, int),
    Flag("seed", 0, int, help="cipher key seed", minimum=0),
    Flag("rounds", 4, int, help="feistel rounds"),
    Flag("convention", "xor", str, CONVENTIONS),
    Flag("rng-seed", 0, int, help="seed for IVs and sampling", minimum=0),
    Flag("workers", 1, int, help="accepted, >= 1; never changes results or work", minimum=1),
    Flag("out", help=f"report path (default: ${ENV_OUT_DIR} or cwd)"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cbcdyn",
        description="chaos analysis of the CBC mode as a dynamical system",
    )
    parser.add_argument("--version", action="version", version=f"cbcdyn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, _, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config", help="JSON file of flag values; explicit flags win")
        for flag in _COMMON_FLAGS + flags:
            p.add_argument(f"--{flag.name}", type=flag.type, choices=flag.choices, help=flag.help)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use rather than at import, then reused."""
    return build_parser()


def resolve_options(args: argparse.Namespace) -> dict:
    """Merge the table's defaults, the optional config file, and explicit flags."""
    command = args.command
    _, _, own_flags = _COMMANDS[command]
    # argparse derives each destination from the flag name; the config file uses it too
    flags = {flag.name.replace("-", "_"): flag for flag in _COMMON_FLAGS + own_flags}

    resolved = {key: flag.default for key, flag in flags.items()}
    if args.config is not None:
        try:
            file_cfg = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, value in file_cfg.items():
            if key not in flags:
                raise ConfigError(f"config file key {key!r} is not valid for {command}")
            if not flags[key].admits(value):
                raise ConfigError(
                    f"config file key {key!r} has an invalid value {json.dumps(value)}"
                )
            resolved[key] = value
    for key, flag in flags.items():
        value = getattr(args, key)
        if value is not None:
            resolved[key] = value
        if flag.minimum is not None and resolved[key] < flag.minimum:
            raise ConfigError(f"{key} must be >= {flag.minimum}")
    return resolved


def _system_config(opts: dict) -> SystemConfig:
    cipher = make_cipher(
        opts["cipher"], opts["n_bits"], seed=opts["seed"], rounds=opts["rounds"]
    )
    inner = None
    if opts.get("inner_function") == "identity":
        inner = identity_table(opts["n_bits"])
    return SystemConfig(cipher=cipher, inner_function=inner, convention=opts["convention"])


def _required(opts: dict, key: str) -> str:
    if not opts[key]:
        raise ConfigError(f"--{key.replace('_', '-')} is required")
    return opts[key]


def _point(
    opts: dict, state_key: str, prefix_key: str, cycle_key: str, required: bool
) -> SystemPoint:
    """The point three flags name; an absent state is an error or drawn from --rng-seed.

    The cycle defaults to one zero block.
    """
    n_bits = opts["n_bits"]
    if required or opts[state_key]:
        state = parse_bits(_required(opts, state_key), n_bits)
    else:
        # IVs must be fresh per run in real use; here they come from a
        # disclosed seed so that runs are reproducible.
        state = SplitMix64(opts["rng_seed"]).next_below(1 << n_bits)
    prefix = parse_block_list(opts[prefix_key], n_bits)
    cycle = parse_block_list(opts[cycle_key] or "0" * n_bits, n_bits)
    return SystemPoint(state, MessageSequence(n_bits, prefix, cycle))


def _base_config_echo(opts: dict) -> dict:
    """The config section every report carries; worker count is deliberately absent."""
    return {
        "cipher": opts["cipher"],
        "n_bits": opts["n_bits"],
        "seed": opts["seed"],
        "rounds": opts["rounds"] if opts["cipher"] == "feistel" else 0,
        "convention": opts["convention"],
        "rng_seed": opts["rng_seed"],
        "out": opts["out"],
    }


def _default_out(opts: dict, command: str) -> Path:
    if opts["out"]:
        return Path(opts["out"])
    return Path(os.environ.get(ENV_OUT_DIR, ".")) / f"{command}-report.json"


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def _cmd_graph(opts: dict, cfg: SystemConfig) -> tuple:
    graph = build_graph(cfg, workers=opts["workers"])
    results = _verdict(graph).to_json()
    results.update(vertex_count=graph.vertex_count, edge_count=graph.edge_count, complete=graph.is_complete())
    if opts["dot_out"]:
        _write(opts["dot_out"], graph_to_dot(cfg, graph).encode())
    if opts["adjacency_out"]:
        adjacency = json.dumps(graph_to_json(cfg, graph), sort_keys=True, indent=2) + "\n"
        _write(opts["adjacency_out"], adjacency.encode())
    echo = {key: opts[key] for key in ("inner_function", "dot_out", "adjacency_out")}
    return echo, results


def _trajectory_csv(states: list, blocks: tuple, n_bits: int) -> list:
    """CSV rows "step,state,next_block", both words as N-digit binary, as byte chunks.

    Each row is one row of a fixed-width uint8 matrix: the step index in
    as many digits as the last one has, then the state and block digits
    from one unpackbits pass over big-endian uint16 words. The rows whose
    index has w digits are one chunk, without the first width - w columns.
    """
    rows, width = len(states), len(str(len(states) - 1))
    words = np.empty((rows, 2), dtype=">u2")
    words[:, 0] = states
    words[:, 1] = blocks
    digits = np.unpackbits(words.view(np.uint8), axis=1) + ord("0")
    cells = np.full((rows, width + 2 * n_bits + 3), ord(","), dtype=np.uint8)
    for place in range(width):
        cells[:, width - 1 - place] = np.arange(rows) // 10**place % 10 + ord("0")
    cells[:, width + 1 : width + 1 + n_bits] = digits[:, 16 - n_bits : 16]
    cells[:, width + 2 + n_bits : -1] = digits[:, 32 - n_bits :]
    cells[:, -1] = ord("\n")
    bounds = [0] + [10**w for w in range(1, width)] + [rows]
    return [b"step,state,next_block\n"] + [
        np.ascontiguousarray(cells[lo:hi, width - w :]) for w, (lo, hi) in enumerate(zip(bounds, bounds[1:]), 1)
    ]


def _cmd_simulate(opts: dict, cfg: SystemConfig) -> tuple:
    n_bits = opts["n_bits"]
    start = _point(opts, "iv", "message", "cycle", required=False)
    steps = opts["steps"]
    if steps < 0:
        raise ConfigError("steps must be nonnegative")
    states = state_values(cfg, start, steps)

    if opts["csv_out"]:
        csv_path = Path(opts["csv_out"])
        csv_echo = str(opts["csv_out"])
    else:
        # defaulted sidecar beside the report: echo the bare name so the
        # report does not depend on where it was written
        csv_path = _default_out(opts, "simulate").with_name("simulate-trajectory.csv")
        csv_echo = csv_path.name
    _write(csv_path, *_trajectory_csv(states, start.message.head(steps + 1), n_bits))
    final = SystemPoint(states[-1], shift_by(start.message, steps))

    results = {
        "steps": steps,
        "initial_point": start.to_json(),
        "final_point": final.to_json(),
        "trajectory_csv": csv_echo,
    }
    echo = {
        "iv": format(start.state, f"0{n_bits}b"),
        "message": opts["message"].split(",") if opts["message"] else [],
        "cycle": (opts["cycle"] or "0" * n_bits).split(","),
        "steps": steps,
        "csv_out": csv_echo,
    }
    return echo, results


def _cmd_distance(opts: dict, cfg: SystemConfig) -> tuple:
    X = _point(opts, "a_state", "a_prefix", "a_cycle", required=True)
    Y = _point(opts, "b_state", "b_prefix", "b_cycle", required=True)
    digits = opts["digits"]
    d = distance(X, Y)
    state = state_distance(X.state, Y.state)
    bowen = None
    if opts["bowen_n"] is not None:
        value = bowen_distance(cfg, X, Y, opts["bowen_n"])
        bowen = {
            "n": opts["bowen_n"],
            "value": fraction_str(value),
            "value_decimal": decimal_str(value, digits),
        }
    results = {
        "state_distance": state,
        # the distance is the state term plus the message term
        "message_distance": fraction_str(d - state),
        "distance": fraction_str(d),
        "distance_decimal": decimal_str(d, digits),
        "bowen": bowen,
    }
    echo = {"point_a": X.to_json(), "point_b": Y.to_json(), "bowen_n": opts["bowen_n"], "digits": digits}
    return echo, results


def _cmd_mix(opts: dict, cfg: SystemConfig) -> tuple:
    epsilon = parse_fraction(_required(opts, "epsilon"))
    target = _point(opts, "target_state", "target_prefix", "target_cycle", required=True)
    center = _point(opts, "center_state", "center_prefix", "center_cycle", required=False)

    # the witness verifies membership and arrival and raises otherwise
    witness = mixing_witness(cfg, Ball(center, epsilon), target)
    echo = {"epsilon": fraction_str(epsilon), "target": target.to_json(), "center": center.to_json()}
    return echo, witness.to_json()


def _cmd_sensitivity(opts: dict, cfg: SystemConfig) -> tuple:
    epsilon = parse_fraction(_required(opts, "epsilon"))
    delta = parse_fraction(opts["delta"]) if opts["delta"] else Fraction(opts["n_bits"])
    X = _point(opts, "state", "prefix", "cycle", required=False)

    # the witness raises unless Y lies in the ball and separates by N >= delta
    Y, n, achieved = sensitivity_witness(cfg, X, epsilon, delta)
    results = {
        "k": n - 1,
        "n": n,
        "achieved": fraction_str(achieved),
        "perturbed_point": Y.to_json(),
        "steering_block": Y.message.block(n - 1).bits,
    }
    echo = {"epsilon": fraction_str(epsilon), "delta": fraction_str(delta), "center": X.to_json()}
    return echo, results


def _cmd_entropy(opts: dict, cfg: SystemConfig) -> tuple:
    epsilon = parse_fraction(opts["epsilon"])
    entries = entropy_profile(cfg, opts["n_max"], epsilon, opts["prefix_len"])
    results = {
        "grid_size": grid_size(cfg.n_bits, opts["prefix_len"]),
        "entries": [e.to_json() for e in entries],
    }
    echo = {"epsilon": fraction_str(epsilon), "n_max": opts["n_max"], "prefix_len": opts["prefix_len"]}
    return echo, results


def _cmd_probe(opts: dict, cfg: SystemConfig) -> tuple:
    report = expansivity_probe(cfg, opts["horizon"], opts["samples"], opts["rng_seed"])
    return {"horizon": opts["horizon"], "samples": opts["samples"]}, report.to_json()


# Each subcommand: its help summary, its handler and its own flags, which
# follow --config and _COMMON_FLAGS.
_COMMANDS = {
    "graph": ("transition graph and strong-connectivity verdict", _cmd_graph, (
        Flag("inner-function", "negation", str, ("negation", "identity")),
        Flag("dot-out", help="write the graph in DOT form"),
        Flag("adjacency-out", help="write the adjacency as JSON"),
    )),
    "simulate": ("iterate the mode and dump the trajectory", _cmd_simulate, (
        Flag("iv", help="initial state bits (default: drawn from --rng-seed)"),
        Flag("message", "", help="comma-separated prefix blocks, e.g. 11,01"),
        Flag("cycle", help="comma-separated repeating blocks (default: one zero block)"),
        Flag("steps", 10, int),
        Flag("csv-out", help="trajectory CSV path"),
    )),
    "distance": ("exact distance between two points", _cmd_distance, (
        Flag("a-state"),
        Flag("a-prefix", ""),
        Flag("a-cycle"),
        Flag("b-state"),
        Flag("b-prefix", ""),
        Flag("b-cycle"),
        Flag("bowen-n", None, int, help="also compute the n-step orbit distance"),
        Flag("digits", 12, int, help="decimal digits in renderings"),
    )),
    "mix": ("construct and verify a mixing witness", _cmd_mix, (
        Flag("epsilon", help="ball radius, exact fraction < 1"),
        Flag("target-state"),
        Flag("target-prefix", ""),
        Flag("target-cycle"),
        Flag("center-state", help="default: IV drawn from --rng-seed"),
        Flag("center-prefix", ""),
        Flag("center-cycle"),
    )),
    "sensitivity": ("construct a sensitivity witness", _cmd_sensitivity, (
        Flag("epsilon", help="neighborhood radius, exact fraction < 1"),
        Flag("delta", help="required separation (default: block size)"),
        Flag("state", help="default: IV drawn from --rng-seed"),
        Flag("prefix", ""),
        Flag("cycle"),
    )),
    "entropy": ("separated-orbit entropy lower bounds", _cmd_entropy, (
        Flag("n-max", 2, int),
        Flag("epsilon", "1"),
        Flag("prefix-len", 2, int),
    )),
    "probe-expansivity": ("bounded-horizon orbit-coalescence probe", _cmd_probe, (
        Flag("horizon", 50, int),
        Flag("samples", 40, int),
    )),
}


def run_command(argv) -> int:
    """Parse argv, execute, write the report; returns the exit code."""
    args = _parser().parse_args(argv)
    started = time.monotonic()
    try:
        opts = resolve_options(args)
        _, handler, _ = _COMMANDS[args.command]
        # built before the handler parses anything, so a bad cipher option is the error reported
        echo, results = handler(opts, _system_config(opts))
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
        "config": _base_config_echo(opts) | echo,
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
    return EXIT_OK


def main(argv=None) -> int:
    return run_command(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
