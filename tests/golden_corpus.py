"""The golden-report corpus: fixed CLI invocations and the bytes they produce.

``tests/golden/cases.json`` lists every case: its argv, optional input
files, exit code, the first stderr line when the exit code is nonzero
(success lines carry timings), and the sha256 and length of each sidecar
file (trajectory CSV, DOT, adjacency JSON). The report of case ``name`` is
stored verbatim as ``tests/golden/reports/<name>.json``.

Each case runs in-process in a fresh directory that is both the working
directory and ``CBCDYN_OUT_DIR``, so sidecar paths are relative and no
absolute path reaches a report. ``--out`` is never used, because it is
echoed into the report.

The cases are the README and acceptance-suite invocations, the
benchmark's CLI jobs at seeds 1 and 2 (frozen here as literal argv lists),
a few hand-made error and config-file cases, and seeded random invocations
over every subcommand, cipher kind and convention, plus seeded 16-bit
``mix`` and ``sensitivity`` cases whose centre prefixes end both before
and after step k+1 of the construction and whose cycles have 3 to 7
blocks, plus ``graph`` exports under ``paper-complement`` with the negation
and the identity inner function, whose DOT and adjacency edge labels are
not the xor difference of the endpoints' words.

Rewrite the corpus after an intended report change with

    PYTHONPATH=src python tests/golden_corpus.py

and list every changed case in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

from cbcdyn import cli

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
CASES_FILE = GOLDEN_DIR / "cases.json"
REPORTS_DIR = GOLDEN_DIR / "reports"
RANDOM_SEED = 20261018
RANDOM_CASES = 105
WITNESS_SEED = 20261019
WITNESS_CASES = 12

# README examples and the acceptance suite's CLI_CASES.
DOC_CASES = [
    ("readme-graph", ["graph", "--cipher", "permutation", "--n-bits", "4", "--seed", "1",
                      "--convention", "xor"]),
    ("readme-graph-degenerate", ["graph", "--cipher", "identity", "--n-bits", "2",
                                 "--convention", "paper-complement",
                                 "--inner-function", "identity"]),
    ("readme-simulate", ["simulate", "--cipher", "identity", "--n-bits", "2", "--iv", "00",
                         "--message", "11,01", "--steps", "4"]),
    ("readme-distance", ["distance", "--n-bits", "2", "--a-state", "01", "--a-prefix", "10",
                         "--b-state", "11", "--bowen-n", "2"]),
    ("readme-mix", ["mix", "--cipher", "identity", "--n-bits", "2", "--epsilon", "1/2",
                    "--target-state", "11"]),
    ("readme-sensitivity", ["sensitivity", "--cipher", "feistel", "--n-bits", "4", "--seed", "3",
                            "--epsilon", "1/10"]),
    ("readme-entropy", ["entropy", "--cipher", "identity", "--n-bits", "2", "--epsilon", "1",
                        "--n-max", "2", "--prefix-len", "2"]),
    ("readme-probe", ["probe-expansivity", "--n-bits", "2", "--horizon", "50", "--samples", "20",
                      "--rng-seed", "7"]),
    ("acceptance-graph", ["graph", "--cipher", "permutation", "--n-bits", "4", "--seed", "1"]),
    ("acceptance-simulate", ["simulate", "--n-bits", "2", "--iv", "01", "--message", "11,01",
                             "--steps", "6"]),
    ("acceptance-mix", ["mix", "--n-bits", "2", "--epsilon", "1/2", "--target-state", "11"]),
    ("acceptance-sensitivity", ["sensitivity", "--n-bits", "4", "--epsilon", "1/10"]),
    ("acceptance-probe", ["probe-expansivity", "--n-bits", "2", "--horizon", "50",
                          "--samples", "6", "--rng-seed", "9"]),
]

# Error paths, sidecars and config files, one case each. A case may carry
# input files, written into its directory before it runs.
EXTRA_CASES = [
    ("graph-sidecars", ["graph", "--cipher", "permutation", "--n-bits", "3", "--seed", "5",
                        "--dot-out", "g.dot", "--adjacency-out", "g-adj.json"]),
    ("simulate-csv-out", ["simulate", "--cipher", "feistel", "--n-bits", "6", "--seed", "2",
                          "--iv", "101010", "--message", "000111", "--cycle", "110000,000011",
                          "--steps", "25", "--csv-out", "runs/traj.csv"]),
    ("simulate-write-error", ["simulate", "--n-bits", "2", "--steps", "3",
                              "--csv-out", "blocker/traj.csv"], {"blocker": ""}),
    ("graph-config-file", ["graph", "--config", "run.json", "--seed", "1"],
     {"run.json": '{"cipher": "permutation", "n_bits": 4, "convention": "paper-complement"}'}),
    ("graph-config-bad-key", ["graph", "--config", "run.json"], {"run.json": '{"steps": 3}'}),
    ("mix-fine-epsilon", ["mix", "--cipher", "permutation", "--n-bits", "16", "--seed", "7",
                          "--epsilon", "123456789/1000000000000000",
                          "--target-state", "1111000011110000", "--target-cycle", "0000000000000001",
                          "--center-state", "0000000011111111",
                          "--center-prefix", "1010101010101010,0101010101010101"]),
    ("sensitivity-fine-epsilon", ["sensitivity", "--cipher", "feistel", "--n-bits", "8",
                                  "--seed", "11", "--convention", "paper-complement",
                                  "--epsilon", "123456789/1000000000000000",
                                  "--prefix", "00000001,10000000",
                                  "--cycle", "11110000,00001111,01010101"]),
    ("entropy-cost-guard", ["entropy", "--n-bits", "4", "--prefix-len", "3", "--n-max", "2"]),
    ("mix-decimal-epsilon", ["mix", "--n-bits", "2", "--epsilon", "0.5", "--target-state", "11"]),
    ("mix-radius-one", ["mix", "--n-bits", "2", "--epsilon", "1", "--target-state", "11"]),
    ("sensitivity-delta-too-large", ["sensitivity", "--n-bits", "3", "--epsilon", "1/10",
                                     "--delta", "4"]),
    ("feistel-odd-bits", ["probe-expansivity", "--cipher", "feistel", "--n-bits", "5"]),
    ("xor-identity-inner", ["graph", "--n-bits", "3", "--inner-function", "identity"]),
    ("workers-zero", ["graph", "--n-bits", "2", "--workers", "0"]),
    ("distance-missing-state", ["distance", "--n-bits", "2", "--a-state", "01"]),
    ("distance-wrong-width", ["distance", "--n-bits", "3", "--a-state", "01", "--b-state", "010"]),
]

# The benchmark's CLI jobs (perfbench/plans.py) at seeds 1 and 2, duplicates dropped.
BENCHMARK_CASES = [
    ("bench-certificate-1-graph-dense", [
        "graph", "--cipher", "permutation", "--n-bits", "12", "--seed", "1719684027",
        "--convention", "xor", "--workers", "1",
    ]),
    ("bench-certificate-1-graph-functional", [
        "graph", "--cipher", "permutation", "--n-bits", "12", "--seed", "2444510074",
        "--convention", "paper-complement", "--inner-function", "identity", "--workers", "1",
    ]),
    ("bench-entropy-1-entropy-grid-xor", [
        "entropy", "--cipher", "identity", "--n-bits", "2", "--convention", "xor", "--epsilon",
        "1", "--n-max", "2", "--prefix-len", "3", "--workers", "1",
    ]),
    ("bench-entropy-1-entropy-small-xor", [
        "entropy", "--cipher", "identity", "--n-bits", "2", "--convention", "xor", "--epsilon",
        "1", "--n-max", "3", "--prefix-len", "2", "--workers", "1",
    ]),
    ("bench-entropy-1-entropy-grid-paper-complement", [
        "entropy", "--cipher", "identity", "--n-bits", "2", "--convention", "paper-complement",
        "--epsilon", "1", "--n-max", "2", "--prefix-len", "3", "--workers", "1",
    ]),
    ("bench-entropy-1-entropy-small-paper-complement", [
        "entropy", "--cipher", "identity", "--n-bits", "2", "--convention", "paper-complement",
        "--epsilon", "1", "--n-max", "3", "--prefix-len", "2", "--workers", "1",
    ]),
    ("bench-entropy-1-entropy-exact-0", [
        "entropy", "--cipher", "permutation", "--n-bits", "3", "--seed", "908500920",
        "--convention", "paper-complement", "--epsilon", "1", "--n-max", "2", "--prefix-len", "1",
        "--workers", "1",
    ]),
    ("bench-entropy-1-entropy-exact-1", [
        "entropy", "--cipher", "permutation", "--n-bits", "3", "--seed", "4291705217",
        "--convention", "paper-complement", "--epsilon", "1", "--n-max", "2", "--prefix-len", "1",
        "--workers", "1",
    ]),
    ("bench-orbits-1-probe", [
        "probe-expansivity", "--cipher", "permutation", "--n-bits", "16", "--seed", "10794771",
        "--horizon", "300", "--samples", "40", "--rng-seed", "117953680", "--workers", "1",
    ]),
    ("bench-orbits-1-simulate", [
        "simulate", "--cipher", "permutation", "--n-bits", "16", "--seed", "10794771", "--iv",
        "1111001010110010", "--message",
        "1010101110011100,0011001100101001,0011101110111001,0101100110000000,0010001011001101",
        "--cycle",
        "1011001100001011,1111100110110011,1110000000000101,0100110000000011,1111011101000000,0111001111101100,0101111111110100",
        "--steps", "20000", "--workers", "1",
    ]),
    ("bench-orbits-1-distance", [
        "distance", "--cipher", "permutation", "--n-bits", "16", "--seed", "10794771", "--a-state",
        "0000000000010101", "--a-prefix",
        "0110111111001100,1110111010111011,1101000110000010,0010100111000100,0010111101100011",
        "--a-cycle",
        "0111100010011110,1101011101110111,1010000110111010,1001101001001111,1101001110001100,1000110001001100,1011001000001000",
        "--b-state", "1101000011111110", "--b-prefix",
        "1110100101010010,0000001100011100,1110101110110001,0110011011111011,1001011001101101,0101000110101111",
        "--b-cycle",
        "1010110110000110,0110101000011111,1010011011110010,0011011111010110,0000100110011101,0010101010110100,1010110000010010,0110110110101011,0000110010000011,0101001011111100,0100101011111101",
        "--bowen-n", "400", "--digits", "30", "--workers", "1",
    ]),
    ("bench-certificate-2-graph-dense", [
        "graph", "--cipher", "permutation", "--n-bits", "12", "--seed", "740074798",
        "--convention", "xor", "--workers", "1",
    ]),
    ("bench-certificate-2-graph-functional", [
        "graph", "--cipher", "permutation", "--n-bits", "12", "--seed", "3180326211",
        "--convention", "paper-complement", "--inner-function", "identity", "--workers", "1",
    ]),
    ("bench-entropy-2-entropy-exact-0", [
        "entropy", "--cipher", "permutation", "--n-bits", "3", "--seed", "4002124657",
        "--convention", "paper-complement", "--epsilon", "1", "--n-max", "2", "--prefix-len", "1",
        "--workers", "1",
    ]),
    ("bench-entropy-2-entropy-exact-1", [
        "entropy", "--cipher", "permutation", "--n-bits", "3", "--seed", "2407667657",
        "--convention", "paper-complement", "--epsilon", "1", "--n-max", "2", "--prefix-len", "1",
        "--workers", "1",
    ]),
    ("bench-orbits-2-probe", [
        "probe-expansivity", "--cipher", "permutation", "--n-bits", "16", "--seed", "2452662556",
        "--horizon", "300", "--samples", "40", "--rng-seed", "2023568316", "--workers", "1",
    ]),
    ("bench-orbits-2-simulate", [
        "simulate", "--cipher", "permutation", "--n-bits", "16", "--seed", "2452662556", "--iv",
        "1010001000000010", "--message",
        "0111011100101100,0111110000100001,0110111010111010,1000011000001011,0111111000000001",
        "--cycle",
        "1100110100110101,0110000100100010,0101110111110100,1001010101001001,1011010001110011,0111100101010011,1111100100101100",
        "--steps", "20000", "--workers", "1",
    ]),
    ("bench-orbits-2-distance", [
        "distance", "--cipher", "permutation", "--n-bits", "16", "--seed", "2452662556",
        "--a-state", "1010100011110001", "--a-prefix",
        "1111001110100100,0101011110111100,1010100101111010,0110001011111011,1011001011001011",
        "--a-cycle",
        "0101110000001100,1101001100110011,1101011000101111,1100110110111011,0001011001000111,0011000010101100,0011000101111111",
        "--b-state", "1100101011000100", "--b-prefix",
        "1001001001000001,0101110000110101,0001001011010001,0000010110000110,0011111110000011,1011010000100110",
        "--b-cycle",
        "1000010000101011,0000111110001011,1000011010010011,0001111100101010,1100101111010000,0010011101111101,0000010011000101,0010110110000000,0111111111110101,1000001101111110,1000100101110010",
        "--bowen-n", "400", "--digits", "30", "--workers", "1",
    ]),
]

# Graph exports under paper-complement, whose edge labels are not the xor
# difference: the negation gives complete graphs labelled NOT(c XOR x), the
# identity inner function one edge per vertex.
EXPORT_CASES = [
    (f"export-{kind}-{n_bits}-{inner}", [
        "graph", "--cipher", kind, "--n-bits", str(n_bits), "--seed", str(seed),
        "--convention", "paper-complement", "--inner-function", inner,
        "--dot-out", "g.dot", "--adjacency-out", "g-adj.json",
    ])
    for kind, n_bits, seed, inner in (
        ("permutation", 4, 3, "negation"),
        ("permutation", 5, 8, "negation"),
        ("permutation", 6, 21, "negation"),
        ("feistel", 4, 5, "negation"),
        ("feistel", 6, 13, "negation"),
        ("permutation", 5, 2, "identity"),
    )
]

COMMANDS = ("graph", "simulate", "distance", "mix", "sensitivity", "entropy", "probe-expansivity")
CIPHER_KINDS = ("identity", "permutation", "feistel")
CONVENTIONS = ("xor", "paper-complement")


def _bits(rng: random.Random, n_bits: int) -> str:
    return format(rng.randrange(1 << n_bits), f"0{n_bits}b")


def _blocks(rng: random.Random, n_bits: int, count: int) -> str:
    return ",".join(_bits(rng, n_bits) for _ in range(count))


def _message(rng, n_bits, prefix_flag, cycle_flag, max_prefix, cycle_lengths) -> list:
    """Message flags; a cycle length of 0 leaves the default zero cycle."""
    argv = []
    prefix_len = rng.randint(0, max_prefix)
    if prefix_len:
        argv += [prefix_flag, _blocks(rng, n_bits, prefix_len)]
    cycle_len = rng.choice(cycle_lengths)
    if cycle_len:
        argv += [cycle_flag, _blocks(rng, n_bits, cycle_len)]
    return argv


def _epsilon(rng: random.Random) -> str:
    """Powers of ten, long decimal fractions, plain fractions, and values beside 10^-k."""
    form = rng.randrange(4)
    if form == 0:
        return f"1/{10 ** rng.randint(0, 8)}"
    if form == 1:
        return f"{rng.randint(1, 999999999)}/{10 ** rng.randint(9, 18)}"
    if form == 2:
        q = rng.randint(2, 10**6)
        return f"{rng.randint(1, q - 1)}/{q}"
    k = rng.randint(1, 12)
    return f"{10 ** k + rng.choice((-1, 1))}/{10 ** (2 * k)}"


def _common(rng: random.Random, n_bits: int) -> tuple:
    """Cipher, convention and seed flags, and the block size they settled on."""
    kind = rng.choice(CIPHER_KINDS)
    if kind == "feistel" and n_bits % 2 and rng.random() < 0.8:
        n_bits += 1 if n_bits < 16 else -1
    argv = ["--cipher", kind, "--n-bits", str(n_bits), "--convention", rng.choice(CONVENTIONS)]
    if kind != "identity":
        argv += ["--seed", str(rng.randrange(1 << rng.choice((8, 32, 64))))]
    if kind == "feistel" and rng.random() < 0.5:
        argv += ["--rounds", str(rng.randint(1, 6))]
    if rng.random() < 0.5:
        argv += ["--rng-seed", str(rng.randrange(1 << 32))]
    if rng.random() < 0.3:
        argv += ["--workers", str(rng.randint(1, 4))]
    return argv, n_bits


def _random_argv(rng: random.Random, command: str) -> list:
    if command == "entropy":
        n_bits = rng.randint(1, 3)
    elif command == "graph":
        n_bits = rng.randint(1, 8)
    else:
        n_bits = rng.randint(1, 16)
    common, n_bits = _common(rng, n_bits)
    argv = [command] + common
    if command == "graph":
        argv += ["--inner-function", rng.choice(("negation", "identity"))]
        if n_bits <= 6 and rng.random() < 0.4:
            argv += ["--dot-out", "g.dot", "--adjacency-out", "g-adj.json"]
    elif command == "simulate":
        if rng.random() < 0.5:
            argv += ["--iv", _bits(rng, n_bits)]
        argv += _message(rng, n_bits, "--message", "--cycle", 5, (0, 1, 2, 3))
        argv += ["--steps", str(rng.randint(0, 300))]
        if rng.random() < 0.3:
            argv += ["--csv-out", "traj.csv"]
    elif command == "distance":
        argv += ["--a-state", _bits(rng, n_bits), "--b-state", _bits(rng, n_bits)]
        # joint periods up to lcm(7, 13) = 91, scales far past int64
        argv += _message(rng, n_bits, "--a-prefix", "--a-cycle", 6, (0, 1, 2, 3, 5, 7))
        argv += _message(rng, n_bits, "--b-prefix", "--b-cycle", 6, (0, 1, 4, 9, 11, 13))
        if rng.random() < 0.6:
            argv += ["--bowen-n", str(rng.randint(1, 120))]
        argv += ["--digits", str(rng.randint(0, 40))]
    elif command == "mix":
        argv += ["--epsilon", _epsilon(rng), "--target-state", _bits(rng, n_bits)]
        argv += _message(rng, n_bits, "--target-prefix", "--target-cycle", 4, (0, 1, 2, 3))
        if rng.random() < 0.5:
            argv += ["--center-state", _bits(rng, n_bits)]
        argv += _message(rng, n_bits, "--center-prefix", "--center-cycle", 4, (0, 1, 2, 3))
    elif command == "sensitivity":
        argv += ["--epsilon", _epsilon(rng)]
        if rng.random() < 0.3:
            argv += ["--delta", f"{rng.randint(1, 2 * n_bits)}/{rng.randint(1, 2)}"]
        if rng.random() < 0.5:
            argv += ["--state", _bits(rng, n_bits)]
        argv += _message(rng, n_bits, "--prefix", "--cycle", 4, (0, 1, 2, 3))
    elif command == "entropy":
        argv += ["--epsilon", rng.choice(("1", "1/2", "1/10", "9/10", "3/2", "2")),
                 "--n-max", str(rng.randint(1, 3)), "--prefix-len", str(rng.randint(0, 2))]
    else:
        argv += ["--horizon", str(rng.randint(1, 200)), "--samples", str(rng.randint(1, 30))]
    return argv


def _witness_argv(rng: random.Random, i: int) -> list:
    """A 16-bit ``mix`` or ``sensitivity`` case with epsilon of scale e, so k = e + 1.

    Odd pairs of cases give the centre a prefix longer than k + 1 blocks,
    so that the step-(k+1) shift lands inside the prefix; even pairs a
    shorter one, so that it lands in a rotated cycle.
    """
    command = ("mix", "sensitivity")[i % 2]
    common, _ = _common(rng, 16)
    e = rng.randint(1, 4)
    prefix_len = rng.randint(e + 3, e + 6) if i // 2 % 2 else rng.randint(0, e + 1)
    center = []
    if prefix_len:
        center += ["--prefix", _blocks(rng, 16, prefix_len)]
    center += ["--cycle", _blocks(rng, 16, rng.randint(3, 7))]
    argv = [command] + common + ["--epsilon", f"{rng.randint(1, 9)}/{10 ** e}"]
    if command == "sensitivity":
        return argv + ["--state", _bits(rng, 16)] + center
    argv += ["--target-state", _bits(rng, 16)]
    argv += _message(rng, 16, "--target-prefix", "--target-cycle", 6, (3, 4, 5, 6, 7))
    center = [flag.replace("--", "--center-", 1) if flag.startswith("--") else flag for flag in center]
    return argv + ["--center-state", _bits(rng, 16)] + center


def all_cases() -> list:
    """(name, argv, input files) for every case, in corpus order."""
    cases = [(name, argv, {}) for name, argv in DOC_CASES + BENCHMARK_CASES]
    cases += [(name, argv, inputs[0] if inputs else {}) for name, argv, *inputs in EXTRA_CASES]
    rng = random.Random(RANDOM_SEED)
    for i in range(RANDOM_CASES):
        command = COMMANDS[i % len(COMMANDS)]
        cases.append((f"random-{i:03d}-{command}", _random_argv(rng, command), {}))
    rng = random.Random(WITNESS_SEED)
    for i in range(WITNESS_CASES):
        argv = _witness_argv(rng, i)
        cases.append((f"witness-{i:02d}-{argv[0]}", argv, {}))
    cases += [(name, argv, {}) for name, argv in EXPORT_CASES]
    return cases


def run_case(argv: list, inputs: dict) -> tuple:
    """Run one invocation in a fresh directory; returns (outcome, report bytes or None)."""
    saved_cwd = os.getcwd()
    saved_out = os.environ.get(cli.ENV_OUT_DIR)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, text in inputs.items():
            (work / name).write_text(text)
        stderr = io.StringIO()
        os.chdir(work)
        os.environ[cli.ENV_OUT_DIR] = str(work)
        try:
            with contextlib.redirect_stderr(stderr):
                code = cli.run_command(list(argv))
        finally:
            os.chdir(saved_cwd)
            if saved_out is None:
                os.environ.pop(cli.ENV_OUT_DIR, None)
            else:
                os.environ[cli.ENV_OUT_DIR] = saved_out
        report_path = work / f"{argv[0]}-report.json"
        report = report_path.read_bytes() if report_path.exists() else None
        sidecars = {}
        for path in sorted(p for p in work.rglob("*") if p.is_file()):
            name = path.relative_to(work).as_posix()
            if path != report_path and name not in inputs:
                data = path.read_bytes()
                sidecars[name] = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
    outcome = {"exit_code": code, "sidecars": sidecars}
    if code != 0:
        outcome["stderr_first_line"] = stderr.getvalue().splitlines()[0]
    return outcome, report


def case_entry(name: str, argv: list, inputs: dict, outcome: dict, report) -> dict:
    """The manifest entry of one case, as ``cases.json`` stores it."""
    entry = {"name": name, "argv": list(argv), **outcome}
    if inputs:
        entry["inputs"] = inputs
    entry["report"] = None if report is None else f"reports/{name}.json"
    return entry


def rewrite() -> None:
    REPORTS_DIR.mkdir(parents=True, exist_ok=True)
    for old in REPORTS_DIR.glob("*.json"):
        old.unlink()
    entries = []
    for name, argv, inputs in all_cases():
        outcome, report = run_case(argv, inputs)
        entries.append(case_entry(name, argv, inputs, outcome, report))
        if report is not None:
            (REPORTS_DIR / f"{name}.json").write_bytes(report)
    CASES_FILE.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(entries)} cases to {CASES_FILE}", file=sys.stderr)


if __name__ == "__main__":
    rewrite()
