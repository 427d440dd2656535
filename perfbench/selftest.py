"""Self-test of the output checks: each must pass real outputs and reject corrupted ones.

    python3 perfbench/selftest.py

Runs one round of every workload at reduced sizes, confirms that the
checks pass on its outputs, then feeds each check corrupted copies and
confirms that every corruption is rejected. Exits 1 on the first check that
lets a corruption through.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
from fractions import Fraction
from pathlib import Path

from run import ROOT, SRC, Rounds, run_round

sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import plans  # noqa: E402

SMALL_SIZES = {
    "certificate": {"n_bits": 8, "mask_popcount": 4},
    "entropy": {
        "grid_n_max": 2,
        "grid_prefix_len": 2,
        "small_n_max": 2,
        "small_prefix_len": 1,
        "exact_n_max": 2,
        "exact_ciphers": 1,
    },
    "orbits": {
        "n_bits": 8,
        "probe_horizon": 20,
        "probe_samples": 6,
        "simulate_steps": 50,
        "bowen_n": 20,
        "centers": 2,
        "radius_exponents": 3,
    },
}
SEED = 7


def edit_report(name: str, edit):
    """A corruption of a CLI job's outputs that edits one report file."""
    def corrupt(files):
        report = json.loads(files[name])
        edit(report)
        return dict(files, **{name: json.dumps(report)})
    return corrupt


def edit_file(name: str, edit):
    return lambda files: dict(files, **{name: edit(files[name])})


def edit_export(edit):
    def corrupt(out):
        out = copy.deepcopy(out)
        edit(out)
        return out
    return corrupt


def _set(path, value):
    def edit(data):
        for key in path[:-1]:
            data = data[key]
        data[path[-1]] = value(data[path[-1]]) if callable(value) else value
    return edit


def _flip_bit(bits: str) -> str:
    return ("1" if bits[0] == "0" else "0") + bits[1:]


def _corrupt_csv_row(text: str) -> str:
    lines = text.splitlines()
    step, state, block = lines[2].split(",")
    lines[2] = ",".join([step, _flip_bit(state), block])
    return "\n".join(lines) + "\n"


GRAPH = "graph-report.json"
CORRUPTIONS = {
    "graph_dense": [
        edit_report(GRAPH, _set(["results", "edge_count"], lambda v: v - 1)),
        edit_report(GRAPH, _set(["results", "scc_count"], 2)),
        edit_report(GRAPH, _set(["results", "complete"], False)),
    ],
    "graph_functional": [
        edit_report(GRAPH, _set(["results", "edge_count"], lambda v: v + 1)),
        edit_report(GRAPH, _set(["results", "scc_sizes"], lambda v: [v[0] + v[-1]] + v[1:-1])),
        edit_report(GRAPH, _set(["results", "scc_count"], lambda v: v + 1)),
    ],
    "graph_mask": [
        edit_export(_set(["edge_count"], lambda v: v + 1)),
        edit_export(_set(["targets", 3], lambda row: row[1:])),
        edit_export(_set(["strongly_connected"], False)),
        edit_export(_set(["sccs"], lambda v: [v[0][1:]])),
    ],
    "entropy": [
        edit_report("entropy-report.json", _set(["results", "entries", 0, "greedy_cardinality"], lambda v: v - 1)),
        edit_report("entropy-report.json", _set(["results", "entries", -1, "exact_cardinality"], lambda v: (v or 0) + 1)),
        edit_report("entropy-report.json", _set(["results", "entries", -1, "growth_rate"], lambda v: v * (1 + 1e-15))),
        edit_report("entropy-report.json", _set(["results", "entries"], lambda v: v[:-1])),
    ],
    "probe": [
        edit_report("probe-expansivity-report.json", _set(["results", "min_max_orbit_distance"], "1/10")),
    ],
    "simulate": [
        edit_file("simulate-trajectory.csv", _corrupt_csv_row),
        edit_report("simulate-report.json", _set(["results", "final_point", "state"], _flip_bit)),
    ],
    "distance": [
        edit_report("distance-report.json", _set(["results", "bowen", "value"], lambda v: str(Fraction(v) + 2))),
        edit_report("distance-report.json", _set(["results", "state_distance"], lambda v: v + 1)),
    ],
    "mixing": [
        edit_export(_set(["constructed_point", "state"], _flip_bit)),
        edit_export(_set(["k"], lambda v: v - 1)),
        edit_export(_set(["constructed_point", "cycle", 0], _flip_bit)),
    ],
    "sensitivity": [
        edit_export(_set(["achieved"], lambda v: str(int(v) - 1))),
        edit_export(_set(["point", "state"], _flip_bit)),
        edit_export(_set(["n"], lambda v: v + 1)),
    ],
    "steer_certificate": [
        edit_export(_set(["strongly_connected"], False)),
    ],
}


def fail(message: str):
    print(f"selftest FAILED: {message}", file=sys.stderr)
    sys.exit(1)


def run_workload(workload: str, work_dir: Path) -> int:
    plan = plans.build_plan(workload, SEED, work_dir / workload, SMALL_SIZES[workload])
    (work_dir / workload).mkdir(parents=True)
    rounds = Rounds(plan)
    rounds.run(0, 2)
    if rounds.mismatches:
        fail(f"{workload}: two rounds of the same plan differ")
    outputs, failures = rounds.last
    problems = checks.check_round(plan.jobs, outputs, failures)
    if problems:
        fail(f"{workload}: real outputs rejected: {problems}")

    tried = 0
    for job in plan.jobs:
        if job.name in failures:
            continue
        for corrupt in CORRUPTIONS[job.kind]:
            bad = dict(outputs, **{job.name: corrupt(outputs[job.name])})
            if not checks.check_round(plan.jobs, bad, failures):
                fail(f"{workload}: corruption #{CORRUPTIONS[job.kind].index(corrupt)} of {job.name} passed")
            tried += 1
    tried += check_failures(workload, plan, outputs, failures)
    tried += check_round_identity(plan)
    return tried


def check_failures(workload: str, plan, outputs, failures) -> int:
    """Only the known steering fault may fail, and a cipher table must be a bijection."""
    tried = 0
    for steering in (False, True):
        job = next((j for j in plan.jobs if j.name not in failures
                    and bool(j.inputs.get("steering")) == steering), None)
        if job is None:
            continue
        if not checks.check_round(plan.jobs, outputs, dict(failures, **{job.name: "RuntimeError: x"})):
            fail(f"{workload}: an unexpected failure of {job.name} passed")
        tried += 1
    tabled = [job for job in plan.jobs if "table" in job.inputs]
    if tabled:
        job = copy.copy(tabled[0])
        table = list(job.inputs["table"])
        table[0] = table[1]
        job.inputs = dict(job.inputs, table=tuple(table))
        jobs = [job if j is tabled[0] else j for j in plan.jobs]
        if not checks.bijection_problems(jobs):
            fail(f"{workload}: a cipher table that is not a bijection passed")
        tried += 1
    return tried


def check_round_identity(plan) -> int:
    rounds = Rounds(plan)
    name = plan.jobs[0].name
    raw, failures, _ = run_round(plan.jobs)
    rounds._record(raw, failures)
    rounds._record(raw, dict(failures, **{name: "RuntimeError: x"}))
    if rounds.mismatches != 1:
        fail("a round whose outputs differ from the first round's passed")
    return 1


def main() -> int:
    work_dir = ROOT / "perfbench" / "_work" / "selftest"
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        for workload in plans.WORKLOADS:
            tried = run_workload(workload, work_dir)
            print(f"{workload}: real outputs pass, {tried} corruptions rejected")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # a benchmark run still uses it
    return 0


if __name__ == "__main__":
    sys.exit(main())
