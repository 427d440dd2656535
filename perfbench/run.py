"""Benchmark for cbcdyn: run one workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload certificate --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; cbcdyn is imported from ``src/``. A run
repeats whole rounds (every job of the workload once) while the next round
should end less than half a round past ``--seconds``, and times at least
MIN_ROUNDS of them. It then checks the last round's outputs, and that
every round produced the same outputs. The last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: the time of one round, at the machine's reference speed. The
  first round is a warm-up; it splits the jobs into consecutive segments of
  at least SEGMENT_S. Every later round times each segment, and times a
  small fixed kernel at each segment boundary and, from a timer signal,
  every SAMPLE_INTERVAL_S inside the segment. A segment's time, less the
  time spent in the signal handler, divided by the mean kernel time around
  and inside it, is its time in kernel units. ``wall_s`` is the sum over
  segments of the median of these over the rounds, times KERNEL_REF_S, the
  kernel's time at full speed on the reference machine. The raw median
  round time goes to standard error;
* ``setup_s``: the median over SETUP_SAMPLES fresh interpreters of the time
  from process start to the first timed job (interpreter, imports and
  input generation), each rescaled the same way by kernel runs just before
  and after it;
* ``peak_rss_mb``.

``--trace 1`` spends half the time on untraced rounds and half on traced
ones. It reports the per-layer metrics (times from the fastest traced
round, peak memory from the largest, counts per round) and
``trace.overhead_s``, the traced minus the untraced ``wall_s``.
"""

from __future__ import annotations

import os

# One thread: keep numpy's BLAS pool from starting; inherited by set-up probes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_ROUNDS = 3
MIN_TRACE_ROUNDS = 2
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 60
READY = "ready"
SEGMENT_S = 0.1
SAMPLE_INTERVAL_S = 0.025
PROBE_KERNEL_RUNS = 4
KERNEL_TERMS = 300
# The kernel's fastest time on the reference machine (2 vCPUs, "Intel(R)
# Xeon(R) Processor", Python 3.11.7); it sets the scale of the times.
KERNEL_REF_S = 0.0007


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["certificate", "entropy", "orbits"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def work_dir_for(workload: str) -> Path:
    return ROOT / "perfbench" / "_work" / f"{workload}-{os.getpid()}"


class SetupProbes:
    """Set-up times of fresh interpreters, from start until the plan is ready.

    The probes are spread over the run, between rounds, so that they meet
    the same swings in machine speed as the rounds do.
    """

    def __init__(self, args):
        self.argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                     "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
        self.samples = []

    def take(self):
        before = [kernel_time() for _ in range(PROBE_KERNEL_RUNS)]
        started = time.perf_counter()
        with subprocess.Popen(self.argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as probe:
            line = probe.stdout.readline().strip()
            ready = time.perf_counter()
            probe.stdout.read()
            if probe.wait(timeout=SETUP_TIMEOUT_S) != 0 or line != READY:
                raise RuntimeError(f"set-up probe failed: {line!r}")
        after = [kernel_time() for _ in range(PROBE_KERNEL_RUNS)]
        self.samples.append((ready - started) * KERNEL_REF_S / statistics.mean(before + after))

    def keep_pace(self, done: float):
        """Take probes until their share of SETUP_SAMPLES matches the run's share done."""
        while len(self.samples) < min(SETUP_SAMPLES, 1 + int(done * SETUP_SAMPLES)):
            self.take()

    def median(self) -> float:
        while len(self.samples) < SETUP_SAMPLES:
            self.take()
        return statistics.median(self.samples)


def kernel_time() -> float:
    """One run of a fixed pure-Python kernel: the machine's speed now.

    The machine's speed swings by up to 1.7x within seconds; dividing a
    segment's time by the kernel's time around and inside it cancels most
    of that.
    """
    started = time.perf_counter()
    total = Fraction(0)
    for i in range(1, KERNEL_TERMS):
        total += Fraction(1, i)
    return time.perf_counter() - started


class SpeedSampler:
    """Times the kernel from a SIGALRM handler every SAMPLE_INTERVAL_S while active."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        started = time.perf_counter()
        self.samples.append(kernel_time())
        self.spent += time.perf_counter() - started

    def __enter__(self):
        self.samples, self.spent = [], 0.0
        self.previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)


def segment(job_times) -> list:
    """Split job indices into consecutive (start, stop) runs of at least SEGMENT_S."""
    segments, start, total = [], 0, 0.0
    for i, t in enumerate(job_times):
        total += t
        if total >= SEGMENT_S:
            segments.append((start, i + 1))
            start, total = i + 1, 0.0
    if start < len(job_times):
        segments.append((start, len(job_times)))
    return segments


def run_round(jobs):
    """Run every job once; returns the outputs, the failures and each job's time."""
    outputs, failures, times = {}, {}, []
    for job in jobs:
        started = time.perf_counter()
        try:
            outputs[job.name] = job.call()
        except Exception as exc:  # a failed operation is counted, never fatal
            failures[job.name] = f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - started)
    return outputs, failures, times


class Rounds:
    """Timed rounds plus the round-to-round identity of their outputs."""

    def __init__(self, plan):
        self.plan = plan
        self.count = 0
        self.failed = 0
        self.reference = None
        self.mismatches = 0
        self.last = None
        self.segments = None
        self.round_times = []

    def run(self, seconds: float, min_rounds: int, tracer=None, probes=None):
        """Timed rounds for about ``seconds``, after a warm-up round on first use.

        Returns the round time at the reference speed (see the module
        docstring) and the per-round layer figures.
        """
        started = time.perf_counter()
        if self.segments is None:
            raw, failures, job_times = run_round(self.plan.jobs)
            self._record(raw, failures)
            self.segments = segment(job_times)
        ratios = [[] for _ in self.segments]
        layer_rounds = []
        done, last = 0, 0.0
        # Start a round only if it should end less than half a round past ``seconds``.
        while done < min_rounds or time.perf_counter() - started + last / 2 <= seconds:
            round_started = time.perf_counter()
            if probes is not None:
                probes.keep_pace((time.perf_counter() - started) / seconds if seconds > 0 else 1.0)
            gc.collect()
            if tracer is not None:
                tracer.reset()
            raw, failures, round_time = {}, {}, 0.0
            before = kernel_time()
            for k, (lo, hi) in enumerate(self.segments):
                with SpeedSampler() as sampler:
                    seg_started = time.perf_counter()
                    outputs, failed, _ = run_round(self.plan.jobs[lo:hi])
                    seg_time = time.perf_counter() - seg_started - sampler.spent
                after = kernel_time()
                raw.update(outputs)
                failures.update(failed)
                round_time += seg_time
                ratios[k].append(seg_time / statistics.mean([before, *sampler.samples, after]))
                before = after
            self.round_times.append(round_time)
            done += 1
            last = time.perf_counter() - round_started
            if tracer is not None:
                layer_rounds.append(tracer.round_metrics())
            self._record(raw, failures)
        return KERNEL_REF_S * sum(map(statistics.median, ratios)), layer_rounds

    def _record(self, raw, failures):
        exports = {job.name: job.export(raw[job.name]) for job in self.plan.jobs if job.name in raw}
        fingerprint = json.dumps([exports, failures], sort_keys=True)
        if self.reference is None:
            self.reference = fingerprint
        elif fingerprint != self.reference:
            self.mismatches += 1
        self.count += 1
        self.failed += len(failures)
        self.last = (exports, failures)


def result_line(correct: bool, rounds: Rounds, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": rounds.count * len(rounds.plan.jobs),
        "failed": rounds.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })


def layer_unit(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    return "count"


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "cbcdyn" / "__init__.py").is_file():
        print(f"error: cbcdyn sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks
    import plans

    work_dir = work_dir_for(args.workload)
    plan = plans.build_plan(args.workload, args.seed, work_dir)
    if args.setup_probe:
        print(READY, flush=True)
        return 0

    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        rounds = Rounds(plan)
        if args.trace:
            from tracer import Tracer

            plain_s, _ = rounds.run(args.seconds / 2, MIN_TRACE_ROUNDS)
            tracer = Tracer()
            tracer.install()
            try:
                traced_s, layer_rounds = rounds.run(args.seconds / 2, MIN_TRACE_ROUNDS, tracer)
            finally:
                tracer.uninstall()
            metrics = {}
            for name in layer_rounds[0]:
                unit = layer_unit(name)
                pick = {"s": min, "MB": max}.get(unit, statistics.median_low)
                metrics[name] = (pick(r[name] for r in layer_rounds), unit)
            metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
        else:
            probes = SetupProbes(args)
            wall_s, _ = rounds.run(args.seconds, MIN_ROUNDS, probes=probes)
            metrics = {
                "wall_s": (wall_s, "s"),
                "setup_s": (probes.median(), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
        exports, failures = rounds.last
        problems = checks.check_round(plan.jobs, exports, failures)
        if rounds.mismatches:
            problems.append(f"{rounds.mismatches} rounds produced outputs unlike the first round's")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    print(f"raw: median round {statistics.median(rounds.round_times):.4f} s over "
          f"{len(rounds.round_times)} timed rounds of {len(rounds.segments)} segments",
          file=sys.stderr)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(result_line(not problems, rounds, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
