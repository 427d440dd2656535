"""Per-layer spans and counters, recorded from the benchmark's side.

``Tracer.install`` replaces each traced cbcdyn function by a wrapper in
every cbcdyn module (and the package namespace) that binds it, so calls
between modules are caught too; ``uninstall`` puts the originals back.
A span's self time is its duration minus the durations of the traced spans
it directly contains. Graph spans also sample the process's resident set
size from /proc/self/statm, on a helper thread that runs only while a
graph span is open, and report the peak growth over the span's start.
Before the first sample, glibc's ``malloc_trim`` hands memory freed by
earlier rounds back to the system, so that reused heap pages do not hide
the growth. (tracemalloc would report allocations exactly, but it made the
Tarjan span on the complete 12-bit graph about 13 times slower and 2.5 GB
large.)
"""

from __future__ import annotations

import ctypes
import ctypes.util
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import cbcdyn.chaoslab
import cbcdyn.cipher
import cbcdyn.cli
import cbcdyn.dynamics
import cbcdyn.graph
import cbcdyn.metric

# (layer, function) pairs that get a span.
SPANS = (
    ("cli", "run_command"),
    ("cli", "write_report"),
    ("cipher", "make_cipher"),
    ("dynamics", "iterate"),
    ("dynamics", "state_after"),
    ("metric", "distance"),
    ("metric", "bowen_distance"),
    ("metric", "in_ball"),
    ("graph", "build_graph"),
    ("graph", "strongly_connected"),
    ("chaoslab", "separated_set"),
    ("chaoslab", "entropy_profile"),
    ("chaoslab", "mixing_witness"),
    ("chaoslab", "sensitivity_witness"),
    ("chaoslab", "expansivity_probe"),
)
MEMORY_SPANS = ("graph.build_graph", "graph.strongly_connected")
SAMPLE_INTERVAL_S = 0.002

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def _load_malloc_trim():
    try:
        trim = ctypes.CDLL(ctypes.util.find_library("c")).malloc_trim
    except (OSError, AttributeError, TypeError):
        return lambda: None  # not glibc: growth may be understated
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return lambda: trim(0)


_malloc_trim = _load_malloc_trim()


def _rss_mb() -> float:
    with open("/proc/self/statm", "rb") as f:
        return int(f.read().split()[1]) * _PAGE_MB


class _RssSampler:
    """Peak RSS growth while open, sampled on a helper thread."""

    def __enter__(self):
        _malloc_trim()
        self.start = self.peak = _rss_mb()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def _run(self):
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            self.peak = max(self.peak, _rss_mb())

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, _rss_mb())
        return False

    @property
    def growth_mb(self) -> float:
        return self.peak - self.start


def _counters(name: str, args, kwargs, result) -> dict:
    """Work counts taken from a span's arguments or result."""
    if name == "dynamics.iterate":
        return {"dynamics.iterate.steps": args[2] if len(args) > 2 else kwargs["n"]}
    if name == "chaoslab.separated_set":
        return {"chaoslab.separated_set.kept": result.cardinality}
    if name == "graph.build_graph":
        return {"graph.build_graph.edges": result.edge_count}
    if name == "graph.strongly_connected":
        return {"graph.scc_count": len(result[1])}
    if name == "cli.write_report":
        return {"cli.report_bytes": Path(result).stat().st_size}
    return {}


class Tracer:
    """Accumulates self time, calls, failures and counters for one round."""

    def __init__(self):
        self._patched = []
        self.reset()

    def reset(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.failed = defaultdict(int)
        self.counts = defaultdict(int)
        self.peak_mb = defaultdict(float)
        self._stack = []

    def _wrap(self, name: str, original):
        def traced(*args, **kwargs):
            stack = self._stack
            child = [0.0]
            stack.append(child)
            sampler = _RssSampler() if name in MEMORY_SPANS else None
            started = time.perf_counter()
            try:
                if sampler is None:
                    result = original(*args, **kwargs)
                else:
                    with sampler:
                        result = original(*args, **kwargs)
            except BaseException:
                self.failed[name] += 1
                raise
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self.self_s[name] += elapsed - child[0]
                self.calls[name] += 1
                if sampler is not None:
                    self.peak_mb[name] = max(self.peak_mb[name], sampler.growth_mb)
            for key, value in _counters(name, args, kwargs, result).items():
                self.counts[key] += value
            return result

        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "cbcdyn" or n.startswith("cbcdyn.")]
        for layer, fn in SPANS:
            original = getattr(sys.modules[f"cbcdyn.{layer}"], fn)
            wrapper = self._wrap(f"{layer}.{fn}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)
        config = cbcdyn.dynamics.SystemConfig
        original_post_init = config.__post_init__
        self._patched.append((config, "__post_init__", original_post_init))
        config.__post_init__ = self._wrap("dynamics.system_config", original_post_init)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def round_metrics(self) -> dict:
        """This round's per-layer figures, by metric name."""
        s, calls = self.self_s, self.calls
        return {
            "metric.distance.s": s["metric.distance"],
            "metric.distance.calls": calls["metric.distance"],
            "metric.bowen_distance.s": s["metric.bowen_distance"],
            "metric.in_ball.calls": calls["metric.in_ball"],
            "chaoslab.separated_set.s": s["chaoslab.separated_set"],
            "chaoslab.separated_set.kept": self.counts["chaoslab.separated_set.kept"],
            "chaoslab.entropy_profile.s": s["chaoslab.entropy_profile"],
            "dynamics.iterate.s": s["dynamics.iterate"],
            "dynamics.iterate.steps": self.counts["dynamics.iterate.steps"],
            "dynamics.state_after.s": s["dynamics.state_after"],
            "dynamics.system_config.s": s["dynamics.system_config"],
            "cipher.make_cipher.s": s["cipher.make_cipher"],
            "cipher.make_cipher.calls": calls["cipher.make_cipher"],
            "graph.build_graph.s": s["graph.build_graph"],
            "graph.build_graph.edges": self.counts["graph.build_graph.edges"],
            "graph.build_graph.peak_alloc_mb": self.peak_mb["graph.build_graph"],
            "graph.strongly_connected.s": s["graph.strongly_connected"],
            "graph.strongly_connected.peak_alloc_mb": self.peak_mb["graph.strongly_connected"],
            "graph.scc_count": self.counts["graph.scc_count"],
            "chaoslab.mixing_witness.s": s["chaoslab.mixing_witness"],
            "chaoslab.mixing_witness.calls": calls["chaoslab.mixing_witness"],
            "chaoslab.mixing_witness.failed": self.failed["chaoslab.mixing_witness"],
            "chaoslab.sensitivity_witness.s": s["chaoslab.sensitivity_witness"],
            "chaoslab.sensitivity_witness.failed": self.failed["chaoslab.sensitivity_witness"],
            "chaoslab.expansivity_probe.s": s["chaoslab.expansivity_probe"],
            "cli.run_command.self_s": s["cli.run_command"],
            "cli.write_report.s": s["cli.write_report"],
            "cli.report_bytes": self.counts["cli.report_bytes"],
        }
