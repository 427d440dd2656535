"""The library API that perfbench/ calls: its self-test runs, and its tracer finds every span it wraps.

perfbench/ is frozen with the benchmark, so a renamed function, or a point
constructor that refuses the ``BlockVector`` states perfbench/plans.py
builds, must fail here rather than only in a traced benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_python(*args):
    return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=300)


def test_selftest_passes():
    result = run_python("perfbench/selftest.py")
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]


def test_tracer_installs_and_uninstalls():
    script = (
        "import sys; sys.path[:0] = ['perfbench', 'src']\n"
        "from tracer import Tracer\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "tracer.uninstall()\n"
    )
    result = run_python("-c", script)
    assert result.returncode == 0, result.stderr[-2000:]
