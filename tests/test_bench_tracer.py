"""The benchmark's tracer still finds every binding it wraps, and its
output checkers still flag the faults they are aimed at.

`perfbench/tracing.py` patches functions of the package at the names their
callers look up (`sweeps.verify_blurry`, `sweeps.triangle_minor`, ...).  A
refactor that drops one of those bindings makes `install` raise, and every
traced benchmark run fails, while the rest of the suite still passes.
`install` patches modules for good, so it runs in a fresh interpreter, and
so does `perfbench/run.py --selftest`, which runs the fault-injected thm31
sweep and a tampered certificate through the checkers and writes only under
`.bench_build/`.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTALL = """
import sys
from pathlib import Path
sys.path[:0] = sys.argv[1:3]
import tracing
tracing.install(tracing.Tracer(Path(sys.argv[3])))
"""


def test_benchmark_tracer_installs(tmp_path):
    argv = [sys.executable, "-c", INSTALL, str(ROOT / "perfbench"), str(ROOT / "src"), str(tmp_path / "spool")]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_benchmark_selftest_passes():
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--selftest"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert done.returncode == 0, done.stdout + done.stderr
    assert '{"selftest": "passed"}' in done.stdout
