"""The benchmark's trace hooks still find every gridflow name they wrap.

perfbench/tracing.py wraps functions at the module that looks them up, so a
refactor that renames or drops one of those bindings breaks a traced
benchmark run; this test makes that break show in the test suite instead.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_trace_hooks_install():
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", "import tracing; tracing.install(tracing.Tracer())"],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
