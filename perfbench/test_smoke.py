"""Fast checks of the benchmark itself, at smoke sizes.

    python3 -m pytest perfbench -q

The repository's own test run collects only tests/, so these run on demand.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from run import WORKLOADS  # noqa: E402
from tracing import EXACT  # noqa: E402


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], capture_output=True,
                          text=True, cwd=cwd, timeout=600)


def result(proc) -> dict:
    return json.loads(proc.stdout.splitlines()[-1])


def test_every_workload_reports_every_metric_and_checks_outputs():
    proc = bench("--all", "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_exact_counts_repeat_across_two_traced_runs():
    for workload in WORKLOADS:
        runs = [result(bench("--workload", workload, "--smoke", "--trace", "1", "--seed", "7"))
                for _ in range(2)]
        first, second = ({k: r["metrics"][k]["value"] for k in EXACT} for r in runs)
        assert first == second, workload


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "store-churn", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
