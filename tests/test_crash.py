"""A submit killed with SIGKILL mid-run resumes, in a fresh process, to the
checkpoints and results of an uninterrupted run with the same seed.

The child wraps ContentStore.checkpoint so that the kill lands at a fixed
point: right after the 2nd checkpoint, or halfway through writing the 3rd
checkpoint's journal record (a torn tail). Nothing here depends on timing.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from gridflow.dsl import emit_dsl
from gridflow.simgrid import build_case_study

SRC = Path(__file__).resolve().parent.parent / "src"

CHILD = """
import json, os, signal, sys
from gridflow import storage
from gridflow.cli import run_cli

mode, kill_at = sys.argv[1], int(sys.argv[2])
real, done = storage.ContentStore.checkpoint, []

def checkpoint(self, run_id, activity_id, key):
    if mode == "torn" and len(done) + 1 == kill_at:
        record = json.dumps(["ckpt", activity_id, key.sequence, key.hash]).encode()
        with open(self.journal(run_id), "ab") as fh:
            fh.write(record[: len(record) // 2])
        os.kill(os.getpid(), signal.SIGKILL)
    state = real(self, run_id, activity_id, key)
    done.append(key)
    if mode == "after" and len(done) == kill_at:
        os.kill(os.getpid(), signal.SIGKILL)
    return state

storage.ContentStore.checkpoint = checkpoint
sys.exit(run_cli(sys.argv[3:]))
"""


def gridflow(*argv, child=None):
    """Run the CLI in a fresh process; `child` = (mode, n) arms the kill."""
    prefix = ["-c", CHILD, *child] if child else ["-m", "gridflow.cli"]
    return subprocess.run(
        [sys.executable, *prefix, *map(str, argv)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )


def outcome(store, run_id):
    proc = gridflow("report", run_id, "--store", store, "--json", "--deterministic")
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    return data["status"], data["checkpoints"], data["results"]


@pytest.fixture(scope="module")
def flow(tmp_path_factory):
    path = tmp_path_factory.mktemp("flow") / "case.flow"
    path.write_text(emit_dsl(build_case_study(cells=6, walkers=3, steps=12)), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def reference(flow, tmp_path_factory):
    store = tmp_path_factory.mktemp("reference") / "store"
    proc = gridflow("submit", flow, "--store", store, "--user", "ada", "--seed", "3")
    assert (proc.returncode, proc.stdout) == (0, "run-0001\n"), proc.stderr
    return outcome(store, "run-0001")


@pytest.mark.parametrize("mode", ["after", "torn"])
def test_killed_submit_resumes_to_the_uninterrupted_result(flow, reference, tmp_path, mode):
    store = tmp_path / "store"
    killed = gridflow("submit", flow, "--store", store, "--user", "ada", "--seed", "3",
                      child=(mode, "2" if mode == "after" else "3"))
    assert killed.returncode == -signal.SIGKILL, killed.stderr
    journal = store / "runs" / "run-0001.log"
    lines = journal.read_bytes().split(b"\n")[:-1]  # complete lines only
    assert sum(line.startswith(b'["ckpt"') for line in lines) == 2
    assert journal.read_bytes().endswith(b"\n") == (mode == "after")
    audit = gridflow("store", "audit", "--store", store)
    assert audit.returncode == (0 if mode == "after" else 2), audit.stdout

    resumed = gridflow("resume", "run-0001", "--store", store)
    assert (resumed.returncode, resumed.stdout) == (0, "run-0001\n"), resumed.stderr
    assert outcome(store, "run-0001") == reference
    assert reference[0] == "completed"
    assert gridflow("store", "audit", "--store", store).stdout == "clean\n"
