"""A run survives a killed process, and one process at a time drives it.

A submit killed with SIGKILL mid-run resumes, in a fresh process, to the
checkpoints and results of an uninterrupted run with the same seed. The
child wraps ContentStore.checkpoint so that the kill lands at a fixed
point: right after the 2nd checkpoint, or halfway through writing the 3rd
checkpoint's journal record (a torn tail). A child can also park right
after a checkpoint until the test lets it go, which pins a resume of the
run it drives to that point. Neither depends on timing.

In process, without a kill, a resume from every prefix of a journal (whole
lines, and whole lines plus half the next) and from every fault point gives
the uninterrupted run's status, checkpoints, results and counters.
"""

import hashlib
import json
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from gridflow.cli import run_cli
from gridflow.dsl import emit_dsl
from structure import case_study

SRC = Path(__file__).resolve().parent.parent / "src"
ENV = dict(os.environ, PYTHONPATH=str(SRC))

CHILD = """
import json, os, signal, sys, time
from gridflow import storage
from gridflow.cli import run_cli

mode, at = sys.argv[1], int(sys.argv[2])
real, done = storage.ContentStore.checkpoint, []

def checkpoint(self, run_id, activity_id, ds):
    if mode == "torn" and len(done) + 1 == at:
        seq = self._drives[run_id].next_seq.get(activity_id, 0)
        record = json.dumps(["ckpt", activity_id, seq, ds.id]).encode()
        with open(self.journal(run_id), "ab") as fh:
            fh.write(record[: len(record) // 2])
        os.kill(os.getpid(), signal.SIGKILL)
    key = real(self, run_id, activity_id, ds)
    done.append(key)
    if mode == "after" and len(done) == at:
        os.kill(os.getpid(), signal.SIGKILL)
    if mode == "park" and len(done) == at:  # handshake files beside the store
        (self.root.parent / "parked").touch()
        deadline = time.monotonic() + 120
        while not (self.root.parent / "go").exists() and time.monotonic() < deadline:
            time.sleep(0.01)
    return key

storage.ContentStore.checkpoint = checkpoint
sys.exit(run_cli(sys.argv[3:]))
"""


def command(*argv, child=None):
    """A CLI call in a fresh process; `child` = (mode, n) arms the wrapper."""
    prefix = ["-c", CHILD, *child] if child else ["-m", "gridflow.cli"]
    return [sys.executable, *prefix, *map(str, argv)]


def gridflow(*argv, child=None):
    return subprocess.run(
        command(*argv, child=child), env=ENV, capture_output=True, text=True, timeout=120
    )


def outcome(store, run_id):
    proc = gridflow("report", run_id, "--store", store, "--json", "--deterministic")
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    return data["status"], data["checkpoints"], data["results"]


@pytest.fixture(scope="module")
def flow(tmp_path_factory):
    path = tmp_path_factory.mktemp("flow") / "case.flow"
    path.write_text(emit_dsl(case_study(cells=6, n_helium=3, steps=12)), encoding="utf-8")
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


def resume_when_released(barrier, store):
    """One racer: wait for the other at the barrier, then resume run-0001."""
    barrier.wait(timeout=120)
    sys.exit(run_cli(["resume", "run-0001", "--store", store]))


def test_two_racing_resumes_drive_the_run_once(flow, reference, tmp_path):
    store = tmp_path / "store"
    failed = gridflow("submit", flow, "--store", store, "--user", "ada", "--seed", "3",
                      "--fail-at", "md:1")
    assert (failed.returncode, failed.stdout) == (2, "run-0001\n"), failed.stderr
    spawn = multiprocessing.get_context("spawn")
    barrier = spawn.Barrier(2)
    racers = [spawn.Process(target=resume_when_released, args=(barrier, str(store)))
              for _ in range(2)]
    for racer in racers:
        racer.start()
    for racer in racers:
        racer.join(timeout=120)
    assert not any(racer.is_alive() for racer in racers)
    assert sorted(racer.exitcode for racer in racers) == [0, 1]
    assert outcome(store, "run-0001") == reference


def test_resume_of_a_run_another_process_drives_exits_1(flow, reference, tmp_path):
    store, parked = tmp_path / "store", tmp_path / "parked"
    argv = ("submit", flow, "--store", store, "--user", "ada", "--seed", "3")
    with subprocess.Popen(command(*argv, child=("park", "2")), env=ENV, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
        try:
            deadline = time.monotonic() + 120
            while not parked.exists():
                assert child.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
            resumed = gridflow("resume", "run-0001", "--store", store)
        finally:
            (tmp_path / "go").touch()
        out, err = child.communicate(timeout=120)
    assert (resumed.returncode, resumed.stdout) == (1, "")
    assert resumed.stderr == "error: run run-0001 is being driven by another process\n"
    assert (child.returncode, out) == (0, "run-0001\n"), err
    assert outcome(store, "run-0001") == reference


LOOP = Path(__file__).resolve().parent.parent / "corpus" / "sound" / "loop_converge.flow"


def collapsed(trace, replayed):
    """An uninterrupted run's trace as a re-drive writes it when the firings
    `replayed` were committed: each one's staged, launch and submitted
    events go, and its completed event becomes one replayed event."""
    out, launching, firing_of = [], [], {}
    for event in trace:
        if event[0] in ("staged", "launch"):  # a launch's events run up to its submitted one
            launching.append(event)
        elif event[0] == "submitted":
            firing_of[event[2]] = (event[1], int(event[3]))
            if firing_of[event[2]] not in replayed:
                out += launching + [event]
            launching = []
        elif event[0] == "completed" and firing_of[event[2]] in replayed:
            out.append(["replayed", event[1], event[3]])
        else:
            out.append(event)
    return out


def test_a_long_loop_resumes_to_the_uninterrupted_result(tmp_path):
    # 500 firings make a journal of over 500 lines; every command reads it
    # in a new process, and resume after a fault at firing 400
    argv = ("submit", LOOP, "--user", "ci", "--seed", "1",
            "--param", "converge_after=500", "--max-iterations", "1000")
    whole = gridflow(*argv, "--store", tmp_path / "whole")
    assert (whole.returncode, whole.stdout) == (0, "run-0001\n"), whole.stderr
    failed = gridflow(*argv, "--store", tmp_path / "store", "--fail-at", "work:400")
    assert (failed.returncode, failed.stdout) == (2, "run-0001\n"), failed.stderr
    resumed = gridflow("resume", "run-0001", "--store", tmp_path / "store")
    assert (resumed.returncode, resumed.stdout) == (0, "run-0001\n"), resumed.stderr
    expected = outcome(tmp_path / "whole", "run-0001")
    assert outcome(tmp_path / "store", "run-0001") == expected
    assert expected[0] == "completed" and len(expected[1]) == 500
    digests, reports = [], []
    for store in ("whole", "store"):
        proc = gridflow("report", "run-0001", "--store", tmp_path / store, "--json", "--deterministic")
        digests.append(hashlib.sha256(proc.stdout.encode()).hexdigest())
        reports.append(json.loads(proc.stdout))
    assert digests == [  # the resumed report differs only in its replayed entries and trace
        "d10a757a28a796461294ace251345b43e892839f62ba7a0a5feefa23be7eeabf",
        "01f877b1fad2a37b06ff969c7eb9d96d894c06132999a938d6af305d1c0447c6",
    ]
    whole, resumed = reports
    # the re-drive gives each firing the uninterrupted run's job id and ticks
    assert [e[:7] for e in resumed["entries"]] == [e[:7] for e in whole["entries"]]
    assert [e[7] for e in resumed["entries"]] == [e[1] < 400 for e in whole["entries"]]
    assert resumed["trace"] == collapsed(whole["trace"], {("work", n) for n in range(1, 400)})
    assert gridflow("store", "audit", "--store", tmp_path / "store").stdout == "clean\n"


FORK = Path(__file__).resolve().parent.parent / "corpus" / "sound" / "fork_of_loops.flow"


def cli(capsys, *argv):
    """One CLI call in this process: (exit code, stdout, stderr)."""
    code = run_cli([str(arg) for arg in argv])
    return (code, *capsys.readouterr())


def result(capsys, store):
    """What a resume must reproduce: status, checkpoints, results and counters."""
    code, out, err = cli(capsys, "report", "run-0001", "--store", store, "--json", "--deterministic")
    assert code == 0, err
    data = json.loads(out)
    return data["status"], data["checkpoints"], data["results"], data["counters"]


def submitted(capsys, flow, store, *argv):
    code, out, err = cli(capsys, "submit", flow, "--store", store, "--user", "ada", "--seed", "3", *argv)
    assert out == "run-0001\n", err
    return code


@pytest.mark.parametrize("which", ["fork_of_loops", "case_study"])
def test_a_resume_from_every_journal_prefix_reproduces_the_run(which, flow, tmp_path, capsys):
    path = FORK if which == "fork_of_loops" else flow
    reference = tmp_path / "reference"
    assert submitted(capsys, path, reference) == 0
    expected = result(capsys, reference)
    lines = (reference / "runs" / "run-0001.log").read_bytes().splitlines(keepends=True)
    refused, matched = [], 0
    for k in range(1, len(lines)):
        for tail in (b"", lines[k][: len(lines[k]) // 2]):
            store = tmp_path / "cut"
            shutil.copytree(reference, store)
            (store / "runs" / "run-0001.log").write_bytes(b"".join(lines[:k]) + tail)
            code, out, err = cli(capsys, "resume", "run-0001", "--store", store)
            if err == "error: run run-0001: journal is empty or incomplete\n":
                # no status record: the submitter that claimed the run may still drive it
                assert (code, out) == (2, "")
                refused.append((k, bool(tail)))
            else:
                assert (code, out, err) == (0, "run-0001\n", ""), (k, tail)
                assert result(capsys, store) == expected, (k, tail)
                matched += 1
            shutil.rmtree(store)
    assert refused == [(1, False), (1, True)]
    assert matched == 2 * len(lines) - 4


def test_a_resume_after_every_fault_point_reproduces_the_run(tmp_path, capsys):
    reference = tmp_path / "reference"
    assert submitted(capsys, FORK, reference) == 0
    expected = result(capsys, reference)
    out = cli(capsys, "report", "run-0001", "--store", reference, "--json")[1]
    firings = [(e[0], e[1]) for e in json.loads(out)["entries"]]
    assert len(firings) == 25
    for activity, firing in firings:
        store = tmp_path / f"{activity}-{firing}"
        assert submitted(capsys, FORK, store, "--fail-at", f"{activity}:{firing}") == 2
        assert cli(capsys, "resume", "run-0001", "--store", store)[:2] == (0, "run-0001\n")
        assert result(capsys, store) == expected, (activity, firing)


def test_a_journal_with_a_put_before_each_ckpt_reads_and_resumes(flow, tmp_path, capsys):
    # journals written before a ckpt filed its own dataset hold a put of the
    # same (activity, seq, hash) right before each ckpt
    whole, store = tmp_path / "whole", tmp_path / "store"
    assert submitted(capsys, flow, whole) == 0
    expected = result(capsys, whole)
    assert submitted(capsys, flow, store, "--fail-at", "md:1") == 2
    journal = store / "runs" / "run-0001.log"
    lines = journal.read_bytes().splitlines(keepends=True)
    reports = [cli(capsys, "report", "run-0001", "--store", store, *argv) for argv in ((), ("--json",))]
    old, twins = [], []
    for line in lines:
        record = json.loads(line)
        if record[0] == "ckpt":
            twins.append(json.dumps(["put", *record[1:]], separators=(",", ":")).encode() + b"\n")
            old.append(twins[-1])
        old.append(line)
    assert len(twins) == 3 and not set(twins) & set(lines)  # lattice, cbmc, gcmc
    journal.write_bytes(b"".join(old))
    assert [cli(capsys, "report", "run-0001", "--store", store, *argv)
            for argv in ((), ("--json",))] == reports
    assert cli(capsys, "store", "audit", "--store", store) == (0, "clean\n", "")
    assert cli(capsys, "resume", "run-0001", "--store", store) == (0, "run-0001\n", "")
    assert journal.read_bytes().startswith(b"".join(old))
    assert result(capsys, store) == expected
    assert cli(capsys, "store", "audit", "--store", store) == (0, "clean\n", "")
