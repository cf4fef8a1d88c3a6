"""Exit codes, stream separation, and subcommand behavior of the CLI."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gridflow import model, simgrid
from gridflow.cli import run_cli
from gridflow.dsl import emit_dsl, parse
from gridflow.resources import Calculator, render_descriptor_xml
from gridflow.simgrid import parse_lattice_native, standard_registry
from structure import case_study
from test_corpus import CORPUS
from test_model import crossed_fork_of_loops_graph, join_deadlock_graph

CASE_KW = dict(cells=6, n_helium=3, steps=12)

EXOTIC_FLOW = """\
workflow "exotic-flow" {
  start -> a;
  activity a {
    capabilities: [exotic];
    params: [x = "1.0"];
  }
  a -> end;
}
"""

DANGLING_JOIN = """\
workflow "dangling" {
  start -> a;
  activity a { capabilities: [sim]; }
  join j waits (a) -> b;
  activity b { capabilities: [sim]; }
  b -> end;
}
"""


@pytest.fixture
def run(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("GRIDFLOW_STORE", str(tmp_path / "store"))
    monkeypatch.chdir(tmp_path)

    def call(*argv):
        code = run_cli([str(a) for a in argv])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return call


@pytest.fixture
def case_file(tmp_path):
    path = tmp_path / "case.flow"
    path.write_text(emit_dsl(case_study(**CASE_KW)), encoding="utf-8")
    return path


@pytest.fixture
def deadlock_file(tmp_path):
    path = tmp_path / "deadlock.flow"
    path.write_text(emit_dsl(join_deadlock_graph()), encoding="utf-8")
    return path


class TestVerify:
    def test_sound_file(self, run, case_file):
        code, out, err = run("verify", case_file)
        assert (code, out, err) == (0, "sound\n", "")

    def test_unsound_file_lists_findings(self, run, deadlock_file):
        code, out, _ = run("verify", deadlock_file)
        assert code == 1
        assert "JoinDeadlock(j)" in out

    def test_json_shapes(self, run, case_file, deadlock_file):
        code, out, _ = run("verify", case_file, "--json")
        assert code == 0
        # the study reduces to blocks, so it plays no token game
        assert json.loads(out) == {
            "workflow": "helium-diffusion-study",
            "mode": "exhaustive",
            "states": 0,
            "sound": True,
            "findings": [],
        }
        game = model._TokenGame(parse(case_file.read_text(encoding="utf-8")), 100)
        assert game.explore() == ("exhaustive", set(), 7)
        code, out, _ = run("verify", deadlock_file, "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["sound"] is False
        assert "JoinDeadlock" in {f["kind"] for f in payload["findings"]}

    def test_graph_over_the_decision_limit_is_refused(self, run):
        # 13 decisions get the whole token game, which finds the deadlock
        path = CORPUS / "unsound" / "decision_limit_deadlock.flow"
        code, out, _ = run("verify", path)
        assert (code, out) == (1, "JoinDeadlock(j): waits on an input that never arrives\n")
        code, out, err = run("submit", path, "--user", "ada")
        assert (code, out) == (1, "")
        assert "JoinDeadlock(j)" in err

    def test_stopped_search_is_refused(self, run, tmp_path, monkeypatch):
        monkeypatch.setattr(model, "STATE_BUDGET", 100)
        path = tmp_path / "crossed-fork-of-loops.flow"
        path.write_text(emit_dsl(crossed_fork_of_loops_graph(8)), encoding="utf-8")
        code, out, _ = run("verify", path, "--json")
        assert code == 1
        assert json.loads(out) == {
            "workflow": "crossed-fork-of-8-loops",
            "mode": "bounded",
            "states": 100,
            "sound": False,
            "findings": [{"kind": "TooManyStates", "subject": "crossed-fork-of-8-loops",
                          "detail": "token game stopped at its budget of 100 states"}],
        }
        code, out, err = run("submit", path, "--user", "ada")
        assert (code, out) == (1, "")
        assert "TooManyStates(crossed-fork-of-8-loops)" in err

    def test_construction_violations_reported(self, run, tmp_path):
        path = tmp_path / "dangling.flow"
        path.write_text(DANGLING_JOIN, encoding="utf-8")
        code, out, _ = run("verify", path)
        assert code == 1
        assert "BadDegree" in out
        code, out, _ = run("verify", path, "--json")
        payload = json.loads(out)
        assert payload["sound"] is False
        assert "BadDegree" in {f["kind"] for f in payload["findings"]}

    def test_syntax_error_goes_to_stderr(self, run, tmp_path):
        path = tmp_path / "broken.flow"
        path.write_text('workflow "x" {', encoding="utf-8")
        code, out, err = run("verify", path)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_missing_file(self, run):
        code, _, err = run("verify", "no-such.flow")
        assert code == 1
        assert "not found" in err


class TestExport:
    def test_dot(self, run, case_file):
        code, out, _ = run("export", case_file, "--to", "dot")
        assert code == 0
        assert out.startswith("digraph")

    def test_plan(self, run, case_file):
        code, out, _ = run("export", case_file, "--to", "plan")
        assert code == 0
        assert out.splitlines()[0] == "seq"
        assert "run lattice" in out

    def test_xml_is_byte_deterministic(self, run, case_file):
        first = run("export", case_file, "--to", "xml")
        second = run("export", case_file, "--to", "xml")
        assert first == second
        assert first[0] == 0
        assert "<" in first[1]

    def test_crossing_regions_refuse_a_plan(self, run, tmp_path):
        from test_model import crossing_graph

        path = tmp_path / "crossing.flow"
        path.write_text(emit_dsl(crossing_graph()), encoding="utf-8")
        code, _, err = run("export", path, "--to", "plan")
        assert code == 1
        assert "error:" in err

    def test_loop_closed_by_a_second_decision_refuses_a_plan(self, run):
        # verify calls it sound; its plan used to recurse without bound (exit 3)
        path = CORPUS / "sound" / "decision_pair_loop.flow"
        assert run("verify", path) == (0, "sound\n", "")
        code, out, err = run("export", path, "--to", "plan")
        assert (code, out, err) == (1, "", "error: decision d1: branch via d2 stops at d2\n")

    def test_fork_of_loops_is_a_plan_of_loops(self, run):
        path = CORPUS / "sound" / "fork_of_loops.flow"
        code, out, _ = run("verify", path, "--json")
        assert code == 0
        assert json.loads(out) == {"workflow": "fork-of-loops", "mode": "exhaustive",
                                   "states": 0, "sound": True, "findings": []}
        code, out, err = run("export", path, "--to", "plan")
        assert (code, err) == (0, "")
        assert out.splitlines()[:2] == ["seq", "  parmap -> reduce at j"]
        assert out.count("loop c") == 8


class TestSubmit:
    def test_prints_run_id(self, run, case_file):
        code, out, err = run("submit", case_file, "--user", "ada", "--seed", 3)
        assert (code, err) == (0, "")
        run_id = out.strip()
        code, out, _ = run("report", run_id)
        assert code == 0
        assert "status:    completed" in out

    def test_commercial_user_blocked(self, run, case_file):
        code, out, err = run("submit", case_file, "--user", "bob:commercial")
        assert code == 1
        assert out == ""
        assert "licensed" in err

    def test_requires_a_user(self, run, case_file):
        code, _, err = run("submit", case_file)
        assert code == 1
        assert "--user" in err

    def test_bad_param_syntax(self, run, case_file):
        code, _, err = run("submit", case_file, "--user", "ada", "--param", "oops")
        assert code == 1
        assert "key=value" in err

    def test_bad_fault_syntax(self, run, case_file):
        for bad in ("md", "md:x", "md:0"):
            code, _, err = run(
                "submit", case_file, "--user", "ada", "--fail-at", bad
            )
            assert code == 1
            assert "fault" in err

    @pytest.mark.parametrize("flow", ["case_file", "deadlock_file"])
    def test_negative_loop_budget_is_a_usage_error(self, run, flow, request):
        # a negative budget forbids every move, so verify would see no deadlock
        path = request.getfixturevalue(flow)
        code, out, err = run("submit", path, "--user", "ada", "--max-iterations", -1)
        assert (code, out) == (1, "")
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "--max-iterations" in errors[0], err

    def test_zero_loop_budget_is_valid(self, run, case_file):
        code, out, err = run("submit", case_file, "--user", "ada", "--max-iterations", 0)
        assert (code, err) == (0, "")
        assert out.startswith("run-")

    def test_bad_affiliation(self, run, case_file):
        code, _, err = run("submit", case_file, "--user", "ada:sovereign")
        assert code == 1
        assert "affiliation" in err

    def test_fault_then_resume(self, run, case_file):
        code, out, err = run(
            "submit", case_file, "--user", "ada", "--seed", 3, "--fail-at", "md:1"
        )
        assert code == 2
        run_id = out.strip()
        assert run_id.startswith("run-")
        assert "md" in err
        code, out, _ = run("resume", run_id)
        assert code == 0
        assert out.strip() == run_id
        code, out, _ = run("report", run_id, "--json")
        report = json.loads(out)
        assert report["status"] == "completed"
        assert dict(report["counters"]) == {
            "lattice": 1, "cbmc": 1, "gcmc": 1, "md": 1, "analysis": 1,
        }

    @pytest.mark.parametrize("flow, argv, says", [
        ("case", ["--user", "ada", "--fail-at", "zzz:1"], "'zzz'"),
        ("unreachable", ["--user", "ada"], "is not sound"),
        ("case", ["--user", "bob:commercial"], "admits only academically licensed"),
        ("case", ["--user", "ada:imperial"], "unknown affiliation: 'imperial'"),
    ], ids=["unknown-fault", "unsound", "commercial", "imperial"])
    def test_a_refused_submit_claims_no_run(self, run, case_file, tmp_path, flow, argv, says):
        path = case_file if flow == "case" else CORPUS / "unsound" / f"{flow}.flow"
        code, out, err = run("submit", path, *argv)
        assert (code, out) == (1, "")
        assert says in err
        assert not list((tmp_path / "store" / "runs").glob("*.log"))  # no run claimed

    def test_fault_at_an_unknown_activity_is_a_user_error(self, run, case_file, tmp_path):
        _, out, _ = run("submit", case_file, "--user", "ada", "--fail-at", "md:1")
        journal = tmp_path / "store" / "runs" / f"{out.strip()}.log"
        before = journal.read_bytes()
        code, out, err = run("resume", out.strip(), "--fail-at", "md:2", "--fail-at", "zzz:1")
        assert (code, out) == (1, "")
        assert "'zzz'" in err
        assert journal.read_bytes() == before

    def test_fault_plan_counts_firings_across_a_resume(self, run):
        path = CORPUS / "sound" / "loop_converge.flow"
        code, out, _ = run("submit", path, "--user", "ada", "--fail-at", "work:2")
        assert (code, out) == (2, "run-0001\n")
        code, _, err = run("resume", "run-0001", "--fail-at", "work:3")
        assert code == 2
        assert "injected fault (occurrence 3)" in err
        code, out, _ = run("report", "run-0001", "--json")
        report = json.loads(out)
        assert report["failure"] == "activity 'work' failed: injected fault (occurrence 3)"
        assert dict(report["counters"]) == {"work": 2}

    def test_every_failure_after_the_claim_names_its_run(self, run):
        # an iteration limit, not a failed job: the journal holds a failed run
        path = CORPUS / "sound" / "loop_converge.flow"
        code, out, err = run("submit", path, "--user", "ada", "--seed", 1, "--max-iterations", 1)
        assert (code, out) == (2, "run-0001\n")
        assert "exceeded 1 iterations" in err
        code, out, _ = run("report", "run-0001", "--json")
        assert (code, json.loads(out)["status"]) == (0, "failed")

    def test_resume_completed_run_is_a_user_error(self, run, case_file):
        _, out, _ = run("submit", case_file, "--user", "ada")
        code, _, err = run("resume", out.strip())
        assert code == 1
        assert "already completed" in err

    def test_a_killed_drive_credits_the_programs_it_committed(self, run, tmp_path):
        # the drive died after cbmc's checkpoint: its status record still
        # holds the empty trace it started with
        _, out, _ = run("submit", CORPUS / "sound" / "case_study.flow", "--user", "ada", "--seed", 1)
        journal = tmp_path / "store" / "runs" / f"{out.strip()}.log"
        lines = journal.read_bytes().splitlines(keepends=True)
        journal.write_bytes(b"".join(lines[:6]))
        code, out, _ = run("report", out.strip(), "--json")
        report = json.loads(out)
        assert (code, report["status"], report["trace"]) == (0, "active", [])
        assert [activity for activity, _, _ in report["provenance"]["resources"]] == ["cbmc", "lattice"]
        assert report["provenance"]["ledger"] == [
            ["MCSIM configurational-bias Monte Carlo package, v2.1", "mcsim"],
            ["Helium diffusion in loaded zeolite frameworks: simulation protocol", "workflow-source"],
        ]

    def test_param_override_lands_in_report(self, run, case_file):
        _, out, _ = run(
            "submit", case_file, "--user", "ada", "--param", "cells=5"
        )
        code, out, _ = run("report", out.strip(), "--json")
        report = json.loads(out)
        assert ["lattice.cells", "5"] in report["provenance"]["parameters"]


class TestDeterminism:
    def test_equal_seed_reports_identical(self, run, case_file):
        ids = []
        for _ in range(2):
            _, out, _ = run("submit", case_file, "--user", "ada", "--seed", 11)
            ids.append(out.strip())
        assert ids[0] != ids[1]
        reports = []
        for run_id in ids:
            code, out, _ = run("report", run_id, "--deterministic", "--json")
            assert code == 0
            reports.append(out)
        assert reports[0] == reports[1]
        assert "<run>" in reports[0]
        assert ids[0] not in reports[0]

    def test_seed_defaults_to_zero(self, run, case_file):
        _, first, _ = run("submit", case_file, "--user", "ada")
        _, second, _ = run("submit", case_file, "--user", "ada", "--seed", 0)
        hashes = []
        for out in (first, second):
            _, listing, _ = run("store", "ls", out.strip())
            hashes.append([line.split()[4] for line in listing.splitlines()])
        assert hashes[0] == hashes[1]


class TestStoreLs:
    def test_checkpoint_lines(self, run, case_file):
        _, out, _ = run("submit", case_file, "--user", "ada")
        run_id = out.strip()
        code, out, _ = run("store", "ls", run_id)
        assert code == 0
        lines = out.splitlines()
        assert [line.split()[2] for line in lines] == [
            "lattice", "cbmc", "gcmc", "md", "analysis",
        ]
        assert all(line.split()[0] == "ckpt" for line in lines)
        assert all(line.split()[1] == run_id for line in lines)

    def test_json_listing(self, run, case_file):
        _, out, _ = run("submit", case_file, "--user", "ada")
        code, out, _ = run("store", "ls", out.strip(), "--json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 5
        assert {"run", "activity", "sequence", "hash"} == set(rows[0])

    def test_unknown_run(self, run):
        code, _, err = run("store", "ls", "run-9999")
        assert code == 1
        assert "unknown run" in err


def repoint_checkpoint(store, run_id, activity, blob):
    """File `blob` under its own sha-256 and point the activity's last
    checkpoint in the run's journal at it."""
    digest = hashlib.sha256(blob).hexdigest()
    (store / "blobs" / digest).write_bytes(blob)
    journal = store / "runs" / f"{run_id}.log"
    records = [json.loads(line) for line in journal.read_text(encoding="ascii").splitlines()]
    old = [r for r in records if r[0] == "ckpt" and r[1] == activity][-1][3]
    lines = [json.dumps(r[:3] + [digest] if r[0] == "ckpt" and r[3] == old else r,
                        separators=(",", ":")) for r in records]
    journal.write_text("\n".join(lines) + "\n", encoding="ascii")
    return digest


class TestStoreAudit:
    def test_clean_store(self, run, case_file):
        run("submit", case_file, "--user", "ada")
        assert run("store", "audit") == (0, "clean\n", "")

    def test_corrupt_blob(self, run, case_file, tmp_path):
        run("submit", case_file, "--user", "ada")
        journal = (tmp_path / "store" / "runs" / "run-0001.log").read_text(encoding="ascii")
        digest = [r for r in map(json.loads, journal.splitlines()) if r[:2] == ["ckpt", "cbmc"]][-1][3]
        blob = tmp_path / "store" / "blobs" / digest  # six lines, from which no put derives
        data = bytearray(blob.read_bytes())
        data[-5] ^= 1
        blob.write_bytes(bytes(data))
        code, out, _ = run("store", "audit")
        assert (code, out) == (2, f"corrupt blob {blob.name} unparseable: line 5: missing 'end' trailer\n")

    def test_blob_that_does_not_parse_under_its_own_name(self, run, case_file, tmp_path):
        _, out, _ = run("submit", case_file, "--user", "ada")
        run_id = out.strip()
        blob = b"dataset-v1\nobs x scalar dimensionless 1.0\nend\n"
        digest = repoint_checkpoint(tmp_path / "store", run_id, "analysis", blob)
        fault = f"blob {digest} unparseable: line 2: non-canonical or non-finite number rendering"
        assert run("store", "audit") == (2, f"corrupt {fault}\n", "")
        assert run("report", run_id) == (2, "", f"error: {fault}\n")  # the text report prints

    def test_non_canonical_number_deep_in_a_stored_table(self, run, case_file, tmp_path):
        _, out, _ = run("submit", case_file, "--user", "ada")
        run_id = out.strip()
        store = tmp_path / "store"
        journal = (store / "runs" / f"{run_id}.log").read_text(encoding="ascii")
        md = [r for r in map(json.loads, journal.splitlines()) if r[:2] == ["ckpt", "md"]][-1][3]
        lines = (store / "blobs" / md).read_text(encoding="utf-8").split("\n")
        n = next(i for i, line in enumerate(lines) if line.startswith("obs trajectory table "))
        tokens = lines[n].split(" ")
        mantissa, exponent = tokens[-7].split("e")
        tokens[-7] = f"{mantissa}0e{exponent}"  # one digit too many, near the table's end
        lines[n] = " ".join(tokens)
        digest = repoint_checkpoint(store, run_id, "md", "\n".join(lines).encode())
        fault = f"blob {digest} unparseable: line {n + 1}: non-canonical or non-finite number rendering"
        assert run("store", "audit") == (2, f"corrupt {fault}\n", "")
        assert run("report", run_id, "--json") == (2, "", f"error: {fault}\n")

    def test_torn_journal_tail(self, run, case_file, tmp_path):
        run("submit", case_file, "--user", "ada")
        run("submit", case_file, "--user", "ada")
        journal = tmp_path / "store" / "runs" / "run-0002.log"
        before = journal.read_bytes()
        with open(journal, "ab") as fh:
            fh.write(b'["put","lat')
        code, out, _ = run("store", "audit")
        assert (code, out) == (2, "torn runs/run-0002.log tail: 11 bytes after the last newline\n")
        assert journal.read_bytes() == before + b'["put","lat'  # nothing repaired

    def test_resume_cuts_a_torn_tail(self, run, case_file, tmp_path):
        _, out, _ = run("submit", case_file, "--user", "ada", "--fail-at", "md:1")
        run_id = out.strip()
        journal = tmp_path / "store" / "runs" / f"{run_id}.log"
        before = journal.read_bytes()
        with open(journal, "ab") as fh:
            fh.write(b'["put","lat')  # the drive died mid-line
        code, out, _ = run("store", "audit")
        assert (code, out) == (2, f"torn runs/{run_id}.log tail: 11 bytes after the last newline\n")
        assert run("resume", run_id)[0] == 0
        after = journal.read_bytes()
        assert after.startswith(before)
        assert json.loads(after.splitlines()[-1])[:2] == ["status", "completed"]
        for line in after[len(before):].splitlines():  # the fragment is gone
            json.loads(line)
        assert run("store", "audit") == (0, "clean\n", "")

    def test_torn_tail_prints_before_another_runs_missing_blob(self, run, case_file, tmp_path):
        run("submit", case_file, "--user", "ada", "--seed", "1")
        run("submit", case_file, "--user", "ada", "--seed", "2")
        runs = tmp_path / "store" / "runs"
        journal = (runs / "run-0001.log").read_text(encoding="ascii")
        records = [json.loads(line) for line in journal.splitlines()]
        digest = [r for r in records if r[:2] == ["ckpt", "md"]][-1][3]
        (tmp_path / "store" / "blobs" / digest).unlink()
        with open(runs / "run-0002.log", "ab") as fh:
            fh.write(b'["put","lat')
        code, out, _ = run("store", "audit")
        assert code == 2
        assert out == "".join([
            "torn runs/run-0002.log tail: 11 bytes after the last newline\n",
            *(f"missing blob {digest} (runs/run-0001.log line {n})\n"
              for n, r in enumerate(records, 1) if r[0] in ("put", "ckpt") and r[-1] == digest),
        ])
        assert out.count("missing blob") >= 2  # md's ckpt and analysis.in's derived put

    def test_malformed_journal_line(self, run, case_file, tmp_path):
        run("submit", case_file, "--user", "ada")
        journal = tmp_path / "store" / "runs" / "run-0001.log"
        lines = journal.read_bytes().splitlines(keepends=True)
        lines[2] = b'["bogus"]\n'
        journal.write_bytes(b"".join(lines))
        code, out, _ = run("store", "audit")
        assert (code, out) == (2, """damaged runs/run-0001.log line 3 malformed: '["bogus"]'\n""")
        assert journal.read_bytes() == b"".join(lines)  # nothing repaired
        for command in (("report", "run-0001"), ("store", "ls", "run-0001")):
            assert run(*command)[0] == 2

    def test_missing_checkpoint_blob(self, run, case_file, tmp_path):
        run("submit", case_file, "--user", "ada")
        journal = tmp_path / "store" / "runs" / "run-0001.log"
        records = [json.loads(line) for line in journal.read_text(encoding="ascii").splitlines()]
        digest = [r for r in records if r[:2] == ["ckpt", "md"]][-1][3]
        (tmp_path / "store" / "blobs" / digest).unlink()
        code, out, _ = run("store", "audit")
        assert code == 2
        assert out.splitlines() == [
            f"missing blob {digest} (runs/run-0001.log line {n})"
            for n, r in enumerate(records, 1) if r[0] in ("put", "ckpt") and r[-1] == digest
        ]
        assert len(out.splitlines()) >= 2  # md's ckpt and analysis.in's derived put
        code, _, err = run("report", "run-0001")
        assert (code, err) == (2, f"error: blob {digest} missing\n")

    def test_missing_base_of_a_derived_put(self, run, case_file, tmp_path):
        run("submit", case_file, "--user", "ada")
        journal = tmp_path / "store" / "runs" / "run-0001.log"
        records = [json.loads(line) for line in journal.read_text(encoding="ascii").splitlines()]
        lattice = [r for r in records if r[:2] == ["ckpt", "lattice"]][-1][3]
        (tmp_path / "store" / "blobs" / lattice).unlink()
        code, out, _ = run("store", "audit")
        named = [(n, r) for n, r in enumerate(records, 1) if r[0] in ("put", "ckpt") and r[-1] == lattice]
        assert [r[1] for _, r in named] == ["lattice", "cbmc.in"]  # cbmc.in derives from it
        assert (code, out.splitlines()) == (2, [
            f"missing blob {lattice} (runs/run-0001.log line {n})" for n, _ in named])

    def test_derived_put_whose_spliced_bytes_hash_to_another_id(self, run, case_file, tmp_path):
        run("submit", case_file, "--user", "ada")
        store = tmp_path / "store"
        journal = store / "runs" / "run-0001.log"
        lines = journal.read_text(encoding="ascii").splitlines()
        n = next(i for i, line in enumerate(lines) if line.startswith('["put","cbmc.in"'))
        record = json.loads(lines[n])
        gcmc = [r for r in map(json.loads, lines) if r[:2] == ["ckpt", "gcmc"]][-1][3]
        record[4] = gcmc  # a blob that exists, but not the one this put derives from
        lines[n] = json.dumps(record, separators=(",", ":"))
        journal.write_text("\n".join(lines) + "\n", encoding="ascii")
        data = (store / "blobs" / gcmc).read_bytes()
        cut = data.index(b"\n") + 1
        digest = hashlib.sha256(data[:cut] + f"meta derived-from {gcmc}\n".encode() + data[cut:]).hexdigest()
        assert run("store", "audit") == (2, f"damaged runs/run-0001.log line {n + 1}: derived put "
                                            f"{record[3]} of blob {gcmc} hashes to {digest}\n", "")

    @pytest.mark.parametrize("where", ["relative", "absolute"])
    def test_checkpoint_hash_that_is_not_a_sha256(self, run, case_file, tmp_path, where):
        _, out, _ = run("submit", case_file, "--user", "ada", "--fail-at", "md:1")
        run_id = out.strip()
        journal = tmp_path / "store" / "runs" / f"{run_id}.log"
        lines = journal.read_text(encoding="ascii").splitlines()
        n = max(i for i, line in enumerate(lines) if line.startswith('["ckpt"'))
        record = json.loads(lines[n])
        planted = tmp_path / "planted"  # a valid blob outside blobs/
        planted.write_bytes((tmp_path / "store" / "blobs" / record[3]).read_bytes())
        record[3] = f"../runs/{run_id}.log" if where == "relative" else str(planted)
        lines[n] = json.dumps(record, separators=(",", ":"))
        journal.write_text("\n".join(lines) + "\n", encoding="ascii")
        damage = f"runs/{run_id}.log line {n + 1} malformed: {lines[n][:80]!r}\n"
        assert run("store", "audit") == (2, f"damaged {damage}", "")
        for command in ("report", "resume"):
            assert run(command, run_id) == (2, "", f"error: {damage}")


class TestRegister:
    def exotic_descriptor_xml(self):
        base = standard_registry().get("noop@sandbox-01")
        descriptor = dataclasses.replace(
            base,
            id="noop@exotic-01",
            calculator=Calculator("exotic-01", "linux", 2),
            capabilities=frozenset({"exotic"}),
        )
        return render_descriptor_xml(descriptor)

    def test_register_then_bind(self, run, tmp_path):
        flow = tmp_path / "exotic.flow"
        flow.write_text(EXOTIC_FLOW, encoding="utf-8")
        code, _, err = run("submit", flow, "--user", "ada")
        assert code == 1
        assert "no resource admits" in err

        xml = tmp_path / "exotic.xml"
        xml.write_text(self.exotic_descriptor_xml(), encoding="utf-8")
        code, out, _ = run("register", xml)
        assert (code, out) == (0, "noop@exotic-01\n")

        _, out, _ = run("submit", flow, "--user", "ada")
        code, out, _ = run("report", out.strip(), "--json")
        assert json.loads(out)["bindings"] == {"a": "noop@exotic-01"}

    def test_duplicate_rejected(self, run, tmp_path):
        xml = tmp_path / "exotic.xml"
        xml.write_text(self.exotic_descriptor_xml(), encoding="utf-8")
        assert run("register", xml)[0] == 0
        code, _, err = run("register", xml)
        assert code == 1
        assert "already registered" in err

    @pytest.mark.parametrize("bad_id", ["../../escaped", "sub/x"])
    def test_ids_that_name_a_path_are_refused(self, run, tmp_path, bad_id):
        good = tmp_path / "exotic.xml"
        good.write_text(self.exotic_descriptor_xml(), encoding="utf-8")
        assert run("register", good)[0] == 0  # <store>/resources/ now exists
        xml = tmp_path / "bad.xml"
        xml.write_text(self.exotic_descriptor_xml().replace("noop@exotic-01", bad_id, 1),
                       encoding="utf-8")
        code, _, err = run("register", xml)
        assert code == 1
        assert f"resource id {bad_id!r}" in err
        assert sorted(p.name for p in tmp_path.rglob("*.xml") if p != xml) == [
            "exotic.xml", "noop@exotic-01.xml"]

    def test_pool_ids_are_reserved(self, run, tmp_path):
        base = standard_registry().get("noop@sandbox-01")
        xml = tmp_path / "clash.xml"
        xml.write_text(render_descriptor_xml(base), encoding="utf-8")
        code, _, err = run("register", xml)
        assert code == 1
        assert "already registered" in err

    def test_an_empty_standard_pool_is_a_runtime_failure(self, run, tmp_path, case_file, monkeypatch):
        xml = tmp_path / "md.xml"
        xml.write_text(render_descriptor_xml(standard_registry().get("mdrun@hpc-01")), encoding="utf-8")
        empty = tmp_path / "pool"
        empty.mkdir()
        monkeypatch.setattr(simgrid, "_POOL", empty)
        simgrid.standard_descriptors.cache_clear()
        try:
            for argv in (("submit", case_file, "--user", "ada"), ("register", xml)):
                assert run(*argv) == (
                    2, "", f"error: standard pool {empty} holds no descriptor files (*.xml)\n")
        finally:
            simgrid.standard_descriptors.cache_clear()


class TestMock:
    def test_native_output_parses(self, run):
        code, out, err = run("mock", "lattice", "--param", "cells=5")
        assert (code, err) == (0, "")
        ds = parse_lattice_native(out)
        assert ds.get("n_sites").magnitude == 5.0

    def test_seed_changes_placement(self, run):
        outputs = {
            run("mock", "cbmc", "--seed", s, "--param", "theta=0.5")[1]
            for s in (1, 2, 3, 4)
        }
        assert len(outputs) > 1

    def test_chained_stage(self, run):
        code, out, _ = run("mock", "analysis", "--seed", 2)
        assert code == 0
        assert out.splitlines()[0] == "format = tsfit-kv"

    # sha-256 of the output, recorded from the one-choice-at-a-time walk
    @pytest.mark.parametrize(
        "stage, digest",
        [
            ("md", "d6c0d852975b4feb7d47486e1b395ad18fced178645949938d705f86454c8efc"),
            ("analysis", "750da017004a843c2acf897632c456e00996881addfa9350acc18aeb0e9787d8"),
        ],
    )
    def test_blocked_study_output_is_pinned(self, run, stage, digest):
        code, out, err = run("mock", stage, "--seed", 7, "--param", "theta=0.6")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_each_upstream_stage_runs_once(self, run, monkeypatch):
        calls = []
        for name, program in simgrid.PROGRAMS.items():
            counted = lambda p, i, name=name, real=program.run: calls.append(name) or real(p, i)
            monkeypatch.setitem(simgrid.PROGRAMS, name, dataclasses.replace(program, run=counted))
        code, out, err = run("mock", "analysis", "--seed", 7, "--param", "theta=0.6")
        assert (code, err) == (0, "")
        assert calls == ["latgen", "mcsim", "gulpgc", "mdrun", "tsfit"]
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "750da017004a843c2acf897632c456e00996881addfa9350acc18aeb0e9787d8")

    def test_bad_stage_params(self, run):
        code, _, err = run("mock", "lattice", "--param", "cells=1")
        assert code == 1
        assert "error:" in err

    def test_unknown_name_is_usage_error(self, run):
        code, _, err = run("mock", "quantum")
        assert code == 1
        assert "invalid choice" in err


class TestConfigAndStore:
    def test_config_supplies_store_and_user(self, run, case_file, tmp_path, monkeypatch):
        monkeypatch.delenv("GRIDFLOW_STORE")
        cfg = tmp_path / "gridflow.cfg"
        cfg.write_text(
            f"[gridflow]\nstore = {tmp_path / 'cfg-store'}\nuser = carol\n",
            encoding="utf-8",
        )
        code, out, _ = run("submit", case_file, "--config", cfg)
        assert code == 0
        run_id = out.strip()
        code, out, _ = run("report", run_id, "--config", cfg, "--json")
        assert code == 0
        assert json.loads(out)["user"] == {"user": "carol", "affiliation": "academic"}
        assert (tmp_path / "cfg-store" / "runs" / f"{run_id}.log").exists()

    def test_config_values_are_read_literally(self, run, case_file, tmp_path, monkeypatch):
        monkeypatch.delenv("GRIDFLOW_STORE")
        store = tmp_path / "100%" / "store"
        cfg = tmp_path / "gridflow.cfg"
        cfg.write_text(f"[gridflow]\nstore = {store}\nuser = carol\n", encoding="utf-8")
        code, out, err = run("submit", case_file, "--config", cfg)
        assert (code, err) == (0, "")
        assert (store / "runs" / f"{out.strip()}.log").exists()

    def test_flag_beats_environment(self, run, case_file, tmp_path):
        _, out, _ = run("submit", case_file, "--user", "ada")
        run_id = out.strip()
        code, _, err = run("report", run_id, "--store", tmp_path / "elsewhere")
        assert code == 1
        assert "unknown run" in err

    def test_missing_config_file(self, run, case_file):
        code, _, err = run("submit", case_file, "--config", "absent.cfg")
        assert code == 1
        assert "config" in err


SRC = Path(__file__).resolve().parents[1] / "src"
CASE_STUDY = CORPUS / "sound" / "case_study.flow"
NO_NUMPY = "import sys; sys.modules['numpy'] = None; from gridflow.cli import main; main()"


def gridflow_process(cwd, *argv, numpy=True):
    """A CLI call in a new process; without `numpy` every import of it fails."""
    prefix = ["-m", "gridflow.cli"] if numpy else ["-c", NO_NUMPY]
    return subprocess.run([sys.executable, *prefix, *map(str, argv)], cwd=cwd, capture_output=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)


class TestWithoutNumpy:
    """Only a table's cells and the simulated programs import numpy, so a
    read-only command prints the same bytes in a process that cannot."""

    REPORT = ("report", "run-0001", "--store", "store", "--json", "--deterministic")

    @pytest.fixture(scope="class")
    def study(self, tmp_path_factory):
        """A directory whose store holds a seed-1 case study, submitted in a new process."""
        cwd = tmp_path_factory.mktemp("study")
        proc = gridflow_process(cwd, "submit", CASE_STUDY, "--store", "store", "--user", "ci", "--seed", "1")
        assert (proc.returncode, proc.stdout) == (0, b"run-0001\n"), proc.stderr
        return cwd

    @pytest.mark.parametrize("argv", [
        ("verify", CASE_STUDY, "--json"),
        ("export", CASE_STUDY, "--to", "xml"),
        REPORT,
        ("store", "ls", "run-0001", "--store", "store"),
        ("store", "audit", "--store", "store"),
    ], ids=["verify", "export", "report", "store-ls", "store-audit"])
    def test_a_read_only_command_runs_without_numpy(self, study, argv):
        real = gridflow_process(study, *argv)
        assert real.returncode == 0 and real.stdout, real.stderr
        blocked = gridflow_process(study, *argv, numpy=False)
        assert (blocked.returncode, blocked.stdout) == (real.returncode, real.stdout), blocked.stderr

    def test_a_submit_in_a_new_process_is_unchanged(self, study, run):
        code, out, _ = run("submit", CASE_STUDY, "--store", "store", "--user", "ci", "--seed", "1")
        assert (code, out) == (0, "run-0001\n")
        code, report, _ = run(*self.REPORT)
        assert code == 0 and gridflow_process(study, *self.REPORT).stdout.decode() == report


class TestExitContract:
    @pytest.mark.parametrize("argv", [
        ("verify",), ("export", "--to", "dot"), ("submit", "--user", "ada"), ("register",),
    ], ids=["verify", "export", "submit", "register"])
    def test_input_that_is_not_utf8_is_a_user_error(self, run, tmp_path, argv):
        path = tmp_path / "latin1.flow"
        path.write_bytes('workflow "café" {}\n'.encode("latin-1"))
        code, out, err = run(argv[0], path, *argv[1:])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}: 'utf-8' codec can't decode byte 0xe9")

    def test_config_that_is_not_utf8_is_a_user_error(self, run, case_file, tmp_path):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes("[gridflow]\nuser = josé\n".encode("latin-1"))
        code, _, err = run("submit", case_file, "--config", cfg)
        assert code == 1
        assert err.startswith(f"error: {cfg}: 'utf-8' codec can't decode byte 0xe9")

    @pytest.mark.parametrize("content, problem", [
        (b"<resource id='caf\xe9'/>", "'utf-8' codec can't decode byte 0xe9"),
        (b"<resource id='x'>", "malformed XML"),
    ], ids=["not-utf8", "malformed"])
    def test_a_bad_registered_descriptor_is_named(self, run, case_file, tmp_path,
                                                  content, problem):
        _, out, _ = run("submit", case_file, "--user", "ada", "--fail-at", "md:1")
        run_id = out.strip()
        bad = tmp_path / "store" / "resources" / "bad.xml"
        bad.parent.mkdir()
        bad.write_bytes(content)
        for argv in (("submit", case_file, "--user", "ada"), ("resume", run_id),
                     ("report", run_id)):
            code, out, err = run(*argv)
            assert (code, out) == (1, "")
            assert err.startswith(f"error: {bad}: {problem}")

    @pytest.fixture
    def failed_run(self, run, case_file, tmp_path):
        """The journal of a run that failed at md's first firing."""
        code, out, _ = run("submit", case_file, "--user", "ada", "--fail-at", "md:1")
        assert code == 2
        return tmp_path / "store" / "runs" / f"{out.strip()}.log"

    def test_submit_with_a_fault_at_no_activity_claims_no_run(self, run, case_file, tmp_path):
        code, out, err = run("submit", case_file, "--user", "ada", "--fail-at", "ghost:1")
        assert (code, out) == (1, "")
        assert err == ("error: fault plan names 'ghost', not an activity of "
                       "workflow 'helium-diffusion-study'\n")
        assert not list((tmp_path / "store" / "runs").glob("*.log"))

    def test_resume_with_a_fault_at_no_activity_writes_nothing(self, run, failed_run):
        before = failed_run.read_bytes()
        code, out, err = run("resume", failed_run.stem, "--fail-at", "ghost:2")
        assert (code, out) == (1, "")
        assert "fault plan names 'ghost'" in err
        assert failed_run.read_bytes() == before

    def test_resume_of_a_run_bound_to_an_unregistered_resource_writes_nothing(
            self, run, failed_run):
        lines = failed_run.read_text(encoding="ascii").splitlines(keepends=True)
        kind, header = json.loads(lines[0])
        header["bindings"][0][1] = "gone@nowhere"
        lines[0] = json.dumps([kind, header], separators=(",", ":")) + "\n"
        failed_run.write_text("".join(lines), encoding="ascii")
        before = failed_run.read_bytes()
        code, out, err = run("resume", failed_run.stem)
        assert (code, out) == (1, "")
        assert err == "error: unknown resource: gone@nowhere\n"
        assert failed_run.read_bytes() == before

    def test_no_arguments_is_usage_error(self, run):
        assert run()[0] == 1

    def test_help_exits_zero(self, run):
        code, out, _ = run("--help")
        assert code == 0
        assert "COMMAND" in out

    def test_subcommand_help(self, run):
        for name in ("register", "verify", "export", "submit",
                     "resume", "report", "store", "mock"):
            code, out, _ = run(name, "--help")
            assert code == 0, name
            assert "usage" in out

    def test_unknown_subcommand(self, run):
        assert run("bogus")[0] == 1

    def test_calls_share_no_option_values(self, run, case_file):
        # one process parses every call with the same argument tree
        code, _, _ = run("submit", case_file, "--user", "ada",
                         "--param", "cells=5", "--fail-at", "md:1")
        assert code == 2
        code, out, err = run("submit", case_file, "--user", "ada")
        assert (code, err) == (0, "")
        code, out, _ = run("report", out.strip(), "--json")
        parameters = json.loads(out)["provenance"]["parameters"]
        assert ["lattice.cells", "6"] in parameters
        assert ["lattice.cells", "5"] not in parameters
        assert run("submit", case_file, "--user", "ada", "--param")[0] == 1

    def test_mock_calls_share_no_params(self, run):
        plain = run("mock", "lattice")
        changed = run("mock", "lattice", "--param", "cells=5")
        assert plain[0] == changed[0] == 0 and plain[1] != changed[1]
        assert run("mock", "lattice") == plain

    def test_store_is_resolved_per_call(self, run, case_file, tmp_path, monkeypatch):
        # --store on one call, then $GRIDFLOW_STORE, changed, on the next
        first, second = tmp_path / "first", tmp_path / "second"
        assert run("submit", case_file, "--user", "ada", "--store", first)[0] == 0
        assert first.is_dir() and not (tmp_path / "store").exists()
        monkeypatch.setenv("GRIDFLOW_STORE", str(second))
        code, out, _ = run("submit", case_file, "--user", "ada")
        assert code == 0 and second.is_dir()
        assert run("report", out.strip())[0] == 0

    def test_help_leaves_the_parser_usable(self, run, case_file):
        assert run("--help")[0] == 0
        assert run("submit", "--help")[0] == 0
        assert run("verify", case_file) == (0, "sound\n", "")

    def test_corrupt_journal_is_a_damaged_store(self, run, case_file, tmp_path):
        _, out, _ = run("submit", case_file, "--user", "ada")
        run_id = out.strip()
        journal = tmp_path / "store" / "runs" / f"{run_id}.log"
        journal.write_text("{not json\n", encoding="utf-8")
        code, _, err = run("report", run_id)
        assert code == 2
        assert err.splitlines() == [
            f"error: runs/{run_id}.log line 1 malformed: '{{not json'"
        ]

    def test_empty_journal_is_a_runtime_failure(self, run, case_file, tmp_path):
        # a process killed between creating a run's journal and writing its
        # first record leaves an empty journal behind
        _, out, _ = run("submit", case_file, "--user", "ada")
        run_id = out.strip()
        (tmp_path / "store" / "runs" / f"{run_id}.log").write_text("", encoding="utf-8")
        for command in ("report", "resume"):
            code, _, err = run(command, run_id)
            assert code == 2
            assert err.splitlines() == [f"error: run {run_id}: journal is empty or incomplete"]

    def test_a_partly_written_claim_is_refused_and_left_alone(self, run, case_file, tmp_path):
        # a claim still writing its first line: resume takes the lock only to refuse
        _, out, _ = run("submit", case_file, "--user", "ada")
        run_id = out.strip()
        journal = tmp_path / "store" / "runs" / f"{run_id}.log"
        journal.write_bytes(b'["submitted",{')
        for command in ("report", "resume"):
            code, _, err = run(command, run_id)
            assert code == 2
            assert err.splitlines() == [f"error: run {run_id}: journal is empty or incomplete"]
        assert journal.read_bytes() == b'["submitted",{'

    def test_claimed_run_without_a_status_record_is_refused(self, run, case_file, tmp_path):
        # the gap between a run's claim and its first status record: a resume
        # must not drive a run whose claiming process may still drive it
        _, out, _ = run("submit", case_file, "--user", "ada")
        run_id = out.strip()
        journal = tmp_path / "store" / "runs" / f"{run_id}.log"
        journal.write_bytes(journal.read_bytes().split(b"\n")[0] + b"\n")
        for command in ("report", "resume"):
            code, _, err = run(command, run_id)
            assert code == 2
            assert err.splitlines() == [f"error: run {run_id}: journal is empty or incomplete"]
        assert journal.read_bytes().count(b"\n") == 1

    def test_missing_checkpoint_blob_is_a_damaged_store(self, run, case_file, tmp_path):
        code, out, _ = run("submit", case_file, "--user", "ada", "--fail-at", "md:1")
        assert code == 2
        run_id = out.strip()
        _, out, _ = run("store", "ls", run_id, "--json")
        digest = json.loads(out)[0]["hash"]
        (tmp_path / "store" / "blobs" / digest).unlink()
        for command in ("report", "resume"):
            code, _, err = run(command, run_id)
            assert (code, err) == (2, f"error: blob {digest} missing\n")

    def test_run_ids_are_checked_before_they_name_a_file(self, run, case_file, tmp_path):
        # journals planted where an unchecked id would lead
        _, out, _ = run("submit", case_file, "--user", "ada", "--fail-at", "md:1")
        journal = (tmp_path / "store" / "runs" / f"{out.strip()}.log").read_bytes()
        for planted in (tmp_path / "store" / "x.log", tmp_path / "x.log"):
            planted.write_bytes(journal)
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        for argv in (("report", "../x"), ("resume", "a/b"), ("store", "ls", "../../x")):
            code, out, err = run(*argv)
            assert (code, out) == (1, "")
            assert err.startswith("error: bad run id ")
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

    def test_old_layout_store_is_refused(self, run, tmp_path):
        (tmp_path / "store").mkdir()
        (tmp_path / "store" / "index.log").write_text("", encoding="utf-8")
        code, _, err = run("store", "audit")
        assert code == 1
        assert "index.log" in err and "old" in err

    def test_unknown_report_run(self, run):
        code, _, err = run("report", "run-7777")
        assert code == 1
        assert "unknown run" in err
