"""Planning, token-game execution, resume, and provenance."""

import dataclasses
import functools
import gc
import hashlib
import json
import multiprocessing
import weakref

import pytest

from gridflow import engine as engine_module
from gridflow import model, quantities, storage
from gridflow.dsl import UnsoundWorkflow, emit_dsl, parse
from gridflow.engine import (
    ActivityFailed,
    Engine,
    LicenseViolation,
    NoResource,
    NothingToResume,
    workflow_hash,
)
from gridflow.errors import IterationLimit, RuntimeFailure, UserError
from gridflow.model import (
    ACTIVITY,
    FINAL,
    FORK,
    JOIN,
    PINNED_PROGRAM,
    START,
    Binding,
    GuardEvaluationError,
    Node,
    build_graph,
)
from gridflow.quantities import ExtractionSpec
from gridflow.resources import (
    Calculator,
    LaunchTemplate,
    License,
    MissingInput,
    ResourceDescriptor,
    ResourceRegistry,
)
from gridflow.simgrid import standard_descriptors, standard_registry
from gridflow.storage import ContentStore, StorageError, UnknownRun
from structure import case_study

def make_engine(tmp_path):
    return Engine(standard_registry(), ContentStore(tmp_path / "store"))


def nm_mcsim(cost):
    """The pool's mcsim, as a copy whose lattice slot wants sites and
    cell_length in nm."""
    mcsim = standard_registry().get("mcsim@mc-farm-01")
    nm = ExtractionSpec.of(("sites", "nm"), ("cell_length", "nm"), ("n_sites", "dimensionless"))
    template = dataclasses.replace(mcsim.launch_template, input_slots=(("lattice", nm),))
    return dataclasses.replace(mcsim, id="mcsim@nm-01", cost_weight=cost, launch_template=template)


def checkpoint_hashes(engine, run_id):
    """Committed checkpoint hashes in commit order."""
    return [digest for _, _, digest in engine.store.checkpoints(run_id)]


ENTRY_FIELDS = (
    "activity", "firing", "resource", "job_id", "hash", "submitted", "finished", "replayed",
)


def entries(report):
    """A report's entries, each as a dict of its named fields."""
    return [dict(zip(ENTRY_FIELDS, entry, strict=True)) for entry in report["entries"]]


def trace(report):
    """A report's trace events as tuples."""
    return [tuple(ev) for ev in report["trace"]]


def noop_activity(name, **params):
    return Node(
        name,
        ACTIVITY,
        binding=Binding(PINNED_PROGRAM, "noop", None, frozenset()),
        params=tuple(sorted((k, str(v)) for k, v in params.items())),
    )


def fork_graph():
    nodes = [
        Node("start", START),
        Node("f", FORK),
        noop_activity("a"),
        noop_activity("b"),
        Node("j", JOIN),
        noop_activity("c"),
        Node("end", FINAL),
    ]
    edges = [
        ("start", "f"), ("f", "a"), ("f", "b"),
        ("a", "j"), ("b", "j"), ("j", "c"), ("c", "end"),
    ]
    return build_graph("forked", nodes, edges)


def lost_graph():
    """One activity pinned to a program no resource runs."""
    nodes = [
        Node("start", START),
        Node("a", ACTIVITY, binding=Binding(PINNED_PROGRAM, "imaginary", None, frozenset())),
        Node("end", FINAL),
    ]
    return build_graph("lost", nodes, [("start", "a"), ("a", "end")])


DIAMOND = """
workflow "diamond" {
  start -> probe;
  activity probe { program: "noop"; params: [flag = "1"]; }
  activity high { program: "noop"; }
  activity low { program: "noop"; }
  decision route after probe {
    when flag > 0 -> high;
    else -> low;
  }
  high -> end;
  low -> end;
}
"""

LOOP = """
workflow "converge" {
  start -> work;
  activity work { program: "flip"; params: [converge_after = "3"]; }
  decision check after work {
    when converged == 1 -> end;
    else -> work;
  }
}
"""


def _submit_worker(root, start, count, out):
    engine = Engine(standard_registry(), ContentStore(root))
    submit = functools.partial(engine.execute, parse(DIAMOND), "ada")
    start.wait(timeout=60)
    out.put([submit() for _ in range(count)])


class TestPlanning:
    def test_binds_case_study_to_expected_pool(self, tmp_path):
        engine = make_engine(tmp_path)
        assert dict(engine.plan(case_study(), "ada")["bindings"]) == {
            "lattice": "latgen@struct-01",
            "cbmc": "mcsim@mc-farm-01",
            "gcmc": "gulpgc@mc-farm-02",
            "md": "mdrun@hpc-01",
            "analysis": "tsfit@desk-01",
        }

    def test_unsound_graph_is_refused(self, tmp_path):
        from test_model import unreachable_graph

        with pytest.raises(UnsoundWorkflow):
            make_engine(tmp_path).plan(unreachable_graph(), "ada")

    def test_graph_over_the_decision_limit_is_refused(self, tmp_path):
        from test_corpus import CORPUS

        text = (CORPUS / "unsound" / "decision_limit_deadlock.flow").read_text(encoding="utf-8")
        with pytest.raises(UnsoundWorkflow, match=r"JoinDeadlock\(j\)"):
            make_engine(tmp_path).plan(parse(text), "ada")

    def test_fork_of_loops_is_planned_and_runs(self, tmp_path):
        # sound, and decided by the block reduction: no token game, no budget
        from test_corpus import CORPUS

        engine = make_engine(tmp_path)
        text = (CORPUS / "sound" / "fork_of_loops.flow").read_text(encoding="utf-8")
        assert len(engine.plan(parse(text), "ada")["bindings"]) == 17
        report = engine.report(engine.execute(parse(text), "ada"))
        assert report["status"] == "completed"
        assert dict(report["counters"]) == {
            **{f"w{i}": 2 for i in range(1, 9)}, **{f"x{i}": 1 for i in range(1, 9)}, "d": 1
        }

    def test_stopped_search_is_refused(self, tmp_path, monkeypatch):
        from test_model import crossed_fork_of_loops_graph

        monkeypatch.setattr(model, "STATE_BUDGET", 100)
        with pytest.raises(UnsoundWorkflow) as caught:
            make_engine(tmp_path).plan(crossed_fork_of_loops_graph(8), "ada")
        report = caught.value.report
        assert (report.mode, report.states) == ("bounded", 100)
        assert [f.text() for f in report.findings] == [
            "TooManyStates(crossed-fork-of-8-loops): token game stopped at its budget of 100 states"
        ]

    def test_no_resource(self, tmp_path):
        with pytest.raises(NoResource):
            make_engine(tmp_path).plan(lost_graph(), "ada")

    def test_commercial_user_refused_academic_program(self, tmp_path):
        engine = make_engine(tmp_path)
        with pytest.raises(LicenseViolation) as err:
            engine.plan(case_study(), "bob", "commercial")
        message = str(err.value)
        assert "cbmc" in message and "mcsim" in message

    def test_commercial_user_allowed_on_open_pool(self, tmp_path):
        g = build_graph(
            "probe-only",
            [Node("start", START), noop_activity("a"), Node("end", FINAL)],
            [("start", "a"), ("a", "end")],
        )
        plan = make_engine(tmp_path).plan(g, "bob", "commercial")
        assert dict(plan["bindings"]) == {"a": "noop@sandbox-01"}

    def test_commercial_user_skips_cheaper_academic_resource(self, tmp_path):
        template = LaunchTemplate("noop -o ${workdir}/out.dat", (), "out")
        registry = ResourceRegistry()
        registry.register(
            ResourceDescriptor(
                "paid@lab", "noop", Calculator("lab-a", "linux", 1),
                frozenset({"sim"}), License("academic", "PAYWARE suite, v1"),
                template, 0.5,
            )
        )
        registry.register(
            ResourceDescriptor(
                "free@lab", "noop", Calculator("lab-b", "linux", 1),
                frozenset({"sim"}), License("open"), template, 2.0,
            )
        )
        g = build_graph(
            "probe-only",
            [Node("start", START), noop_activity("a"), Node("end", FINAL)],
            [("start", "a"), ("a", "end")],
        )
        engine = Engine(registry, ContentStore(tmp_path / "s"))
        assert dict(engine.plan(g, "ada")["bindings"]) == {"a": "paid@lab"}
        assert dict(engine.plan(g, "bob", "commercial")["bindings"]) == {"a": "free@lab"}

    def test_rejects_unknown_affiliation(self, tmp_path):
        from test_model import unreachable_graph

        for graph in (case_study(), unreachable_graph()):  # checked before verification
            with pytest.raises(UserError, match="^unknown affiliation: 'imperial'$"):
                make_engine(tmp_path).plan(graph, "eve", "imperial")

    def test_run_params_are_frozen_sorted(self, tmp_path):
        plan = make_engine(tmp_path).plan(
            case_study(), "ada", params={"theta": "0.3", "steps": "8"}
        )
        assert plan["params"] == [["steps", "8"], ["theta", "0.3"]]


class TestClaimedHeader:
    """A run is claimed with the header plan() returns, after every check."""

    @pytest.mark.parametrize("graph, args, kw, error", [
        ("unreachable", ("ada",), {}, UnsoundWorkflow),
        ("lost", ("ada",), {}, NoResource),
        ("case", ("bob", "commercial"), {}, LicenseViolation),
        ("case", ("eve", "imperial"), {}, UserError),
        ("case", ("ada",), dict(fault_plan=[("ghost", 1)]), UserError),
    ], ids=["unsound", "no-resource", "license", "affiliation", "fault-at-no-activity"])
    def test_a_refused_execute_claims_no_run(self, tmp_path, graph, args, kw, error):
        from test_model import unreachable_graph

        graphs = {"unreachable": unreachable_graph, "lost": lost_graph, "case": case_study}
        engine = make_engine(tmp_path)
        with pytest.raises(error):
            engine.execute(graphs[graph](), *args, **kw)
        assert engine.store.runs() == []

    @pytest.mark.parametrize("graph, args, kw, fault_plan", [
        (case_study, ("ada",), dict(seed=1), ()),
        (case_study, ("ada", "academic"), dict(params={"theta": "0.3", "steps": "12"},
                                                max_iterations=7, seed=42), ()),
        (fork_graph, ("bob", "commercial"), dict(params=[("flag", "2")]), ()),
        (lambda: parse(LOOP), ("ada",), {}, [("work", 2)]),
    ], ids=["case-study", "settings", "commercial", "failed"])
    def test_the_claimed_header_is_the_plan(self, tmp_path, graph, args, kw, fault_plan):
        engine = make_engine(tmp_path)
        submit = functools.partial(engine.execute, graph(), *args, **kw, run_id="run-a")
        if fault_plan:
            with pytest.raises(ActivityFailed):
                submit(fault_plan=fault_plan)
        else:
            submit()
        assert engine.store.run_state("run-a").header == engine.plan(graph(), *args, **kw)

    def test_a_seed_1_case_study_header_line_is_pinned(self, tmp_path):
        from test_corpus import CORPUS

        engine = make_engine(tmp_path)
        graph = parse((CORPUS / "sound" / "case_study.flow").read_text(encoding="utf-8"))
        run_id = engine.execute(graph, "ci", seed=1)
        line = engine.store.journal(run_id).read_bytes().split(b"\n")[0]
        assert hashlib.sha256(line).hexdigest() == (
            "5e16f9f8e9b3a6ab57c964ec4909ae91ddbb6e9d5400cbae42f029a18bb6f177")


class TestExecution:
    def test_case_study_completes(self, tmp_path):
        engine = make_engine(tmp_path)
        report = engine.report(engine.execute(case_study(), "ada", seed=42))
        assert report["status"] == "completed"
        assert dict(report["counters"]) == {
            "lattice": 1, "cbmc": 1, "gcmc": 1, "md": 1, "analysis": 1,
        }
        order = [e["activity"] for e in entries(report)]
        assert order == ["lattice", "cbmc", "gcmc", "md", "analysis"]
        ticks = [e["finished"] for e in entries(report)]
        assert ticks == sorted(ticks)

    def test_engine_and_store_die_without_the_cycle_collector(self, tmp_path):
        gc.disable()
        try:
            engine = make_engine(tmp_path)
            engine.execute(fork_graph(), "ada")
            refs = weakref.ref(engine), weakref.ref(engine.store)
            del engine
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()

    def test_processes_claim_distinct_run_ids(self, tmp_path):
        root = tmp_path / "store"
        ContentStore(root)
        ctx = multiprocessing.get_context("spawn")
        start, out = ctx.Barrier(4), ctx.Queue()
        workers = [
            ctx.Process(target=_submit_worker, args=(root, start, 3, out)) for _ in range(4)
        ]
        for w in workers:
            w.start()
        run_ids = []
        for _ in workers:
            run_ids.extend(out.get(timeout=60))
        for w in workers:
            w.join(timeout=30)
            assert not w.is_alive() and w.exitcode == 0
        assert len(set(run_ids)) == len(run_ids) == 12
        assert ContentStore(root).runs() == sorted(run_ids)

    def test_trace_covers_lifecycle(self, tmp_path):
        engine = make_engine(tmp_path)
        events = trace(engine.report(engine.execute(case_study(), "ada")))
        kinds = {ev[0] for ev in events}
        assert {"staged", "launch", "submitted", "completed"} <= kinds
        launches = [ev for ev in events if ev[0] == "launch"]
        assert any("mcsim" in ev[2] for ev in launches)

    def test_report_builds_no_table(self, tmp_path, monkeypatch):
        run_id = make_engine(tmp_path).execute(case_study(cells=6, n_helium=3, steps=12), "ada")
        parsed, real = [], storage.canonical_deserialize
        monkeypatch.setattr(storage, "canonical_deserialize",
                            lambda data: parsed.append(real(data)) or parsed[-1])
        report = make_engine(tmp_path).report(run_id)  # a new handle parses every blob
        tables = [o for ds in parsed for o in ds.observables if o.kind == "table"]
        assert sorted(o.name for o in tables) == ["occupancy", "sites", "trajectory"]
        assert all(o.values == () and "cells" not in vars(o) for o in tables)  # read no numbers
        assert report["results"]["md"]["other"] == {"trajectory": "table[13]"}
        assert report["results"]["lattice"]["other"] == {"sites": "table[6]"}

    def test_no_run_builds_the_trajectory_rows(self, tmp_path, monkeypatch):
        # md's table goes from the walk to its stored line and into the
        # analysis as one array: in a clean run, a faulted one and its
        # resume in a new handle, every trajectory's values is ()
        tables, real_table, real_parse = [], quantities.Observable.table, storage.canonical_deserialize

        def table(*args):
            tables.append(real_table(*args))
            return tables[-1]

        def parse(data):
            ds = real_parse(data)
            tables.extend(o for o in ds.observables if o.kind == "table")
            return ds

        monkeypatch.setattr(quantities.Observable, "table", staticmethod(table))
        monkeypatch.setattr(storage, "canonical_deserialize", parse)
        engine = make_engine(tmp_path)
        submit = functools.partial(engine.execute, case_study(cells=6, n_helium=3, steps=12), "ada",
                                   seed=1)
        submit(run_id="run-clean")
        with pytest.raises(ActivityFailed):
            submit(run_id="run-hurt", fault_plan=[("md", 1)])
        make_engine(tmp_path).resume("run-hurt")
        trajectories = [o for o in tables if o.name == "trajectory"]
        assert len(trajectories) == 2  # the clean md firing and the resumed one
        assert all(o.values == () for o in trajectories)

    def test_report_carries_final_scalars(self, tmp_path):
        engine = make_engine(tmp_path)
        g = case_study(cells=20, n_helium=100, steps=40)
        report = engine.report(engine.execute(g, "ada", seed=3))
        scalars = report["results"]["analysis"]["scalars"]
        assert "diffusivity" in scalars and "diffusivity_se" in scalars
        assert report["workflow_hash"] == workflow_hash(emit_dsl(g))

    def test_overrides_only_touch_declared_params(self, tmp_path):
        engine = make_engine(tmp_path)
        g = case_study(cells=12, n_helium=10, steps=20)
        report = engine.report(engine.execute(g, "ada", params={"cells": "6", "bogus": "9"}, seed=1))
        assert report["results"]["lattice"]["scalars"]["n_sites"] == 6.0
        params = dict(report["provenance"]["parameters"])
        assert params["lattice.cells"] == "6"
        assert "lattice.bogus" not in params

    def test_decision_routes_and_skips_branch(self, tmp_path):
        engine = make_engine(tmp_path)
        report = engine.report(engine.execute(parse(DIAMOND), "ada"))
        assert dict(report["counters"]) == {"probe": 1, "high": 1}
        routed = [ev for ev in trace(report) if ev[0] == "decision"]
        assert routed == [("decision", "route", "high", "flag > 0 dimensionless")]

    def test_decision_else_branch(self, tmp_path):
        engine = make_engine(tmp_path)
        report = engine.report(engine.execute(parse(DIAMOND), "ada", params={"flag": "-2"}))
        assert dict(report["counters"]) == {"probe": 1, "low": 1}

    def test_guard_without_observable_fails_run(self, tmp_path):
        text = DIAMOND.replace("when flag > 0", "when missing > 0")
        engine = make_engine(tmp_path)
        with pytest.raises(GuardEvaluationError):
            engine.execute(parse(text), "ada", run_id="run-guard")
        assert engine.report("run-guard")["status"] == "failed"

    def test_fork_runs_both_then_join(self, tmp_path):
        engine = make_engine(tmp_path)
        report = engine.report(engine.execute(fork_graph(), "ada", seed=5))
        assert dict(report["counters"]) == {"a": 1, "b": 1, "c": 1}
        by_activity = {e["activity"]: e for e in entries(report)}
        assert by_activity["c"]["submitted"] >= by_activity["a"]["finished"]
        assert by_activity["c"]["submitted"] >= by_activity["b"]["finished"]

    def test_fork_completion_order_varies_with_seed(self, tmp_path):
        orders = set()
        for seed in range(12):
            engine = make_engine(tmp_path / f"s{seed}")
            report = engine.report(engine.execute(fork_graph(), "ada", seed=seed))
            completed = [ev[1] for ev in report["trace"] if ev[0] == "completed"]
            assert completed[-1] == "c"
            orders.add(tuple(completed[:2]))
        assert orders == {("a", "b"), ("b", "a")}

    def test_loop_fires_until_converged(self, tmp_path):
        engine = make_engine(tmp_path)
        report = engine.report(engine.execute(parse(LOOP), "ada"))
        assert dict(report["counters"]) == {"work": 3}
        attempts = [e["firing"] for e in entries(report)]
        assert attempts == [1, 2, 3]

    def test_loop_hits_iteration_limit(self, tmp_path):
        engine = make_engine(tmp_path)
        text = LOOP.replace('converge_after = "3"', 'converge_after = "99"')
        with pytest.raises(IterationLimit):
            engine.execute(parse(text), "ada", max_iterations=3, run_id="run-spin")
        report = engine.report("run-spin")
        assert report["status"] == "failed"
        assert dict(report["counters"]) == {"work": 4}

    def test_activity_failure_aborts_and_withdraws(self, tmp_path):
        # five noop jobs on a calculator that runs four wide: the fifth is
        # still queued when a fails in the first tick, so it is withdrawn;
        # b finished in that tick unabsorbed, so it is discarded, not withdrawn
        engine = make_engine(tmp_path)
        branches = "abcde"
        g = build_graph(
            "split",
            [Node("start", START), Node("f", FORK)]
            + [noop_activity(name) for name in branches]
            + [Node("j", JOIN), Node("end", FINAL)],
            [("start", "f"), ("j", "end")]
            + [("f", name) for name in branches]
            + [(name, "j") for name in branches],
        )
        with pytest.raises(ActivityFailed):
            engine.execute(g, "ada", fault_plan=[("a", 1)], run_id="run-abort")
        report = engine.report("run-abort")
        assert report["status"] == "failed"
        events = trace(report)
        assert ("withdrawn", "e") in events and ("discarded", "b") in events
        assert ("withdrawn", "b") not in events
        assert not any(ev[0] == "completed" and ev[1] in "be" for ev in events)
        # a discarded result is not checkpointed, so a resume reruns b
        assert [a for a, _, _ in engine.store.checkpoints("run-abort")] == ["d", "c"]
        resumed = entries(engine.report(engine.resume("run-abort")))
        assert {e["activity"] for e in resumed if not e["replayed"]} == {"a", "b", "e"}

    def test_missing_input_fails_run(self, tmp_path):
        nodes = [
            Node("start", START),
            Node(
                "cbmc",
                ACTIVITY,
                binding=Binding(PINNED_PROGRAM, "mcsim", None, frozenset()),
                params=(("theta", "0.5"),),
            ),
            Node("end", FINAL),
        ]
        g = build_graph("starved", nodes, [("start", "cbmc"), ("cbmc", "end")])
        engine = make_engine(tmp_path)
        with pytest.raises(MissingInput):
            engine.execute(g, "ada", run_id="run-starved")

    def test_a_slot_is_covered_only_in_the_units_it_wants(self, tmp_path):
        # mcsim only as a copy that wants the lattice in nm: the flow stages
        # it in angstrom, so cbmc has no input for its slot and the run fails
        registry = ResourceRegistry()
        for descriptor in standard_descriptors():
            registry.register(nm_mcsim(1.0) if descriptor.id == "mcsim@mc-farm-01" else descriptor)
        engine = Engine(registry, ContentStore(tmp_path / "store"))
        with pytest.raises(MissingInput) as info:
            engine.execute(case_study(cells=6, n_helium=3, steps=12), "ada", run_id="run-nm")
        assert str(info.value) == (
            "activity 'cbmc': no staged input covers slot 'lattice' "
            "(wants ['cell_length nm', 'n_sites dimensionless', 'sites nm'])"
        )
        report = engine.report("run-nm")
        assert report["status"] == "failed"
        assert report["bindings"]["cbmc"] == "mcsim@nm-01"
        assert [a for a, _, _ in engine.store.checkpoints("run-nm")] == ["lattice"]

    @pytest.mark.parametrize("unit, cost, bound, scale", [
        ("angstrom", 0.1, "mcsim@mc-farm-01", 1.0),  # the cheaper nm copy is fed by no flow
        ("nm", 2.0, "mcsim@nm-01", 0.1),  # only the dearer nm copy is fed
    ])
    def test_cbmc_binds_the_cheapest_mcsim_its_flow_feeds(self, tmp_path, unit, cost, bound, scale):
        engine = make_engine(tmp_path)
        engine.registry.register(nm_mcsim(cost))
        text = emit_dsl(case_study(cells=6, n_helium=3, steps=12)).replace(
            'lattice.sites "angstrom", lattice.cell_length "angstrom"',
            f'lattice.sites "{unit}", lattice.cell_length "{unit}"')
        run_id = engine.execute(parse(text), "ada", seed=1)
        report = engine.report(run_id)
        assert (report["status"], report["bindings"]["cbmc"]) == ("completed", bound)
        lattice = checkpoint_hashes(engine, run_id)[0]
        [put] = [r for r in map(json.loads, engine.store.index_lines(run_id)) if r[:2] == ["put", "cbmc.in"]]
        if unit == "angstrom":
            assert put[4:] == [lattice]  # a derived put: it copies lattice whole
        else:
            assert len(put) == 4 and (engine.store.blob_dir / put[3]).is_file()  # converted: a full blob
        held, staged = (engine.store.get(run_id, digest).get("sites") for digest in (lattice, put[3]))
        assert (held.unit.name, staged.unit.name) == ("angstrom", unit)
        assert staged.cells == pytest.approx(held.cells * scale)

    def test_clash_logged_when_values_differ(self, tmp_path):
        text = """
        workflow "clashing" {
          start -> a;
          activity a { program: "noop"; params: [flag = "1"]; }
          activity b { program: "noop"; params: [flag = "2"]; }
          a -> b;
          b -> end;
        }
        """
        engine = make_engine(tmp_path)
        events = trace(engine.report(engine.execute(parse(text), "ada")))
        assert ("clash", "b", "flag") in events
        # "done" carries the same value from both, so it is not a clash
        assert ("clash", "b", "done") not in events


class TestResume:
    def build(self, tmp_path):
        engine = make_engine(tmp_path)
        g = case_study(cells=20, n_helium=50, steps=40)
        return engine, functools.partial(engine.execute, g, "ada", seed=7)

    def test_resume_reruns_only_the_frontier(self, tmp_path):
        engine, submit = self.build(tmp_path)
        submit(run_id="run-ref")
        with pytest.raises(ActivityFailed):
            submit(run_id="run-hurt", fault_plan=[("md", 1)])
        assert dict(engine.report("run-hurt")["counters"]) == {
            "lattice": 1, "cbmc": 1, "gcmc": 1,
        }
        report = engine.report(engine.resume("run-hurt"))
        assert report["status"] == "completed"
        assert dict(report["counters"]) == {
            "lattice": 1, "cbmc": 1, "gcmc": 1, "md": 1, "analysis": 1,
        }
        fresh = [e["activity"] for e in entries(report) if not e["replayed"]]
        assert fresh == ["md", "analysis"]
        replayed = [e["activity"] for e in entries(report) if e["replayed"]]
        assert replayed == ["lattice", "cbmc", "gcmc"]

    def test_resumed_run_matches_uninterrupted(self, tmp_path):
        engine, submit = self.build(tmp_path)
        submit(run_id="run-ref")
        with pytest.raises(ActivityFailed):
            submit(run_id="run-hurt", fault_plan=[("md", 1)])
        engine.resume("run-hurt")
        assert checkpoint_hashes(engine, "run-hurt") == checkpoint_hashes(engine, "run-ref")

        def final_d(run_id):
            return engine.report(run_id)["results"]["analysis"]["scalars"]["diffusivity"]

        assert final_d("run-hurt") == final_d("run-ref")

    def test_each_put_serializes_once_and_each_run_emits_once(self, tmp_path, monkeypatch):
        serialized, puts, ckpts, emitted = [], [], [], []

        def counting(fn, calls):
            return lambda *args: calls.append(args) or fn(*args)

        for module in (quantities, storage):
            monkeypatch.setattr(module, "canonical_serialize",
                                counting(module.canonical_serialize, serialized))
        monkeypatch.setattr(ContentStore, "put", counting(ContentStore.put, puts))
        monkeypatch.setattr(ContentStore, "checkpoint", counting(ContentStore.checkpoint, ckpts))
        monkeypatch.setattr(engine_module, "emit_dsl", counting(engine_module.emit_dsl, emitted))
        engine, submit = self.build(tmp_path)
        submit(run_id="run-ref")
        with pytest.raises(ActivityFailed):
            submit(run_id="run-hurt", fault_plan=[("md", 1)])
        engine.resume("run-hurt")
        # clean run, up to the fault, resume (11 + 7 + 6 in all): a put per
        # staged input, a checkpoint per fresh result
        assert (len(puts), len(ckpts)) == (6 + 4 + 4, 5 + 3 + 2)
        assert len(serialized) == len(puts) + len(ckpts)
        assert len(emitted) == 2  # once per claimed run; resume reads the header

    def test_jobs_read_staged_inputs_by_hash_and_a_fresh_resume_parses_each_checkpoint(
        self, tmp_path, monkeypatch
    ):
        # every staged input and replayed checkpoint is read through
        # get_by_hash; the handle that put a dataset returns the one it holds,
        # so only a resume through a fresh handle parses, once per checkpoint
        asked, parsed, serialized, filed = [], [], [], []
        real_parse, real_by_hash = storage.canonical_deserialize, ContentStore.get_by_hash

        def counting(fn, calls):
            return lambda *args: calls.append(args) or fn(*args)

        monkeypatch.setattr(storage, "canonical_deserialize",
                            lambda data: parsed.append(hashlib.sha256(data).hexdigest())
                            or real_parse(data))
        monkeypatch.setattr(ContentStore, "get_by_hash",
                            lambda store, digest: asked.append(digest) or real_by_hash(store, digest))
        monkeypatch.setattr(storage, "canonical_serialize",
                            counting(storage.canonical_serialize, serialized))
        monkeypatch.setattr(ContentStore, "put", counting(ContentStore.put, filed))
        monkeypatch.setattr(ContentStore, "checkpoint", counting(ContentStore.checkpoint, filed))
        engine, submit = self.build(tmp_path)

        run_id = submit(run_id="run-ref")
        read = sorted(asked)
        assert parsed == []
        staged = sorted(ev[3] for ev in engine.report(run_id)["trace"] if ev[0] == "staged")
        assert len(staged) == 6
        assert read == staged

        del asked[:]
        with pytest.raises(ActivityFailed):
            submit(run_id="run-hurt", fault_plan=[("md", 1)])
        assert len(asked) == 2 and parsed == []  # cbmc's and gcmc's inputs

        del asked[:]
        fresh = make_engine(tmp_path)  # a new handle on the same root
        run_id = fresh.resume("run-hurt")
        read, parsed_by_resume = sorted(asked), sorted(parsed)
        events = fresh.report(run_id)["trace"]
        replayed = [ev[2] for ev in events if ev[0] == "replayed"]
        staged = [ev[3] for ev in events if ev[0] == "staged"]
        assert len(replayed) == 3
        assert read == sorted(staged + replayed)
        assert parsed_by_resume == sorted(replayed)
        assert len(serialized) == len(filed) == 11 + 7 + 6  # each put and checkpoint

    def test_resume_completed_run_is_refused(self, tmp_path):
        engine, submit = self.build(tmp_path)
        submit(run_id="run-done")
        with pytest.raises(NothingToResume):
            engine.resume("run-done")

    def test_execute_checks_the_run_id(self, tmp_path):
        engine, submit = self.build(tmp_path)
        for run_id in ("..", "../run-a", "a/b"):
            with pytest.raises(StorageError, match="bad run id"):
                submit(run_id=run_id)
        assert engine.store.runs() == [] and list(engine.store.blob_dir.iterdir()) == []

    def test_execute_refuses_a_taken_run_id(self, tmp_path):
        engine, submit = self.build(tmp_path)
        submit(run_id="run-a")
        journal = engine.store.journal("run-a").read_bytes()
        with pytest.raises(StorageError, match="already exists"):
            submit(run_id="run-a")
        assert engine.store.journal("run-a").read_bytes() == journal

    def test_resume_unknown_run(self, tmp_path):
        engine = make_engine(tmp_path)
        with pytest.raises(UnknownRun):
            engine.resume("run-nope")

    def test_rollback_then_resume_rebuilds_the_same_hashes(self, tmp_path):
        engine, submit = self.build(tmp_path)
        submit(run_id="run-a")
        reference = checkpoint_hashes(engine, "run-a")
        with engine.store.driving("run-a"):  # only a drive writes to a run
            engine.store.rollback("run-a", "cbmc")
        # one journal holds the run's status: the report sees the rollback
        assert engine.report("run-a")["status"] == "rolled-back"
        report = engine.report(engine.resume("run-a"))
        assert report["status"] == "completed"
        fresh = [e["activity"] for e in entries(report) if not e["replayed"]]
        assert fresh == ["gcmc", "md", "analysis"]
        assert checkpoint_hashes(engine, "run-a") == reference

    def test_resume_after_first_activity_failure(self, tmp_path):
        engine, submit = self.build(tmp_path)
        with pytest.raises(ActivityFailed):
            submit(run_id="run-cold", fault_plan=[("lattice", 1)])
        assert checkpoint_hashes(engine, "run-cold") == []
        report = engine.report(engine.resume("run-cold"))
        assert report["status"] == "completed"
        assert not any(e["replayed"] for e in entries(report))

    def test_resume_inside_loop_keeps_attempt_counter(self, tmp_path):
        engine = make_engine(tmp_path)
        with pytest.raises(ActivityFailed):
            engine.execute(parse(LOOP), "ada", fault_plan=[("work", 2)], run_id="run-loop")
        assert dict(engine.report("run-loop")["counters"]) == {"work": 1}
        report = engine.report(engine.resume("run-loop"))
        assert report["status"] == "completed"
        assert dict(report["counters"]) == {"work": 3}
        firings = [(e["activity"], e["firing"], e["replayed"]) for e in entries(report)]
        assert firings == [("work", 1, True), ("work", 2, False), ("work", 3, False)]

    def test_a_checkpoint_no_firing_of_the_re_drive_takes_fails_the_resume(self, tmp_path):
        engine = make_engine(tmp_path)
        with pytest.raises(ActivityFailed):
            engine.execute(parse(LOOP), "ada", fault_plan=[("work", 2)], run_id="run-loop")
        [(_, _, digest)] = engine.store.checkpoints("run-loop")
        with engine.store.driving("run-loop"):  # filed under an activity the workflow lacks
            engine.store.checkpoint("run-loop", "ghost", engine.store.get("run-loop", digest))
        with pytest.raises(RuntimeFailure, match="checkpoint for 'ghost' does not fit"):
            engine.resume("run-loop")
        assert engine.report("run-loop")["status"] == "failed"


class TestSummary:
    """A status record's summary holds entries and trace; the report derives
    the per-activity counters and the touched resources from them."""

    def test_final_summary_keys(self, tmp_path):
        engine = make_engine(tmp_path)
        run_id = engine.execute(fork_graph(), "ada", seed=1)
        summary = engine.store.run_state(run_id).summary
        assert sorted(summary) == ["entries", "failure", "finished_at", "started_at", "trace"]

    def test_a_journal_with_stored_counters_and_touched_reports_the_same(self, tmp_path):
        # journals written before the report derived them carry counters and
        # touched in every summary, both counted from its entries and trace
        engine = make_engine(tmp_path)
        with pytest.raises(ActivityFailed):
            engine.execute(case_study(cells=20, n_helium=50, steps=40), "ada", seed=7,
                           fault_plan=[("md", 1)], run_id="run-old")
        engine.resume("run-old")
        before = json.dumps(engine.report("run-old", deterministic=True))
        journal = engine.store.journal("run-old")
        lines = []
        for line in journal.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            if record[0] == "status" and record[2] is not None:
                summary = record[2]
                counts = {}
                for entry in summary["entries"]:
                    counts[entry[0]] = counts.get(entry[0], 0) + 1
                touched = {ev[1] for ev in summary["trace"] if ev[0] in ("submitted", "replayed")}
                record[2] = {
                    "counters": sorted([a, n] for a, n in counts.items()),
                    "touched": sorted(touched),
                    **summary,
                }
            lines.append(json.dumps(record, separators=(",", ":")))
        journal.write_text("\n".join(lines) + "\n", encoding="utf-8")
        summary = engine.store.run_state("run-old").summary
        assert summary["touched"] == ["analysis", "cbmc", "gcmc", "lattice", "md"]
        assert json.dumps(engine.report("run-old", deterministic=True)) == before


WIDE_FORK = "\n".join([
    'workflow "wide-fork" {',
    "  start -> f;",
    f"  fork f after start into ({', '.join(f'b{i}' for i in range(1, 14))});",
    *(f"  activity b{i} {{ capabilities: [sim]; }}" for i in range(1, 14)),
    f"  join j waits ({', '.join(f'b{i}' for i in range(1, 14))}) -> c;",
    "  activity c { capabilities: [sim]; }",
    "  c -> end;",
    "}",
    "",
])


def spliced(store, base):
    """A derived put's canonical bytes: blob `base` with its derived-from
    line after the dataset-v1 header."""
    data = (store.blob_dir / base).read_bytes()
    cut = data.index(b"\n") + 1
    return data[:cut] + f"meta derived-from {base}\n".encode() + data[cut:]


def derived_puts(store, run_id):
    """(activity, hash, base) of each derived put in a run's journal."""
    records = map(json.loads, store.index_lines(run_id))
    return [(r[1], r[3], r[4]) for r in records if r[0] == "put" and len(r) == 5]


class TestHeldDatasets:
    """A handle returns the datasets it filed (put or checkpointed) instead
    of parsing their blobs, so each held object must be what parsing its
    stored bytes would give."""

    @pytest.mark.parametrize("graph, derived", [(case_study, 2), (lambda: parse(WIDE_FORK), 0)],
                             ids=["case-study", "fork13"])
    def test_held_datasets_equal_their_parsed_blobs(self, tmp_path, monkeypatch, graph, derived):
        held = []
        real_put, real_checkpoint = ContentStore.put, ContentStore.checkpoint
        monkeypatch.setattr(ContentStore, "put",
                            lambda store, ds, *args: held.append(ds) or real_put(store, ds, *args))
        monkeypatch.setattr(ContentStore, "checkpoint", lambda store, run_id, activity, ds:
                            held.append(ds) or real_checkpoint(store, run_id, activity, ds))
        engine = make_engine(tmp_path)
        run_id = engine.execute(graph(), "ada", seed=1)
        assert len(held) > 10
        put_ids = set(map(id, held))
        bases = {digest: base for _, digest, base in derived_puts(engine.store, run_id)}
        assert len(bases) == derived
        with engine.store.driving(run_id):  # the drive knows the run's derived puts
            for ds in held:
                if ds.id in bases:
                    blob = spliced(engine.store, bases[ds.id])
                else:
                    blob = (engine.store.blob_dir / ds.id).read_bytes()
                assert quantities.canonical_deserialize(blob) == ds
                assert quantities.canonical_serialize(ds) == blob
                for obs in ds.observables:
                    if obs.kind == "table":
                        assert obs.cells.dtype.name == "float64", (ds.id, obs.name)
                        continue
                    flat = obs.values if obs.kind in ("scalar", "vector3") else sum(obs.values, ())
                    assert all(type(v) is float for v in flat), (ds.id, obs.name)
                assert id(engine.store.get_by_hash(ds.id)) in put_ids  # held, not parsed


class TestDerivedPuts:
    """A staged input that keeps its producer's every observable is filed
    as a journal record naming the producer's blob, not as a second blob."""

    def test_a_case_study_stores_no_copy_of_a_producer(self, tmp_path):
        engine = make_engine(tmp_path)
        run_id = engine.execute(case_study(), "ada", seed=1)
        checkpoints = {activity: digest for activity, _, digest in engine.store.checkpoints(run_id)}
        derived = derived_puts(engine.store, run_id)
        assert [(activity, base) for activity, _, base in derived] == [
            ("cbmc.in", checkpoints["lattice"]), ("analysis.in", checkpoints["md"])]
        assert len(list(engine.store.blob_dir.iterdir())) == 9  # 11 when each put wrote a blob
        staged = {ev[3] for ev in engine.report(run_id)["trace"] if ev[0] == "staged"}
        assert {digest for _, digest, _ in derived} <= staged

    def test_a_fresh_read_of_a_derived_put_hashes_its_base_once(self, tmp_path, monkeypatch):
        engine = make_engine(tmp_path)
        run_id = engine.execute(case_study(), "ada", seed=1)
        records = map(json.loads, engine.store.index_lines(run_id))
        (_, _, _, digest, base), = [r for r in records if r[:2] == ["put", "analysis.in"] and len(r) == 5]
        assert base == {activity: h for activity, _, h in engine.store.checkpoints(run_id)}["md"]
        hashed, real = [], hashlib.sha256

        class Counted:
            def __init__(self, data=b""):
                self.digest = real()
                self.update(data)

            def update(self, data):
                hashed.append(len(data))
                self.digest.update(data)

            def hexdigest(self):
                return self.digest.hexdigest()

        monkeypatch.setattr(hashlib, "sha256", Counted)
        ds = ContentStore(engine.store.root).get(run_id, digest)
        assert ds.id == digest and ds.meta == (("derived-from", base),)
        assert sum(hashed) == len(spliced(engine.store, base))  # md's bytes and one meta line, once

    def test_a_fresh_drive_parses_a_derived_input_and_a_resume_files_the_same_records(
        self, tmp_path, monkeypatch
    ):
        held = {}
        real_put = ContentStore.put

        def put(store, ds, *args):
            digest = real_put(store, ds, *args)
            held.setdefault(digest, ds)
            return digest

        monkeypatch.setattr(ContentStore, "put", put)
        engine = make_engine(tmp_path)
        submit = functools.partial(engine.execute, case_study(), "ada", seed=1)
        submit(run_id="run-ref")
        with pytest.raises(ActivityFailed):
            submit(run_id="run-hurt", fault_plan=[("analysis", 1)])
        (_, digest, base), = [d for d in derived_puts(engine.store, "run-hurt") if d[0] == "analysis.in"]

        parsed = []
        real_parse = storage.canonical_deserialize
        monkeypatch.setattr(storage, "canonical_deserialize",
                            lambda data: parsed.append(data) or real_parse(data))
        fresh = make_engine(tmp_path)  # a new handle holds nothing
        with fresh.store.driving("run-hurt"):
            ds = fresh.store.get_by_hash(digest)
        assert len(parsed) == 1 and ds is not held[digest]
        assert ds == held[digest] and ds.id == digest and ds.meta == (("derived-from", base),)
        assert quantities.canonical_serialize(ds) == spliced(fresh.store, base)

        def puts(run_id):
            records = map(json.loads, fresh.store.index_lines(run_id))
            return sorted((r[1], *r[3:]) for r in records if r[0] == "put")

        fresh.resume("run-hurt")  # md is replayed: a parsed producer, staged whole
        assert derived_puts(fresh.store, "run-hurt")[-1] == ("analysis.in", digest, base)
        assert sorted(set(puts("run-hurt"))) == puts("run-ref")
        assert checkpoint_hashes(fresh, "run-hurt") == checkpoint_hashes(fresh, "run-ref")


class TestOneRecordPerResult:
    """A job's result is one ckpt record, which files its dataset; put
    records file only staged inputs."""

    def test_a_case_study_journal_has_no_put_twin_of_a_checkpoint(self, tmp_path):
        engine = make_engine(tmp_path)
        run_id = engine.execute(case_study(), "ada", seed=1)
        records = [json.loads(line) for line in engine.store.index_lines(run_id)]
        ckpts = [tuple(r[1:]) for r in records if r[0] == "ckpt"]
        puts = [tuple(r[1:4]) for r in records if r[0] == "put"]
        assert (len(records), len(ckpts), len(puts)) == (14, 5, 6)
        assert not set(ckpts) & set(puts)
        assert all(activity.endswith(".in") for activity, _, _ in puts)  # staged inputs
        assert len(list(engine.store.blob_dir.iterdir())) == 9


class TestDeterminism:
    def test_equal_seeds_equal_hash_sequences(self, tmp_path):
        engine = make_engine(tmp_path)
        g = case_study(cells=16, n_helium=30, steps=30)
        submit = functools.partial(engine.execute, g, "ada", seed=11)
        first = submit()
        second = submit()
        assert first != second
        assert checkpoint_hashes(engine, first) == checkpoint_hashes(engine, second)

    def test_deterministic_reports_are_byte_identical(self, tmp_path):
        engine = make_engine(tmp_path)
        g = case_study(cells=16, n_helium=30, steps=30)
        submit = functools.partial(engine.execute, g, "ada", seed=11)
        a = submit()
        b = submit()
        ra = json.dumps(engine.report(a, deterministic=True), sort_keys=True)
        rb = json.dumps(engine.report(b, deterministic=True), sort_keys=True)
        assert ra == rb
        assert "<run>" in ra and a not in ra

    def test_seed_changes_results(self, tmp_path):
        engine = make_engine(tmp_path)
        g = case_study(cells=16, n_helium=30, steps=30)
        a = engine.execute(g, "ada", seed=1)
        b = engine.execute(g, "ada", seed=2)
        assert checkpoint_hashes(engine, a) != checkpoint_hashes(engine, b)

    def test_provenance_equal_across_equal_seed_runs(self, tmp_path):
        engine = make_engine(tmp_path)
        submit = functools.partial(engine.execute, case_study(cells=12, n_helium=10, steps=20), "ada",
                                   seed=4)
        a = submit()
        b = submit()
        assert engine.report(a)["provenance"] == engine.report(b)["provenance"]


class TestProvenance:
    def test_case_study_ledger(self, tmp_path):
        engine = make_engine(tmp_path)
        run_id = engine.execute(case_study(), "ada")
        ledger = engine.report(run_id)["provenance"]["ledger"]
        assert ledger == [
            ["GULPGC grand-canonical lattice sampler, v1.4", "gulpgc"],
            ["MCSIM configurational-bias Monte Carlo package, v2.1", "mcsim"],
            ["MDRUN lattice kinetics engine, v3.0", "mdrun"],
            [
                "Helium diffusion in loaded zeolite frameworks: simulation protocol",
                "workflow-source",
            ],
        ]

    def test_shared_citation_appears_once(self, tmp_path):
        text = """
        workflow "twice" {
          start -> lattice;
          activity lattice { program: "latgen"; params: [cells = "6"]; }
          activity a1 {
            program: "mcsim";
            params: [theta = "0.5"];
            inputs: [lattice.sites "angstrom", lattice.cell_length "angstrom",
                     lattice.n_sites "dimensionless"];
          }
          activity a2 {
            program: "mcsim";
            params: [theta = "0.5"];
            inputs: [lattice.sites "angstrom", lattice.cell_length "angstrom",
                     lattice.n_sites "dimensionless"];
          }
          lattice -> a1;
          a1 -> a2;
          a2 -> end;
        }
        """
        engine = make_engine(tmp_path)
        run_id = engine.execute(parse(text), "ada")
        citations = [c for c, origin in engine.report(run_id)["provenance"]["ledger"]
                     if origin != "workflow-source"]
        assert citations == ["MCSIM configurational-bias Monte Carlo package, v2.1"]

    def test_untouched_activities_claim_no_resources(self, tmp_path):
        engine = make_engine(tmp_path)
        with pytest.raises(ActivityFailed):
            engine.execute(case_study(cells=12, n_helium=10, steps=20), "ada",
                           fault_plan=[("cbmc", 1)], run_id="run-x")
        prov = engine.report("run-x")["provenance"]
        touched = {activity for activity, _, _ in prov["resources"]}
        assert touched == {"lattice", "cbmc"}
        assert all(origin != "mdrun" for _, origin in prov["ledger"])

    def test_analysis_constants_recorded(self, tmp_path):
        engine = make_engine(tmp_path)
        run_id = engine.execute(case_study(), "ada")
        params = dict(engine.report(run_id)["provenance"]["parameters"])
        assert params["analysis.fit_window"] == "second-half"
        assert params["analysis.einstein_dimensionality"] == "1"
        assert params["analysis.groups"] == "10"
