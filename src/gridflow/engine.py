"""Planning and execution of workflows over a resource pool and a store.

plan() binds every activity to the cheapest admissible resource, applies
the license gate, and returns the header the run is claimed with (workflow
text, bindings, params, seed, loop budget, user). execute() plans, checks the
fault plan, claims the run with that header, and drives it: a token game
over the graph, staging each activity's declared input projections through
the store, deriving a per-job seed, and checkpointing every completed result.
Each projection is cut from the producer's latest result as the engine holds
it (the completed dataset, or the checkpoint a resume read back), and each
job reads its staged inputs back from the store. A failed activity aborts
the run but keeps its committed checkpoints; its queued peers are withdrawn,
and peers finished in the same tick are discarded uncommitted. resume() plays
the run again from the start, and a firing an earlier drive committed keeps
its place in the tick but ends with its checkpoint, so each tick and decision
is an uninterrupted run's.

Whole runs are reproducible: the job seed is a digest of the run seed, the
activity, its firing number, and its staged input hashes, so a resumed or
rolled-back run re-derives exactly the seeds of an uninterrupted one.

Run state lives only in the store, in the run's journal (see storage): its
first record is plan()'s header, and every drive, execute()'s or resume()'s,
reads the seed, loop budget, bindings and overrides from that header alone.
Each drive appends a status record carrying the run's summary (entries,
trace, timestamps, failure) when it starts, and again when it fails or
completes. Each entry is one firing: [activity, firing, resource, job id,
result hash, submitted tick, finished tick, replayed (an earlier drive
committed it)]. report() is the one view of a run, and it and resume() each
derive from one read of that journal: per-activity counters are counted from
the entries, and the touched resources are those of the committed activities
and of the ones the trace shows submitted or replayed.

One process at a time drives a run: each drive holds the run's lock (see
storage). resume() takes it before it reads the status and fails at once if
another process holds it; like report(), it refuses a run with no status record.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from datetime import datetime, timezone

from .dsl import UnsoundWorkflow, emit_dsl, parse
from .errors import GridflowError, IterationLimit, RuntimeFailure, UserError
from .model import ACTIVITY, DECISION, FINAL, FORK, JOIN, WorkflowGraph, verify
from .quantities import Dataset, merge_with, project
from .resources import (
    SUCCEEDED,
    WITHDRAWN,
    JobRequest,
    MissingInput,
    ResourceRegistry,
    _freeze_params,
    render_launch,
)
from .simgrid import SimulatedExecutor
from .storage import ACTIVE, COMPLETED, FAILED_RUN, ContentStore, RunState

__all__ = [
    "ACADEMIC",
    "COMMERCIAL",
    "NoResource",
    "LicenseViolation",
    "ActivityFailed",
    "NothingToResume",
    "Engine",
]

ACADEMIC = "academic"
COMMERCIAL = "commercial"


class NoResource(UserError):
    """Discovery produced no admissible resource for an activity."""


class LicenseViolation(UserError):
    """Every admissible resource is licensed away from this user."""


class ActivityFailed(RuntimeFailure):
    """A job failed; committed checkpoints survive for a later resume."""


class NothingToResume(UserError):
    pass


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def workflow_hash(text: str) -> str:
    """Digest of a graph's canonical text (emit_dsl), stable across formatting."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _check_fault_plan(graph: WorkflowGraph, fault_plan):
    """Refuse a fault aimed at an activity the workflow lacks: it would never fire."""
    activities = {node.id for node in graph.activities()}
    for activity, _ in fault_plan:
        if activity not in activities:
            raise UserError(f"fault plan names {activity!r}, not an activity of workflow {graph.name!r}")


class Engine:
    """Single mediator between workflows, the resource pool, and the store."""

    def __init__(self, registry: ResourceRegistry, store: ContentStore):
        self.registry = registry
        self.store = store

    # -- planning ------------------------------------------------------------

    def plan(self, graph, user, affiliation=ACADEMIC, params=(), max_iterations=100, seed=0) -> dict:
        """The header a run of the graph is claimed with: the workflow, the
        run settings, and each activity bound to its cheapest admissible
        resource that the user's affiliation may use."""
        if affiliation not in (ACADEMIC, COMMERCIAL):
            raise UserError(f"unknown affiliation: {affiliation!r}")
        report = verify(graph, max_iterations)
        if not report.sound:
            raise UnsoundWorkflow(report)
        bindings = []
        for node in sorted(graph.activities(), key=lambda n: n.id):
            hits = self.registry.discover(node.binding)
            if not hits:
                raise NoResource(f"no resource admits activity {node.id!r}")
            if affiliation == COMMERCIAL:
                open_hits = [
                    r for r in hits if self.registry.get(r).license.kind != ACADEMIC
                ]
                if not open_hits:
                    program = self.registry.get(hits[0]).program
                    raise LicenseViolation(
                        f"activity {node.id!r}: program {program!r} admits only "
                        f"academically licensed resources"
                    )
                hits = open_hits
            bindings.append([node.id, hits[0]])
        text = emit_dsl(graph)
        return {
            "workflow_name": graph.name,
            "workflow_text": text,
            "workflow_hash": workflow_hash(text),
            "seed": seed,
            "user": {"user": user, "affiliation": affiliation},
            "params": [list(p) for p in _freeze_params(params)],
            "max_iterations": max_iterations,
            "bindings": bindings,
        }

    # -- execution -----------------------------------------------------------

    def execute(self, graph, user, affiliation=ACADEMIC, params=(), max_iterations=100, seed=0,
                fault_plan=(), run_id=None) -> str:
        header = self.plan(graph, user, affiliation, params, max_iterations, seed)
        _check_fault_plan(graph, fault_plan)
        run_id = self.store.claim(header, run_id)
        # waits out a resume that holds the lock to refuse a run with no status
        with self.store.driving(run_id):
            return _Execution(self, graph, header, run_id, fault_plan, checkpoints=()).drive()

    def resume(self, run_id: str, fault_plan=()) -> str:
        with self.store.driving(run_id, wait=False):
            state = self._state(run_id)
            if state.status == COMPLETED:
                raise NothingToResume(f"run {run_id} already completed")
            graph = parse(state.header["workflow_text"])
            for _, resource in state.header["bindings"]:
                self.registry.get(resource)  # must still be registered
            _check_fault_plan(graph, fault_plan)
            return _Execution(self, graph, state.header, run_id, fault_plan, state.checkpoints).drive()

    # -- inspection ----------------------------------------------------------

    def _state(self, run_id: str) -> RunState:
        state = self.store.run_state(run_id)
        if state.header is None or state.summary is None:
            # claimed, but its process died or has not yet written a status record
            raise RuntimeFailure(f"run {run_id}: journal is empty or incomplete")
        return state

    def report(self, run_id: str, deterministic: bool = False) -> dict:
        """The run as one replay of its journal shows it. The provenance ledger
        owes one entry per distinct citation a non-open license demands among
        the resources the run touched, plus one per workflow source reference."""
        state = self._state(run_id)
        header, summary = state.header, state.summary
        graph = parse(header["workflow_text"])
        overrides = {k: v for k, v in header["params"]}
        parameters = sorted(
            [f"{node.id}.{key}", overrides.get(key, value)]
            for node in graph.activities()
            for key, value in node.params
        )
        touched = {ev[1] for ev in summary["trace"] if ev[0] in ("submitted", "replayed")}
        touched |= {activity for activity, _ in state.checkpoints}  # a killed drive traced none
        resources = []
        credit: dict[str, str] = {}
        for activity, resource in header["bindings"]:
            if activity not in touched:
                continue
            d = self.registry.get(resource)
            resources.append([activity, resource, d.program_spec])
            if d.license.kind != "open" and d.license.citation not in credit:
                credit[d.license.citation] = d.program
        ledger = [[c, credit[c]] for c in sorted(credit)]
        ledger.extend([ref, "workflow-source"] for ref in graph.source_refs)
        results = {}
        for activity, key in sorted(dict(state.checkpoints).items()):  # each one's latest
            ds = self.store.get_by_hash(key.hash)  # a key of the journal just read
            scalars = {o.name: o.values[0] for o in ds.observables if o.kind == "scalar"}
            others = {o.name: f"{o.kind}[{o.length}]"  # reads no parsed table's cells
                      for o in ds.observables if o.kind != "scalar"}
            results[activity] = {"hash": key.hash, "scalars": scalars, "other": others}
        data = {
            "run": run_id,
            "workflow": header["workflow_name"],
            "workflow_hash": header["workflow_hash"],
            "status": state.status,
            "seed": header["seed"],
            "user": header["user"],
            "max_iterations": header["max_iterations"],
            "parameters": header["params"],
            "bindings": {a: r for a, r in header["bindings"]},
            "counters": sorted(
                [a, n] for a, n in Counter(e[0] for e in summary["entries"]).items()
            ),
            "checkpoints": [key.hash for _, key in state.checkpoints],
            "entries": summary["entries"],
            "trace": summary["trace"],
            "results": results,
            "provenance": {
                "parameters": parameters,
                "resources": sorted(resources),
                "ledger": ledger,
            },
            "started_at": summary["started_at"],
            "finished_at": summary["finished_at"],
            "failure": summary["failure"],
        }
        if deterministic:
            data["started_at"] = data["finished_at"] = "<redacted>"
            text = json.dumps(data).replace(run_id, "<run>")
            data = json.loads(text)
        return data


class _Execution:
    """One run of the token game, fresh or resumed.

    Tokens live on edges. Control nodes fire deterministically (sorted by
    node id) until quiescent; enabled activities then launch as jobs, and a
    batch of completions is absorbed before the next round. A resume plays
    the same game; a firing an earlier drive committed is a job that ends
    with its checkpoint, so each batch and merge is an uninterrupted run's.
    """

    def __init__(self, engine: Engine, graph: WorkflowGraph, header, run_id, fault_plan, checkpoints):
        self.engine = engine
        self.g = graph
        self.run_id = run_id
        self.header = header  # the run's claimed header: seed, loop budget, bindings, params
        self.executor = SimulatedExecutor(engine.registry, engine.store, header["seed"], fault_plan)
        self.committed: dict[tuple[str, int], str] = {}  # (activity, firing) -> checkpoint hash
        fired = Counter()  # firings are numbered across drives: the n-th checkpoint is firing n
        for activity, key in checkpoints:
            fired[activity] += 1
            self.committed[activity, fired[activity]] = key.hash
        nodes = sorted(self.g.nodes, key=lambda n: n.id)
        self.controls = [n for n in nodes if n.kind in (DECISION, FORK, JOIN, FINAL)]
        self.activities = [n for n in nodes if n.kind == ACTIVITY]
        self.in_edges = {n.id: sorted(self.g.in_edges(n.id)) for n in nodes}
        self.inflows: dict[str, list] = {}  # activity -> its object flows, by producer
        for flow in sorted(self.g.object_flows, key=lambda f: f[0]):
            self.inflows.setdefault(flow[1], []).append(flow)
        self.bindings = dict(header["bindings"])
        self.overrides = dict(header["params"])
        self.tokens: dict[tuple[str, str], int] = {}
        self.back_counts: dict[tuple[str, str], int] = {}
        self.firings: dict[str, int] = {}
        self.latest: dict[str, Dataset] = {}  # activity -> its latest result
        self.blackboard = Dataset.build([])
        self.trace: list[tuple[str, ...]] = []
        self.entries: list[list] = []  # the summary's entries, in completion order
        self.pending: dict = {}  # JobHandle -> (activity, firing, submit tick, committed hash)
        self.final_reached = False
        self.failure: str | None = None
        self.started_at = _now()

    # -- top level -----------------------------------------------------------

    def drive(self) -> str:
        self._persist(ACTIVE)
        try:
            self._play()
        except GridflowError as exc:
            self.failure = str(exc)
            self._persist(FAILED_RUN)
            exc.run_id = self.run_id
            raise
        self._persist(COMPLETED)
        return self.run_id

    def _play(self):
        for edge in self.g.out_edges(self.g.start().id):
            self._put_token(edge)
        while True:
            self._settle_controls()
            for node in self.activities:
                if self._take(node.id):
                    self._launch(node)
            if not self.pending:
                break
            self._absorb_batch()
        if self.committed:
            head = next(iter(self.committed))[0]
            raise RuntimeFailure(
                f"checkpoint for {head!r} does not fit the workflow state; "
                f"was the workflow text changed?"
            )
        leftovers = sum(self.tokens.values())
        if not self.final_reached or leftovers:
            raise RuntimeFailure(
                f"run stalled: final={self.final_reached}, live tokens={leftovers}"
            )

    # -- token mechanics -----------------------------------------------------

    def _put_token(self, edge):
        self.tokens[edge] = self.tokens.get(edge, 0) + 1
        if self.g.is_back_edge(edge):
            count = self.back_counts.get(edge, 0) + 1
            self.back_counts[edge] = count
            budget = self.header["max_iterations"]
            if count > budget:
                raise IterationLimit(
                    f"cycle through {edge[0]} -> {edge[1]} exceeded {budget} iterations"
                )

    def _take(self, node_id) -> bool:
        """Consume a token from the first of the node's edges that holds one."""
        for edge in self.in_edges[node_id]:
            if self.tokens.get(edge, 0):
                self.tokens[edge] -= 1
                return True
        return False

    def _emit(self, node_id):
        for edge in self.g.out_edges(node_id):
            self._put_token(edge)

    def _settle_controls(self):
        """Fire control nodes until nothing changes."""
        progressed = True
        while progressed:
            progressed = False
            for node in self.controls:
                if node.kind == JOIN:
                    waits = self.g.in_edges(node.id)  # never a back edge into a join
                    if waits and all(self.tokens.get(e, 0) for e in waits):
                        for edge in waits:
                            self.tokens[edge] -= 1
                        self._emit(node.id)
                        progressed = True
                elif self._take(node.id):
                    if node.kind == FORK:
                        self._emit(node.id)
                    elif node.kind == DECISION:
                        self._decide(node)
                    elif node.kind == FINAL:
                        self.final_reached = True
                    progressed = True

    def _decide(self, node):
        for guard, target in node.cases:
            if guard.evaluate(self.blackboard):
                self.trace.append(("decision", node.id, target, guard.text()))
                self._put_token((node.id, target))
                return
        self.trace.append(("decision", node.id, node.else_target, "else"))
        self._put_token((node.id, node.else_target))

    # -- activity firings ----------------------------------------------------

    def _launch(self, node):
        activity = node.id
        firing = self.firings.get(activity, 0) + 1
        self.firings[activity] = firing
        resource = self.bindings[activity]
        committed = self.committed.pop((activity, firing), None)
        if committed is not None:  # its job finishes with the checkpoint, a run_state key
            req = JobRequest.build(resource, activity, self.run_id)
            handle = self.executor.submit(req, self.engine.store.get_by_hash(committed))
            self.pending[handle] = (activity, firing, self.executor.clock, committed)
            return
        staged = self._stage_inputs(activity)
        descriptor = self.engine.registry.get(resource)
        job_inputs = self._match_slots(activity, descriptor.launch_template, staged)
        params = {key: self.overrides.get(key, value) for key, value in node.params}
        params["seed"] = str(self._job_seed(activity, firing, [h for _, h in job_inputs]))
        params["attempt"] = str(firing)
        req = JobRequest.build(resource, activity, self.run_id, job_inputs, params)
        command = render_launch(
            descriptor.launch_template, req, f"work/{self.run_id}/{activity}/{firing}"
        )
        self.trace.append(("launch", activity, command))
        handle = self.executor.submit(req)
        self.trace.append(("submitted", activity, handle.job_id, str(firing)))
        self.pending[handle] = (activity, firing, self.executor.clock, None)

    def _job_seed(self, activity, firing, input_hashes) -> int:
        basis = "|".join([str(self.header["seed"]), activity, str(firing), *input_hashes])
        return int.from_bytes(hashlib.sha256(basis.encode("utf-8")).digest()[:8], "big")

    def _stage_inputs(self, activity):
        """File one projection per incoming object flow, as a derived put
        when it copies its producer whole (see storage); skip producers that
        never ran (their branch was not taken)."""
        staged = []
        for producer, _, spec in self.inflows.get(activity, ()):
            ds = self.latest.get(producer)
            if ds is None:
                continue
            projection = project(ds, spec)
            pkey = self.engine.store.put(projection, self.run_id, f"{activity}.in", ds)
            staged.append((producer, pkey.hash, set(projection.names)))
            self.trace.append(("staged", activity, producer, pkey.hash))
        return staged

    def _match_slots(self, activity, template, staged):
        """Pair template slots with staged projections by observable names."""
        inputs = []
        for slot, spec in template.input_slots:
            want = {name for name, _ in spec.wanted}
            hit = next((h for _, h, names in staged if want <= names), None)
            if hit is None:
                raise MissingInput(
                    f"activity {activity!r}: no staged input covers slot {slot!r} "
                    f"(wants {sorted(want)})"
                )
            inputs.append((slot, hit))
        return inputs

    def _absorb_batch(self):
        completions = self.executor.wait_any()
        if not completions:
            raise RuntimeFailure("executor went idle with jobs outstanding")
        for handle in completions:
            activity, firing, submitted, committed = self.pending.pop(handle)
            status = self.executor.poll(handle)
            if status.state == SUCCEEDED:
                if committed is None:
                    key = self.engine.store.checkpoint(self.run_id, activity, status.result)
                    event = ("completed", activity, handle.job_id, key.hash)
                else:
                    event = ("replayed", activity, committed)
                self.trace.append(event)
                self.latest[activity] = status.result
                self.entries.append(
                    [activity, firing, self.bindings[activity], handle.job_id, event[-1],
                     submitted, self.executor.clock, committed is not None]
                )
                self._merge(activity, status.result)
                self._emit(activity)
            else:
                reason = status.reason or "job failed"
                self.trace.append(("failed", activity, handle.job_id, reason))
                # queued peers are withdrawn; finished ones are discarded
                # uncommitted, which keeps the checkpoints a prefix of an
                # uninterrupted run's completion order
                for other in list(self.pending):
                    state = self.executor.withdraw(other).state
                    event = "withdrawn" if state == WITHDRAWN else "discarded"
                    self.trace.append((event, self.pending.pop(other)[0]))
                raise ActivityFailed(f"activity {activity!r} failed: {reason}")

    def _merge(self, activity, ds):
        before = self.blackboard
        # guards and the clash check read observables only, so no meta
        merged, clashes = merge_with([self.blackboard, ds], meta=())
        for name in clashes:
            if before.get(name) != ds.get(name):
                self.trace.append(("clash", activity, name))
        self.blackboard = merged

    # -- persistence ---------------------------------------------------------

    def _persist(self, status):
        """Append the run's status and its summary to the run's journal."""
        summary = {
            "entries": self.entries,
            "trace": [list(ev) for ev in self.trace],
            "started_at": self.started_at,
            "finished_at": _now() if status != ACTIVE else None,
            "failure": self.failure,
        }
        self.engine.store.set_status(self.run_id, status, summary)
