"""Spans around calls into each gridflow layer, recorded from outside src/.

gridflow modules import each other's functions by name, so a function is
wrapped at every module that looks it up: `storage.canonical_serialize` (used
by ContentStore.put) and `quantities.canonical_serialize` (used by
dataset_id, hence Dataset.id) are separate bindings with separate wrappers.
Methods are wrapped on their class, and the simulated programs are wrapped
inside `simgrid.PROGRAMS`, which every SimulatedExecutor copies when it is
built.

A span is [name, start, end, parent index, amount]; `amount` is a byte or
line count taken from the call's argument or result after the span closed,
so counting costs no span time. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter

from gridflow import cli, dsl, engine, model, quantities, resources, simgrid, storage

LAYERS = ("cli", "engine", "dsl", "model", "resources", "simgrid", "storage", "quantities")

# (metric, unit, exact): exact counts repeat bit for bit across two traced
# runs of one workload and seed; timings and ratios of timings do not.
PER_LAYER = (
    ("quantities.serialize_s", "s", False),
    ("quantities.serialize_calls", "count", True),
    ("quantities.serialize_bytes", "B", True),
    ("quantities.deserialize_s", "s", False),
    ("quantities.deserialize_calls", "count", True),
    ("quantities.merge_s", "s", False),
    ("quantities.project_s", "s", False),
    ("quantities.serialize_per_put", "ratio", True),
    ("quantities.self_s", "s", False),
    ("simgrid.run_s", "s", False),
    ("simgrid.adapt_s", "s", False),
    ("simgrid.native_bytes", "B", True),
    ("simgrid.jobs", "count", True),
    ("simgrid.self_s", "s", False),
    ("storage.put_s", "s", False),
    ("storage.put_calls", "count", True),
    ("storage.blob_bytes_written", "B", True),
    ("storage.get_s", "s", False),
    ("storage.get_calls", "count", True),
    ("storage.get_bytes", "B", True),
    ("storage.checkpoint_s", "s", False),
    ("storage.run_state_s", "s", False),
    ("storage.index_lines_read", "count", True),
    ("storage.index_lines_per_op", "ratio", True),
    ("storage.self_s", "s", False),
    ("engine.plan_s", "s", False),
    ("engine.execute_self_s", "s", False),
    ("engine.report_self_s", "s", False),
    ("engine.resume_self_s", "s", False),
    ("engine.manifest_bytes", "B", False),
    ("engine.self_s", "s", False),
    ("dsl.parse_s", "s", False),
    ("dsl.parse_calls", "count", True),
    ("dsl.emit_s", "s", False),
    ("dsl.emit_calls", "count", True),
    ("dsl.self_s", "s", False),
    ("model.verify_s", "s", False),
    ("model.verify_calls", "count", True),
    ("model.build_graph_s", "s", False),
    ("model.assignments", "count", True),
    ("model.self_s", "s", False),
    ("resources.discover_s", "s", False),
    ("resources.self_s", "s", False),
    ("cli.self_s", "s", False),
    ("trace.spans", "count", True),
    ("trace.submit_s", "s", False),
    ("trace.untraced_submit_s", "s", False),
    ("trace.overhead_s", "s", False),
    ("split.quantities_simgrid_of_submit", "ratio", False),
    ("split.storage_of_submit", "ratio", False),
    ("split.model_verify_of_verify", "ratio", False),
)

EXACT = tuple(name for name, _, exact in PER_LAYER if exact)


class Tracer:
    """Records nested spans while `active`; a no-op pass-through otherwise."""

    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs, measure=None):
        if not self.active:
            return fn(*args, **kwargs)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()
        if measure is not None:
            span[4] = measure(args, result)
        return result

    def wrap(self, name, fn, measure=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, measure)

        return traced

    def dump(self, path, header: dict):
        """Write the header, then one JSON array per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _result_len(args, result):
    return len(result)


def _first_arg_len(args, result):
    return len(args[0])


def _text_bytes(args, result):
    return len(result.encode("utf-8"))


def _assignments(args, result):
    """Static decision assignments the token game enumerates for the graph."""
    g = args[0]
    product = 1
    for node in g.nodes:
        if node.kind == model.DECISION:
            product *= len(g.out_edges(node.id))
    return product


def install(tracer: Tracer):
    """Wrap every traced name in place. Call before any Engine is built."""

    def wrap(owner, attr, name, measure=None):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), measure))

    wrap(quantities, "canonical_serialize", "quantities.serialize", _result_len)
    wrap(storage, "canonical_serialize", "quantities.serialize", _result_len)
    wrap(storage, "canonical_deserialize", "quantities.deserialize", _first_arg_len)
    wrap(engine, "merge_with", "quantities.merge")
    wrap(simgrid, "merge", "quantities.merge")
    wrap(engine, "project", "quantities.project")

    for key, program in list(simgrid.PROGRAMS.items()):
        simgrid.PROGRAMS[key] = simgrid.SimProgram(
            program.name,
            tracer.wrap("simgrid.run", program.run, _text_bytes),
            tracer.wrap("simgrid.adapt", program.parse),
        )
    for attr in ("submit", "poll", "wait_any", "withdraw"):
        wrap(simgrid.SimulatedExecutor, attr, "simgrid.executor")
    wrap(cli, "standard_registry", "simgrid.standard_registry")

    for attr in ("put", "get", "get_by_hash", "checkpoint", "rollback", "set_status",
                 "run_state", "checkpoints", "runs"):
        wrap(storage.ContentStore, attr, f"storage.{attr}")
    wrap(storage.ContentStore, "index_lines", "storage.index_lines", _result_len)

    for attr in ("plan", "execute", "resume", "report"):
        wrap(engine.Engine, attr, f"engine.{attr}")

    wrap(cli, "parse", "dsl.parse")
    wrap(engine, "parse", "dsl.parse")
    wrap(engine, "emit_dsl", "dsl.emit")

    wrap(cli, "verify", "model.verify", _assignments)
    wrap(engine, "verify", "model.verify", _assignments)
    wrap(dsl, "build_graph", "model.build_graph")

    wrap(resources.ResourceRegistry, "discover", "resources.discover")
    wrap(resources.ResourceRegistry, "register", "resources.register")
    wrap(engine, "render_launch", "resources.render_launch")


class SpanStats:
    """Per-name and per-layer totals over a list of spans."""

    def __init__(self, spans):
        self.spans = spans
        n = len(spans)
        self.duration = [s[2] - s[1] for s in spans]
        covered = [0.0] * n
        for s, d in zip(spans, self.duration):
            if s[3] >= 0:
                covered[s[3]] += d
        self.self_time = [d - c for d, c in zip(self.duration, covered)]
        # the top-level span (a CLI call made by the benchmark) of each span
        self.root = [0] * n
        for i, s in enumerate(spans):
            self.root[i] = i if s[3] < 0 else self.root[s[3]]

    def _outermost(self, i) -> bool:
        """False when an ancestor has the same name (recursion)."""
        name, parent = self.spans[i][0], self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return False
            parent = self.spans[parent][3]
        return True

    def total(self, name) -> float:
        return sum(
            self.duration[i]
            for i, s in enumerate(self.spans)
            if s[0] == name and self._outermost(i)
        )

    def calls(self, name) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def amount(self, name) -> int:
        return sum(s[4] for s in self.spans if s[0] == name)

    def self_of(self, name) -> float:
        return sum(t for s, t in zip(self.spans, self.self_time) if s[0] == name)

    def layer_self(self, layer, root_name=None) -> float:
        prefix = layer + "."
        return sum(
            t
            for i, (s, t) in enumerate(zip(self.spans, self.self_time))
            if s[0].startswith(prefix)
            and (root_name is None or self.spans[self.root[i]][0] == root_name)
        )

    def total_under(self, name, root_name) -> float:
        return sum(
            self.duration[i]
            for i, s in enumerate(self.spans)
            if s[0] == name and self.spans[self.root[i]][0] == root_name and self._outermost(i)
        )

    def storage_ops(self) -> int:
        """Storage calls made from outside the storage layer."""
        return sum(
            1
            for s in self.spans
            if s[0].startswith("storage.")
            and (s[3] < 0 or not self.spans[s[3]][0].startswith("storage."))
        )


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer_metrics(spans, blob_bytes, manifest_bytes, traced_submit_s,
                      untraced_submit_s) -> dict:
    """Every PER_LAYER metric for one traced block of work."""
    st = SpanStats(spans)
    submit_total = st.total("cli.submit")
    values = {
        "quantities.serialize_s": st.total("quantities.serialize"),
        "quantities.serialize_calls": st.calls("quantities.serialize"),
        "quantities.serialize_bytes": st.amount("quantities.serialize"),
        "quantities.deserialize_s": st.total("quantities.deserialize"),
        "quantities.deserialize_calls": st.calls("quantities.deserialize"),
        "quantities.merge_s": st.total("quantities.merge"),
        "quantities.project_s": st.total("quantities.project"),
        "quantities.serialize_per_put": _ratio(
            st.calls("quantities.serialize"), st.calls("storage.put")
        ),
        "simgrid.run_s": st.total("simgrid.run"),
        "simgrid.adapt_s": st.total("simgrid.adapt"),
        "simgrid.native_bytes": st.amount("simgrid.run"),
        "simgrid.jobs": st.calls("simgrid.run"),
        "storage.put_s": st.total("storage.put"),
        "storage.put_calls": st.calls("storage.put"),
        "storage.blob_bytes_written": blob_bytes,
        "storage.get_s": st.total("storage.get") + st.total("storage.get_by_hash"),
        "storage.get_calls": st.calls("storage.get") + st.calls("storage.get_by_hash"),
        "storage.get_bytes": st.amount("quantities.deserialize"),
        "storage.checkpoint_s": st.total("storage.checkpoint"),
        "storage.run_state_s": st.total("storage.run_state"),
        "storage.index_lines_read": st.amount("storage.index_lines"),
        "storage.index_lines_per_op": _ratio(
            st.amount("storage.index_lines"), st.storage_ops()
        ),
        "engine.plan_s": st.total("engine.plan"),
        "engine.execute_self_s": st.self_of("engine.execute"),
        "engine.report_self_s": st.self_of("engine.report"),
        "engine.resume_self_s": st.self_of("engine.resume"),
        "engine.manifest_bytes": manifest_bytes,
        "dsl.parse_s": st.total("dsl.parse"),
        "dsl.parse_calls": st.calls("dsl.parse"),
        "dsl.emit_s": st.total("dsl.emit"),
        "dsl.emit_calls": st.calls("dsl.emit"),
        "model.verify_s": st.total("model.verify"),
        "model.verify_calls": st.calls("model.verify"),
        "model.build_graph_s": st.total("model.build_graph"),
        "model.assignments": st.amount("model.verify"),
        "resources.discover_s": st.total("resources.discover"),
        "trace.spans": len(spans),
        "trace.submit_s": traced_submit_s,
        "trace.untraced_submit_s": untraced_submit_s,
        "trace.overhead_s": traced_submit_s - untraced_submit_s,
        "split.quantities_simgrid_of_submit": _ratio(
            st.layer_self("quantities", "cli.submit") + st.layer_self("simgrid", "cli.submit"),
            submit_total,
        ),
        "split.storage_of_submit": _ratio(st.layer_self("storage", "cli.submit"), submit_total),
        "split.model_verify_of_verify": _ratio(
            st.total_under("model.verify", "cli.verify"), st.total("cli.verify")
        ),
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = st.layer_self(layer)
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {name: {"value": values[name], "unit": units[name]} for name, _, _ in PER_LAYER}
