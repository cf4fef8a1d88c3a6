"""Textual workflow language and the translators out of it.

One surface, four targets: `parse` turns workflow text into the graph IR,
`emit_dsl` prints a graph back to canonical text, `to_job_xml` produces the
job-sequence XML document, `to_functional_plan` produces the combinator plan
(map/reduce style), and `to_dot` renders a diagram. The plan is the block
reduction `verify` already uses (model.reduce_blocks); its classes are
re-exported here.

The grammar is statement-oriented, `;`-separated, with `//` comments:

    workflow "name" {
      cite "methodology reference";
      start -> stage1;
      activity stage1 {
        program: "gulp";
        actuator: "gulp@cluster1";          // optional, pins the host
        capabilities: [mc-gcmc];
        params: [pressure = "1.0"];
        inputs: [other.sites "angstrom"];   // producer.observable "unit"
        outputs: [occupancy];
        cite: ["program reference"];
      }
      fork f after stage1 into (a, b);
      join j waits (a, b) -> stage2;
      decision d after stage2 { when converged != 1 "dimensionless" -> stage2; else -> end; }
      stage1 -> end;
    }

Each `start ->` statement introduces its own start node, so a file with two
of them builds a graph the structural checks will reject; that is deliberate.

`parse` builds the graph in one pass: a fork, join or decision appends its
node and edges as it is read, and plain `a -> b;` edges follow them. Activity
nodes are built once the whole text has parsed, so a syntax error anywhere is
reported before a binding error. The start nodes then go first, and the final
`end` is added when an edge names it and nothing declares it.

The lexer makes one regex match per token, the whitespace and comments before
it included, and keeps only its offset: line and column are worked out for
errors. Job dependencies are the transitive reduction of activity precedence.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from typing import NamedTuple

from .errors import UserError
from .model import (
    ACTIVITY,
    DECISION,
    FINAL,
    FORK,
    FREE,
    JOIN,
    PINNED_BOTH,
    PINNED_PROGRAM,
    START,
    Binding,
    Choice,
    Guard,
    Loop,
    Node,
    NotSeriesParallel,
    ParMap,
    Run,
    Seq,
    WorkflowGraph,
    _walk,
    build_graph,
    reduce_blocks,
    topological_activities,
    verify,
)
from .quantities import ExtractionSpec, UnknownUnit, get_unit

__all__ = [
    "parse",
    "emit_dsl",
    "to_job_xml",
    "to_functional_plan",
    "to_dot",
    "Run",
    "Seq",
    "ParMap",
    "Choice",
    "Loop",
    "DslSyntaxError",
    "SemanticError",
    "UnsoundWorkflow",
    "NotSeriesParallel",
]


class DslSyntaxError(UserError):
    def __init__(self, line: int, col: int, expected: str, found: str):
        super().__init__(f"line {line}, column {col}: expected {expected}, found {found}")
        self.line = line
        self.col = col
        self.expected = expected
        self.found = found


class SemanticError(UserError):
    pass


class UnsoundWorkflow(UserError):
    def __init__(self, report):
        findings = ", ".join(f.text() for f in report.findings)
        super().__init__(f"workflow {report.workflow!r} is not sound: {findings}")
        self.report = report


# ---------------------------------------------------------------------------
# lexer
# ---------------------------------------------------------------------------

# one match per token: the whitespace and comments before it, then the token.
# Token kinds differ in their first character, so their order here is only
# the order of frequency; at the end of the text only eof matches.
_TOKEN_RE = re.compile(
    r"""
    [ \t\r\n]*(?://[^\n]*[ \t\r\n]*)*
    (?:
      (?P<id>[A-Za-z_][A-Za-z0-9_]*(?:-[A-Za-z0-9_]+)*)
    | (?P<op>->|<=|>=|==|!=|[{}()\[\],;:=.<>])
    | (?P<string>"(?:[^"\\]|\\.)*")
    | (?P<number>-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
    | (?P<eof>\Z)
    | (?P<error>.)
    )
    """,
    re.VERBOSE,
)


class _Token(NamedTuple):
    kind: str
    value: str
    offset: int  # into the text; line and column are worked out only for errors


def _position(text: str, offset: int) -> tuple[int, int]:
    """1-based (line, column) of a text offset."""
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, offset) + 1, offset - line_start + 1


def _lex(text: str) -> list[_Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "error":
            raise DslSyntaxError(*_position(text, m.start(kind)), "a token", repr(m[kind]))
        tokens.append(_Token(kind, m[kind], m.start(kind)))
        if kind == "eof":
            return tokens


def _unquote(raw: str) -> str:
    body = raw[1:-1]
    return body.replace('\\"', '"').replace("\\\\", "\\")


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _lex(text)
        self.pos = 0

    def where(self, tok: _Token) -> tuple[int, int]:
        return _position(self.text, tok.offset)

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def fail(self, expected: str):
        tok = self.peek()
        found = tok.value if tok.kind != "eof" else "end of input"
        raise DslSyntaxError(*self.where(tok), expected, repr(found))

    def expect(self, value: str) -> _Token:
        tok = self.tokens[self.pos]
        if tok.value != value or tok.kind == "string":
            self.fail(repr(value))
        self.pos += 1
        return tok

    def expect_kind(self, kind: str, what: str) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            self.fail(what)
        self.pos += 1
        return tok

    def at(self, value: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.value == value and tok.kind != "string"

    def accept(self, value: str) -> bool:
        """Step over the next token if it is `value`."""
        if self.at(value):
            self.pos += 1
            return True
        return False

    def ident(self) -> str:
        return self.expect_kind("id", "an identifier").value

    def string(self) -> str:
        return _unquote(self.expect_kind("string", "a quoted string").value)

    def number(self) -> float:
        return float(self.expect_kind("number", "a number").value)


def parse(text: str) -> WorkflowGraph:
    """Parse workflow text and run every structural check on the result."""
    p = _Parser(text)
    p.expect("workflow")
    name = p.string()
    p.expect("{")

    start_targets: list[str] = []
    # in declaration order; an activity is its (id, properties) until the text has parsed
    nodes: list = []
    edges: list[tuple[str, str]] = []
    plain_edges: list[tuple[str, str]] = []
    source_refs: list[str] = []
    declared: set[str] = set()

    while not p.at("}"):
        tok = p.peek()
        if tok.kind == "eof":
            p.fail("'}'")
        if p.accept("start"):
            p.expect("->")
            start_targets.append(p.ident())
            p.expect(";")
        elif p.accept("cite"):
            source_refs.append(p.string())
            p.expect(";")
        elif p.accept("activity"):
            aid = _declare(p, declared)
            nodes.append((aid, _parse_activity_body(p)))
        elif p.accept("fork"):
            fid = _declare(p, declared)
            p.expect("after")
            source = p.ident()
            p.expect("into")
            targets = _id_tuple(p)
            p.expect(";")
            nodes.append(Node(fid, FORK))
            edges.append((source, fid))
            edges.extend((fid, t) for t in targets)
        elif p.accept("join"):
            jid = _declare(p, declared)
            p.expect("waits")
            waits = _id_tuple(p)
            p.expect("->")
            target = _edge_target(p)
            p.expect(";")
            nodes.append(Node(jid, JOIN))
            edges.extend((w, jid) for w in waits)
            edges.append((jid, target))
        elif p.accept("decision"):
            did = _declare(p, declared)
            p.expect("after")
            source = p.ident()
            p.expect("{")
            cases = []
            while p.accept("when"):
                guard = _parse_guard(p)
                p.expect("->")
                cases.append((guard, _edge_target(p)))
                p.expect(";")
            if not cases:
                p.fail("'when'")
            p.expect("else")
            p.expect("->")
            else_target = _edge_target(p)
            p.expect(";")
            p.expect("}")
            nodes.append(Node(did, DECISION, cases=tuple(cases), else_target=else_target))
            edges.append((source, did))
            edges.extend((did, t) for _, t in cases)
            edges.append((did, else_target))
        elif tok.kind == "id":
            src = p.ident()
            p.expect("->")
            plain_edges.append((src, _edge_target(p)))
            p.expect(";")
        else:
            p.fail("a statement")
    p.expect("}")
    p.expect_kind("eof", "end of input")

    # activity nodes are built only now, so a syntax error anywhere wins over a binding error
    bodies = dict(n for n in nodes if isinstance(n, tuple))
    nodes = [_activity_node(*n) if isinstance(n, tuple) else n for n in nodes]
    starts = ["start" if i == 0 else f"start{i + 1}" for i in range(len(start_targets))]
    nodes[:0] = [Node(sid, START) for sid in starts]
    edges[:0] = zip(starts, start_targets)
    edges += plain_edges
    if any("end" in pair for pair in edges):
        nodes.append(Node("end", FINAL))
    flows = _object_flows(bodies)
    return build_graph(name, nodes, list(dict.fromkeys(edges)), flows, source_refs)


def _edge_target(p: _Parser) -> str:
    return "end" if p.accept("end") else p.ident()


def _declare(p: _Parser, declared: set[str]) -> str:
    """The id a node declaration names, refused when it is reserved or an
    earlier one took it."""
    node_id = p.ident()
    if node_id in ("start", "end"):
        reason = f"{node_id!r} is reserved and cannot be redeclared"
    elif node_id in declared:
        reason = f"node {node_id!r} declared twice"
    else:
        declared.add(node_id)
        return node_id
    raise SemanticError(f"line {p.where(p.tokens[p.pos - 1])[0]}: {reason}")


def _id_tuple(p: _Parser) -> list[str]:
    """`(id, id, ...)`: at least one id, a comma between each two, none after the last."""
    p.expect("(")
    ids = [p.ident()]
    while p.accept(","):
        ids.append(p.ident())
    p.expect(")")
    return ids


def _parse_guard(p: _Parser) -> Guard:
    observable = p.ident()
    op_tok = p.peek()
    if op_tok.value not in ("<", "<=", "==", "!=", ">=", ">") or op_tok.kind == "string":
        p.fail("a comparison operator")
    p.pos += 1
    value = p.number()
    unit_name = "dimensionless"
    if p.peek().kind == "string":
        unit_name = p.string()
    try:
        unit = get_unit(unit_name)
    except UnknownUnit as exc:
        raise SemanticError(f"line {p.where(op_tok)[0]}: {exc}") from None
    return Guard(observable, op_tok.value, value, unit)


def _parse_activity_body(p: _Parser) -> dict:
    """The properties of an activity: a repeated `params` or `inputs` adds to
    the earlier list, any other repeated property replaces the earlier value."""
    props = {"params": [], "inputs": []}  # inputs: (producer, observable, unit name)
    p.expect("{")
    while not p.at("}"):
        key_tok = p.peek()
        if key_tok.kind != "id":
            p.fail("an activity property")
        key = p.ident()
        p.expect(":")
        if key in ("program", "actuator"):
            props[key] = p.string()
        elif key in ("capabilities", "outputs"):
            props[key] = _parse_list(p, p.ident)
        elif key == "params":  # name = "value"
            props[key] += _parse_list(p, lambda: (p.ident(), p.expect("=") and p.string()))
        elif key == "inputs":  # producer.observable "unit"
            props[key] += _parse_list(
                p, lambda: (p.ident(), p.expect(".") and p.ident(), p.string())
            )
        elif key == "cite":
            props[key] = _parse_list(p, p.string)
        else:
            raise DslSyntaxError(
                *p.where(key_tok), "one of program/actuator/capabilities/params/inputs/outputs/cite", key
            )
        p.expect(";")
    p.expect("}")
    return props


def _parse_list(p: _Parser, item) -> list:
    """`[item, item, ...]`; the commas are optional and a trailing one is allowed."""
    p.expect("[")
    items = []
    while not p.at("]"):
        items.append(item())
        p.accept(",")
    p.expect("]")
    return items


def _activity_node(aid: str, props: dict) -> Node:
    program, actuator = props.get("program"), props.get("actuator")
    if actuator and not program:
        raise SemanticError(f"activity {aid}: actuator given without a program")
    variant = PINNED_BOTH if actuator else PINNED_PROGRAM if program else FREE
    caps = frozenset(props.get("capabilities", ()))
    binding = Binding(variant, program or None, actuator or None, caps)
    params, cite = tuple(sorted(props["params"])), tuple(props.get("cite", ()))
    return Node(aid, ACTIVITY, binding=binding, params=params, cite=cite)


def _object_flows(bodies: dict[str, dict]) -> list[tuple[str, str, ExtractionSpec]]:
    """Inputs declared on the consumer as producer->consumer object flows,
    grouped per producer, in declaration order."""
    flows = []
    for consumer, props in bodies.items():
        per_producer: dict[str, list[tuple[str, str]]] = {}
        for producer, observable, unit_name in props["inputs"]:
            per_producer.setdefault(producer, []).append((observable, unit_name))
        for producer, wanted in per_producer.items():
            outputs = bodies.get(producer, {}).get("outputs")
            for observable, _unit in wanted:
                if outputs is not None and observable not in outputs:
                    raise SemanticError(
                        f"{consumer}: input {producer}.{observable} is not among "
                        f"{producer}'s declared outputs"
                    )
            try:
                spec = ExtractionSpec.of(*wanted)
            except UnknownUnit as exc:
                raise SemanticError(str(exc)) from None
            flows.append((producer, consumer, spec))
    return flows


# ---------------------------------------------------------------------------
# emitter
# ---------------------------------------------------------------------------


def _format_guard(guard: Guard) -> str:
    value = repr(guard.value)
    unit = "" if guard.unit.name == "dimensionless" else f" {_quote(guard.unit.name)}"
    return f"{guard.observable} {guard.op} {value}{unit}"


def emit_dsl(g: WorkflowGraph) -> str:
    """Canonical text for a graph: parse(emit_dsl(g)) reproduces g.

    Only single-final graphs are expressible (the language spells the final
    node `end`); multi-final graphs must stay programmatic.
    """
    finals = g.finals()
    if len(finals) != 1:
        raise SemanticError("the workflow language can express exactly one final node")
    final_id = finals[0].id

    def show(node_id: str) -> str:
        return "end" if node_id == final_id else node_id

    covered: set[tuple[str, str]] = set()
    lines = [f"workflow {_quote(g.name)} {{"]
    for ref in g.source_refs:
        lines.append(f"  cite {_quote(ref)};")

    starts = sorted(n.id for n in g.nodes if n.kind == START)
    for sid in starts:
        for edge in sorted(g.out_edges(sid)):
            lines.append(f"  start -> {show(edge[1])};")
            covered.add(edge)

    for nid in _declaration_order(g):
        node = g.node(nid)
        if node.kind == ACTIVITY:
            lines.extend(_emit_activity(g, node))
        elif node.kind == FORK:
            sources = [u for u, _ in g.in_edges(nid) if not g.is_back_edge((u, nid))]
            targets = sorted(v for _, v in g.out_edges(nid))
            lines.append(f"  fork {nid} after {sources[0]} into ({', '.join(map(show, targets))});")
            covered.add((sources[0], nid))
            covered.update((nid, v) for v in targets)
        elif node.kind == JOIN:
            waits = sorted(u for u, _ in g.in_edges(nid))
            target = g.out_edges(nid)[0][1]
            lines.append(f"  join {nid} waits ({', '.join(waits)}) -> {show(target)};")
            covered.update((u, nid) for u in waits)
            covered.add((nid, target))
        elif node.kind == DECISION:
            sources = [u for u, _ in g.in_edges(nid) if not g.is_back_edge((u, nid))]
            body = [f"when {_format_guard(gd)} -> {show(t)};" for gd, t in node.cases]
            body.append(f"else -> {show(node.else_target)};")
            lines.append(f"  decision {nid} after {sources[0]} {{ {' '.join(body)} }}")
            covered.add((sources[0], nid))
            covered.update((nid, t) for _, t in node.cases)
            covered.add((nid, node.else_target))

    for u, v in sorted(e for e in g.edges if e not in covered):
        lines.append(f"  {u} -> {show(v)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _declaration_order(g: WorkflowGraph) -> list[str]:
    return [i for i in g.forward_order() if g.node(i).kind in (ACTIVITY, FORK, JOIN, DECISION)]


def _emit_activity(g: WorkflowGraph, node: Node) -> list[str]:
    lines = [f"  activity {node.id} {{"]
    binding = node.binding
    if binding.program:
        lines.append(f"    program: {_quote(binding.program)};")
    if binding.actuator:
        lines.append(f"    actuator: {_quote(binding.actuator)};")
    if binding.capabilities:
        lines.append(f"    capabilities: [{', '.join(sorted(binding.capabilities))}];")
    if node.params:
        rendered = ", ".join(f"{k} = {_quote(v)}" for k, v in node.params)
        lines.append(f"    params: [{rendered}];")
    inputs = []
    for producer, consumer, spec in g.object_flows:
        if consumer == node.id:
            for observable, unit in spec.wanted:
                inputs.append(f"{producer}.{observable} {_quote(unit.name)}")
    if inputs:
        lines.append(f"    inputs: [{', '.join(inputs)}];")
    if node.cite:
        lines.append(f"    cite: [{', '.join(_quote(c) for c in node.cite)}];")
    lines.append("  }")
    return lines


# ---------------------------------------------------------------------------
# functional plan
# ---------------------------------------------------------------------------


def to_functional_plan(g: WorkflowGraph, max_iterations: int = 100):
    """A sound graph as Run/Seq/ParMap/Choice/Loop blocks (model.reduce_blocks).

    Raises NotSeriesParallel when a sound graph has no block structure; such
    graphs are still executable directly, just not expressible as a plan.
    """
    report = verify(g, max_iterations)
    if not report.sound:
        raise UnsoundWorkflow(report)
    return reduce_blocks(g, max_iterations)


def plan_text(plan, indent: int = 0) -> str:
    """Stable, human-readable rendering used by `export --to plan`."""
    pad = "  " * indent
    if isinstance(plan, Run):
        return f"{pad}run {plan.activity}"
    if isinstance(plan, Seq):
        body = "\n".join(plan_text(item, indent + 1) for item in plan.items)
        return f"{pad}seq\n{body}"
    if isinstance(plan, ParMap):
        body = "\n".join(plan_text(branch, indent + 1) for branch in plan.branches)
        return f"{pad}parmap -> reduce at {plan.reduce_join}\n{body}"
    if isinstance(plan, Choice):
        return (
            f"{pad}choice {plan.decision} when {plan.guard.text()}\n"
            + plan_text(plan.then, indent + 1)
            + f"\n{pad}else\n"
            + plan_text(plan.orelse, indent + 1)
        )
    if isinstance(plan, Loop):
        return (
            f"{pad}loop {plan.decision} while {plan.guard.text()} (max {plan.max_iterations})\n"
            + plan_text(plan.body, indent + 1)
        )
    raise TypeError(f"not a plan node: {plan!r}")


# ---------------------------------------------------------------------------
# job-sequence XML
# ---------------------------------------------------------------------------


def activity_precedence(g: WorkflowGraph) -> set[tuple[str, str]]:
    """Direct precedence: a -> b when a forward path joins them with no
    activity in between."""
    pairs = set()
    for a in (n.id for n in g.activities()):
        frontier, seen = [a], set()
        while frontier:
            for u, v in g.out_edges(frontier.pop()):
                if g.is_back_edge((u, v)) or v in seen:
                    continue
                seen.add(v)
                if g.node(v).kind == ACTIVITY:
                    pairs.add((a, v))
                else:
                    frontier.append(v)
    return pairs


def job_dependencies(g: WorkflowGraph) -> dict[str, list[str]]:
    """depends-on relation: the transitive reduction of activity precedence.
    A direct successor b of a is dropped when another successor of a reaches b."""
    succs = {a: set() for a in topological_activities(g)}
    for a, b in activity_precedence(g):
        succs[a].add(b)
    deps = {a: [] for a in succs}
    for a, direct in succs.items():
        indirect = _walk([c for b in direct for c in succs[b]], succs.__getitem__)
        for b in direct - indirect:
            deps[b].append(a)
    return {a: sorted(d) for a, d in deps.items()}


def to_job_xml(g: WorkflowGraph, max_iterations: int = 100) -> bytes:
    """Byte-deterministic job-sequence document for a sound graph."""
    report = verify(g, max_iterations)
    if not report.sound:
        raise UnsoundWorkflow(report)

    root = ET.Element("workflow", {"name": g.name})
    for ref in g.source_refs:
        cite = ET.SubElement(root, "cite")
        cite.text = ref

    deps = job_dependencies(g)
    jobs = ET.SubElement(root, "jobs")
    for aid in topological_activities(g):
        node = g.node(aid)
        binding = node.binding
        attrs = {"id": aid}
        if binding.program:
            attrs["program"] = binding.program
        if binding.actuator:
            attrs["actuator"] = binding.actuator
        if binding.capabilities:
            attrs["capabilities"] = ",".join(sorted(binding.capabilities))
        job = ET.SubElement(jobs, "job", attrs)
        for key, value in node.params:
            ET.SubElement(job, "param", {"name": key, "value": value})
        for producer, consumer, spec in g.object_flows:
            if consumer == aid:
                for observable, unit in spec.wanted:
                    ET.SubElement(
                        job,
                        "input",
                        {"source": producer, "observable": observable, "unit": unit.name},
                    )
        for dep in deps[aid]:
            ET.SubElement(job, "depends-on", {"job": dep})
        for ref in node.cite:
            cite = ET.SubElement(job, "cite")
            cite.text = ref

    structure = ET.SubElement(root, "structure")
    for node in g.nodes:
        if node.kind == FORK:
            fork = ET.SubElement(structure, "fork", {"id": node.id})
            for _, v in sorted(g.out_edges(node.id)):
                ET.SubElement(fork, "branch", {"target": v})
        elif node.kind == JOIN:
            join = ET.SubElement(
                structure, "join", {"id": node.id, "target": g.out_edges(node.id)[0][1]}
            )
            for u, _ in sorted(g.in_edges(node.id)):
                ET.SubElement(join, "wait", {"source": u})
    for u, v in sorted(g.back_edges):
        node = g.node(u)
        attrs = {"decision": u, "back-to": v, "max": str(max_iterations)}
        if node.kind == DECISION:
            for guard, target in node.cases:
                if target == v:
                    attrs["guard"] = guard.text()
        ET.SubElement(structure, "loop", attrs)

    ET.indent(root)
    return ET.tostring(root, encoding="UTF-8", xml_declaration=True) + b"\n"


# ---------------------------------------------------------------------------
# DOT rendering
# ---------------------------------------------------------------------------

_VARIANT_LABELS = {
    PINNED_BOTH: "pinned program and actuator",
    PINNED_PROGRAM: "pinned program",
    FREE: "system-matched",
}


def to_dot(g: WorkflowGraph) -> str:
    """Graphviz text: activities as rounded boxes grouped by binding variant,
    decisions as diamonds, fork/join as bars."""
    lines = [f'digraph "{g.name}" {{', "  rankdir=TB;"]
    by_variant: dict[str, list[Node]] = {}
    for node in g.nodes:
        if node.kind == ACTIVITY:
            by_variant.setdefault(node.binding.variant, []).append(node)

    for variant in (PINNED_BOTH, PINNED_PROGRAM, FREE):
        members = by_variant.get(variant)
        if not members:
            continue
        lines.append(f"  subgraph cluster_{variant.replace('-', '_')} {{")
        lines.append(f'    label="{_VARIANT_LABELS[variant]}";')
        for node in sorted(members, key=lambda n: n.id):
            label = node.id
            if node.binding.program:
                label += f"\\n{node.binding.program}"
            lines.append(f'    "{node.id}" [shape=box, style=rounded, label="{label}"];')
        lines.append("  }")

    for node in sorted(g.nodes, key=lambda n: n.id):
        if node.kind == START:
            lines.append(f'  "{node.id}" [shape=circle, style=filled, fillcolor=black, label=""];')
        elif node.kind == FINAL:
            lines.append(
                f'  "{node.id}" [shape=doublecircle, style=filled, fillcolor=black, label=""];'
            )
        elif node.kind == DECISION:
            lines.append(f'  "{node.id}" [shape=diamond, label="{node.id}"];')
        elif node.kind in (FORK, JOIN):
            lines.append(
                f'  "{node.id}" [shape=box, height=0.08, style=filled, fillcolor=black, label=""];'
            )

    for u, v in sorted(g.edges):
        attrs = []
        src = g.node(u)
        if src.kind == DECISION:
            for guard, target in src.cases:
                if target == v:
                    attrs.append(f'label="{guard.text()}"')
                    break
            else:
                if src.else_target == v:
                    attrs.append('label="else"')
        if g.is_back_edge((u, v)):
            attrs.append("style=dashed")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f'  "{u}" -> "{v}"{suffix};')
    lines.append("}")
    return "\n".join(lines) + "\n"
