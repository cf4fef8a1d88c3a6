"""Activity-diagram workflow IR and its logical-level verifier.

A workflow is a directed graph of Start/Final/Activity/Decision/Fork/Join
nodes. Loops are expressed as back-edges: edges whose target dominates their
source. Degree invariants apply to forward edges only; a back-edge re-enables
its target like an extra exclusive input (the target fires again on a token
from either side), which is what makes guarded iteration representable
without a dedicated merge kind.

Token semantics during verification and execution:

  Start     emits one token on its out-edge when the run begins
  Activity  fires on a token on any one in-edge, emits on every out-edge
  Decision  fires on any one in-edge, emits on exactly one chosen out-edge
  Fork      fires on its in-edge, emits on every out-edge
  Join      fires only when every forward in-edge holds a token, consumes
            one from each, emits one on its single out-edge
  Final     consumes any token that reaches it

`verify` combines structural rules with one of two checks of this token
game; the verdict `sound` means zero findings. First `reduce_blocks` tries
to reduce the graph to nested single-entry single-exit blocks (sequence,
fork/join, choice to finals, do-while loop), the plan `export --to plan`
prints. Such a block-structured graph can neither deadlock a join nor
flood an edge (van der Aalst, 1998; Vanhatalo, Völzer & Leymann, 2007),
so it needs no game. A graph that does not reduce gets the game itself, in
one search. A decision keeps one branch per game: the branch is fixed when
the decision first fires and recorded in the search state, so the one
search covers every static decision-outcome assignment. The search stops
after STATE_BUDGET expanded states; a stopped search keeps what it found,
adds a TooManyStates finding and is never called sound.

Branches that cannot interfere are not interleaved: an enabled move of a
fire-once node (see _TokenGame) is expanded alone, and a state whose loop
counters are subsumed is skipped; findings stay exact.

Each graph derives its structure (node lookup, in- and out-edges, the nodes
reachable from start, the forward topological order) once, on first use.
Back edges come from Cooper, Harvey & Kennedy's dominators ("A Simple, Fast
Dominance Algorithm", 2001). A cycle is named by the first one a depth-first
search meets, roots and out-edges in declaration order: networkx's order.
"""

from __future__ import annotations

import heapq
import operator
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import NamedTuple

from .errors import UserError
from .quantities import (
    DimensionMismatch,
    ExtractionSpec,
    MissingObservable,
    Observable,
    Unit,
    convert,
)

__all__ = [
    "START",
    "FINAL",
    "ACTIVITY",
    "DECISION",
    "FORK",
    "JOIN",
    "PINNED_BOTH",
    "PINNED_PROGRAM",
    "FREE",
    "Guard",
    "Binding",
    "Node",
    "WorkflowGraph",
    "Finding",
    "VerificationReport",
    "StructuralError",
    "GuardEvaluationError",
    "NotSeriesParallel",
    "build_graph",
    "verify",
    "reduce_blocks",
    "topological_activities",
]

START = "start"
FINAL = "final"
ACTIVITY = "activity"
DECISION = "decision"
FORK = "fork"
JOIN = "join"

KINDS = (START, FINAL, ACTIVITY, DECISION, FORK, JOIN)

PINNED_BOTH = "pinned-both"
PINNED_PROGRAM = "pinned-program"
FREE = "free"

# forward-degree invariants: (min_in, max_in, min_out, max_out), None = unbounded
_DEGREE_RULES = {
    START: (0, 0, 1, 1),
    FINAL: (1, None, 0, 0),
    ACTIVITY: (1, 1, 1, 1),
    DECISION: (1, 1, 2, None),
    FORK: (1, 1, 2, None),
    JOIN: (2, None, 1, 1),
}

_GUARD_OPS = {
    "<": operator.lt,
    "<=": operator.le,
    "==": operator.eq,
    "!=": operator.ne,
    ">=": operator.ge,
    ">": operator.gt,
}

# token-game states a search expands before it stops with a TooManyStates finding
STATE_BUDGET = 50_000

EXHAUSTIVE = "exhaustive"
BOUNDED = "bounded"

UNREACHABLE = "Unreachable"
NO_TERMINATION = "NoTermination"
JOIN_DEADLOCK = "JoinDeadlock"
UNBALANCED_FORK_JOIN = "UnbalancedForkJoin"
UNBOUND_OBJECT_FLOW = "UnboundObjectFlow"
UNGUARDED_CYCLE = "UnguardedCycle"
TOO_MANY_STATES = "TooManyStates"


class StructuralError(UserError):
    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


class GuardEvaluationError(UserError):
    pass


class NotSeriesParallel(UserError):
    pass


@dataclass(frozen=True)
class Guard:
    """Comparison of one dataset observable against a unit-tagged literal."""

    observable: str
    op: str
    value: float
    unit: Unit

    def __post_init__(self):
        if self.op not in _GUARD_OPS:
            raise StructuralError([f"unknown guard operator: {self.op!r}"])

    def evaluate(self, ds) -> bool:
        try:
            obs = ds.get(self.observable)
            if obs.kind != "scalar":
                raise GuardEvaluationError(
                    f"guard observable {self.observable} is {obs.kind}, need scalar"
                )
            magnitude = convert(obs, self.unit).magnitude
        except MissingObservable as exc:
            raise GuardEvaluationError(f"guard: {exc}") from None
        except DimensionMismatch as exc:
            raise GuardEvaluationError(f"guard: {exc}") from None
        return _GUARD_OPS[self.op](magnitude, self.value)

    def text(self) -> str:
        return f"{self.observable} {self.op} {self.value:g} {self.unit.name}"


@dataclass(frozen=True)
class Binding:
    """How an activity gets matched to a resource: the three lane variants."""

    variant: str
    program: str | None = None
    actuator: str | None = None
    capabilities: frozenset[str] = frozenset()

    def __post_init__(self):
        if self.variant == PINNED_BOTH:
            if not (self.program and self.actuator):
                raise StructuralError(["pinned-both binding needs program and actuator"])
        elif self.variant == PINNED_PROGRAM:
            if not self.program or self.actuator:
                raise StructuralError(["pinned-program binding needs program only"])
        elif self.variant == FREE:
            if self.program or self.actuator:
                raise StructuralError(["free binding must not pin program or actuator"])
            if not self.capabilities:
                raise StructuralError(["free binding needs at least one capability tag"])
        else:
            raise StructuralError([f"unknown binding variant: {self.variant!r}"])

    def admits(self, d) -> bool:
        """Whether resource descriptor d may run the activity: its id and
        program match what is pinned, and it has every capability tag."""
        if self.actuator is not None and d.id != self.actuator:
            return False
        if self.program is not None and d.program != self.program:
            return False
        return self.capabilities <= d.capabilities


@dataclass(frozen=True)
class Node:
    """One workflow node; `cases`/`else_target` route decisions, `binding`,
    `params` and `cite` belong to activities."""

    id: str
    kind: str
    binding: Binding | None = None
    params: tuple[tuple[str, str], ...] = ()
    cases: tuple[tuple[Guard, str], ...] = ()
    else_target: str | None = None
    cite: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise StructuralError([f"{self.id}: unknown node kind {self.kind!r}"])


class _Structure(NamedTuple):
    by_id: dict[str, Node]
    in_edges: dict[str, tuple[tuple[str, str], ...]]
    out_edges: dict[str, tuple[tuple[str, str], ...]]
    reachable: frozenset[str]
    order: tuple[str, ...]


@dataclass(frozen=True)
class WorkflowGraph:
    name: str
    nodes: tuple[Node, ...]
    edges: tuple[tuple[str, str], ...]
    object_flows: tuple[tuple[str, str, ExtractionSpec], ...] = ()
    source_refs: tuple[str, ...] = ()
    back_edges: frozenset[tuple[str, str]] = frozenset()

    @cached_property
    def _structure(self) -> _Structure:
        outs = {n.id: () for n in self.nodes}
        ins = dict(outs)
        for e in self.edges:
            outs[e[0]] += (e,)
            ins[e[1]] += (e,)

        start = [n.id for n in self.nodes if n.kind == START][:1]
        reachable = _walk(start, lambda u: (v for _, v in outs[u]))

        # Kahn's algorithm on the reachable forward edges, smallest id first;
        # a forward cycle keeps its members and what follows them out
        waiting = dict.fromkeys(reachable, 0)
        for u, v in self.edges:
            if u in reachable and (u, v) not in self.back_edges:
                waiting[v] += 1
        ready = sorted(i for i, count in waiting.items() if count == 0)  # a heap
        order = []
        while ready:
            order.append(heapq.heappop(ready))
            for u, v in outs[order[-1]]:
                if (u, v) not in self.back_edges:
                    waiting[v] -= 1
                    if waiting[v] == 0:
                        heapq.heappush(ready, v)
        order.extend(sorted(n.id for n in self.nodes if n.id not in reachable))
        by_id = {n.id: n for n in self.nodes}
        return _Structure(by_id, ins, outs, frozenset(reachable), tuple(order))

    def node(self, node_id: str) -> Node:
        return self._structure.by_id[node_id]

    def has_node(self, node_id: str) -> bool:
        return node_id in self._structure.by_id

    def reachable(self) -> frozenset[str]:
        """Ids of the nodes a path from start reaches, start included."""
        return self._structure.reachable

    def forward_order(self) -> tuple[str, ...]:
        """Ids in forward-edge topological order, ties by id; unreachable last, sorted."""
        return self._structure.order

    def start(self) -> Node:
        return next(n for n in self.nodes if n.kind == START)

    def finals(self) -> tuple[Node, ...]:
        return tuple(n for n in self.nodes if n.kind == FINAL)

    def activities(self) -> tuple[Node, ...]:
        return tuple(n for n in self.nodes if n.kind == ACTIVITY)

    def out_edges(self, node_id: str) -> tuple[tuple[str, str], ...]:
        return self._structure.out_edges.get(node_id, ())

    def in_edges(self, node_id: str) -> tuple[tuple[str, str], ...]:
        return self._structure.in_edges.get(node_id, ())

    def forward_edges(self) -> tuple[tuple[str, str], ...]:
        return tuple(e for e in self.edges if e not in self.back_edges)

    def is_back_edge(self, edge: tuple[str, str]) -> bool:
        return edge in self.back_edges


def _classify_back_edges(nodes, edges, start_id: str) -> frozenset[tuple[str, str]]:
    """Reachable edges whose target dominates their source, except edges into
    start, which the degree rules flag instead. Dominators by Cooper, Harvey
    & Kennedy's iteration over a reverse postorder."""
    succs, preds = {n.id: [] for n in nodes}, {n.id: [] for n in nodes}
    for u, v in edges:
        succs[u].append(v)
        preds[v].append(u)
    postorder, seen, stack = [], {start_id}, [(start_id, iter(succs[start_id]))]
    while stack:
        v = next(stack[-1][1], None)
        if v is None:
            postorder.append(stack.pop()[0])
        elif v not in seen:
            seen.add(v)
            stack.append((v, iter(succs[v])))
    number = {v: i for i, v in enumerate(postorder)}
    idom = {start_id: start_id}
    changed = True
    while changed:
        changed = False
        for v in reversed(postorder[:-1]):
            done = [p for p in preds[v] if p in idom]  # v's DFS parent among them
            new = done[0]
            for p in done[1:]:  # walk both fingers up to the nearest common dominator
                while p != new:
                    while number[p] < number[new]:
                        p = idom[p]
                    while number[new] < number[p]:
                        new = idom[new]
            changed |= idom.get(v) != new
            idom[v] = new

    def dominates(v, u):
        while u != v and u != start_id:
            u = idom[u]
        return u == v

    return frozenset((u, v) for u, v in edges if u in number and v != start_id and dominates(v, u))


def build_graph(name, nodes, edges, object_flows=(), source_refs=()) -> WorkflowGraph:
    """Check every structural invariant; collect all violations, not just one."""
    nodes = tuple(nodes)
    edges = tuple(tuple(e) for e in edges)
    flows = tuple((p, c, spec) for p, c, spec in object_flows)
    violations: list[str] = []

    ids = [n.id for n in nodes]
    known = set(ids)
    if len(known) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        violations.append(f"DuplicateNode: {', '.join(dupes)}")

    if len(set(edges)) != len(edges):
        violations.append("DuplicateEdge: repeated control edge")
    for u, v in edges:
        if u not in known or v not in known:
            violations.append(f"DanglingEdge: {u} -> {v}")

    starts = [n for n in nodes if n.kind == START]
    if len(starts) > 1:
        violations.append(f"TwoStarts: {', '.join(sorted(n.id for n in starts))}")
    elif not starts:
        violations.append("NoStart: workflow needs a start node")
    if not any(n.kind == FINAL for n in nodes):
        violations.append("NoFinal: workflow needs at least one final node")

    if violations:
        raise StructuralError(violations)

    back = _classify_back_edges(nodes, edges, starts[0].id)
    g = WorkflowGraph(name, nodes, edges, flows, tuple(source_refs), back)

    # in-degree rules see forward edges only (a back-edge is an extra
    # exclusive input); out-degree rules see every edge, because a node's
    # emission arity is its real branch count: a loop decision's back-edge
    # is one of its >= 2 branches
    for n in nodes:
        min_in, max_in, min_out, max_out = _DEGREE_RULES[n.kind]
        fwd_in = sum(1 for e in g.in_edges(n.id) if not g.is_back_edge(e))
        out_all = len(g.out_edges(n.id))
        if fwd_in < min_in or (max_in is not None and fwd_in > max_in):
            violations.append(f"BadDegree: {n.id} ({n.kind}) has {fwd_in} incoming")
        if out_all < min_out or (max_out is not None and out_all > max_out):
            violations.append(f"BadDegree: {n.id} ({n.kind}) has {out_all} outgoing")

    for u, v in g.back_edges:
        if g.node(v).kind in (START, FINAL, JOIN):
            violations.append(f"BadBackEdge: {u} -> {v} targets a {g.node(v).kind} node")

    for n in nodes:
        if n.kind == ACTIVITY and n.binding is None:
            violations.append(f"MissingBinding: activity {n.id}")
        if n.kind == DECISION:
            targets = [t for _, t in n.cases]
            if n.else_target is not None:
                targets.append(n.else_target)
            out_targets = sorted(v for _, v in g.out_edges(n.id))
            if n.else_target is None:
                violations.append(f"DecisionRouting: {n.id} has no else branch")
            elif sorted(targets) != out_targets or len(targets) != len(set(targets)):
                violations.append(f"DecisionRouting: {n.id} cases do not match its edges")

    for p, c, _spec in flows:
        for end in (p, c):
            if not g.has_node(end) or g.node(end).kind != ACTIVITY:
                violations.append(f"ObjectFlowEndpoint: {p} -> {c} must link activities")

    # a reachable cycle with no dominating entry cannot be classified as a
    # loop, and it keeps its members out of the forward order; unreachable
    # islands are verify findings, not build errors, so they are exempt
    if len(g.forward_order()) < len(nodes):
        reachable = g.reachable()
        fwd = [e for e in g.forward_edges() if e[0] in reachable]
        members = "->".join(_first_cycle(dict.fromkeys(i for e in fwd for i in e), fwd))
        violations.append(f"IrreducibleCycle: {members} has no single entry point")

    if violations:
        raise StructuralError(sorted(violations))
    return g


@dataclass(frozen=True, order=True)
class Finding:
    kind: str
    subject: str
    detail: str = ""

    def text(self) -> str:
        return f"{self.kind}({self.subject})" + (f": {self.detail}" if self.detail else "")


@dataclass(frozen=True)
class VerificationReport:
    workflow: str
    mode: str
    findings: tuple[Finding, ...]
    # token-game states expanded, not subsumed, at most STATE_BUDGET; 0 for a
    # graph the block reduction decided, which plays no game
    states: int

    @property
    def sound(self) -> bool:
        return not self.findings


def _first_cycle(roots, edges) -> list[str]:
    """The first cycle a depth-first search meets, from the node the closing
    edge re-enters round to the node that closes it; [] if there is none.

    Roots are tried in order and out-edges in `edges` order, so the cycle is
    the one networkx's find_cycle names for a DiGraph built in these orders.
    """
    succs = defaultdict(list)
    for u, v in edges:
        succs[u].append(v)
    done = set()
    for root in roots:
        if root in done:
            continue
        path, branches = [root], [iter(succs[root])]
        while path:
            v = next(branches[-1], None)
            if v is None:
                done.add(path.pop())
                branches.pop()
            elif v in path:
                return path[path.index(v):]
            elif v not in done:
                path.append(v)
                branches.append(iter(succs[v]))
    return []


def _walk(frontier, step) -> set[str]:
    """The nodes `frontier` reaches by repeated `step`, frontier included."""
    seen = set(frontier)
    frontier = list(seen)
    while frontier:
        for v in step(frontier.pop()):
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return seen


def _structural_findings(g: WorkflowGraph) -> list[Finding]:
    s = g._structure
    reachable = s.reachable
    findings = []

    for n in g.nodes:
        if n.id not in reachable:
            findings.append(Finding(UNREACHABLE, n.id, "no path from start"))

    reaches_final = _walk((n.id for n in g.finals()), lambda v: (u for u, _ in s.in_edges[v]))
    for n in g.nodes:
        if n.id in reachable and n.id not in reaches_final:
            findings.append(Finding(NO_TERMINATION, n.id, "no path to any final"))

    # a cycle with no decision on it survives deleting all decision nodes
    kept = dict.fromkeys(n.id for n in g.nodes if n.kind != DECISION)
    cycle = _first_cycle(kept, [(u, v) for u, v in g.edges if u in kept and v in kept])
    if cycle:
        findings.append(Finding(UNGUARDED_CYCLE, "->".join(cycle), "cycle contains no decision"))

    for p, c, _spec in g.object_flows:
        if p == c or c not in _walk((p,), lambda u: (v for _, v in s.out_edges[u])):
            findings.append(
                Finding(UNBOUND_OBJECT_FLOW, f"{p}->{c}", "no control path producer to consumer")
            )
    return findings


# ---------------------------------------------------------------------------
# block reduction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Run:
    activity: str


@dataclass(frozen=True)
class Seq:
    items: tuple


@dataclass(frozen=True)
class ParMap:
    """Map over parallel branches, then reduce at the named join."""

    branches: tuple
    reduce_join: str


@dataclass(frozen=True)
class Choice:
    decision: str
    guard: Guard
    then: object
    orelse: object


@dataclass(frozen=True)
class Loop:
    """Do-while: run body, then repeat while guard holds."""

    decision: str
    guard: Guard
    body: object
    max_iterations: int


_NEGATED = {"<": ">=", "<=": ">", "==": "!=", "!=": "==", ">=": "<", ">": "<="}


def reduce_blocks(g: WorkflowGraph, max_iterations: int = 100):
    """What start reaches of g as nested Run/Seq/ParMap/Choice/Loop blocks.

    Raises NotSeriesParallel when the graph has no such structure. A fork or
    choice branch inside a loop body stops at the loop's decision, like the
    body itself, and every walk takes forward edges only: the one back edge
    a block owns is its Loop's, from that decision to the header. So no
    branch re-enters a loop, and each walk ends.
    """

    def forward(u: str, v: str) -> str:
        if g.is_back_edge((u, v)):
            raise NotSeriesParallel(f"back edge {u} -> {v} crosses a block boundary")
        return v

    def walk(node_id: str, stop_at: str | None = None):
        """(plan, where it stopped) for the region from node_id: stop_at, a
        join, or None once every path in it has reached a final."""
        items, current = [], node_id
        while current not in (stop_at, None) and g.node(current).kind != JOIN:
            node = g.node(current)
            closers = [u for u, v in g.in_edges(current) if g.is_back_edge((u, v))]
            if closers and closers != [stop_at]:  # a loop body starts at its own header
                loop, current = reduce_loop(current, closers)
                items.append(loop)
            elif node.kind == ACTIVITY:
                items.append(Run(current))
                current = forward(*g.out_edges(current)[0])
            elif node.kind == FORK:
                par, current = reduce_fork(current, stop_at)
                items.append(par)
            else:  # a decision hands the rest of the region to its branches; a final ends it
                if node.kind == DECISION:
                    items.append(reduce_choice(node, stop_at))
                current = None
        return (items[0] if len(items) == 1 else Seq(tuple(items))), current

    def reduce_fork(fork_id: str, stop_at: str | None):
        walks = [walk(forward(*e), stop_at) for e in sorted(g.out_edges(fork_id))]
        ends = {stopped for _, stopped in walks}
        join_id = ends.pop() if len(ends) == 1 else None
        # one join gathers these branches and nothing else
        if join_id in (None, stop_at) or len(g.in_edges(join_id)) != len(walks):
            raise NotSeriesParallel(f"fork {fork_id}: its branches do not meet at one join")
        return ParMap(tuple(p for p, _ in walks), join_id), forward(*g.out_edges(join_id)[0])

    def reduce_choice(node: Node, stop_at: str | None):
        def branch(target):  # it runs to its own end
            plan, stopped = walk(forward(node.id, target), stop_at)
            if stopped is not None:
                raise NotSeriesParallel(
                    f"decision {node.id}: branch via {target} stops at {stopped}"
                )
            return plan

        result = branch(node.else_target)
        for guard, target in reversed(node.cases):
            result = Choice(node.id, guard, branch(target), result)
        return result

    def reduce_loop(header: str, closers: list[str]):
        decider = g.node(closers[0])
        if len(closers) != 1 or decider.kind != DECISION or len(decider.cases) != 1:
            raise NotSeriesParallel(
                f"the loop into {header} is not closed by one two-way decision"
            )
        guard, target = decider.cases[0]
        if target == header:
            target = decider.else_target
        else:  # the else branch repeats the loop
            guard = Guard(guard.observable, _NEGATED[guard.op], guard.value, guard.unit)
        after = forward(decider.id, target)
        body, stopped = walk(header, stop_at=decider.id)
        if stopped != decider.id:
            raise NotSeriesParallel(f"loop body from {header} ends at {stopped}, not {decider.id}")
        return Loop(decider.id, guard, body, max_iterations), after

    try:
        plan, stopped = walk(g.out_edges(g.start().id)[0][1])
    except RecursionError:  # blocks nested deeper than Python's stack allows
        raise NotSeriesParallel("blocks nest too deep to reduce") from None
    if stopped is not None:
        raise NotSeriesParallel(f"workflow tail stops at {stopped}")
    return plan


class _TokenGame:
    """Bounded exploration of (marking, decision assignment, loop counters).

    Each decision takes one static branch per game, fixed the first time
    the decision fires: an unassigned decision forks the search once per
    out-edge and records its choice in the state, an assigned one takes its
    recorded branch again. One search thus covers every static assignment.

    A fire-once node (neither it nor a forward ancestor is a loop head)
    fires at most once, and its move cannot be disabled, flood an edge or
    emit on a back-edge; firing it first keeps every deadlock and flood
    reachable. So a state with an enabled fire-once move expands only the
    first one, and any other state expands every move.

    Loop counters only forbid moves: a state is skipped when one expanded at
    its marking and assignment has counters <= its own in every component.
    States pop in order of counter sum, so no expanded state is subsumed later.
    """

    def __init__(self, g: WorkflowGraph, max_iterations: int):
        self.g = g
        self.max_iterations = max_iterations
        self.edges = list(g.edges)
        self.edge_index = {e: i for i, e in enumerate(self.edges)}
        self.back_pos = {self.edge_index[e]: i for i, e in enumerate(sorted(g.back_edges))}
        self.nodes = [n.id for n in g.nodes]
        self.joins = {n.id for n in g.nodes if n.kind == JOIN}
        position = {node_id: i for i, node_id in enumerate(self.nodes)}
        self.consumer = [position[v] for _, v in self.edges]
        decisions = [n.id for n in g.nodes if n.kind == DECISION]
        self.decision_pos = {d: i for i, d in enumerate(decisions)}
        self.all_in = {n.id: [self.edge_index[e] for e in g.in_edges(n.id)] for n in g.nodes}
        self.out = {n.id: [self.edge_index[e] for e in g.out_edges(n.id)] for n in g.nodes}
        loop_heads = {v for _, v in g.back_edges}
        self.fire_once = set()
        for node_id in g.forward_order():
            ins = g._structure.in_edges[node_id]
            if node_id not in loop_heads and all(u in self.fire_once for u, _ in ins):
                self.fire_once.add(node_id)

    def _enabled_moves(self, marking):
        """Yield (node id, consumed edge indices) for every firable node, in
        node order; only the consumers of marked edges can fire."""
        for pos in sorted(set(compress(self.consumer, marking))):
            node_id = self.nodes[pos]
            if node_id in self.joins:  # build_graph refuses a back edge into a join
                inputs = self.all_in[node_id]
                if all(marking[i] > 0 for i in inputs):
                    yield node_id, tuple(inputs)
            else:
                for i in self.all_in[node_id]:
                    if marking[i] > 0:
                        yield node_id, (i,)

    def _branches(self, node_id, assignment):
        """(emitted edge indices, assignment after) for each way node_id fires."""
        pos = self.decision_pos.get(node_id)
        if pos is None:  # a final has no out-edges, so it emits nothing
            return ((self.out[node_id], assignment),)
        if assignment[pos] is not None:
            return (((assignment[pos],), assignment),)
        return [((i,), assignment[:pos] + (i,) + assignment[pos + 1:]) for i in self.out[node_id]]

    def explore(self):
        """(mode, findings, states expanded) over every static assignment."""
        start_edge = self.edge_index[self.g.out_edges(self.g.start().id)[0]]
        initial = tuple(1 if i == start_edge else 0 for i in range(len(self.edges)))
        state = (initial, (None,) * len(self.decision_pos), (0,) * len(self.back_pos))
        pending, expanded, seen = defaultdict(list), {}, {state}
        deadlocked, flooded_edges = set(), set()
        pending[0].append(state)  # counter sum -> states still to pop
        states, mode = 0, EXHAUSTIVE

        while pending:
            level = min(pending)
            marking, assignment, counts = pending[level].pop()
            if not pending[level]:
                del pending[level]
            kept = expanded.setdefault((marking, assignment), [])
            if any(all(map(operator.le, old, counts)) for old in kept):
                continue
            if states == STATE_BUDGET:  # what it found stands, the rest goes unexplored
                mode = BOUNDED
                break
            kept.append(counts)
            states += 1
            moves = list(self._enabled_moves(marking))
            if not moves:  # so every marked edge waits at a join
                deadlocked.update(self.nodes[pos] for pos in compress(self.consumer, marking))
                continue
            once = next((m for m in moves if m[0] in self.fire_once), None)
            for node_id, consumed in (once,) if once else moves:
                for emitted, next_assignment in self._branches(node_id, assignment):
                    next_counts = list(counts)
                    for i in emitted:
                        if i in self.back_pos:
                            next_counts[self.back_pos[i]] += 1
                    if max(next_counts, default=0) > self.max_iterations:
                        continue
                    next_marking = list(marking)
                    for i in consumed:
                        next_marking[i] -= 1
                    for i in emitted:
                        next_marking[i] += 1
                    # no stored marking holds 2 tokens, so only an emission floods
                    flooded = next((i for i in emitted if next_marking[i] > 1), None)
                    if flooded is not None:
                        flooded_edges.add(self.edges[flooded])
                        continue
                    state = (tuple(next_marking), next_assignment, tuple(next_counts))
                    if state not in seen:
                        seen.add(state)
                        pending[sum(next_counts)].append(state)
        findings = {Finding(JOIN_DEADLOCK, j, "waits on an input that never arrives")
                    for j in deadlocked}
        for u, v in flooded_edges:
            detail = f"edge {u}->{v} accumulates more than one token"
            findings.add(Finding(UNBALANCED_FORK_JOIN, v, detail))
        if mode == BOUNDED:
            detail = f"token game stopped at its budget of {STATE_BUDGET} states"
            findings.add(Finding(TOO_MANY_STATES, self.g.name, detail))
        return mode, findings, states


def verify(g: WorkflowGraph, max_iterations: int = 100) -> VerificationReport:
    """Pure check: structural rules, then the block reduction; only a graph
    that does not reduce plays the token game, which stops after
    STATE_BUDGET states. A stopped search is never called sound."""
    if max_iterations < 0:  # a negative budget would forbid every move
        raise UserError(f"loop budget must be 0 or more, got {max_iterations}")
    try:
        reduce_blocks(g, max_iterations)  # blocks cannot deadlock or flood
        mode, findings, states = EXHAUSTIVE, set(), 0
    except NotSeriesParallel:
        mode, findings, states = _TokenGame(g, max_iterations).explore()
    findings.update(_structural_findings(g))
    return VerificationReport(g.name, mode, tuple(sorted(findings)), states)


def topological_activities(g: WorkflowGraph) -> tuple[str, ...]:
    """Activity ids in forward-edge topological order, ties by id.

    Unreachable activities (possible only in graphs verify will flag) come
    last, sorted by id, so the result is still total and deterministic.
    """
    return tuple(i for i in g.forward_order() if g.node(i).kind == ACTIVITY)
