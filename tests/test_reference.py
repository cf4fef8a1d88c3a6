"""Differential checks of the verify front end against independent references.

gridflow's own graph algorithms (dominators, cycle naming, reachability and
the transitive reduction of job dependencies) are compared with networkx,
which only the tests depend on. The lexer and parser are compared with a
digest of what they made of the same texts before the lexer matched each
token, with the whitespace and comments before it, in one regex match.
"""

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

from gridflow.dsl import DslSyntaxError, _lex, job_dependencies, parse
from gridflow.errors import UserError
from gridflow.model import (
    ACTIVITY,
    DECISION,
    FINAL,
    FORK,
    JOIN,
    START,
    UNGUARDED_CYCLE,
    Node,
    StructuralError,
    build_graph,
    topological_activities,
    verify,
)
from test_model import (
    _IN_DEGREE,
    _OUT_DEGREE,
    act,
    corpus_builders,
    guard,
    random_graph,
    random_graphs,
)

ROOT = Path(__file__).resolve().parent.parent
FLOWS = sorted((ROOT / "corpus").glob("*/*.flow"))


# ---------------------------------------------------------------------------
# networkx references
# ---------------------------------------------------------------------------


def reference_back_edges(nodes, edges, start):
    """Edges whose target dominates their source; start is left out, as
    networkx 3.6 leaves it out of immediate_dominators."""
    full = nx.DiGraph()
    full.add_nodes_from(n.id for n in nodes)
    full.add_edges_from(edges)
    idom = nx.immediate_dominators(full, start)
    idom.pop(start, None)

    def dominates(v, u):
        while u != v and u in idom:
            u = idom[u]
        return u == v

    return {(u, v) for u, v in edges if u in idom and v in idom and dominates(v, u)}


def reference_irreducible(nodes, edges, start):
    """build_graph's IrreducibleCycle violation, or None."""
    full = nx.DiGraph(edges)
    reachable = nx.descendants(full, start) | {start}
    back = reference_back_edges(nodes, edges, start)
    fwd = nx.DiGraph(e for e in edges if e not in back and e[0] in reachable)
    if nx.is_directed_acyclic_graph(fwd):
        return None
    members = "->".join(u for u, _ in nx.find_cycle(fwd))
    return f"IrreducibleCycle: {members} has no single entry point"


def reference_unguarded_subject(g):
    """The UnguardedCycle finding's subject, or None."""
    reduced = nx.DiGraph()
    reduced.add_nodes_from(n.id for n in g.nodes)
    reduced.add_edges_from(g.edges)
    reduced.remove_nodes_from(n.id for n in g.nodes if n.kind == DECISION)
    try:
        return "->".join(u for u, _ in nx.find_cycle(reduced))
    except nx.NetworkXNoCycle:
        return None


def cyclic_wiring(rng, size):
    """Nodes and edges of a random graph whose extra edges close cycles anywhere.

    Nodes are wired in index order as in test_model.random_graph. Then forks
    and decisions may each get one more edge, to any node, start included:
    back to a dominating node it closes a loop (a decision-free one out of
    a fork), and into a branch it makes a cycle with two entries. Unlike
    random_graph the draw is kept whatever build_graph makes of it.
    """
    kinds = [START] + rng.choices((ACTIVITY, DECISION, FORK, JOIN, FINAL),
                                  (3, 2, 3, 2, 1), k=size - 2) + [FINAL]
    ids = [f"{kind[0]}{i}" for i, kind in enumerate(kinds)]
    edges, open_slots = [], []
    for i, kind in enumerate(kinds):
        if i:
            sources = sorted(set(open_slots))
            want = min(len(sources), len(open_slots) if i == size - 1 else _IN_DEGREE[kind])
            for source in rng.sample(sources, want):
                open_slots.remove(source)
                edges.append((source, ids[i]))
        open_slots += [ids[i]] * _OUT_DEGREE[kind]
    for i, kind in enumerate(kinds):
        if kind in (FORK, DECISION) and rng.random() < 0.6:
            edge = (ids[i], ids[rng.randrange(size)])
            if edge not in edges:
                edges.append(edge)
    nodes = []
    for node_id, kind in zip(ids, kinds):
        if kind == ACTIVITY:
            nodes.append(act(node_id))
        elif kind == DECISION:
            targets = [v for u, v in edges if u == node_id]
            cases = tuple((guard(value=float(n)), t) for n, t in enumerate(targets[1:]))
            nodes.append(Node(node_id, kind, cases=cases, else_target=targets[0] if targets else None))
        else:
            nodes.append(Node(node_id, kind))
    return nodes, edges


BUILDERS = list(corpus_builders())


@pytest.mark.parametrize("builder", [b for _, b in BUILDERS], ids=[n for n, _ in BUILDERS])
def test_corpus_back_edges_match_networkx(builder):
    g = builder()
    assert g.back_edges == reference_back_edges(g.nodes, g.edges, g.start().id)


def test_random_back_edges_match_networkx():
    graphs = random_graphs(600, seed=7, largest=14)
    assert sum(1 for g in graphs if g.back_edges) > 100
    for g in graphs:
        assert g.back_edges == reference_back_edges(g.nodes, g.edges, g.start().id)


def test_cycle_names_match_networkx():
    rng = random.Random(31)
    counts = dict.fromkeys(("built", "irreducible", "unguarded", "into start"), 0)
    for _ in range(2000):
        nodes, edges = cyclic_wiring(rng, rng.randint(4, 12))
        irreducible = reference_irreducible(nodes, edges, "s0")
        counts["into start"] += any(v == "s0" for _, v in edges)
        try:
            g = build_graph("cyclic", nodes, edges)
        except StructuralError as exc:
            named = [v for v in exc.violations if v.startswith("IrreducibleCycle")]
            assert named == ([irreducible] if irreducible else []), edges
            counts["irreducible"] += bool(named)
            continue
        assert irreducible is None
        assert g.back_edges == reference_back_edges(nodes, edges, "s0")
        unguarded = reference_unguarded_subject(g)
        subjects = [f.subject for f in verify(g, 0).findings if f.kind == UNGUARDED_CYCLE]
        assert subjects == ([unguarded] if unguarded else []), edges
        counts["built"] += 1
        counts["unguarded"] += bool(subjects)
    # the draw reaches every string it checks
    assert min(counts.values()) >= 50, counts


def test_job_dependencies_match_networkx_reduction():
    rng = random.Random(41)
    checked = 0
    while checked < 300:
        g = random_graph(rng, rng.randint(8, 20))
        if g is None:
            continue
        checked += 1
        acts = topological_activities(g)
        fwd = nx.DiGraph(g.forward_edges())
        closure = nx.DiGraph()
        closure.add_nodes_from(acts)
        closure.add_edges_from(
            (u, v) for u in acts for v in acts if u != v and nx.has_path(fwd, u, v)
        )
        reduced = nx.transitive_reduction(closure)
        assert job_dependencies(g) == {a: sorted(u for u, _ in reduced.in_edges(a)) for a in acts}


def test_cli_import_leaves_networkx_out():
    # numpy too: only a table's cells and the simulated programs import it
    code = ("import sys, gridflow.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('networkx', 'numpy')))")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# the lexer and parser against recorded results
# ---------------------------------------------------------------------------


def _loops(k, prefix, exit_to):
    out = []
    for i in range(1, k + 1):
        out.append(f'activity {prefix}{i} {{ program: "flip"; capabilities: [loop-probe]; '
                   f'params: [converge_after = "3"]; }}')
        after = f"{prefix}{i + 1}" if i < k else exit_to
        out.append(f"decision c{i} after {prefix}{i} "
                   f"{{ when converged == 1.0 -> {after}; else -> {prefix}{i}; }}")
    return out


def stress_texts():
    """The benchmark's three verifier stress graphs, in declaration order."""
    names = [f"b{i}" for i in range(1, 14)]
    graphs = {
        "seq-loops": ["start -> w1;", *_loops(10, "w", "end")],
        "wide-fork": ["start -> f;", f"fork f after start into ({', '.join(names)});",
                      *(f"activity {b} {{ capabilities: [sim]; }}" for b in names),
                      f"join j waits ({', '.join(names)}) -> c;",
                      "activity c { capabilities: [sim]; }", "c -> end;"],
        "deadlock-behind-loops": [
            "start -> w1;", *_loops(8, "w", "probe"),
            'activity probe { program: "noop"; capabilities: [sim, probe]; params: [flag = "1.0"]; }',
            "decision route after probe { when flag == 1.0 -> a; else -> b; }",
            "activity a { capabilities: [sim]; }", "activity b { capabilities: [sim]; }",
            "join j waits (a, b) -> d;", "activity d { capabilities: [sim]; }", "d -> end;",
        ],
    }
    return ["\n".join([f'workflow "{name}" {{', *(f"  {s}" for s in body), "}", ""])
            for name, body in graphs.items()]


# characters that start, end or break tokens, plus non-ASCII ones
_ALPHABET = 'aZ_-09.e"\\/ \t\n\r;:,=<>!{}()[]#²é\x0b'


def mutations(texts, count, seed):
    """`count` seeded one-character deletions, insertions and replacements."""
    rng = random.Random(seed)
    for _ in range(count):
        text = rng.choice(texts)
        at = rng.randrange(len(text))
        op = rng.choice(("delete", "insert", "replace"))
        char = "" if op == "delete" else rng.choice(_ALPHABET)
        yield text[:at] + char + text[at + (op != "insert"):]


def canonical(g) -> tuple:
    """A graph as plain, ordered values; no set or frozenset repr."""
    nodes = [
        (n.id, n.kind, n.params, n.cite, n.else_target,
         [(gd.observable, gd.op, gd.value, gd.unit.name, t) for gd, t in n.cases],
         n.binding and (n.binding.variant, n.binding.program, n.binding.actuator,
                        sorted(n.binding.capabilities)))
        for n in g.nodes
    ]
    flows = [(p, c, [(o, u.name) for o, u in spec.wanted]) for p, c, spec in g.object_flows]
    return g.name, nodes, g.edges, flows, g.source_refs, sorted(g.back_edges)


def front_end_record(text) -> str:
    """The token kinds and values, and the parsed graph or the error, of one text."""
    try:
        tokens = [(t.kind, t.value) for t in _lex(text)]
    except DslSyntaxError as exc:
        tokens = ("lex error", exc.line, exc.col, str(exc))
    try:
        result = canonical(parse(text))
    except DslSyntaxError as exc:
        result = ("DslSyntaxError", exc.line, exc.col, str(exc))
    except UserError as exc:
        result = (type(exc).__name__, str(exc))
    return repr((tokens, result))


def test_front_end_matches_recorded_digest():
    texts = [p.read_text(encoding="utf-8") for p in FLOWS] + stress_texts()
    digest = hashlib.sha256()
    for text in texts + list(mutations(texts, 5000, seed=2011)):
        digest.update(front_end_record(text).encode())
    assert digest.hexdigest() == (
        "fbabe51b6937819bbe312cbab65f5ba1d327bceb77751eb5d2d677299ec39f82"
    )
