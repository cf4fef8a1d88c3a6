"""Graph construction invariants and the soundness verifier.

The verify tests cross-check every small graph, and a seeded set of random
ones, against the brute-force token simulator in tokenoracle, which shares
no code with the verifier.
"""

import dataclasses
import functools
import hashlib
import random
import sys
from pathlib import Path

import networkx as nx
import pytest

from gridflow import model
from gridflow.dsl import _declaration_order, parse
from gridflow.model import (
    ACTIVITY,
    BOUNDED,
    DECISION,
    EXHAUSTIVE,
    FINAL,
    FORK,
    FREE,
    JOIN,
    PINNED_BOTH,
    PINNED_PROGRAM,
    START,
    Binding,
    Guard,
    GuardEvaluationError,
    Node,
    NotSeriesParallel,
    StructuralError,
    WorkflowGraph,
    _TokenGame,
    build_graph,
    reduce_blocks,
    topological_activities,
    verify,
)
from gridflow.errors import UserError
from gridflow.quantities import Dataset, Observable, get_unit
from tokenoracle import brute_force_findings

from test_resources import descriptor

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
ONE = get_unit("dimensionless")
K = get_unit("K")


def act(node_id, caps=("sim",), **extra):
    return Node(node_id, ACTIVITY, binding=Binding(FREE, capabilities=frozenset(caps)), **extra)


def guard(name="flag", op="==", value=1.0):
    return Guard(name, op, value, ONE)


def chain_graph():
    return build_graph(
        "chain",
        [Node("start", START), act("a"), Node("end", FINAL)],
        [("start", "a"), ("a", "end")],
    )


def fork_join_graph():
    nodes = [
        Node("start", START),
        Node("f", FORK),
        act("a"),
        act("b"),
        Node("j", JOIN),
        act("c"),
        Node("end", FINAL),
    ]
    edges = [
        ("start", "f"),
        ("f", "a"),
        ("f", "b"),
        ("a", "j"),
        ("b", "j"),
        ("j", "c"),
        ("c", "end"),
    ]
    return build_graph("fork_join", nodes, edges)


def diamond_graph():
    nodes = [
        Node("start", START),
        Node("d", DECISION, cases=((guard(), "a"),), else_target="b"),
        act("a"),
        act("b"),
        Node("end", FINAL),
    ]
    edges = [("start", "d"), ("d", "a"), ("d", "b"), ("a", "end"), ("b", "end")]
    return build_graph("diamond", nodes, edges)


def loop_graph():
    nodes = [
        Node("start", START),
        act("prep"),
        act("work"),
        Node("d", DECISION, cases=((guard("converged", "!=", 1.0), "work"),), else_target="end"),
        Node("end", FINAL),
    ]
    edges = [("start", "prep"), ("prep", "work"), ("work", "d"), ("d", "work"), ("d", "end")]
    return build_graph("loop", nodes, edges)


def join_deadlock_graph():
    nodes = [
        Node("start", START),
        Node("d", DECISION, cases=((guard(), "a"),), else_target="b"),
        act("a"),
        act("b"),
        Node("j", JOIN),
        act("c"),
        Node("end", FINAL),
    ]
    edges = [
        ("start", "d"),
        ("d", "a"),
        ("d", "b"),
        ("a", "j"),
        ("b", "j"),
        ("j", "c"),
        ("c", "end"),
    ]
    return build_graph("join_deadlock", nodes, edges)


def unbalanced_graph():
    # the fork fires once per loop iteration but the join sits outside the
    # loop, so a second iteration floods the join's first input
    nodes = [
        Node("start", START),
        act("l"),
        Node("f", FORK),
        act("a"),
        act("b"),
        Node("d", DECISION, cases=((guard("again", "==", 1.0), "l"),), else_target="j"),
        Node("j", JOIN),
        Node("end", FINAL),
    ]
    edges = [
        ("start", "l"),
        ("l", "f"),
        ("f", "a"),
        ("f", "b"),
        ("a", "j"),
        ("b", "d"),
        ("d", "l"),
        ("d", "j"),
        ("j", "end"),
    ]
    return build_graph("unbalanced", nodes, edges)


def unguarded_cycle_graph():
    nodes = [
        Node("start", START),
        act("a"),
        Node("f", FORK),
        act("c"),
        Node("end", FINAL),
    ]
    edges = [("start", "a"), ("a", "f"), ("f", "a"), ("f", "c"), ("c", "end")]
    return build_graph("unguarded", nodes, edges)


def unreachable_graph():
    # the x/d island satisfies every degree rule but has no path from start
    nodes = [
        Node("start", START),
        act("a"),
        act("x"),
        Node("d", DECISION, cases=((guard(), "x"),), else_target="end"),
        Node("end", FINAL),
    ]
    edges = [("start", "a"), ("a", "end"), ("x", "d"), ("d", "x"), ("d", "end")]
    return build_graph("unreachable", nodes, edges)


def crossing_graph():
    # sound, but its fork/join regions overlap: not series-parallel
    nodes = [
        Node("start", START),
        Node("f1", FORK),
        act("a"),
        act("b"),
        Node("f2", FORK),
        act("c"),
        Node("j", JOIN),
        act("dd"),
        Node("end", FINAL),
    ]
    edges = [
        ("start", "f1"),
        ("f1", "a"),
        ("f1", "b"),
        ("a", "f2"),
        ("f2", "c"),
        ("f2", "j"),
        ("b", "j"),
        ("j", "dd"),
        ("c", "end"),
        ("dd", "end"),
    ]
    return build_graph("crossing", nodes, edges)


def unbound_flow_graph():
    nodes = [
        Node("start", START),
        Node("f", FORK),
        act("a"),
        act("b"),
        Node("j", JOIN),
        Node("end", FINAL),
    ]
    edges = [("start", "f"), ("f", "a"), ("f", "b"), ("a", "j"), ("b", "j"), ("j", "end")]
    from gridflow.quantities import ExtractionSpec

    return build_graph("unbound_flow", nodes, edges, object_flows=[("a", "b", ExtractionSpec.of())])


def wide_fork_graph(width=13):
    names = [f"b{i}" for i in range(1, width + 1)]
    nodes = [Node("start", START), Node("f", FORK), *map(act, names),
             Node("j", JOIN), act("c"), Node("end", FINAL)]
    edges = [("start", "f"), *(("f", b) for b in names), *((b, "j") for b in names),
             ("j", "c"), ("c", "end")]
    return build_graph("wide_fork", nodes, edges)


def fork_into_loop_graph(variant):
    """A fork feeding a fire-once branch (a) and a guarded loop (w, d) into a join.

    "sound" joins the two; "deadlock" lets a decision on the fire-once branch
    skip the join; "flood" forks the join's input inside the loop body, so a
    second iteration fills it again.
    """
    loop_exit = "j" if variant != "flood" else "out"
    nodes = [
        Node("start", START),
        Node("f", FORK),
        act("a"),
        act("w"),
        Node("d", DECISION, cases=((guard("again", "==", 1.0), "w"),), else_target=loop_exit),
        Node("j", JOIN),
        Node("end", FINAL),
    ]
    edges = [("start", "f"), ("f", "a"), ("f", "w"), ("d", "w"), ("d", loop_exit), ("j", "end")]
    if variant == "deadlock":
        nodes += [Node("x", DECISION, cases=((guard(), "j"),), else_target="out"),
                  Node("out", FINAL)]
        edges += [("a", "x"), ("x", "j"), ("x", "out"), ("w", "d")]
    elif variant == "flood":
        nodes += [Node("g", FORK), Node("out", FINAL)]
        edges += [("a", "j"), ("w", "g"), ("g", "d"), ("g", "j")]
    else:
        edges += [("a", "j"), ("w", "d")]
    return build_graph(f"fork_into_loop_{variant}", nodes, edges)


def fork_in_loop_graph():
    """A fork/join block as the body of a guarded loop: sound."""
    nodes = [
        Node("start", START),
        act("l"),
        Node("f", FORK),
        act("a"),
        act("b"),
        Node("j", JOIN),
        Node("d", DECISION, cases=((guard("again", "==", 1.0), "l"),), else_target="end"),
        Node("end", FINAL),
    ]
    edges = [("start", "l"), ("l", "f"), ("f", "a"), ("f", "b"), ("a", "j"), ("b", "j"),
             ("j", "d"), ("d", "l"), ("d", "end")]
    return build_graph("fork_in_loop", nodes, edges)


def loops_graph(k):
    """k guarded single-activity loops in sequence (perfbench's verify-stress shape)."""
    nodes, edges = [Node("start", START), Node("end", FINAL)], [("start", "w1")]
    for i in range(1, k + 1):
        after = f"w{i + 1}" if i < k else "end"
        nodes += [act(f"w{i}"), Node(f"c{i}", DECISION, else_target=f"w{i}",
                                     cases=((guard("converged", "==", 1.0), after),))]
        edges += [(f"w{i}", f"c{i}"), (f"c{i}", after), (f"c{i}", f"w{i}")]
    return build_graph(f"loops{k}", nodes, edges)


def fork_of_loops_graph(k):
    """A fork into k branches, each a guarded loop (w, c) then an activity x,
    closed by one join: sound, but the loops interleave, so the token game
    grows about 6x per branch."""
    nodes = [Node("start", START), Node("f", FORK), Node("j", JOIN), act("d"),
             Node("end", FINAL)]
    edges = [("start", "f"), ("j", "d"), ("d", "end")]
    for i in range(1, k + 1):
        w, c, x = f"w{i}", f"c{i}", f"x{i}"
        nodes += [act(w), Node(c, DECISION, cases=((guard("converged", "==", 1.0), x),),
                               else_target=w), act(x)]
        edges += [("f", w), (w, c), (c, x), (c, w), (x, "j")]
    return build_graph(f"fork-of-{k}-loops", nodes, edges)


def crossed_fork_of_loops_graph(k):
    """fork_of_loops_graph(k) whose branch 1 ends in a fork into (y, j), with
    y -> end: still sound, but its regions overlap, so it does not reduce to
    blocks and only the token game decides it. The game stops at its budget
    from k = 6; at k = 4 it is sound in 1,954 states."""
    g = fork_of_loops_graph(k)
    nodes = [*g.nodes, Node("g", FORK), act("y")]
    edges = [e for e in g.edges if e != ("x1", "j")]
    edges += [("x1", "g"), ("g", "y"), ("g", "j"), ("y", "end")]
    return build_graph(f"crossed-fork-of-{k}-loops", nodes, edges)


def deep_oracle(g, budget):
    """brute_force_findings with room for its one frame per move at a large budget."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 10 * budget + 1000))
    try:
        return brute_force_findings(g, budget)
    finally:
        sys.setrecursionlimit(limit)


SOUND_GRAPHS = [chain_graph, fork_join_graph, diamond_graph, loop_graph, crossing_graph]
UNSOUND_GRAPHS = {
    join_deadlock_graph: "JoinDeadlock",
    unbalanced_graph: "UnbalancedForkJoin",
    unguarded_cycle_graph: "UnguardedCycle",
    unreachable_graph: "Unreachable",
    unbound_flow_graph: "UnboundObjectFlow",
}


class TestBuildErrors:
    def base_nodes(self):
        return [Node("start", START), act("a"), Node("end", FINAL)]

    def test_two_starts(self):
        nodes = self.base_nodes() + [Node("start2", START)]
        with pytest.raises(StructuralError, match="TwoStarts"):
            build_graph("w", nodes, [("start", "a"), ("a", "end"), ("start2", "a")])

    def test_no_final(self):
        with pytest.raises(StructuralError, match="NoFinal"):
            build_graph("w", [Node("start", START), act("a")], [("start", "a")])

    def test_dangling_edge(self):
        with pytest.raises(StructuralError, match="DanglingEdge"):
            build_graph("w", self.base_nodes(), [("start", "a"), ("a", "ghost")])

    def test_duplicate_node(self):
        nodes = self.base_nodes() + [act("a")]
        with pytest.raises(StructuralError, match="DuplicateNode"):
            build_graph("w", nodes, [("start", "a"), ("a", "end")])

    def test_fork_with_one_branch(self):
        nodes = [Node("start", START), Node("f", FORK), act("a"), Node("end", FINAL)]
        edges = [("start", "f"), ("f", "a"), ("a", "end")]
        with pytest.raises(StructuralError, match="BadDegree"):
            build_graph("w", nodes, edges)

    def test_join_with_one_input(self):
        nodes = [Node("start", START), act("a"), Node("j", JOIN), Node("end", FINAL)]
        edges = [("start", "a"), ("a", "j"), ("j", "end")]
        with pytest.raises(StructuralError, match="BadDegree"):
            build_graph("w", nodes, edges)

    def test_activity_with_two_forward_inputs(self):
        nodes = [
            Node("start", START),
            Node("d", DECISION, cases=((guard(), "a"),), else_target="b"),
            act("a"),
            act("b"),
            act("c"),
            Node("end", FINAL),
        ]
        edges = [
            ("start", "d"),
            ("d", "a"),
            ("d", "b"),
            ("a", "c"),
            ("b", "c"),
            ("c", "end"),
        ]
        with pytest.raises(StructuralError, match="BadDegree"):
            build_graph("w", nodes, edges)

    def test_decision_without_else(self):
        nodes = [
            Node("start", START),
            Node("d", DECISION, cases=((guard(), "a"), (guard("g2"), "b"))),
            act("a"),
            act("b"),
            Node("end", FINAL),
        ]
        edges = [("start", "d"), ("d", "a"), ("d", "b"), ("a", "end"), ("b", "end")]
        with pytest.raises(StructuralError, match="DecisionRouting"):
            build_graph("w", nodes, edges)

    def test_decision_cases_must_match_edges(self):
        nodes = [
            Node("start", START),
            Node("d", DECISION, cases=((guard(), "ghost"),), else_target="b"),
            act("a"),
            act("b"),
            Node("end", FINAL),
        ]
        edges = [("start", "d"), ("d", "a"), ("d", "b"), ("a", "end"), ("b", "end")]
        with pytest.raises(StructuralError, match="DecisionRouting"):
            build_graph("w", nodes, edges)

    def test_back_edge_into_join_rejected(self):
        nodes = [
            Node("start", START),
            Node("f", FORK),
            act("a"),
            act("b"),
            Node("j", JOIN),
            act("c"),
            Node("d", DECISION, cases=((guard(), "j"),), else_target="end"),
            Node("end", FINAL),
        ]
        edges = [
            ("start", "f"),
            ("f", "a"),
            ("f", "b"),
            ("a", "j"),
            ("b", "j"),
            ("j", "c"),
            ("c", "d"),
            ("d", "j"),
            ("d", "end"),
        ]
        with pytest.raises(StructuralError, match="BadBackEdge"):
            build_graph("w", nodes, edges)

    def test_activity_without_binding(self):
        nodes = [Node("start", START), Node("a", ACTIVITY), Node("end", FINAL)]
        with pytest.raises(StructuralError, match="MissingBinding"):
            build_graph("w", nodes, [("start", "a"), ("a", "end")])

    def test_forward_cycle_without_single_entry(self):
        # j1 and j2 each enter from d, so neither dominates the other and
        # neither edge between them is a back edge
        nodes = [
            Node("start", START),
            Node("d", DECISION, cases=((guard("x"), "j1"), (guard("y"), "j2")), else_target="end"),
            Node("j1", JOIN),
            Node("j2", JOIN),
            Node("end", FINAL),
        ]
        edges = [
            ("start", "d"), ("d", "j1"), ("d", "j2"), ("d", "end"), ("j1", "j2"), ("j2", "j1"),
        ]
        with pytest.raises(StructuralError) as exc:
            build_graph("irreducible", nodes, edges)
        assert exc.value.violations == ["IrreducibleCycle: j1->j2 has no single entry point"]

    def test_object_flow_must_link_activities(self):
        from gridflow.quantities import ExtractionSpec

        nodes = self.base_nodes()
        with pytest.raises(StructuralError, match="ObjectFlowEndpoint"):
            build_graph(
                "w",
                nodes,
                [("start", "a"), ("a", "end")],
                object_flows=[("start", "a", ExtractionSpec.of())],
            )


class TestBackEdges:
    def test_loop_back_edge_classified(self):
        g = loop_graph()
        assert g.back_edges == {("d", "work")}
        assert ("d", "end") not in g.back_edges

    def test_chain_has_no_back_edges(self):
        assert chain_graph().back_edges == frozenset()

    def test_forward_edges_exclude_back(self):
        g = loop_graph()
        assert ("d", "work") not in g.forward_edges()
        assert ("work", "d") in g.forward_edges()


class TestVerify:
    @pytest.mark.parametrize("builder", SOUND_GRAPHS, ids=lambda b: b.__name__)
    def test_sound_graphs_have_zero_findings(self, builder):
        report = verify(builder())
        assert report.sound, [f.text() for f in report.findings]
        assert report.mode == EXHAUSTIVE

    @pytest.mark.parametrize(
        "builder,kind", UNSOUND_GRAPHS.items(), ids=lambda x: getattr(x, "__name__", x)
    )
    def test_unsound_graphs_flag_expected_kind(self, builder, kind):
        report = verify(builder())
        assert not report.sound
        assert kind in {f.kind for f in report.findings}, [f.text() for f in report.findings]

    def test_verify_is_deterministic(self):
        g = unbalanced_graph()
        assert verify(g) == verify(g)

    @pytest.mark.parametrize(
        "builder",
        SOUND_GRAPHS + list(UNSOUND_GRAPHS),
        ids=lambda b: b.__name__,
    )
    def test_agrees_with_brute_force_oracle(self, builder):
        g = builder()
        oracle_kinds = brute_force_findings(g)
        report = verify(g)
        assert {f.kind for f in report.findings} == oracle_kinds
        assert report.sound == (not oracle_kinds)

    @pytest.mark.parametrize("budget", (0, 1, 2, 3, 100))
    def test_agrees_with_oracle_on_random_graphs(self, budget):
        for g in random_graphs():
            kinds = {f.kind for f in verify(g, budget).findings}
            assert kinds == brute_force_findings(g, budget), g.edges

    def test_adding_unguarded_cycle_never_removes_findings(self):
        # monotonicity: new looping structure adds findings, never subtracts
        before = {f.kind for f in verify(fork_join_graph()).findings}
        nodes = [
            Node("start", START),
            Node("f", FORK),
            act("a"),
            act("b"),
            Node("j", JOIN),
            act("c"),
            Node("f2", FORK),
            Node("end", FINAL),
        ]
        edges = [
            ("start", "f"),
            ("f", "a"),
            ("f", "b"),
            ("a", "j"),
            ("b", "j"),
            ("j", "c"),
            ("c", "f2"),
            ("f2", "end"),
            ("f2", "f"),
        ]
        after = {f.kind for f in verify(build_graph("fork_join_cycle", nodes, edges)).findings}
        assert before <= after
        assert "UnguardedCycle" in after

    def test_decision_limit_deadlock_gets_the_token_game(self):
        # 13 decisions: no decision count keeps a graph from the game
        text = (CORPUS / "unsound" / "decision_limit_deadlock.flow").read_text(encoding="utf-8")
        report = verify(parse(text))
        assert (report.mode, report.states, report.sound) == (EXHAUSTIVE, 54, False)
        assert [f.text() for f in report.findings] == [
            "JoinDeadlock(j): waits on an input that never arrives"
        ]

    def test_join_deadlock_names_the_join(self):
        report = verify(join_deadlock_graph())
        assert any(f.kind == "JoinDeadlock" and f.subject == "j" for f in report.findings)

    def test_wide_fork_explores_one_order_of_its_branches(self):
        # every subset of finished branches would be 2^13 markings
        g = wide_fork_graph(13)
        report = verify(g)
        assert (report.mode, report.states, report.sound) == (EXHAUSTIVE, 0, True)
        mode, findings, states = _TokenGame(g, 100).explore()
        assert (mode, findings) == (EXHAUSTIVE, set())
        assert states <= 2 * len(g.nodes)

    def test_stopped_search_is_never_sound(self, monkeypatch):
        # the crossed fork of 8 loops is sound, but its game goes over budget
        monkeypatch.setattr(model, "STATE_BUDGET", 100)
        report = verify(crossed_fork_of_loops_graph(8))
        assert (report.mode, report.states, report.sound) == (BOUNDED, 100, False)
        assert [f.text() for f in report.findings] == [
            "TooManyStates(crossed-fork-of-8-loops): token game stopped at its budget of 100 states"
        ]

    def test_crossed_fork_of_loops_gets_the_token_game(self):
        g = crossed_fork_of_loops_graph(4)
        with pytest.raises(NotSeriesParallel):
            reduce_blocks(g)
        report = verify(g)
        assert (report.mode, report.states, report.sound) == (EXHAUSTIVE, 1954, True)

    def test_stopped_search_keeps_what_it_found(self, monkeypatch):
        g = fork_into_loop_graph("deadlock")
        full = verify(g)
        assert {f.kind for f in full.findings} == {"JoinDeadlock"}
        monkeypatch.setattr(model, "STATE_BUDGET", full.states - 1)
        report = verify(g)
        assert report.mode == BOUNDED
        assert {f.kind for f in report.findings} == {"JoinDeadlock", "TooManyStates"}

    @pytest.mark.parametrize("k, states", [(2, 40), (4, 1300)])
    def test_fork_of_loops_agrees_with_oracle(self, k, states):
        g = fork_of_loops_graph(k)
        report = verify(g, 3)
        assert {f.kind for f in report.findings} == brute_force_findings(g, 3) == set()
        report = verify(g)
        assert (report.mode, report.states, report.sound) == (EXHAUSTIVE, 0, True)
        assert _TokenGame(g, 100).explore() == (EXHAUSTIVE, set(), states)

    def test_fire_once_stops_at_the_first_loop_head(self):
        game = _TokenGame(fork_into_loop_graph("sound"), 100)
        assert game.fire_once == {"start", "f", "a"}

    @pytest.mark.parametrize(
        "variant, kinds",
        [("sound", set()), ("deadlock", {"JoinDeadlock"}),
         ("flood", {"UnbalancedForkJoin"})],
    )
    @pytest.mark.parametrize("budget", (0, 1, 2, 3, 100))
    def test_fork_into_loop_agrees_with_oracle(self, variant, kinds, budget):
        g = fork_into_loop_graph(variant)
        report = verify(g, budget)
        assert {f.kind for f in report.findings} == brute_force_findings(g, budget)
        if budget == 100:
            assert {f.kind for f in report.findings} == kinds

    @pytest.mark.parametrize(
        "builder", [loop_graph, unguarded_cycle_graph, fork_in_loop_graph],
        ids=lambda b: b.__name__,
    )
    def test_states_do_not_grow_with_the_budget(self, builder):
        # a state whose loop counters are all at least an expanded state's,
        # at the same marking and assignment, is subsumed and not expanded
        g = builder()
        states = set()
        for budget in (3, 100, 1000):
            report = verify(g, budget)
            assert {f.kind for f in report.findings} == deep_oracle(g, budget), budget
            states.add(_TokenGame(g, budget).explore()[2])
        assert len(states) == 1, states

    def test_sequential_loops_explore_a_few_states_each(self):
        g = loops_graph(10)
        report = verify(g)
        assert report.sound and report.mode == EXHAUSTIVE
        mode, findings, states = _TokenGame(g, 100).explore()
        assert (mode, findings) == (EXHAUSTIVE, set())
        assert states < 5 * 10

    def test_negative_budget_is_refused(self):
        with pytest.raises(UserError, match="loop budget"):
            verify(loop_graph(), -1)

    def test_findings_match_the_pinned_digest(self):
        # (mode, findings) of 3,000 verify calls, as the token game reported
        # them before loop counters were subsumed; any changed verdict shows
        digest = hashlib.sha256()
        for g in random_graphs(600, seed=7, largest=14):
            for budget in (0, 1, 2, 3, 100):
                report = verify(g, budget)
                findings = [(f.kind, f.subject, f.detail) for f in report.findings]
                digest.update(repr((report.mode, findings)).encode())
        assert digest.hexdigest() == (
            "56cdf5abb5d7a7ef78bac32f21555ee8d38dc72d45ef9ecca97ebba590210e2e"
        )

    def test_random_graphs_cover_every_kind(self):
        # the random differential test is only as strong as what it draws
        graphs = random_graphs()
        assert {n.kind for g in graphs for n in g.nodes} == {
            START, ACTIVITY, DECISION, FORK, JOIN, FINAL
        }
        assert any(g.back_edges for g in graphs)
        reports = [verify(g) for g in graphs]
        assert any(r.sound for r in reports)
        assert {"JoinDeadlock", "UnbalancedForkJoin"} <= {f.kind for r in reports for f in r.findings}

    def test_decision_branch_is_fixed_when_it_first_fires(self):
        game = _TokenGame(loop_graph(), 100)
        first = game._branches("d", (None,))
        assert sorted(game.edges[i] for (i,), _ in first) == [("d", "end"), ("d", "work")]
        for (i,), assignment in first:
            assert assignment == (i,)
            assert game._branches("d", assignment) == (((i,), assignment),)
            assert game._branches("work", assignment) == ((game.out["work"], assignment),)

    @pytest.mark.parametrize("k, states", [(13, 54), (40, 162)])
    def test_loop_chains_are_verified_within_the_budget(self, k, states, monkeypatch):
        g = loops_graph(k)
        report = verify(g)
        assert (report.mode, report.states, report.sound) == (EXHAUSTIVE, 0, True)
        assert _TokenGame(g, 100).explore() == (EXHAUSTIVE, set(), states)
        # a search that needs exactly the budget finishes; one state less stops it
        monkeypatch.setattr(model, "STATE_BUDGET", states)
        assert _TokenGame(g, 100).explore() == (EXHAUSTIVE, set(), states)
        monkeypatch.setattr(model, "STATE_BUDGET", states - 1)
        mode, findings, stopped_at = _TokenGame(g, 100).explore()
        assert (mode, stopped_at, {f.kind for f in findings}) == (BOUNDED, states - 1, {"TooManyStates"})


_IN_DEGREE = {ACTIVITY: 1, DECISION: 1, FORK: 1, JOIN: 2, FINAL: 1}
_OUT_DEGREE = {START: 1, ACTIVITY: 1, DECISION: 2, FORK: 2, JOIN: 1, FINAL: 0}


def random_graph(rng, size):
    """A random graph of `size` nodes that build_graph accepts, or None.

    Nodes are wired in index order: each takes its forward inputs from the
    out-edges earlier nodes left open, and the last node, a final, takes
    the rest. Some decisions get one more edge, back to an earlier node;
    build_graph keeps the draw only if that edge closes a loop.
    """
    kinds = [START] + rng.choices((ACTIVITY, DECISION, FORK, JOIN, FINAL),
                                  (3, 3, 2, 2, 1), k=size - 2) + [FINAL]
    ids = [f"{kind[0]}{i}" for i, kind in enumerate(kinds)]
    edges, open_slots = [], []
    for i, kind in enumerate(kinds):
        if i:
            sources = sorted(set(open_slots))
            want = len(open_slots) if i == size - 1 else _IN_DEGREE[kind]
            if len(sources) < want:
                return None
            for source in rng.sample(sources, want):
                open_slots.remove(source)
                edges.append((source, ids[i]))
        open_slots += [ids[i]] * _OUT_DEGREE[kind]
        if kind == DECISION and i > 1 and rng.random() < 0.5:
            edges.append((ids[i], ids[rng.randrange(1, i)]))
    nodes = []
    for node_id, kind in zip(ids, kinds):
        if kind == ACTIVITY:
            nodes.append(act(node_id))
        elif kind == DECISION:
            targets = [v for u, v in edges if u == node_id]
            cases = tuple((guard(value=float(n)), t) for n, t in enumerate(targets[1:]))
            nodes.append(Node(node_id, kind, cases=cases, else_target=targets[0]))
        else:
            nodes.append(Node(node_id, kind))
    try:
        return build_graph(f"random-{size}", nodes, edges)
    except StructuralError:
        return None


@functools.cache
def random_graphs(count=200, seed=6, largest=9):
    """`count` seeded random well-formed graphs of 4 to `largest` nodes."""
    rng = random.Random(seed)
    graphs = []
    while len(graphs) < count:
        g = random_graph(rng, rng.randint(4, largest))
        if g is not None:
            graphs.append(g)
    return tuple(graphs)


class TestGuards:
    def ds(self, **scalars):
        return Dataset.build([Observable.scalar(k, v, K) for k, v in scalars.items()])

    def test_compare_with_conversion(self):
        g = Guard("temp", ">", 300.0, K)
        assert g.evaluate(self.ds(temp=350.0))
        assert not g.evaluate(self.ds(temp=250.0))

    def test_missing_observable(self):
        g = Guard("temp", ">", 300.0, K)
        with pytest.raises(GuardEvaluationError):
            g.evaluate(self.ds(pressure=1.0))

    def test_dimension_mismatch(self):
        g = Guard("temp", ">", 1.0, get_unit("angstrom"))
        with pytest.raises(GuardEvaluationError):
            g.evaluate(self.ds(temp=350.0))

    def test_all_operators(self):
        ds = self.ds(x=2.0)
        for op, expected in [("<", False), ("<=", False), ("==", False),
                             ("!=", True), (">=", True), (">", True)]:
            assert Guard("x", op, 1.0, K).evaluate(ds) is expected


class TestBindingRequirements:
    def test_variants_map_to_requirements(self):
        nodes = [
            Node("start", START),
            Node("p1", ACTIVITY, binding=Binding(PINNED_BOTH, program="gulp", actuator="gulp@c1")),
            Node("p2", ACTIVITY, binding=Binding(PINNED_PROGRAM, program="dlpoly")),
            Node("p3", ACTIVITY, binding=Binding(FREE, capabilities=frozenset({"analysis"}))),
            Node("end", FINAL),
        ]
        edges = [("start", "p1"), ("p1", "p2"), ("p2", "p3"), ("p3", "end")]
        g = build_graph("w", nodes, edges)
        admits = {n.id: n.binding.admits for n in g.activities()}
        assert admits["p1"](descriptor("gulp@c1", "gulp"))
        assert not admits["p1"](descriptor("gulp@c2", "gulp"))  # pinned actuator
        assert not admits["p1"](descriptor("gulp@c1", "gulpx"))  # pinned program
        assert admits["p2"](descriptor("dlpoly@any", "dlpoly", ("md", "nve")))
        assert not admits["p2"](descriptor("gulp@c1", "gulp", ("md",)))
        assert admits["p3"](descriptor("tsfit@d", "tsfit", ("analysis", "fit")))
        assert not admits["p3"](descriptor("tsfit@d", "tsfit", ("fit",)))

    def test_binding_variant_validation(self):
        with pytest.raises(StructuralError):
            Binding(PINNED_BOTH, program="x")
        with pytest.raises(StructuralError):
            Binding(PINNED_PROGRAM, program="x", actuator="y")
        with pytest.raises(StructuralError):
            Binding(FREE)

    def test_topological_activities_ties_by_id(self):
        g = fork_join_graph()
        assert topological_activities(g) == ("a", "b", "c")


def reference_order(g):
    """The forward order as every pass used to rebuild it: the lexicographic
    topological order of the reachable forward subgraph, then the unreachable
    ids sorted."""
    full = nx.DiGraph()
    full.add_nodes_from(n.id for n in g.nodes)
    full.add_edges_from(g.edges)
    start = g.start().id
    reachable = set(nx.descendants(full, start)) | {start}
    fwd = nx.DiGraph()
    fwd.add_nodes_from(reachable)
    fwd.add_edges_from(e for e in g.forward_edges() if e[0] in reachable and e[1] in reachable)
    order = list(nx.lexicographical_topological_sort(fwd))
    return order + sorted(n.id for n in g.nodes if n.id not in reachable)


def corpus_builders():
    for path in sorted(CORPUS.glob("*/*.flow")):
        text = path.read_text(encoding="utf-8")
        try:
            parse(text)
        except StructuralError:
            continue
        yield path.name, lambda text=text: parse(text)


INDEXED = [(b.__name__, b) for b in SOUND_GRAPHS + list(UNSOUND_GRAPHS)] + list(corpus_builders())


class TestDerivedStructure:
    @pytest.mark.parametrize("builder", [b for _, b in INDEXED], ids=[n for n, _ in INDEXED])
    def test_orders_match_the_networkx_reference(self, builder):
        g = builder()
        order = reference_order(g)
        assert topological_activities(g) == tuple(i for i in order if g.node(i).kind == ACTIVITY)
        assert _declaration_order(g) == [
            i for i in order if g.node(i).kind in (ACTIVITY, FORK, JOIN, DECISION)
        ]

    @pytest.mark.parametrize("builder", [b for _, b in INDEXED], ids=[n for n, _ in INDEXED])
    def test_edge_lists_match_declaration_order_scans(self, builder):
        g = builder()
        for n in g.nodes:
            assert g.out_edges(n.id) == tuple(e for e in g.edges if e[0] == n.id)
            assert g.in_edges(n.id) == tuple(e for e in g.edges if e[1] == n.id)

    def test_unreachable_ids_come_last_sorted(self):
        g = unreachable_graph()
        assert g.reachable() == {"start", "a", "end"}
        assert g.forward_order() == ("start", "a", "end", "d", "x")

    def test_structure_is_derived_once_and_outside_equality(self):
        g = fork_join_graph()
        assert g._structure is g._structure
        assert "_structure" not in {f.name for f in dataclasses.fields(g)}
        twin = dataclasses.replace(g)
        assert "_structure" not in vars(twin)
        assert g == twin and hash(g) == hash(twin)
