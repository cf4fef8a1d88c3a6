"""The block reduction that decides structured graphs for verify.

A graph that reduces to Run/Seq/ParMap/Choice/Loop blocks skips the token
game, so these tests check the claim that lets it: on every graph the
reduction accepts, the brute-force oracle in tokenoracle finds exactly the
structural findings, at small and large loop budgets. Anything else the
reduction meets must come back as NotSeriesParallel, never as another error
or a walk that does not end.
"""

import random

import pytest

from gridflow.model import (
    DECISION,
    EXHAUSTIVE,
    FINAL,
    FORK,
    JOIN,
    START,
    Choice,
    Loop,
    Node,
    NotSeriesParallel,
    ParMap,
    Seq,
    StructuralError,
    _structural_findings,
    build_graph,
    reduce_blocks,
    verify,
)
from test_model import (
    SOUND_GRAPHS,
    UNSOUND_GRAPHS,
    act,
    crossed_fork_of_loops_graph,
    deep_oracle,
    fork_in_loop_graph,
    fork_into_loop_graph,
    fork_of_loops_graph,
    guard,
    loops_graph,
    random_graphs,
    wide_fork_graph,
)
from test_reference import cyclic_wiring

BUDGETS = (0, 1, 3, 100)


def two_headed_loop_graph():
    """A fork into end and into a -> b -> d, where d goes back to a or to b:
    both edges out of d are back edges, so no loop block ends at d."""
    nodes = [Node("start", START), Node("f", FORK), act("a"), act("b"), Node("end", FINAL),
             Node("d", DECISION, cases=((guard(), "b"),), else_target="a")]
    edges = [("start", "f"), ("f", "a"), ("f", "end"), ("a", "b"), ("b", "d"), ("d", "a"),
             ("d", "b")]
    return build_graph("two_headed_loop", nodes, edges)


HAND_BUILT = [
    *(builder() for builder in SOUND_GRAPHS + list(UNSOUND_GRAPHS)),
    wide_fork_graph(4),
    *(fork_into_loop_graph(variant) for variant in ("sound", "deadlock", "flood")),
    fork_in_loop_graph(),
    loops_graph(3),
    fork_of_loops_graph(2),
    crossed_fork_of_loops_graph(2),
    two_headed_loop_graph(),
]


def drawn_graphs():
    """Seeded random_graph draws of 4 to 14 nodes, then every cyclic_wiring
    draw that build_graph accepts."""
    for seed in (11, 12, 13):
        yield from random_graphs(700, seed, largest=14)
    rng = random.Random(32)
    for _ in range(2000):
        try:
            yield build_graph("cyclic", *cyclic_wiring(rng, rng.randint(4, 12)))
        except StructuralError:
            continue


def block_types(plan):
    """The block types a plan is made of, nested ones included."""
    if isinstance(plan, Seq):
        children = plan.items
    elif isinstance(plan, ParMap):
        children = plan.branches
    elif isinstance(plan, Choice):
        children = (plan.then, plan.orelse)
    elif isinstance(plan, Loop):
        children = (plan.body,)
    else:
        children = ()
    return {type(plan)}.union(*map(block_types, children))


def test_reduced_graphs_have_only_structural_findings():
    reduced, kinds = 0, set()
    for g in HAND_BUILT + list(drawn_graphs()):
        try:
            plan = reduce_blocks(g)
        except NotSeriesParallel:  # any other error fails the test
            continue
        want = {f.kind for f in _structural_findings(g)}
        for budget in BUDGETS:
            assert deep_oracle(g, budget) == want, (g.name, g.edges, budget)
        reduced += 1
        kinds |= block_types(plan)
    # the claim is only as strong as what reduces
    assert reduced >= 400, reduced
    assert {ParMap, Choice, Loop} <= kinds


def test_verify_skips_the_game_exactly_when_the_graph_reduces():
    for g in HAND_BUILT:
        try:
            reduce_blocks(g)
            reduces = True
        except NotSeriesParallel:
            reduces = False
        report = verify(g)
        assert report.mode == EXHAUSTIVE
        assert (report.states == 0) == reduces, g.name


def test_loop_that_exits_through_a_back_edge_is_refused():
    # the walk used to alternate between the loops at a and at b for ever
    with pytest.raises(NotSeriesParallel, match="back edge d -> b crosses a block boundary"):
        reduce_blocks(two_headed_loop_graph())


def test_fork_into_a_looping_fork_is_refused_not_recursed():
    # the fork inside the loop body sends one branch to the loop's decision,
    # which used to be walked as a choice back into the loop header
    with pytest.raises(NotSeriesParallel, match="fork g: its branches do not meet at one join"):
        reduce_blocks(fork_into_loop_graph("flood"))


@pytest.mark.parametrize("k", [8, 16])
def test_forks_of_loops_reduce_to_parallel_loops(k):
    g = fork_of_loops_graph(k)
    report = verify(g)
    assert (report.mode, report.states, report.sound) == (EXHAUSTIVE, 0, True)
    parmap = reduce_blocks(g).items[0]
    assert isinstance(parmap, ParMap) and len(parmap.branches) == k
    assert all(isinstance(branch.items[0], Loop) for branch in parmap.branches)


def nested_forks_graph(depth):
    """Forks nested `depth` deep, each branching into an activity and the
    next fork, each closed by its own join."""
    nodes, edges = [Node("start", START), Node("end", FINAL), act("leaf")], [("start", "f0")]
    for i in range(depth):
        inner = f"f{i + 1}" if i + 1 < depth else "leaf"
        nodes += [Node(f"f{i}", FORK), act(f"a{i}"), Node(f"j{i}", JOIN)]
        edges += [(f"f{i}", f"a{i}"), (f"a{i}", f"j{i}"), (f"f{i}", inner),
                  (f"j{i + 1}" if i + 1 < depth else "leaf", f"j{i}")]
    edges.append(("j0", "end"))
    return build_graph(f"nested-{depth}", nodes, edges)


def test_nesting_deeper_than_the_stack_gets_the_game():
    # 600 nested blocks outrun Python's default recursion limit of 1,000
    g = nested_forks_graph(600)
    with pytest.raises(NotSeriesParallel, match="nest too deep"):
        reduce_blocks(g)
    report = verify(g)
    assert report.sound and report.mode == EXHAUSTIVE and report.states > 0
    assert verify(nested_forks_graph(20)).states == 0
