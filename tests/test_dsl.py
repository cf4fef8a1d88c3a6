"""Workflow language: parsing, canonical emission, and the translators."""

import xml.etree.ElementTree as ET
from pathlib import Path

import networkx as nx
import pytest

from gridflow.dsl import (
    Choice,
    DslSyntaxError,
    Loop,
    NotSeriesParallel,
    ParMap,
    Run,
    SemanticError,
    Seq,
    UnsoundWorkflow,
    emit_dsl,
    job_dependencies,
    parse,
    plan_text,
    to_dot,
    to_functional_plan,
    to_job_xml,
)
from jobxml import validate_job_xml
from structure import same_structure
from gridflow.model import (
    ACTIVITY,
    DECISION,
    FINAL,
    FORK,
    FREE,
    JOIN,
    PINNED_BOTH,
    PINNED_PROGRAM,
    START,
    StructuralError,
    build_graph,
    verify,
)
from gridflow.quantities import get_unit
from test_model import (
    act,
    crossing_graph,
    diamond_graph,
    fork_join_graph,
    guard,
    loop_graph,
    unbalanced_graph,
)
from gridflow.model import Binding, Guard, Node

MINIMAL = """
workflow "minimal" {
  start -> a;
  activity a { capabilities: [sim]; }
  a -> end;
}
"""

FORKED = """
workflow "forked" {
  start -> f;
  activity a { capabilities: [sim]; }
  activity b { capabilities: [sim]; }
  activity c { capabilities: [sim]; }
  fork f after start into (a, b);
  join j waits (a, b) -> c;
  c -> end;
}
"""

LOOPED = """
workflow "looped" {
  start -> prep;
  activity prep { capabilities: [sim]; }
  activity work { capabilities: [sim]; }
  prep -> work;
  decision d after work { when converged != 1.0 -> work; else -> end; }
}
"""

STUDY = """
workflow "study" {
  cite "methods handbook, 3rd edition";
  start -> build;
  activity build {
    program: "latgen";
    actuator: "latgen@cluster1";
    params: [cells = "8"];
    outputs: [sites];
    cite: ["latgen manual"];
  }
  activity relax {
    program: "mcsim";
    capabilities: [mc];
    params: [steps = "1000", temperature = "300"];
    inputs: [build.sites "angstrom"];
    outputs: [occupancy];
  }
  activity analyze {
    capabilities: [timeseries, fitting];
    inputs: [relax.occupancy "dimensionless"];
  }
  build -> relax;
  relax -> analyze;
  analyze -> end;
}
"""


class TestParse:
    def test_minimal_structure(self):
        g = parse(MINIMAL)
        kinds = {n.id: n.kind for n in g.nodes}
        assert kinds == {"start": START, "a": ACTIVITY, "end": FINAL}
        assert set(g.edges) == {("start", "a"), ("a", "end")}

    def test_fork_and_join_edges(self):
        g = parse(FORKED)
        assert g.node("f").kind == FORK
        assert g.node("j").kind == JOIN
        assert set(g.edges) == {
            ("start", "f"),
            ("f", "a"),
            ("f", "b"),
            ("a", "j"),
            ("b", "j"),
            ("j", "c"),
            ("c", "end"),
        }

    def test_loop_back_edge_classified(self):
        g = parse(LOOPED)
        assert g.back_edges == frozenset({("d", "work")})

    def test_decision_routing(self):
        g = parse(LOOPED)
        d = g.node("d")
        assert d.kind == DECISION
        assert d.else_target == "end"
        (case_guard, target), = d.cases
        assert target == "work"
        assert case_guard == Guard("converged", "!=", 1.0, get_unit("dimensionless"))

    def test_binding_variants(self):
        g = parse(STUDY)
        assert g.node("build").binding.variant == PINNED_BOTH
        assert g.node("build").binding.actuator == "latgen@cluster1"
        assert g.node("relax").binding.variant == PINNED_PROGRAM
        assert g.node("analyze").binding.variant == FREE
        assert g.node("analyze").binding.capabilities == frozenset({"timeseries", "fitting"})

    def test_params_sorted_by_key(self):
        g = parse(STUDY)
        assert g.node("relax").params == (("steps", "1000"), ("temperature", "300"))

    def test_object_flows_carry_units(self):
        g = parse(STUDY)
        flows = {(p, c): spec for p, c, spec in g.object_flows}
        spec = flows[("build", "relax")]
        assert spec.wanted == (("sites", get_unit("angstrom")),)

    def test_source_refs_and_cites(self):
        g = parse(STUDY)
        assert g.source_refs == ("methods handbook, 3rd edition",)
        assert g.node("build").cite == ("latgen manual",)

    def test_guard_unit_defaults_to_dimensionless(self):
        g = parse(LOOPED)
        (case_guard, _), = g.node("d").cases
        assert case_guard.unit.name == "dimensionless"

    def test_input_must_match_declared_outputs(self):
        bad = STUDY.replace("[build.sites ", "[build.cells ")
        with pytest.raises(SemanticError, match="declared outputs"):
            parse(bad)

    def test_inputs_without_output_declaration_pass(self):
        # producers that do not enumerate outputs accept any observable name
        text = MINIMAL.replace(
            "activity a { capabilities: [sim]; }",
            'activity a { capabilities: [sim]; }\n'
            '  activity b { capabilities: [sim]; inputs: [a.anything "K"]; }\n'
            "  a -> b;",
        ).replace("a -> end;", "b -> end;")
        g = parse(text)
        assert len(g.object_flows) == 1

    def test_duplicate_declaration_rejected(self):
        text = MINIMAL.replace(
            "activity a { capabilities: [sim]; }",
            "activity a { capabilities: [sim]; }\n  activity a { capabilities: [sim]; }",
        )
        with pytest.raises(SemanticError, match="declared twice"):
            parse(text)

    @pytest.mark.parametrize(
        "declaration",
        [
            "activity end { capabilities: [sim]; }",
            "activity start { capabilities: [sim]; }",
            "fork end after a into (a);",
            "join start waits (a) -> end;",
            "decision end after a { when x > 1 -> a; else -> end; }",
        ],
    )
    def test_start_and_end_cannot_be_redeclared(self, declaration):
        # `activity end` once hid the implicit final node, so verify said only NoFinal
        text = MINIMAL.replace("  a -> end;", f"  a -> end;\n  {declaration}")
        reserved = declaration.split()[1]
        with pytest.raises(SemanticError, match=f"line 6: '{reserved}' is reserved"):
            parse(text)

    def test_actuator_without_program_rejected(self):
        text = MINIMAL.replace(
            "{ capabilities: [sim]; }", '{ actuator: "x@y"; capabilities: [sim]; }'
        )
        with pytest.raises(SemanticError, match="actuator"):
            parse(text)

    def test_unknown_unit_rejected(self):
        text = STUDY.replace('"angstrom"', '"furlongs"')
        with pytest.raises(SemanticError):
            parse(text)

    def test_structural_violations_surface(self):
        with pytest.raises(StructuralError, match="start"):
            parse('workflow "two" { start -> a; start -> a; activity a { capabilities: [x]; } a -> end; }')

    def test_comments_ignored(self):
        g = parse(MINIMAL.replace("start -> a;", "start -> a; // entry\n// whole line"))
        assert g.has_node("a")


class TestSyntaxErrors:
    def test_reports_line_and_column(self):
        text = 'workflow "w" {\n  start =>\n}'
        with pytest.raises(DslSyntaxError) as err:
            parse(text)
        assert err.value.line == 2
        assert "->" in err.value.expected or "'->'" in str(err.value)

    def test_missing_semicolon(self):
        with pytest.raises(DslSyntaxError, match="';'"):
            parse('workflow "w" { start -> a activity a { capabilities: [x]; } }')

    def test_unknown_activity_property(self):
        with pytest.raises(DslSyntaxError, match="program/actuator"):
            parse('workflow "w" { activity a { color: "red"; } }')

    def test_stray_character(self):
        with pytest.raises(DslSyntaxError):
            parse('workflow "w" { @ }')

    def test_truncated_input(self):
        with pytest.raises(DslSyntaxError, match="end of input"):
            parse('workflow "w" { start -> a;')

    def test_decision_needs_when(self):
        with pytest.raises(DslSyntaxError, match="'when'"):
            parse('workflow "w" { decision d after a { else -> end; } }')


class TestRoundTrip:
    @pytest.mark.parametrize("text", [MINIMAL, FORKED, LOOPED, STUDY], ids=["minimal", "forked", "looped", "study"])
    def test_parse_emit_parse_fixpoint(self, text):
        first = parse(text)
        emitted = emit_dsl(first)
        second = parse(emitted)
        assert same_structure(first, second)
        assert emit_dsl(second) == emitted

    @pytest.mark.parametrize(
        "builder",
        [fork_join_graph, diamond_graph, loop_graph, crossing_graph, unbalanced_graph],
        ids=["fork_join", "diamond", "loop", "crossing", "unbalanced"],
    )
    def test_programmatic_graphs_round_trip(self, builder):
        g = builder()
        reparsed = parse(emit_dsl(g))
        assert same_structure(g, reparsed)

    def test_emission_ignores_construction_order(self):
        nodes = [Node("start", START), act("a"), act("b"), Node("end", FINAL)]
        edges = [("start", "a"), ("a", "b"), ("b", "end")]
        one = build_graph("w", nodes, edges)
        other = build_graph("w", list(reversed(nodes)), list(reversed(edges)))
        assert emit_dsl(one) == emit_dsl(other)

    def test_multi_final_graph_not_expressible(self):
        g = build_graph(
            "two-ends",
            [
                Node("start", START),
                Node("d", DECISION, cases=((guard(), "a"),), else_target="b"),
                act("a"),
                act("b"),
                Node("end1", FINAL),
                Node("end2", FINAL),
            ],
            [("start", "d"), ("d", "a"), ("d", "b"), ("a", "end1"), ("b", "end2")],
        )
        with pytest.raises(SemanticError, match="one final"):
            emit_dsl(g)

    def test_emitted_text_is_deterministic(self):
        assert emit_dsl(parse(STUDY)) == emit_dsl(parse(STUDY))


class TestFunctionalPlan:
    def test_chain_is_run_sequence(self):
        plan = to_functional_plan(parse(STUDY))
        assert plan == Seq((Run("build"), Run("relax"), Run("analyze")))

    def test_single_activity_is_bare_run(self):
        assert to_functional_plan(parse(MINIMAL)) == Run("a")

    def test_fork_becomes_parmap(self):
        plan = to_functional_plan(parse(FORKED))
        assert plan == Seq((ParMap((Run("a"), Run("b")), "j"), Run("c")))

    def test_decision_becomes_choice(self):
        plan = to_functional_plan(diamond_graph())
        assert isinstance(plan, Choice)
        assert plan.then == Run("a")
        assert plan.orelse == Run("b")
        assert plan.guard == guard()

    def test_loop_repeats_while_case_guard_holds(self):
        plan = to_functional_plan(parse(LOOPED))
        assert plan == Seq(
            (
                Run("prep"),
                Loop("d", Guard("converged", "!=", 1.0, get_unit("dimensionless")), Run("work"), 100),
            )
        )

    def test_loop_guard_negated_when_back_edge_is_else(self):
        nodes = [
            Node("start", START),
            act("work"),
            Node(
                "d",
                DECISION,
                cases=((Guard("converged", "==", 1.0, get_unit("dimensionless")), "end"),),
                else_target="work",
            ),
            Node("end", FINAL),
        ]
        g = build_graph("until", nodes, [("start", "work"), ("work", "d"), ("d", "end"), ("d", "work")])
        plan = to_functional_plan(g)
        assert plan == Loop("d", Guard("converged", "!=", 1.0, get_unit("dimensionless")), Run("work"), 100)

    def test_crossing_graph_is_not_series_parallel(self):
        with pytest.raises(NotSeriesParallel):
            to_functional_plan(crossing_graph())

    def test_unsound_graph_refused(self):
        with pytest.raises(UnsoundWorkflow):
            to_functional_plan(unbalanced_graph())

    def test_plan_text_is_stable(self):
        text = plan_text(to_functional_plan(parse(FORKED)))
        assert "parmap" in text and "run a" in text
        assert text == plan_text(to_functional_plan(parse(FORKED)))


class TestJobXml:
    def test_chain_dependencies(self):
        doc = ET.fromstring(to_job_xml(parse(STUDY)))
        jobs = {j.get("id"): j for j in doc.find("jobs")}
        assert [d.get("job") for d in jobs["relax"].findall("depends-on")] == ["build"]
        assert [d.get("job") for d in jobs["analyze"].findall("depends-on")] == ["relax"]

    def test_fork_dependencies_reduced(self):
        # s0 precedes b both directly (through the bare fork branch) and
        # through a; only the a edge survives reduction
        nodes = [
            Node("start", START),
            act("s0"),
            Node("f", FORK),
            act("a"),
            Node("j", JOIN),
            act("b"),
            Node("end", FINAL),
        ]
        edges = [
            ("start", "s0"),
            ("s0", "f"),
            ("f", "a"),
            ("f", "j"),
            ("a", "j"),
            ("j", "b"),
            ("b", "end"),
        ]
        g = build_graph("reduced", nodes, edges)
        assert job_dependencies(g) == {"s0": [], "a": ["s0"], "b": ["a"]}

    def test_dependencies_match_reachability_reduction(self):
        g = crossing_graph()
        deps = job_dependencies(g)
        fwd = nx.DiGraph(g.forward_edges())
        acts = {n.id for n in g.activities()}
        closure = nx.DiGraph(
            (u, v) for u in acts for v in acts if u != v and nx.has_path(fwd, u, v)
        )
        closure.add_nodes_from(acts)
        reduced = nx.transitive_reduction(closure)
        assert deps == {a: sorted(u for u, _ in reduced.in_edges(a)) for a in acts}

    def test_document_is_byte_deterministic(self):
        assert to_job_xml(parse(STUDY)) == to_job_xml(parse(STUDY))

    def test_params_inputs_and_cites_serialized(self):
        doc = ET.fromstring(to_job_xml(parse(STUDY)))
        assert doc.get("name") == "study"
        assert doc.find("cite").text == "methods handbook, 3rd edition"
        relax = next(j for j in doc.find("jobs") if j.get("id") == "relax")
        assert relax.get("program") == "mcsim"
        params = {p.get("name"): p.get("value") for p in relax.findall("param")}
        assert params == {"steps": "1000", "temperature": "300"}
        inp = relax.find("input")
        assert (inp.get("source"), inp.get("observable"), inp.get("unit")) == (
            "build",
            "sites",
            "angstrom",
        )

    def test_structure_section_lists_fork_join_loop(self):
        doc = ET.fromstring(to_job_xml(parse(FORKED)))
        structure = doc.find("structure")
        fork = structure.find("fork")
        assert [b.get("target") for b in fork.findall("branch")] == ["a", "b"]
        join = structure.find("join")
        assert join.get("target") == "c"

        doc = ET.fromstring(to_job_xml(parse(LOOPED)))
        loop = doc.find("structure").find("loop")
        assert loop.get("decision") == "d"
        assert loop.get("back-to") == "work"
        assert loop.get("max") == "100"
        assert "converged" in loop.get("guard")

    def test_unsound_graph_refused(self):
        with pytest.raises(UnsoundWorkflow):
            to_job_xml(unbalanced_graph())

    def test_validator_accepts_own_output(self):
        assert validate_job_xml(to_job_xml(parse(STUDY))) == []
        assert validate_job_xml(to_job_xml(parse(FORKED))) == []

    def test_validator_flags_defects(self):
        data = to_job_xml(parse(STUDY))
        assert validate_job_xml(data.replace(b"<jobs>", b"<tasks>", 1)) != []
        assert validate_job_xml(data.replace(b'job="build"', b'job="ghost"', 1)) != []
        assert validate_job_xml(b"<workflow name='w'><jobs><job id='a'>") != []
        mangled = data.replace(b'<job id="build"', b'<job id="relax"', 1)
        assert any("duplicate" in p for p in validate_job_xml(mangled))

    def test_validator_takes_only_ascii_digits_as_loop_max(self):
        # "²" passes str.isdigit, but int() refuses it
        flow = Path(__file__).resolve().parent.parent / "corpus" / "sound" / "loop_converge.flow"
        data = to_job_xml(parse(flow.read_text(encoding="utf-8")))
        assert validate_job_xml(data) == []
        superscript = data.replace(b'max="100"', 'max="²"'.encode(), 1)
        assert superscript != data
        assert validate_job_xml(superscript) == ["loop wrapper needs an integer max attribute"]


class TestDot:
    def test_shapes_and_clusters(self):
        dot = to_dot(parse(STUDY))
        assert dot.startswith('digraph "study"')
        assert "shape=diamond" not in dot
        assert 'subgraph cluster_pinned_both' in dot
        assert 'subgraph cluster_pinned_program' in dot
        assert 'subgraph cluster_free' in dot
        assert '"build" [shape=box, style=rounded' in dot

    def test_decision_edges_labelled_and_back_edge_dashed(self):
        dot = to_dot(parse(LOOPED))
        assert 'label="converged != 1 dimensionless"' in dot
        assert "style=dashed" in dot
        assert 'label="else"' in dot

    def test_output_deterministic(self):
        assert to_dot(parse(FORKED)) == to_dot(parse(FORKED))


class TestVerifyIntegration:
    def test_parsed_graphs_verify_sound(self):
        for text in (MINIMAL, FORKED, LOOPED, STUDY):
            assert verify(parse(text)).sound

    def test_parse_keeps_deadlock_graph_for_verifier(self):
        text = """
        workflow "dl" {
          start -> d;
          activity a { capabilities: [sim]; }
          activity b { capabilities: [sim]; }
          activity c { capabilities: [sim]; }
          decision d after start { when flag == 1.0 -> a; else -> b; }
          join j waits (a, b) -> c;
          c -> end;
        }
        """
        report = verify(parse(text))
        assert not report.sound
        assert "JoinDeadlock" in {f.kind for f in report.findings}
