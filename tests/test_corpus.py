"""The shipped corpus: verdicts, round trips, and registry examples."""

from pathlib import Path

import pytest

from jobxml import validate_job_xml
from structure import same_structure
from gridflow.dsl import emit_dsl, parse
from gridflow.model import StructuralError, verify
from gridflow.resources import parse_descriptor_xml, render_descriptor_xml

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
SOUND = sorted((CORPUS / "sound").glob("*.flow"))
UNSOUND = sorted((CORPUS / "unsound").glob("*.flow"))
RESOURCES = sorted((ROOT / "src" / "gridflow" / "pool").glob("*.xml"))

# construction-blocking defects come back as StructuralError violations,
# everything else as verifier findings
EXPECTED_KIND = {
    "dangling_join.flow": "BadDegree",
    "decision_join_deadlock.flow": "JoinDeadlock",
    "decision_limit_deadlock.flow": "JoinDeadlock",
    "no_final.flow": "NoFinal",
    "two_starts.flow": "TwoStarts",
    "unbalanced_fork_join.flow": "UnbalancedForkJoin",
    "unbound_flow.flow": "UnboundObjectFlow",
    "unguarded_cycle.flow": "UnguardedCycle",
    "unreachable.flow": "Unreachable",
}

names = lambda paths: [p.name for p in paths]


def flagged_kinds(text: str) -> set[str]:
    try:
        graph = parse(text)
    except StructuralError as exc:
        return {v.split(":", 1)[0] for v in exc.violations}
    return {f.kind for f in verify(graph).findings}


class TestInventory:
    def test_at_least_six_each(self):
        assert len(SOUND) >= 6
        assert len(UNSOUND) >= 6

    def test_every_unsound_file_has_an_expectation(self):
        assert names(UNSOUND) == sorted(EXPECTED_KIND)


class TestVerdicts:
    @pytest.mark.parametrize("path", SOUND, ids=names(SOUND))
    def test_sound_files_have_zero_findings(self, path):
        report = verify(parse(path.read_text(encoding="utf-8")))
        assert report.sound
        assert report.findings == ()

    @pytest.mark.parametrize("path", UNSOUND, ids=names(UNSOUND))
    def test_unsound_files_carry_the_expected_kind(self, path):
        kinds = flagged_kinds(path.read_text(encoding="utf-8"))
        assert EXPECTED_KIND[path.name] in kinds


class TestRoundTrips:
    def parseable(self):
        out = []
        for path in SOUND + UNSOUND:
            text = path.read_text(encoding="utf-8")
            try:
                out.append((path.name, text, parse(text)))
            except StructuralError:
                continue
        return out

    def test_emit_is_a_parse_fixpoint(self):
        for name, text, graph in self.parseable():
            emitted = emit_dsl(graph)
            again = parse(emitted)
            assert same_structure(graph, again), name
            assert emit_dsl(again) == emitted, name

    @pytest.mark.parametrize("path", RESOURCES, ids=names(RESOURCES))
    def test_resource_examples_round_trip(self, path):
        text = path.read_text(encoding="utf-8")
        descriptor = parse_descriptor_xml(text)
        assert descriptor.id == path.stem
        assert render_descriptor_xml(descriptor) == text


class TestJobXmlSchema:
    def emitted_roots(self):
        import xml.etree.ElementTree as ET

        from gridflow.dsl import to_job_xml

        for path in SOUND:
            data = to_job_xml(parse(path.read_text(encoding="utf-8")))
            yield path.name, data, ET.fromstring(data)

    def test_dtd_covers_every_emitted_element(self):
        import re

        dtd = (CORPUS.parent / "docs" / "job-sequence.dtd").read_text(encoding="utf-8")
        declared = set(re.findall(r"<!ELEMENT (\S+)", dtd))
        seen = set()
        for _name, _data, root in self.emitted_roots():
            seen |= {el.tag for el in root.iter()}
        assert {"workflow", "jobs", "job", "structure"} <= seen
        assert seen <= declared

    def test_emitted_documents_validate(self):
        for name, data, _root in self.emitted_roots():
            assert validate_job_xml(data) == [], name
