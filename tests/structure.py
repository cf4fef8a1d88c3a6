"""Workflow graphs as the tests see them: structural equality for round-trip
tests, and the corpus case study at a chosen size.

Only tests compare two graphs this way or resize the study, so the helpers
live with them.
"""

import re
from pathlib import Path

from gridflow.dsl import parse

CASE_STUDY = Path(__file__).resolve().parent.parent / "corpus" / "sound" / "case_study.flow"


def same_structure(g, other) -> bool:
    """Equality up to declaration order of nodes, edges and flows."""
    return (
        g.name == other.name
        and set(g.nodes) == set(other.nodes)
        and set(g.edges) == set(other.edges)
        and set(g.object_flows) == set(other.object_flows)
        and g.source_refs == other.source_refs
    )


def case_study(**sizes):
    """corpus/sound/case_study.flow, parsed after each given size param
    (cells, cell_length, theta, n_helium, steps) has its quoted value
    replaced by the repr of the one given."""
    text = CASE_STUDY.read_text(encoding="utf-8")
    for key, value in sizes.items():
        text, found = re.subn(rf'\b{key} = "[^"]*"', f'{key} = "{value!r}"', text)
        assert found == 1, f"case study has no single param {key!r}"
    return parse(text)
