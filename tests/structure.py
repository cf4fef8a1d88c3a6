"""Structural equality of workflow graphs, for round-trip tests.

Only tests compare two graphs this way, so the helper lives with them.
"""


def same_structure(g, other) -> bool:
    """Equality up to declaration order of nodes, edges and flows."""
    return (
        g.name == other.name
        and set(g.nodes) == set(other.nodes)
        and set(g.edges) == set(other.edges)
        and set(g.object_flows) == set(other.object_flows)
        and g.source_refs == other.source_refs
    )
