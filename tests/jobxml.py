"""Structural validation of job-sequence XML, mirroring docs/job-sequence.dtd.

Only the tests read documents back, so the validator lives with them; its
cycle check uses networkx, which is a test dependency only.
"""

import re
import xml.etree.ElementTree as ET

import networkx as nx


def validate_job_xml(data: bytes) -> list[str]:
    """Every problem found in the document; [] means valid."""
    problems = []
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        return [f"malformed XML: {exc}"]
    if root.tag != "workflow":
        return [f"root element must be <workflow>, got <{root.tag}>"]
    if not root.get("name"):
        problems.append("<workflow> needs a name attribute")

    jobs = root.find("jobs")
    if jobs is None:
        return problems + ["missing <jobs> element"]
    ids = [j.get("id") for j in jobs.findall("job")]
    if None in ids:
        problems.append("every <job> needs an id")
    if len(set(ids)) != len(ids):
        problems.append("duplicate job ids")

    dep_graph = nx.DiGraph()
    dep_graph.add_nodes_from(ids)
    for job in jobs.findall("job"):
        for dep in job.findall("depends-on"):
            target = dep.get("job")
            if target not in ids:
                problems.append(f"job {job.get('id')}: depends-on unknown job {target!r}")
            else:
                dep_graph.add_edge(target, job.get("id"))
        for inp in job.findall("input"):
            for attr in ("source", "observable", "unit"):
                if not inp.get(attr):
                    problems.append(f"job {job.get('id')}: input missing {attr}")
    if ids and not nx.is_directed_acyclic_graph(dep_graph):
        problems.append("depends-on edges contain a cycle")

    structure = root.find("structure")
    if structure is not None:
        for fork in structure.findall("fork"):
            if len(fork.findall("branch")) < 2:
                problems.append(f"fork {fork.get('id')}: needs at least two branches")
        for join in structure.findall("join"):
            if len(join.findall("wait")) < 2:
                problems.append(f"join {join.get('id')}: needs at least two waits")
        for loop in structure.findall("loop"):
            # ASCII digits only: str.isdigit also takes "²", which int() refuses
            if not re.fullmatch(r"[0-9]+", loop.get("max", "")):
                problems.append("loop wrapper needs an integer max attribute")
    return problems
