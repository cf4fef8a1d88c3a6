"""Resource fabric: simulation programs virtualized behind one service shape.

A resource is a calculator (the machine that runs jobs) paired with one
installed program. Descriptors carry everything the system needs to choose,
license-check, and launch that pair: capability tags for discovery, a license
with its citation, and a launch template whose ``${placeholder}`` slots are
filled by pure text substitution when a job is rendered.

Execution itself is delegated to an executor object (see simgrid); this
module stays deterministic and free of clocks.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

from .errors import UserError
from .quantities import ExtractionSpec, get_unit

__all__ = [
    "License",
    "Calculator",
    "LaunchTemplate",
    "ResourceDescriptor",
    "JobRequest",
    "JobStatus",
    "ResourceRegistry",
    "render_launch",
    "parse_descriptor_xml",
    "read_descriptors",
    "render_descriptor_xml",
    "ResourceError",
    "DuplicateResource",
    "InvalidDescriptor",
    "UnknownResource",
    "UnknownJob",
    "UnboundPlaceholder",
    "MissingInput",
    "QUEUED",
    "SUCCEEDED",
    "FAILED",
    "WITHDRAWN",
]


class ResourceError(UserError):
    pass


class DuplicateResource(ResourceError):
    pass


class InvalidDescriptor(ResourceError):
    pass


class UnknownResource(ResourceError):
    pass


class UnknownJob(ResourceError):
    pass


class UnboundPlaceholder(ResourceError):
    pass


class MissingInput(ResourceError):
    pass


LICENSE_KINDS = ("open", "academic", "commercial")

# job lifecycle; the only legal moves are queued->{succeeded,failed}, within
# the tick that starts the job, and queued->withdrawn
QUEUED = "queued"
SUCCEEDED = "succeeded"
FAILED = "failed"
WITHDRAWN = "withdrawn"


@dataclass(frozen=True)
class License:
    kind: str
    citation: str = ""

    def __post_init__(self):
        if self.kind not in LICENSE_KINDS:
            raise InvalidDescriptor(f"unknown license kind: {self.kind!r}")
        if self.kind != "open" and not self.citation.strip():
            raise InvalidDescriptor(f"{self.kind} license requires a citation")


@dataclass(frozen=True)
class Calculator:
    name: str
    platform: str
    max_concurrent: int = 1

    def __post_init__(self):
        if self.max_concurrent < 1:
            raise InvalidDescriptor(f"calculator {self.name}: max_concurrent must be >= 1")


_PLACEHOLDER_RE = re.compile(r"\$\{([A-Za-z_][A-Za-z0-9_.\-]*)\}")


@dataclass(frozen=True)
class LaunchTemplate:
    """Command pattern plus the dataset slots it consumes and produces.

    Each input slot names a staged file and the observables it wants, each
    in a unit. A job's slot is filled by a staged input that holds every
    wanted observable in the wanted unit; nothing is converted to fit it.
    Valid placeholders are the declared slot names, ``workdir``, and
    ``params.<key>``.
    """

    command_pattern: str
    input_slots: tuple[tuple[str, ExtractionSpec], ...]
    output_slot: str
    platform: str = "any"

    def __post_init__(self):
        names = [n for n, _ in self.input_slots]
        if len(set(names)) != len(names):
            raise InvalidDescriptor("duplicate input slot names in template")
        for name in self.placeholders():
            if name == "workdir" or name.startswith("params."):
                continue
            if name not in names:
                raise InvalidDescriptor(f"template references undeclared slot ${{{name}}}")

    def placeholders(self) -> tuple[str, ...]:
        return tuple(m.group(1) for m in _PLACEHOLDER_RE.finditer(self.command_pattern))


# a store keeps a registered descriptor as resources/<id>.xml, so an id is
# one plain file name: no path separator, no leading dot
_RESOURCE_ID = re.compile(r"[A-Za-z0-9][A-Za-z0-9@._-]*")


@dataclass(frozen=True)
class ResourceDescriptor:
    """One calculator+program pair. `program` is the bare program name;
    discovery pins match on it, so the version lives in its own field."""

    id: str
    program: str
    calculator: Calculator
    capabilities: frozenset[str]
    license: License
    launch_template: LaunchTemplate
    cost_weight: float = 1.0
    version: str = ""

    def __post_init__(self):
        if not _RESOURCE_ID.fullmatch(self.id):
            raise InvalidDescriptor(
                f"resource id {self.id!r} must start with a letter or digit and "
                "hold only letters, digits, '@', '.', '_' and '-'"
            )
        if not self.capabilities:
            raise InvalidDescriptor(f"resource {self.id}: capabilities must be nonempty")
        if self.cost_weight < 0:
            raise InvalidDescriptor(f"resource {self.id}: cost_weight must be nonnegative")

    @property
    def program_spec(self) -> str:
        return f"{self.program}-{self.version}" if self.version else self.program


def _freeze_params(params) -> tuple[tuple[str, str], ...]:
    if hasattr(params, "items"):
        params = params.items()
    return tuple(sorted((str(k), str(v)) for k, v in params))


@dataclass(frozen=True)
class JobRequest:
    resource_id: str
    activity_id: str
    inputs: tuple[tuple[str, str], ...]  # (slot name, dataset hash)
    params: dict[str, str]


@dataclass(frozen=True)
class JobStatus:
    state: str  # QUEUED, SUCCEEDED, FAILED or WITHDRAWN
    result: object | None = None  # the produced Dataset, once succeeded
    reason: str | None = None


class ResourceRegistry:
    """Registered descriptors, looked up by id or discovered by binding."""

    def __init__(self):
        self._descriptors: dict[str, ResourceDescriptor] = {}

    def register(self, d: ResourceDescriptor) -> str:
        if d.id in self._descriptors:
            raise DuplicateResource(f"resource already registered: {d.id}")
        self._descriptors[d.id] = d
        return d.id

    def get(self, resource_id: str) -> ResourceDescriptor:
        try:
            return self._descriptors[resource_id]
        except KeyError:
            raise UnknownResource(f"unknown resource: {resource_id}") from None

    def discover(self, binding) -> list[str]:
        """The ids of the resources a model.Binding admits, by cost, then id."""
        hits = [d for d in self._descriptors.values() if binding.admits(d)]
        hits.sort(key=lambda d: (d.cost_weight, d.id))
        return [d.id for d in hits]


def render_launch(t: LaunchTemplate, req: JobRequest, workdir: str) -> str:
    """The command line of a job: the launch template filled by pure text
    replacement, each input slot naming its staged file <workdir>/<slot>.dat.
    Nothing is executed."""
    inputs = dict(req.inputs)
    mapping = {"workdir": workdir}
    for slot, _spec in t.input_slots:
        if slot not in inputs:
            raise MissingInput(f"request missing input slot: {slot}")
        mapping[slot] = f"{workdir}/{slot}.dat"
    params = req.params

    def fill(match: re.Match) -> str:
        name = match.group(1)
        if name in mapping:
            return mapping[name]
        if name.startswith("params."):
            key = name[len("params."):]
            if key in params:
                return params[key]
        raise UnboundPlaceholder(f"unbound placeholder ${{{name}}}")

    return _PLACEHOLDER_RE.sub(fill, t.command_pattern)


# ---------------------------------------------------------------------------
# XML descriptor files
#
#   <resource id="..." cost-weight="1.0">
#     <program name="..." version="..."/>
#     <calculator name="..." platform="..." max-concurrent="2"/>
#     <capabilities><capability>md</capability>...</capabilities>
#     <license kind="academic">citation text</license>
#     <template platform="..." output="result">
#       <command>prog ${conf} -o ${workdir}/out</command>
#       <input slot="conf"><want name="positions" unit="angstrom"/></input>
#     </template>
#   </resource>
# ---------------------------------------------------------------------------


def _require(elem: ET.Element | None, what: str) -> ET.Element:
    if elem is None:
        raise InvalidDescriptor(f"descriptor missing <{what}> element")
    return elem


def _attr(elem: ET.Element, name: str) -> str:
    value = elem.get(name)
    if value is None:
        raise InvalidDescriptor(f"<{elem.tag}> missing attribute {name!r}")
    return value


def parse_descriptor_xml(text: str) -> ResourceDescriptor:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise InvalidDescriptor(f"malformed XML: {exc}") from None
    if root.tag != "resource":
        raise InvalidDescriptor(f"root element must be <resource>, got <{root.tag}>")

    program = _require(root.find("program"), "program")
    program_name = _attr(program, "name")
    version = program.get("version", "")

    calc_elem = _require(root.find("calculator"), "calculator")
    try:
        max_concurrent = int(calc_elem.get("max-concurrent", "1"))
    except ValueError:
        raise InvalidDescriptor("max-concurrent must be an integer") from None
    calculator = Calculator(_attr(calc_elem, "name"), _attr(calc_elem, "platform"), max_concurrent)

    caps_elem = _require(root.find("capabilities"), "capabilities")
    capabilities = frozenset(
        (c.text or "").strip() for c in caps_elem.findall("capability") if (c.text or "").strip()
    )

    lic_elem = _require(root.find("license"), "license")
    license = License(_attr(lic_elem, "kind"), (lic_elem.text or "").strip())

    tmpl_elem = _require(root.find("template"), "template")
    cmd_elem = _require(tmpl_elem.find("command"), "command")
    slots = []
    for input_elem in tmpl_elem.findall("input"):
        wanted = []
        for want in input_elem.findall("want"):
            wanted.append((_attr(want, "name"), get_unit(_attr(want, "unit"))))
        slots.append((_attr(input_elem, "slot"), ExtractionSpec.of(*wanted)))
    template = LaunchTemplate(
        (cmd_elem.text or "").strip(),
        tuple(slots),
        _attr(tmpl_elem, "output"),
        tmpl_elem.get("platform", "any"),
    )

    try:
        cost_weight = float(root.get("cost-weight", "1.0"))
    except ValueError:
        raise InvalidDescriptor("cost-weight must be a number") from None
    return ResourceDescriptor(
        _attr(root, "id"),
        program_name,
        calculator,
        capabilities,
        license,
        template,
        cost_weight,
        version,
    )


def read_descriptors(directory: Path) -> list[ResourceDescriptor]:
    """Every descriptor file (*.xml) in a directory, none if it is missing.
    A file that is no valid descriptor is refused with its path."""
    descriptors = []
    for path in sorted(directory.glob("*.xml")):
        try:
            descriptors.append(parse_descriptor_xml(path.read_text(encoding="utf-8")))
        except (InvalidDescriptor, UnicodeDecodeError) as exc:
            raise InvalidDescriptor(f"{path}: {exc}") from None
    return descriptors


def render_descriptor_xml(d: ResourceDescriptor) -> str:
    """Inverse of parse_descriptor_xml; deterministic bytes for a descriptor."""
    root = ET.Element("resource", {"id": d.id, "cost-weight": repr(d.cost_weight)})
    prog = {"name": d.program}
    if d.version:
        prog["version"] = d.version
    ET.SubElement(root, "program", prog)
    ET.SubElement(
        root,
        "calculator",
        {
            "name": d.calculator.name,
            "platform": d.calculator.platform,
            "max-concurrent": str(d.calculator.max_concurrent),
        },
    )
    caps = ET.SubElement(root, "capabilities")
    for cap in sorted(d.capabilities):
        ET.SubElement(caps, "capability").text = cap
    lic = ET.SubElement(root, "license", {"kind": d.license.kind})
    if d.license.citation:
        lic.text = d.license.citation
    tmpl = ET.SubElement(
        root,
        "template",
        {"platform": d.launch_template.platform, "output": d.launch_template.output_slot},
    )
    ET.SubElement(tmpl, "command").text = d.launch_template.command_pattern
    for slot, spec in d.launch_template.input_slots:
        inp = ET.SubElement(tmpl, "input", {"slot": slot})
        for name, unit in spec.wanted:
            ET.SubElement(inp, "want", {"name": name, "unit": unit.name})
    ET.indent(root)
    return ET.tostring(root, encoding="unicode") + "\n"
