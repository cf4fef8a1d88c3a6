"""Descriptors, discovery ordering, launch rendering, XML loading."""

import pytest

from gridflow.model import FREE, PINNED_BOTH, PINNED_PROGRAM, Binding
from gridflow.quantities import ExtractionSpec
from gridflow.resources import (
    Calculator,
    DuplicateResource,
    InvalidDescriptor,
    JobRequest,
    LaunchTemplate,
    License,
    MissingInput,
    ResourceDescriptor,
    ResourceRegistry,
    UnboundPlaceholder,
    UnknownResource,
    parse_descriptor_xml,
    read_descriptors,
    render_descriptor_xml,
    render_launch,
)


def descriptor(rid="gulp@cluster1", program="gulp", caps=("mc-gcmc",), cost=1.0,
               kind="academic", max_concurrent=2):
    return ResourceDescriptor(
        id=rid,
        program=program,
        calculator=Calculator("cluster1", "linux-x86_64", max_concurrent),
        capabilities=frozenset(caps),
        license=License(kind, "" if kind == "open" else f"{program} reference"),
        launch_template=LaunchTemplate(
            f"{program} ${{conf}} -o ${{workdir}}/out.dat",
            (("conf", ExtractionSpec.of()),),
            "result",
        ),
        cost_weight=cost,
    )


class TestDescriptors:
    def test_license_needs_citation_unless_open(self):
        License("open")
        with pytest.raises(InvalidDescriptor):
            License("academic", "")
        with pytest.raises(InvalidDescriptor):
            License("gratis", "x")

    def test_capabilities_nonempty(self):
        with pytest.raises(InvalidDescriptor):
            descriptor(caps=())

    @pytest.mark.parametrize("rid", ["", "../x", "sub/x", "a\\b", ".hidden", "-x", "a b"])
    def test_id_is_one_plain_file_name(self, rid):
        with pytest.raises(InvalidDescriptor, match="resource id"):
            descriptor(rid=rid)

    def test_template_rejects_undeclared_slot(self):
        with pytest.raises(InvalidDescriptor):
            LaunchTemplate("run ${mystery}", (), "out")

    def test_template_allows_workdir_and_params(self):
        t = LaunchTemplate("run ${conf} ${workdir} ${params.nsteps}",
                           (("conf", ExtractionSpec.of()),), "out")
        assert t.placeholders() == ("conf", "workdir", "params.nsteps")

    def test_max_concurrent_positive(self):
        with pytest.raises(InvalidDescriptor):
            Calculator("c", "linux", 0)


class TestRegistry:
    def test_register_and_get(self):
        reg = ResourceRegistry()
        rid = reg.register(descriptor())
        assert reg.get(rid).program == "gulp"

    def test_duplicate_rejected(self):
        reg = ResourceRegistry()
        reg.register(descriptor())
        with pytest.raises(DuplicateResource):
            reg.register(descriptor())

    def test_unknown_resource(self):
        with pytest.raises(UnknownResource):
            ResourceRegistry().get("ghost")


class TestDiscover:
    def setup_method(self):
        self.reg = ResourceRegistry()
        self.reg.register(descriptor("dlpoly@cluster1", "dlpoly", ("md",), cost=2.0))
        self.reg.register(descriptor("dlpoly@cluster2", "dlpoly", ("md",), cost=1.0))
        self.reg.register(descriptor("gulp@cluster1", "gulp", ("mc-gcmc",), cost=1.0))

    def test_pinned_both(self):
        binding = Binding(PINNED_BOTH, program="gulp", actuator="gulp@cluster1")
        assert self.reg.discover(binding) == ["gulp@cluster1"]

    def test_pinned_program_orders_by_cost_then_id(self):
        binding = Binding(PINNED_PROGRAM, program="dlpoly")
        assert self.reg.discover(binding) == ["dlpoly@cluster2", "dlpoly@cluster1"]

    def test_capability_only(self):
        binding = Binding(FREE, capabilities=frozenset({"md"}))
        assert self.reg.discover(binding) == ["dlpoly@cluster2", "dlpoly@cluster1"]

    def test_no_provider_is_empty_not_error(self):
        binding = Binding(FREE, capabilities=frozenset({"cbmc"}))
        assert self.reg.discover(binding) == []

    def test_ties_break_lexicographically(self):
        self.reg.register(descriptor("aaa@x", "dlpoly", ("md",), cost=1.0))
        binding = Binding(PINNED_PROGRAM, program="dlpoly")
        assert self.reg.discover(binding) == ["aaa@x", "dlpoly@cluster2", "dlpoly@cluster1"]

    def test_deterministic(self):
        binding = Binding(FREE, capabilities=frozenset({"md"}))
        assert self.reg.discover(binding) == self.reg.discover(binding)


class TestRenderLaunch:
    def template(self):
        return LaunchTemplate(
            "sim ${conf} ${field} -n ${params.nsteps} -o ${workdir}/out.dat",
            (("conf", ExtractionSpec.of()), ("field", ExtractionSpec.of())),
            "trajectory",
        )

    def request(self, **params):
        return JobRequest("dlpoly@cluster1", "md", (("conf", "c" * 64), ("field", "f" * 64)), params)

    def test_substitutes_everything(self):
        command = render_launch(self.template(), self.request(nsteps="200"), "/w")
        assert command == "sim /w/conf.dat /w/field.dat -n 200 -o /w/out.dat"
        assert "${" not in command

    def test_staged_inputs_are_injective(self):
        t = LaunchTemplate("${conf} ${field}", self.template().input_slots, "out")
        paths = render_launch(t, self.request(), "/w").split()
        assert paths == ["/w/conf.dat", "/w/field.dat"]
        assert len(set(paths)) == len(paths) == 2

    def test_missing_slot(self):
        req = JobRequest("r", "md", (("conf", "c" * 64),), {"nsteps": "1"})
        with pytest.raises(MissingInput):
            render_launch(self.template(), req, "/w")

    def test_missing_param(self):
        with pytest.raises(UnboundPlaceholder):
            render_launch(self.template(), self.request(), "/w")

    def test_substitution_is_textual_not_shell(self):
        t = LaunchTemplate("echo ${conf}", (("conf", ExtractionSpec.of()),), "out")
        req = JobRequest("r", "a", (("conf", "h" * 64),), {})
        assert render_launch(t, req, "/w; rm -rf /") == "echo /w; rm -rf //conf.dat"


DESCRIPTOR_XML = """\
<resource id="gulp@cluster1" cost-weight="1.5">
  <program name="gulp" version="4.0"/>
  <calculator name="cluster1" platform="linux-x86_64" max-concurrent="2"/>
  <capabilities>
    <capability>mc-gcmc</capability>
    <capability>lattice-energy</capability>
  </capabilities>
  <license kind="academic">Gale, General Utility Lattice Program</license>
  <template platform="linux-x86_64" output="gcmc_result">
    <command>gulp ${structure} -p ${params.pressure} -o ${workdir}/out.dat</command>
    <input slot="structure">
      <want name="site_count" unit="dimensionless"/>
    </input>
  </template>
</resource>
"""


class TestReadDescriptors:
    @pytest.mark.parametrize("content, problem", [
        (b"<resource id='caf\xe9'/>", "'utf-8' codec can't decode byte 0xe9"),
        (b"<resource id='x'>", "malformed XML"),
        (b"<pool/>", "root element must be <resource>"),
    ], ids=["not-utf8", "malformed", "not-a-resource"])
    def test_a_bad_file_is_refused_with_its_path(self, tmp_path, content, problem):
        (tmp_path / "a@x.xml").write_text(render_descriptor_xml(descriptor("a@x")),
                                          encoding="utf-8")
        bad = tmp_path / "bad.xml"
        bad.write_bytes(content)
        with pytest.raises(InvalidDescriptor) as info:
            read_descriptors(tmp_path)
        assert str(info.value).startswith(f"{bad}: {problem}")


class TestDescriptorXml:
    def test_parse_complete_descriptor(self):
        d = parse_descriptor_xml(DESCRIPTOR_XML)
        assert d.id == "gulp@cluster1"
        assert d.program == "gulp"
        assert d.version == "4.0"
        assert d.program_spec == "gulp-4.0"
        assert d.capabilities == {"mc-gcmc", "lattice-energy"}
        assert d.license.kind == "academic"
        assert d.cost_weight == 1.5
        assert d.calculator.max_concurrent == 2
        assert [n for n, _ in d.launch_template.input_slots] == ["structure"]

    def test_missing_element(self):
        with pytest.raises(InvalidDescriptor):
            parse_descriptor_xml("<resource id='x'><program name='p'/></resource>")

    def test_malformed_xml(self):
        with pytest.raises(InvalidDescriptor):
            parse_descriptor_xml("<resource id='x'>")

    def test_academic_license_without_citation_rejected(self):
        bad = DESCRIPTOR_XML.replace(
            ">Gale, General Utility Lattice Program<", "><"
        )
        with pytest.raises(InvalidDescriptor):
            parse_descriptor_xml(bad)
