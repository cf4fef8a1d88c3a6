"""Unit registry, conversion, and canonical dataset format."""

import hashlib
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridflow.quantities import (
    _REGISTRY,
    Dataset,
    DimensionMismatch,
    ExtractionSpec,
    MissingObservable,
    Observable,
    ParseError,
    QuantityError,
    UnknownUnit,
    canonical_deserialize,
    canonical_serialize,
    convert,
    dataset_id,
    format_number,
    get_unit,
    merge_with,
    project,
)

ANG = get_unit("angstrom")
NM = get_unit("nm")
M = get_unit("m")
PS = get_unit("ps")
KCAL = get_unit("kcal/mol")
KJ = get_unit("kJ/mol")
EV = get_unit("eV")
K = get_unit("K")
ONE = get_unit("dimensionless")
A2PS = get_unit("angstrom^2/ps")
CM2S = get_unit("cm^2/s")


def sample_dataset():
    return Dataset.build(
        [
            Observable.scalar("temperature", 298.0, K),
            Observable.series("msd", [(0.0, 0.0), (1.0, 2.1), (2.0, 4.3)], get_unit("angstrom^2")),
            Observable.vector3("box", (10.0, 10.0, 14.2), ANG),
        ],
        meta={"producer": "md", "stage": "production run"},
    )


NUMBERS = st.floats(min_value=-1e15, max_value=1e15, allow_nan=False)
NAMES = st.text(alphabet="abcdefgh_.", min_size=1, max_size=6).filter(lambda n: n[0] != ".")


@st.composite
def datasets(draw):
    """Datasets of every observable kind and unit, with free-text meta."""
    units = st.sampled_from(tuple(_REGISTRY.values()))
    observables = []
    for name in draw(st.lists(NAMES, max_size=5, unique=True)):
        kind = draw(st.sampled_from(("scalar", "vector3", "series", "table")))
        unit = draw(units)
        if kind == "scalar":
            observables.append(Observable.scalar(name, draw(NUMBERS), unit))
        elif kind == "vector3":
            observables.append(Observable.vector3(name, draw(st.tuples(NUMBERS, NUMBERS, NUMBERS)), unit))
        elif kind == "series":
            indices = sorted(draw(st.sets(NUMBERS, max_size=4)))
            observables.append(Observable.series(name, [(i, draw(NUMBERS)) for i in indices], unit))
        else:
            columns = draw(st.lists(NAMES, min_size=1, max_size=3, unique=True))
            rows = draw(st.lists(st.tuples(*[NUMBERS] * len(columns)), max_size=3))
            observables.append(Observable.table(name, columns, rows, unit))
    chars = st.characters(blacklist_categories=("Cs",), blacklist_characters="\n")
    values = st.text(chars, min_size=1, max_size=8)
    meta = draw(st.lists(st.tuples(NAMES, values.filter(lambda v: v == v.rstrip())), max_size=3))
    return Dataset.build(observables, meta=meta)


class TestRegistry:
    def test_at_least_twenty_units(self):
        assert len(_REGISTRY) >= 20

    def test_alias_resolves_to_same_object(self):
        assert get_unit("A") is get_unit("angstrom")
        assert get_unit("Å") is get_unit("angstrom")
        assert get_unit("1") is get_unit("dimensionless")

    def test_unknown_unit(self):
        with pytest.raises(UnknownUnit):
            get_unit("furlong")

    def test_definitional_scales(self):
        # 1 Å = 1e-10 m, 1 kcal = 4184 J exactly, 1 atm = 101325 Pa exactly
        assert get_unit("angstrom").scale == 1e-10
        assert get_unit("kcal/mol").scale == 4184.0
        assert get_unit("atm").scale == 101325.0
        assert get_unit("eV").scale == 1.602176634e-19


class TestConversion:
    def test_angstrom_to_nm(self):
        q = Observable.scalar("r", 5.0, ANG)
        assert convert(q, NM).magnitude == pytest.approx(0.5, rel=1e-15)

    def test_kcal_to_kj(self):
        q = Observable.scalar("e", 1.0, KCAL)
        assert convert(q, KJ).magnitude == pytest.approx(4.184, rel=1e-15)

    def test_diffusivity_units(self):
        # 1 Å²/ps = 1e-20 m² / 1e-12 s = 1e-8 m²/s = 1e-4 cm²/s
        q = Observable.scalar("D", 1.0, A2PS)
        assert convert(q, CM2S).magnitude == pytest.approx(1e-4, rel=1e-15)

    def test_dimension_mismatch(self):
        q = Observable.scalar("r", 5.0, ANG)
        with pytest.raises(DimensionMismatch):
            convert(q, PS)

    def test_energy_per_mole_is_not_energy(self):
        q = Observable.scalar("e", 1.0, KCAL)
        with pytest.raises(DimensionMismatch):
            convert(q, EV)

    def test_series_converts_values_not_indices(self):
        q = Observable.series("msd", [(0.0, 1.0), (5.0, 3.0)], get_unit("angstrom^2"))
        out = convert(q, get_unit("nm^2"))
        assert [i for i, _ in out.values] == [0.0, 5.0]
        assert [v for _, v in out.values] == pytest.approx([0.01, 0.03], rel=1e-14)

    def test_identity_conversion_is_exact(self):
        q = Observable.vector3("v", (1.25, -3.5, 0.0), ANG)
        assert convert(q, ANG).values == q.values

    @given(
        st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
        st.sampled_from(["m", "cm", "nm", "angstrom"]),
        st.sampled_from(["m", "cm", "nm", "angstrom"]),
    )
    def test_round_trip_within_1e_12(self, value, a, b):
        ua, ub = get_unit(a), get_unit(b)
        q = Observable.scalar("x", value, ua)
        back = convert(convert(q, ub), ua).magnitude
        assert back == pytest.approx(q.magnitude, rel=1e-12, abs=1e-300)

    @given(st.floats(min_value=-1e9, max_value=1e9, allow_nan=False))
    def test_energy_round_trip(self, value):
        q = Observable.scalar("e", value, KCAL)
        back = convert(convert(q, KJ), KCAL).magnitude
        assert back == pytest.approx(value, rel=1e-12, abs=1e-300)


class TestObservableValidation:
    def test_scalar_arity(self):
        with pytest.raises(Exception):
            Observable("x", "scalar", ANG, (1.0, 2.0))

    def test_series_indices_strictly_increase(self):
        with pytest.raises(Exception):
            Observable.series("s", [(0.0, 1.0), (0.0, 2.0)], ONE)

    def test_table_row_width(self):
        with pytest.raises(Exception):
            Observable.table("t", ("a", "b"), [(1.0,)], ONE)

    def test_rejects_nan(self):
        with pytest.raises(Exception):
            Observable.scalar("x", float("nan"), ONE)

    def test_negative_zero_normalized(self):
        a = Observable.scalar("x", -0.0, ONE)
        b = Observable.scalar("x", 0.0, ONE)
        assert canonical_serialize(Dataset.build([a])) == canonical_serialize(Dataset.build([b]))


class TestDataset:
    def test_duplicate_names_rejected(self):
        with pytest.raises(Exception):
            Dataset.build([Observable.scalar("x", 1.0, ONE), Observable.scalar("x", 2.0, ONE)])

    def test_get_and_missing(self):
        ds = sample_dataset()
        assert ds.get("temperature").magnitude == 298.0
        with pytest.raises(MissingObservable):
            ds.get("pressure")

    def test_project_converts_and_records_origin(self):
        ds = sample_dataset()
        out = project(ds, ExtractionSpec.of(("temperature", "K"), ("box", "nm")))
        assert [o.name for o in out.observables] == ["box", "temperature"]
        assert out.get("box").values[2] == pytest.approx(1.42, rel=1e-15)
        assert dict(out.meta)["derived-from"] == ds.id

    def test_project_keeps_the_producers_observable_when_units_match(self):
        # so a staged projection renders only its meta line afresh
        ds = sample_dataset()
        out = project(ds, ExtractionSpec.of(("temperature", "K"), ("box", "nm")))
        assert out.get("temperature") is ds.get("temperature")
        assert out.get("box") is not ds.get("box")

    def test_project_missing_observable(self):
        with pytest.raises(MissingObservable):
            project(sample_dataset(), ExtractionSpec.of(("entropy", "J")))

    def test_merge_later_wins_and_reports_clash(self):
        a = Dataset.build([Observable.scalar("x", 1.0, ONE), Observable.scalar("y", 2.0, ONE)])
        b = Dataset.build([Observable.scalar("x", 9.0, ONE)])
        merged, clashes = merge_with([a, b])
        assert merged.get("x").magnitude == 9.0
        assert merged.get("y").magnitude == 2.0
        assert clashes == ["x"]


class TestCanonicalFormat:
    def test_empty_dataset_is_two_lines(self):
        assert canonical_serialize(Dataset.build([])) == b"dataset-v1\nend\n"

    def test_insertion_order_does_not_matter(self):
        # enumeration oracle: every permutation of construction order must
        # produce exactly the same bytes, hence the same id
        obs = [
            Observable.scalar("alpha", 1.0, ONE),
            Observable.scalar("mid", -2.5, K),
            Observable.vector3("zeta", (0.0, 1.0, 2.0), ANG),
        ]
        digests = set()
        for perm in itertools.permutations(obs):
            ds = Dataset.build(perm, meta={"k": "v"})
            digests.add(hashlib.sha256(canonical_serialize(ds)).hexdigest())
        assert len(digests) == 1

    def test_meta_order_is_significant(self):
        a = Dataset.build([], meta=[("a", "1"), ("b", "2")])
        b = Dataset.build([], meta=[("b", "2"), ("a", "1")])
        assert canonical_serialize(a) != canonical_serialize(b)

    def test_round_trip_all_kinds(self):
        ds = Dataset.build(
            [
                Observable.scalar("s", -1.5e-7, EV),
                Observable.vector3("v", (1.0, 2.0, 3.0), ANG),
                Observable.series("ser", [(0.0, 0.5), (1.0, 0.25)], ONE),
                Observable.table("t", ("step", "e"), [(1.0, -4.0), (2.0, -4.5)], KJ),
            ],
            meta={"producer": "test", "note": "value with spaces"},
        )
        again = canonical_deserialize(canonical_serialize(ds))
        assert again == ds
        assert again.id == ds.id

    def test_meta_value_keeps_spaces(self):
        ds = Dataset.build([], meta={"cmd": "run --fast  twice"})
        assert dict(canonical_deserialize(canonical_serialize(ds)).meta)["cmd"] == "run --fast  twice"

    def test_meta_value_that_cannot_render_is_refused(self):
        # a line ending in whitespace does not parse; a lone surrogate does
        # not encode
        for value in ("v ", "v\t", "\x0c"):
            with pytest.raises(QuantityError, match="ends in whitespace"):
                Dataset.build([], meta={"k": value})
        with pytest.raises(QuantityError, match="UTF-8"):
            Dataset.build([], meta={"k": "v\ud800"})
        ds = Dataset.build([], meta={"k": " v"})
        assert canonical_deserialize(canonical_serialize(ds)) == ds

    def test_id_is_sha256_of_bytes(self):
        ds = sample_dataset()
        assert ds.id == hashlib.sha256(canonical_serialize(ds)).hexdigest()

    def test_parse_rejects_unsorted_observables(self):
        good = canonical_serialize(
            Dataset.build([Observable.scalar("a", 1.0, ONE), Observable.scalar("b", 2.0, ONE)])
        )
        lines = good.decode().splitlines()
        swapped = "\n".join([lines[0], lines[2], lines[1], lines[3]]) + "\n"
        with pytest.raises(ParseError):
            canonical_deserialize(swapped.encode())

    def test_parse_rejects_non_canonical_number(self):
        text = "dataset-v1\nobs x scalar dimensionless 1.0\nend\n"
        with pytest.raises(ParseError):
            canonical_deserialize(text.encode())

    def test_parse_rejects_negative_zero(self):
        # no writer emits -0 (Observable normalizes it to +0), so accepting
        # it would give one dataset two renderings and two content hashes
        text = "dataset-v1\nobs x scalar dimensionless -0.0000000000000000e+00\nend\n"
        with pytest.raises(ParseError, match="non-canonical"):
            canonical_deserialize(text.encode())

    def test_parse_rejects_missing_trailer(self):
        with pytest.raises(ParseError):
            canonical_deserialize(b"dataset-v1\n")

    def test_parse_rejects_unknown_unit(self):
        text = "dataset-v1\nobs x scalar cubit " + format_number(1.0) + "\nend\n"
        with pytest.raises(ParseError):
            canonical_deserialize(text.encode())

    def test_single_byte_mutation_changes_id_or_fails(self):
        # corruption detectability: flipping any one byte must either produce
        # a parse failure or parse to a dataset with a different id
        ds = Dataset.build(
            [
                Observable.scalar("energy", -13.6, EV),
                Observable.series("trace", [(0.0, 1.0), (2.0, 3.0)], ONE),
            ],
            meta={"run": "r1"},
        )
        blob = bytearray(canonical_serialize(ds))
        original_id = ds.id
        for pos in range(len(blob)):
            for delta in (1, 128):
                mutated = bytearray(blob)
                mutated[pos] = (mutated[pos] + delta) % 256
                try:
                    parsed = canonical_deserialize(bytes(mutated))
                except ParseError:
                    continue
                assert parsed.id != original_id, f"byte {pos} delta {delta} silently kept id"
                assert canonical_serialize(parsed) == bytes(mutated), f"byte {pos} delta {delta}"

    @settings(max_examples=80)
    @given(datasets())
    def test_round_trip_property(self, ds):
        # the parser accepts only what the writer emits, so a parsed
        # dataset's id, taken from its bytes, is the id of its content
        blob = canonical_serialize(ds)
        parsed = canonical_deserialize(blob)
        assert parsed == ds
        assert canonical_serialize(parsed) == blob
        assert parsed.id == dataset_id(Dataset(parsed.meta, parsed.observables))
        assert parsed.id == hashlib.sha256(blob).hexdigest()

    def test_cached_id_is_outside_equality_and_hash(self):
        cached, fresh = sample_dataset(), sample_dataset()
        assert cached.id
        parsed = canonical_deserialize(canonical_serialize(sample_dataset()))
        assert "id" in vars(cached) and "id" in vars(parsed) and "id" not in vars(fresh)
        assert cached == fresh == parsed
        assert hash(cached) == hash(fresh) == hash(parsed)

    def test_parsed_observables_keep_their_lines(self):
        # the parser files each obs line on its Observable; a fresh render
        # gives the same line, and the line is outside == and hash
        blob = canonical_serialize(sample_dataset())
        parsed, fresh = canonical_deserialize(blob), sample_dataset()
        for got, want in zip(parsed.observables, fresh.observables, strict=True):
            assert "line" in vars(got) and "line" not in vars(want)
            assert got.line == want.line and got == want and hash(got) == hash(want)
        obs_lines = blob.decode("utf-8").splitlines()[1 + len(parsed.meta):-1]
        assert obs_lines == [obs.line for obs in parsed.observables]

    def test_format_number_is_17_sig_digits(self):
        assert format_number(1.0) == "1.0000000000000000e+00"
        assert format_number(-0.125) == "-1.2500000000000000e-01"


def reference_number(token):
    """The token-by-token rule the bulk parser must agree with."""
    try:
        value = float(token)
    except ValueError:
        return False
    return math.isfinite(value) and format_number(value) == token and token != format_number(-0.0)


def _mantissa(token, change):
    mantissa, exponent = token.split("e")
    return change(mantissa) + "e" + exponent


NUMBER_MUTATIONS = {
    "canonical": lambda t: format_number(float(t) * 3.0 + 0.5),
    "exponent form": lambda t: "1e5",
    "plus sign": lambda t: "+" + t,
    "inf": lambda t: "inf",
    "nan": lambda t: "nan",
    "negative zero": lambda t: format_number(-0.0),
    "underscore": lambda t: "1_0",
    "digit too many": lambda t: _mantissa(t, lambda m: m + "0"),
    "digit too few": lambda t: _mantissa(t, lambda m: m[:-1]),
}


class TestBulkParserAgainstReference:
    """Mutations deep inside long obs lines: the bulk parser rejects, on the
    mutated line, exactly what the per-token reference rejects."""

    SERIES_LINE, TABLE_LINE = 3, 4

    def blob(self):
        rng = random.Random(11)
        ds = Dataset.build(
            [
                Observable.series("s", [(float(i), rng.uniform(-5, 5)) for i in range(1000)], ONE),
                Observable.table("t", ("a", "b", "c"),
                                 [tuple(rng.uniform(-1e3, 1e3) for _ in "abc") for _ in range(500)], KJ),
            ],
            meta={"origin": "reference"},
        )
        return canonical_serialize(ds)

    def mutate(self, blob, lineno, edit):
        lines = blob.decode().split("\n")
        tokens = lines[lineno - 1].split(" ")
        edit(tokens)
        lines[lineno - 1] = " ".join(tokens)
        return "\n".join(lines).encode()

    def assert_verdict(self, mutated, lineno, accepted):
        if accepted:
            assert canonical_serialize(canonical_deserialize(mutated)) == mutated
        else:
            with pytest.raises(ParseError) as err:
                canonical_deserialize(mutated)
            assert err.value.line == lineno

    @pytest.mark.parametrize("mutation", sorted(NUMBER_MUTATIONS))
    @pytest.mark.parametrize("target", ("series", "table"))
    def test_one_number_mutated_deep_in_a_line(self, mutation, target):
        rng = random.Random(f"{mutation}/{target}")
        if target == "series":  # a value, not an index, so the order holds
            lineno, pos = self.SERIES_LINE, 6 + 2 * rng.randrange(500, 1000)
        else:
            lineno, pos = self.TABLE_LINE, 9 + rng.randrange(1200, 1500)
        seen = []

        def edit(tokens):
            tokens[pos] = NUMBER_MUTATIONS[mutation](tokens[pos])
            seen.append(tokens[pos])

        mutated = self.mutate(self.blob(), lineno, edit)
        accepted = reference_number(seen[0])
        assert accepted == (mutation == "canonical")
        self.assert_verdict(mutated, lineno, accepted)

    @pytest.mark.parametrize("lineno", (SERIES_LINE, TABLE_LINE))
    @pytest.mark.parametrize("edit", ("extra", "missing"))
    def test_one_token_too_many_or_too_few(self, lineno, edit):
        pos = random.Random(lineno).randrange(600, 1400)

        def change(tokens):
            if edit == "extra":
                tokens.insert(pos, format_number(1.5))
            else:
                del tokens[pos]

        self.assert_verdict(self.mutate(self.blob(), lineno, change), lineno, False)

    @pytest.mark.parametrize(
        "obs, line",
        [
            (Observable.series("e", [], ONE), "obs e series dimensionless 0"),
            (Observable.table("e", ("a", "b"), [], ONE), "obs e table dimensionless 0 2 a b"),
            (Observable.table("e", (), [], ONE), "obs e table dimensionless 0 0"),
        ],
    )
    def test_empty_shapes(self, obs, line):
        blob = canonical_serialize(Dataset.build([obs]))
        assert blob == f"dataset-v1\n{line}\nend\n".encode()
        assert canonical_deserialize(blob) == Dataset.build([obs])
        for extra in (format_number(0.0), "x"):
            with pytest.raises(ParseError) as err:
                canonical_deserialize(f"dataset-v1\n{line} {extra}\nend\n".encode())
            assert err.value.line == 2

    def test_table_without_columns_holds_no_rows(self):
        with pytest.raises(QuantityError):
            Observable.table("e", (), [(), (), ()], ONE)
        with pytest.raises(QuantityError):
            Observable("e", "table", ONE, ((), (), ()))
        # refused from the counts alone: the second, a 51-byte blob, once
        # built a million empty rows
        for line in ("obs e table dimensionless 3 0", "obs t table dimensionless 1000000 0"):
            with pytest.raises(ParseError) as err:
                canonical_deserialize(f"dataset-v1\n{line}\nend\n".encode())
            assert err.value.line == 2

    def test_bad_counts(self):
        for line in ("obs e series dimensionless 1", "obs e table dimensionless 1 1 a",
                     "obs e series dimensionless ²", "obs e table dimensionless 01 0",
                     "obs e table dimensionless 1",
                     # an Arabic-Indic one, valid but for the non-ASCII digit
                     f"obs e series dimensionless \u0661 {format_number(0.0)} {format_number(1.0)}"):
            with pytest.raises(ParseError) as err:
                canonical_deserialize(f"dataset-v1\n{line}\nend\n".encode())
            assert err.value.line == 2

    @pytest.mark.parametrize(
        "line, digit",
        [
            ("obs e series dimensionless {} {zero} {one}", "\uff11"),  # fullwidth one
            ("obs e table dimensionless {} 1 a {zero}", "\u0967"),  # Devanagari one
            ("obs e table dimensionless 1 {} a {zero}", "\u0661"),  # Arabic-Indic one
        ],
        ids=("series-length", "table-rows", "table-columns"),
    )
    def test_count_takes_ascii_digits_only(self, line, digit):
        # int() reads any Unicode decimal digit; the parser must not, or two
        # byte strings would parse to one dataset under two ids
        numbers = {"zero": format_number(0.0), "one": format_number(1.0)}
        canonical_deserialize(f"dataset-v1\n{line.format('1', **numbers)}\nend\n".encode())
        with pytest.raises(ParseError) as err:
            canonical_deserialize(f"dataset-v1\n{line.format(digit, **numbers)}\nend\n".encode())
        assert err.value.line == 2


def numbers_of(obs):
    """An observable's numbers in line order: a table's are its cells."""
    if obs.kind == "table":
        return obs.cells.ravel().tolist()
    return list(obs.values if obs.kind in ("scalar", "vector3") else itertools.chain.from_iterable(obs.values))


def repeat_heavy():
    """A trajectory-like table: 800 cells, 25 distinct values, -0.0 among the input."""
    rows = [(float(t), t % 3 - 1.0, -0.0 * t, (t // 50) * 0.25) for t in range(200)]
    return Dataset.build([Observable.table("trajectory", ("t", "w0", "w1", "w2"), rows, ONE)])


def all_distinct():
    """A 501-point series in which no number repeats."""
    return Dataset.build(
        [Observable.series("msd", [(float(i), i / 7 + 1 / 3) for i in range(501)], get_unit("angstrom^2"))]
    )


class TestDistinctValueCodec:
    """Each distinct number of an obs line is rendered, and checked, once."""

    # sha-256 and length of each blob, recorded from the number-by-number codec
    @pytest.mark.parametrize(
        "build, distinct, size, digest",
        [
            (repeat_heavy, 204, 18534, "2863398f47426e6944339ed4dac2cbc90be22086231c052c0c23d29a0b6e3cb5"),
            (all_distinct, 1002, 23091, "79bf6fb3a8c622be67e364dae123373add350a5ff12b29a8336d7ce1c483d7f3"),
        ],
        ids=("repeat-heavy", "all-distinct"),
    )
    def test_round_trip_is_pinned(self, build, distinct, size, digest):
        ds = build()
        (obs,) = ds.observables
        assert len(set(numbers_of(obs))) == distinct
        blob = canonical_serialize(ds)
        assert (len(blob), hashlib.sha256(blob).hexdigest()) == (size, digest)
        parsed = canonical_deserialize(blob)
        assert parsed == ds and canonical_serialize(parsed) == blob

    @pytest.mark.parametrize("mutation", sorted(NUMBER_MUTATIONS))
    def test_one_repeated_number_mutated(self, mutation):
        # the cell repeats a value held elsewhere on the line: the mutated
        # occurrence alone is judged, exactly as the per-token reference does
        blob = canonical_serialize(repeat_heavy())
        lines = blob.decode().split("\n")
        tokens = lines[1].split(" ")
        pos = 9 + 4 * 150 + 1  # w0 of row 150, one of three values on the line
        tokens[pos] = NUMBER_MUTATIONS[mutation](tokens[pos])
        lines[1] = " ".join(tokens)
        mutated = "\n".join(lines).encode()
        if reference_number(tokens[pos]):
            assert canonical_serialize(canonical_deserialize(mutated)) == mutated
        else:
            with pytest.raises(ParseError) as err:
                canonical_deserialize(mutated)
            assert err.value.line == 2

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Observable.scalar("z", -0.0, ONE),
            lambda: Observable.vector3("z", (-0.0, 1.0, -0.0), ONE),
            lambda: Observable.series("z", [(-0.0, -0.0), (1.0, -0.0)], ONE),
            lambda: Observable.table("z", ("a", "b"), [(-0.0, 2.0), (3.0, -0.0)], ONE),
            lambda: convert(Observable.scalar("z", 0.0, ANG), NM),
            lambda: convert(Observable.table("z", ("a",), [(0.0,), (-1.0,)], ANG), NM),
            lambda: Observable.series("z", [(0.0, -1e-320 * 1e-10)], ONE),
        ],
        ids=("scalar", "vector3", "series", "table", "convert-scalar", "convert-table", "underflow"),
    )
    def test_factories_leave_no_negative_zero(self, make):
        # the writer keys its renderings by float equality, under which
        # 0.0 == -0.0: sound only while no observable holds -0.0
        zeros = [v for v in numbers_of(make()) if v == 0.0]
        assert zeros and all(math.copysign(1.0, v) == 1.0 for v in zeros)

    def test_parser_leaves_no_negative_zero(self):
        zero, neg = format_number(0.0), format_number(-0.0)
        parsed = canonical_deserialize(f"dataset-v1\nobs z vector3 dimensionless {zero} {zero} {zero}\nend\n".encode())
        assert all(math.copysign(1.0, v) == 1.0 for v in parsed.get("z").values)
        with pytest.raises(ParseError):
            canonical_deserialize(f"dataset-v1\nobs z vector3 dimensionless {zero} {neg} {zero}\nend\n".encode())


def wide_table():
    """A table of 300 rows: two columns drawn from three values, two all distinct."""
    rng = random.Random(5)
    rows = [(rng.uniform(-1e3, 1e3), rng.choice((0.0, 1.5, -2.25)),
             rng.uniform(-1e-9, 1e-9), rng.choice((0.0, 7.0, 1e300))) for _ in range(300)]
    return Dataset.build([
        Observable.table("t", ("a", "b", "c", "d"), rows, KJ),
        Observable.table("u", ("a", "b"), [], ONE),
        Observable.scalar("x", 2.5, ONE),
    ])


def float_bits(rows):
    return [(type(v), v.hex()) for row in rows for v in row]


class TestParsedTableRows:
    """A parsed table checks its whole line when it is parsed and reads its
    cells from that line only on first access; it holds no row tuples."""

    @pytest.mark.parametrize("build", [repeat_heavy, wide_table])
    def test_cells_are_read_on_first_access_float_for_float(self, build):
        eager = build()
        parsed = canonical_deserialize(canonical_serialize(eager))
        for got, want in zip(parsed.observables, eager.observables, strict=True):
            if got.kind != "table":
                assert got.values == want.values
                continue
            assert got.values == () and "cells" not in vars(got)
            assert got.length == want.length and "cells" not in vars(got)
            assert got.cells.dtype == np.float64 and not got.cells.flags.writeable
            assert float_bits(got.cells.tolist()) == float_bits(want.cells.tolist())
        assert parsed == eager and hash(parsed) == hash(eager)

    def test_an_unbuilt_table_compares_and_renders_as_a_built_one(self):
        blob = canonical_serialize(wide_table())
        first, second = canonical_deserialize(blob), canonical_deserialize(blob)
        assert first == wide_table() and hash(second) == hash(wide_table())
        assert canonical_serialize(canonical_deserialize(blob)) == blob
        with pytest.raises(AttributeError, match="no attribute 'rows'"):
            first.get("t").rows

    def test_comparing_and_hashing_tables_builds_no_rows(self):
        blob = canonical_serialize(wide_table())
        first, second, eager = canonical_deserialize(blob), canonical_deserialize(blob), wide_table()
        lines = blob.decode().split("\n")
        lines[1] = lines[1][: lines[1].rindex(" ")] + " " + format_number(8.0)  # the last cell
        changed = canonical_deserialize("\n".join(lines).encode())
        assert first == second and hash(first) == hash(second)  # from their lines
        for ds in (first, second):
            assert not any("cells" in vars(o) for o in ds.observables if o.kind == "table")
        assert first == eager and hash(first) == hash(eager)  # from their cells
        assert changed != first and changed != eager and changed == changed
        for ds in (first, second, eager, changed):
            assert all(o.values == () for o in ds.observables if o.kind == "table")

    @pytest.mark.parametrize("mutation", sorted(NUMBER_MUTATIONS))
    def test_every_number_is_still_checked_when_parsed(self, mutation):
        # the last cell of the last row, which nothing reads before the rows are built
        lines = canonical_serialize(wide_table()).decode().split("\n")
        tokens = lines[1].split(" ")
        tokens[-1] = NUMBER_MUTATIONS[mutation](tokens[-1])
        lines[1] = " ".join(tokens)
        mutated = "\n".join(lines).encode()
        if reference_number(tokens[-1]):
            assert canonical_serialize(canonical_deserialize(mutated)) == mutated
        else:
            with pytest.raises(ParseError) as err:
                canonical_deserialize(mutated)
            assert err.value.line == 2

    @pytest.mark.parametrize(
        "line, reason",
        [
            ("obs t vector3 m {n}  {n}", "malformed spacing"),  # the head and the count hold
            ("obs t table m 2 2 a b {n} {n}  {n} {n}", "malformed spacing"),  # one token too many
            ("obs t tabel m {z}", "non-canonical number rendering"),  # an unknown kind too
            ("obs t table m 2 2 a b {n} {z} {n}", "non-canonical number rendering"),  # one too few
            ("obs t table m 1 2 a {z} {n} {n}", "non-canonical number rendering"),  # a column name
            ("obs t table m 01 1 a  {z}", "malformed spacing"),  # both, and a bad count
        ],
    )
    def test_a_doubled_space_or_negative_zero_is_the_first_fault(self, line, reason):
        line = line.format(n=format_number(1.0), z=format_number(-0.0))
        with pytest.raises(ParseError, match=reason) as err:
            canonical_deserialize(f"dataset-v1\n{line}\nend\n".encode())
        assert err.value.line == 2


# cells of every type a table's rows may hold: floats of any magnitude and
# both zeros, Python ints past 2**53, numpy int64 and float32 scalars
TABLE_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=1e-300, max_value=1e300).flatmap(lambda x: st.sampled_from((x, -x))),
    st.sampled_from((0.0, -0.0, 0, -1)),
    st.integers(2**53 + 1, 2**80).flatmap(lambda n: st.sampled_from((n, -n))),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
)


@st.composite
def table_rows(draw):
    """(column count, rows): one to four columns, none to six rows."""
    width = draw(st.integers(1, 4))
    return width, draw(st.lists(st.tuples(*[TABLE_CELLS] * width), max_size=6))


class TestFactoryTables:
    """A table the factory builds holds one float64 array and renders its
    line from it; its `values` is ()."""

    @staticmethod
    def build(width, rows):
        return Observable.table("t", [f"c{i}" for i in range(width)], rows, KJ)

    @settings(max_examples=150)
    @given(table_rows())
    def test_line_is_every_cell_formatted_in_row_major_order(self, shape):
        width, rows = shape
        head = ["obs", "t", "table", "kJ/mol", str(len(rows)), str(width), *(f"c{i}" for i in range(width))]
        cells = [format_number(float(c) + 0.0) for row in rows for c in row]
        assert self.build(width, rows).line == " ".join(head + cells)

    @settings(max_examples=150)
    @given(table_rows())
    def test_round_trip_keeps_values_and_id(self, shape):
        ds = Dataset.build([self.build(*shape)])
        parsed = canonical_deserialize(canonical_serialize(ds))
        assert parsed == ds and parsed.id == ds.id

    @settings(max_examples=150)
    @given(table_rows())
    def test_cells_are_the_rows_as_floats_plus_zero(self, shape):
        width, rows = shape
        obs = self.build(width, rows)
        assert obs.values == () and obs.cells.dtype == np.float64
        want = [[float(c) + 0.0 for c in row] for row in rows]
        assert float_bits(obs.cells.tolist()) == float_bits(want)
        assert obs.length == len(rows) and obs.cells.shape == (len(rows), width)

    @settings(max_examples=150)
    @given(table_rows(), st.data())
    def test_a_non_finite_cell_is_refused(self, shape, data):
        width, rows = shape
        rows = [list(row) for row in rows] or [[1.0] * width]
        for _ in range(data.draw(st.integers(1, 3))):
            r, c = data.draw(st.integers(0, len(rows) - 1)), data.draw(st.integers(0, width - 1))
            rows[r][c] = data.draw(st.sampled_from((math.inf, -math.inf, math.nan, np.float32("inf"))))
        bad = next(float(v) for row in rows for v in row if not math.isfinite(v))
        with pytest.raises(QuantityError) as err:
            self.build(width, rows)
        assert str(err.value) == f"t: non-finite value {bad!r}"

    @pytest.mark.parametrize("columns, rows", [(("a",), []), ((), []), (("a", "b"), [(1, 2)]), (("a",), [(5,)])])
    def test_edge_shapes_round_trip(self, columns, rows):
        obs = Observable.table("t", columns, rows, ONE)
        ds = Dataset.build([obs])
        assert canonical_deserialize(canonical_serialize(ds)) == ds
        assert obs.values == () and obs.cells.tolist() == [[float(c) for c in row] for row in rows]

    def test_a_constructed_empty_table_is_the_factory_one(self):
        def direct():
            return Observable("t", "table", KJ, (), ("a", "b"))

        built = Observable.table("t", ("a", "b"), [], KJ)
        assert direct() == built and hash(direct()) == hash(built)  # neither holds a line yet
        assert direct().cells.shape == (0, 2) and direct().line == built.line == "obs t table kJ/mol 0 2 a b"
        parsed = canonical_deserialize(canonical_serialize(Dataset.build([direct()]))).get("t")
        assert parsed == direct() == built and hash(parsed) == hash(built)

    def test_the_constructor_refuses_a_table_of_rows(self):
        with pytest.raises(QuantityError, match="its cells, not its values"):
            Observable("t", "table", ONE, ((1.0,),), ("a",))

    def test_only_a_table_has_cells(self):
        for obs in sample_dataset().observables:
            with pytest.raises(QuantityError, match="only defined for tables"):
                obs.cells

    def test_an_array_of_rows_builds_the_same_table(self):
        rows = [(float(t), t % 7 - 3.0, -0.0) for t in range(40)]
        from_rows = Observable.table("t", ("a", "b", "c"), rows, ONE)
        from_array = Observable.table("t", ("a", "b", "c"), np.array(rows), ONE)
        assert from_array.line == from_rows.line and from_array == from_rows
        assert not from_array.cells.flags.writeable
        with pytest.raises(QuantityError, match="row width"):
            Observable.table("t", ("a", "b"), np.array(rows), ONE)


def test_parsing_a_trajectory_blob_holds_no_token_list():
    # a 501 x 51 table: the parser splits its line a slice at a time and
    # keeps only the distinct tokens, so its peak stays near the text itself
    rng = random.Random(1)
    walkers = [rng.randrange(64) for _ in range(50)]
    rows = []
    for t in range(501):
        rows.append((t, *walkers))
        walkers = [w + rng.choice((-1, 1)) for w in walkers]
    columns = ("t", *(f"w{w}" for w in range(50)))
    ds = Dataset.build([Observable.table("trajectory", columns, rows, ONE)])
    blob = canonical_serialize(ds)
    tracemalloc.start()
    try:
        parsed = canonical_deserialize(blob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * len(blob), (peak, len(blob))
    assert parsed == ds and parsed.get("trajectory").cells.tolist() == ds.get("trajectory").cells.tolist()
    # the line spans several slices; a number in the last one is still checked
    lines = blob.split(b"\n")
    head, _, last = lines[1].rpartition(b" ")
    mantissa, _, exponent = last.partition(b"e")
    lines[1] = head + b" " + mantissa + b"0e" + exponent
    with pytest.raises(ParseError, match="non-canonical or non-finite") as err:
        canonical_deserialize(b"\n".join(lines))
    assert err.value.line == 2
