"""Unit-tagged physical observables and their canonical interchange format.

Every piece of data exchanged between computational services is a Dataset: a
named collection of observables, each carrying a unit from a fixed registry.
Datasets serialize to a line-oriented UTF-8 text format whose byte layout is
normative: content addressing (sha-256 of the canonical bytes) identifies
stored results, so serialization must be deterministic and the parser must
reject any non-canonical rendering. A dataset's id is computed once, and a
parsed dataset takes its id from the bytes it was parsed from. Each distinct
number of an obs line is rendered, and parsed and checked, once; the parser
accepts the same bytes as a number-by-number check.

A table's numbers are one read-only float64 array, `cells`, and nothing
else: its `values` is always (). The factory converts and checks the cells
once, on the array, and the obs line is rendered from it. The parser checks
every number when the bytes are parsed, splitting a long line a slice at a
time so it holds no list of the line's tokens; a parsed table keeps its line
and reads its cells from it on first use. Either files the row count,
`length`.

numpy is imported only where a table's array is computed with: `_cells`,
`Observable.cells` and the comparison of two tables' cells. Parsing,
rendering and hashing need none of it, so a CLI call that reads no table's
cells (verify, export, report, store ls and audit) never loads numpy.

Units are linear scalings of SI-coherent units over the 7 SI base dimensions.
Energy-per-mole carries an explicit amount exponent of -1 so per-particle and
per-mole energies can never be silently conflated.
"""

from __future__ import annotations

import functools
import hashlib
import math
import operator
import re
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING

from .errors import UserError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Unit",
    "Observable",
    "Dataset",
    "ExtractionSpec",
    "QuantityError",
    "DimensionMismatch",
    "MissingObservable",
    "ParseError",
    "UnknownUnit",
    "get_unit",
    "convert",
    "project",
    "merge",
    "canonical_serialize",
    "canonical_deserialize",
    "dataset_id",
    "format_number",
]

KINDS = ("scalar", "vector3", "series", "table")

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.\-]*\Z")


class QuantityError(UserError):
    pass


class DimensionMismatch(QuantityError):
    pass


class MissingObservable(QuantityError):
    def __init__(self, name: str):
        super().__init__(f"observable not present: {name}")
        self.name = name


class UnknownUnit(QuantityError):
    pass


class ParseError(QuantityError):
    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


@dataclass(frozen=True)
class Unit:
    """A named linear unit: `scale` converts one of it into SI-coherent terms."""

    name: str
    dimension: tuple[int, int, int, int, int, int, int]
    scale: float

    def __post_init__(self):
        if len(self.dimension) != 7:
            raise QuantityError(f"unit {self.name}: dimension vector must have 7 entries")
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise QuantityError(f"unit {self.name}: scale must be a positive finite real")


def _dim(length=0, mass=0, time=0, current=0, temperature=0, amount=0, luminosity=0):
    return (length, mass, time, current, temperature, amount, luminosity)


_REGISTRY: dict[str, Unit] = {}
_ALIASES: dict[str, str] = {}


def _register(name: str, dimension, scale: float, *aliases: str) -> Unit:
    if name in _REGISTRY:
        raise QuantityError(f"duplicate unit name: {name}")
    unit = Unit(name, dimension, scale)
    _REGISTRY[name] = unit
    for alias in aliases:
        _ALIASES[alias] = name
    return unit


# Fixed registry covering the case study. Scales are exact definitions where
# one exists (Å, calorie, bar, eV per SI 2019, amu per CODATA 2018).
_register("dimensionless", _dim(), 1.0, "1")

_register("m", _dim(length=1), 1.0)
_register("cm", _dim(length=1), 1e-2)
_register("nm", _dim(length=1), 1e-9)
_register("angstrom", _dim(length=1), 1e-10, "A", "Å")

_register("s", _dim(time=1), 1.0)
_register("ns", _dim(time=1), 1e-9)
_register("ps", _dim(time=1), 1e-12)
_register("fs", _dim(time=1), 1e-15)

_register("kg", _dim(mass=1), 1.0)
_register("g", _dim(mass=1), 1e-3)
_register("amu", _dim(mass=1), 1.66053906660e-27)

_register("K", _dim(temperature=1), 1.0)
_register("mol", _dim(amount=1), 1.0)

_register("J", _dim(length=2, mass=1, time=-2), 1.0)
_register("eV", _dim(length=2, mass=1, time=-2), 1.602176634e-19)

_register("J/mol", _dim(length=2, mass=1, time=-2, amount=-1), 1.0)
_register("kJ/mol", _dim(length=2, mass=1, time=-2, amount=-1), 1e3)
_register("kcal/mol", _dim(length=2, mass=1, time=-2, amount=-1), 4184.0)

_register("Pa", _dim(length=-1, mass=1, time=-2), 1.0)
_register("bar", _dim(length=-1, mass=1, time=-2), 1e5)
_register("atm", _dim(length=-1, mass=1, time=-2), 101325.0)

_register("m^2", _dim(length=2), 1.0)
_register("nm^2", _dim(length=2), 1e-18)
_register("angstrom^2", _dim(length=2), 1e-20, "Å²")

_register("m^2/s", _dim(length=2, time=-1), 1.0)
_register("cm^2/s", _dim(length=2, time=-1), 1e-4)
_register("angstrom^2/ps", _dim(length=2, time=-1), 1e-8, "Å²/ps")
_register("angstrom^2/fs", _dim(length=2, time=-1), 1e-5, "Å²/fs")


def get_unit(name: str) -> Unit:
    """Look a unit up by canonical name or accepted alias."""
    canonical = _ALIASES.get(name, name)
    try:
        return _REGISTRY[canonical]
    except KeyError:
        raise UnknownUnit(f"unknown unit: {name}") from None


_FORMAT = "{:.16e}".format


def format_number(x: float) -> str:
    """17-significant-digit scientific notation; the only accepted rendering."""
    return _FORMAT(x)


def _clean(values, context: str) -> tuple[float, ...]:
    """Every value as a finite float, checked and converted in C-level passes."""
    values = tuple(map(float, values))
    if not all(map(math.isfinite, values)):
        bad = next(v for v in values if not math.isfinite(v))
        raise QuantityError(f"{context}: non-finite value {bad!r}")
    # 0.0 + -0.0 is +0.0, so equal datasets always serialize to identical bytes
    return tuple(map((0.0).__add__, values))


def _rows(flat, width: int) -> tuple:
    """Rows of `width` cells each, cut from a flat row-major sequence."""
    return tuple(zip(*[iter(flat)] * width))


def _cells(rows, width: int, context: str) -> np.ndarray:
    """Rows of `width` cells (a sequence of rows or a 2-D array) as one
    read-only float64 array, checked and converted as _clean does."""
    import numpy as np

    arrayed = isinstance(rows, np.ndarray)
    rows = rows if arrayed else list(rows)
    if len(rows) and not width:
        raise QuantityError(f"{context}: a table without columns holds no rows")
    if len(rows) and (rows.shape[1:] != (width,) if arrayed else set(map(len, rows)) != {width}):
        raise QuantityError(f"{context}: row width != column count")
    cells = np.array(rows, dtype=float).reshape(len(rows), width)
    finite = np.isfinite(cells)
    if not np.logical_and.reduce(finite, axis=None):  # a ufunc, not ndarray.all's Python wrapper
        raise QuantityError(f"{context}: non-finite value {float(cells[~finite][0])!r}")
    cells += 0.0
    cells.setflags(write=False)
    return cells


@dataclass(frozen=True)
class Observable:
    """One named physical quantity inside a Dataset.

    `values` is shaped per kind:
      scalar  -- (x,)
      vector3 -- (x, y, z)
      series  -- ((index, value), ...) with strictly increasing indices
      table   -- () always
    `columns` is used by tables only. A table's numbers are `cells`, one
    read-only float64 array of `length` rows of len(columns) cells, which
    the factory files. A parsed table has its line checked in full and
    reads its cells from the line on first access. The constructor builds
    only a table of no rows.
    """

    name: str
    kind: str
    unit: Unit
    values: tuple
    columns: tuple[str, ...] = ()

    def __post_init__(self):
        if not _NAME_RE.match(self.name):
            raise QuantityError(f"invalid observable name: {self.name!r}")
        if self.kind == "scalar":
            if len(self.values) != 1:
                raise QuantityError(f"{self.name}: scalar requires exactly one value")
        elif self.kind == "vector3":
            if len(self.values) != 3:
                raise QuantityError(f"{self.name}: vector3 requires exactly three values")
        elif self.kind == "series":
            indices = list(map(operator.itemgetter(0), self.values))
            if any(map(operator.ge, indices, indices[1:])):
                raise QuantityError(f"{self.name}: series indices must strictly increase")
        elif self.kind == "table":
            if len(set(self.columns)) != len(self.columns):
                raise QuantityError(f"{self.name}: duplicate table columns")
            for col in self.columns:
                if not _NAME_RE.match(col):
                    raise QuantityError(f"{self.name}: invalid column name {col!r}")
            if self.values:
                raise QuantityError(f"{self.name}: a table's numbers are its cells, not its values")
        else:
            raise QuantityError(f"unknown observable kind: {self.kind!r}")

    def __eq__(self, other):
        """Equal name, kind, unit and columns, and equal numbers: a table's
        lines when both hold one, else its cells. The dataclass's hash of
        the fields agrees, as a table's values is ()."""
        if type(other) is not Observable:
            return NotImplemented
        if (self.name, self.kind, self.unit, self.columns) != (other.name, other.kind, other.unit, other.columns):
            return False
        if self.kind != "table":
            return self.values == other.values
        mine, theirs = vars(self).get("line"), vars(other).get("line")
        if mine is not None and theirs is not None:
            return mine == theirs
        import numpy as np

        return self.length == other.length and np.array_equal(self.cells, other.cells)

    @staticmethod
    def scalar(name: str, value: float, unit: Unit) -> "Observable":
        return Observable(name, "scalar", unit, _clean((value,), name))

    @staticmethod
    def vector3(name: str, xyz, unit: Unit) -> "Observable":
        x, y, z = xyz
        return Observable(name, "vector3", unit, _clean((x, y, z), name))

    @staticmethod
    def series(name: str, pairs, unit: Unit) -> "Observable":
        pairs = list(pairs)
        if set(map(len, pairs)) - {2}:
            raise QuantityError(f"{name}: series entries must be (index, value) pairs")
        flat = _clean(chain.from_iterable(pairs), name)
        return Observable(name, "series", unit, _rows(flat, 2))

    @staticmethod
    def table(name: str, columns, rows, unit: Unit) -> "Observable":
        """`rows` is a sequence of rows or a 2-D array of cells."""
        columns = tuple(columns)
        cells = _cells(rows, len(columns), name)
        obs = Observable(name, "table", unit, (), columns)
        vars(obs).update(cells=cells, length=len(cells))
        return obs

    @functools.cached_property
    def line(self) -> str:
        """The canonical "obs ..." line, kept out of == and hash like
        Dataset.id. Each distinct number is rendered once, keyed by float
        equality (0.0 == -0.0): sound as no Observable built by a factory or
        by the parser holds -0.0, for _clean and _cells add 0.0 and the
        parser refuses -0."""
        head = ["obs", self.name, self.kind, self.unit.name]
        if self.kind == "table":
            head.extend((str(self.length), str(len(self.columns)), *self.columns))
            flat = self.cells.ravel().tolist() if self.length else ()  # unfiled cells read this line
        elif self.kind == "series":
            head.append(str(len(self.values)))
            flat = tuple(chain.from_iterable(self.values))
        else:
            flat = self.values
        distinct = set(flat)
        rendered = dict(zip(distinct, map(_FORMAT, distinct)))
        return " ".join(chain(head, map(rendered.__getitem__, flat)))

    @functools.cached_property
    def length(self) -> int:
        """len(values), or a table's row count, which the factory and the
        parser file here."""
        return len(self.values)

    @functools.cached_property
    def cells(self) -> np.ndarray:
        """A table's numbers as one read-only float64 array, a row per row.
        The factory files it; any other table reads its line, checked when
        parsed, each distinct token through float once."""
        if self.kind != "table":
            raise QuantityError(f"{self.name}: cells are only defined for tables")
        import numpy as np

        numbers = self.line.split(" ")[6 + len(self.columns):]  # obs name kind unit rows cols
        distinct = set(numbers)
        parsed = dict(zip(distinct, map(float, distinct)))
        cells = np.fromiter(map(parsed.__getitem__, numbers), float, len(numbers))
        cells = cells.reshape(self.length, len(self.columns))
        cells.setflags(write=False)
        return cells

    @property
    def magnitude(self) -> float:
        """Value of a scalar observable."""
        if self.kind != "scalar":
            raise QuantityError(f"{self.name}: magnitude is only defined for scalars")
        return self.values[0]


@dataclass(frozen=True)
class ExtractionSpec:
    """The observables a consumer wants, each in the unit it wants them in."""

    wanted: tuple[tuple[str, Unit], ...]

    def __post_init__(self):
        names = [n for n, _ in self.wanted]
        if len(set(names)) != len(names):
            raise QuantityError("extraction spec repeats an observable name")

    @staticmethod
    def of(*pairs) -> "ExtractionSpec":
        return ExtractionSpec(tuple((n, u if isinstance(u, Unit) else get_unit(u)) for n, u in pairs))


@dataclass(frozen=True)
class Dataset:
    """An immutable set of observables plus ordered metadata.

    Observables are stored sorted by name, so structurally equal datasets
    compare equal regardless of construction order. Metadata order is
    significant (insertion order is preserved and serialized).
    """

    meta: tuple[tuple[str, str], ...] = ()
    observables: tuple[Observable, ...] = ()

    def __post_init__(self):
        names = [o.name for o in self.observables]
        if len(set(names)) != len(names):
            raise QuantityError("duplicate observable names in dataset")
        for key, value in self.meta:
            if not _NAME_RE.match(key):
                raise QuantityError(f"invalid meta key: {key!r}")
            if value == "" or "\n" in value or value != value.rstrip():
                raise QuantityError(f"meta {key!r}: value empty, multi-line or ends in whitespace")
            try:
                value.encode("utf-8")
            except UnicodeEncodeError:
                raise QuantityError(f"meta {key!r}: value is not valid UTF-8 text") from None

    @staticmethod
    def build(observables, meta=()) -> "Dataset":
        """Normalize construction: sort observables, accept dict-like meta."""
        if hasattr(meta, "items"):
            meta = tuple((str(k), str(v)) for k, v in meta.items())
        else:
            meta = tuple((str(k), str(v)) for k, v in meta)
        obs = tuple(sorted(observables, key=lambda o: o.name))
        return Dataset(meta, obs)

    def get(self, name: str) -> Observable:
        for o in self.observables:
            if o.name == name:
                return o
        raise MissingObservable(name)

    def has(self, name: str) -> bool:
        return any(o.name == name for o in self.observables)

    @functools.cached_property
    def id(self) -> str:
        """sha-256 of the canonical bytes; kept out of == and hash."""
        return dataset_id(self)


def convert(q: Observable, target: Unit) -> Observable:
    """Re-express an observable in a dimension-compatible unit.

    Series indices are positional, not physical, so only the value component
    is rescaled; table cells all carry the observable's unit and rescale.
    """
    if q.unit == target:
        return q
    if q.unit.dimension != target.dimension:
        raise DimensionMismatch(
            f"{q.name}: cannot convert {q.unit.name} to {target.name}: dimensions differ"
        )
    factor = q.unit.scale / target.scale
    if q.kind == "scalar":
        return Observable.scalar(q.name, q.values[0] * factor, target)
    if q.kind == "vector3":
        return Observable.vector3(q.name, tuple(v * factor for v in q.values), target)
    if q.kind == "series":
        return Observable.series(q.name, tuple((i, v * factor) for i, v in q.values), target)
    return Observable.table(q.name, q.columns, q.cells * factor, target)


def project(ds: Dataset, spec: ExtractionSpec) -> Dataset:
    """Extract exactly the requested observables, converted to requested units.

    The result records its origin under the meta key "derived-from".
    """
    picked = []
    for name, unit in spec.wanted:
        picked.append(convert(ds.get(name), unit))
    return Dataset.build(picked, meta={"derived-from": ds.id})


def merge(datasets, meta=None) -> Dataset:
    """Union of observables; a later dataset wins name clashes.

    Deterministic in input order. With `meta` None the result records its
    inputs' ids under "derived-from". merge_with also returns the clashing
    names, one entry per clash.
    """
    return merge_with(datasets, meta=meta)[0]


def merge_with(datasets, meta=None):
    datasets = list(datasets)
    by_name: dict[str, Observable] = {}
    clashes: list[str] = []
    for ds in datasets:
        for obs in ds.observables:
            if obs.name in by_name:
                clashes.append(obs.name)
            by_name[obs.name] = obs
    if meta is None:
        meta = {"derived-from": ",".join(ds.id for ds in datasets)} if datasets else {}
    return Dataset.build(by_name.values(), meta=meta), clashes


# ---------------------------------------------------------------------------
# canonical text format
#
#   dataset-v1
#   meta <key> <value>          (insertion order; value may contain spaces)
#   obs <name> <kind> <unit> <payload...>   (lexicographic by name)
#   end
#
# Payloads: scalar N; vector3 N N N; series COUNT (idx val)*; table ROWS COLS
# colname* cell* (row-major). All numbers in 17-significant-digit scientific
# notation. The parser accepts only this exact rendering: any other byte
# sequence is a ParseError, which is what makes single-byte corruption of a
# stored blob detectable by hash or by parse failure.
# ---------------------------------------------------------------------------

_HEADER = "dataset-v1"
_TRAILER = "end"
_NEGATIVE_ZERO = format_number(-0.0)


def canonical_serialize(ds: Dataset) -> bytes:
    lines = [_HEADER, *(f"meta {key} {value}" for key, value in ds.meta)]
    lines.extend(obs.line for obs in sorted(ds.observables, key=lambda o: o.name))
    lines.append(_TRAILER)
    return ("\n".join(lines) + "\n").encode("utf-8")


def dataset_id(ds: Dataset) -> str:
    return hashlib.sha256(canonical_serialize(ds)).hexdigest()


def _count(tokens: list[str], pos: int, what: str, lineno: int) -> int:
    if pos >= len(tokens):
        raise ParseError(lineno, f"expected {what}, line ended early")
    token = tokens[pos]
    if not (token.isascii() and token.isdecimal()) or (token != "0" and token.startswith("0")):
        raise ParseError(lineno, f"bad count for {what}: {token!r}")
    return int(token)


def canonical_deserialize(data: bytes) -> Dataset:
    """Parse canonical bytes; as no other rendering parses, their sha-256 is the id."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(0, f"not valid UTF-8: {exc}") from None
    if not text.endswith("\n"):
        raise ParseError(0, "document must end with a newline")
    lines = text.split("\n")[:-1]
    if not lines or lines[0] != _HEADER:
        raise ParseError(1, f"missing {_HEADER!r} header")
    if lines[-1] != _TRAILER:
        raise ParseError(len(lines), f"missing {_TRAILER!r} trailer")

    meta: list[tuple[str, str]] = []
    observables: list[Observable] = []
    seen_obs = False
    for lineno, line in enumerate(lines[1:-1], start=2):
        if line != line.strip():
            raise ParseError(lineno, "malformed spacing")
        if line.startswith("meta "):
            if seen_obs:
                raise ParseError(lineno, "meta line after obs lines")
            rest = line[len("meta "):]
            key, sep, value = rest.partition(" ")
            if not sep or not value:
                raise ParseError(lineno, "meta needs a key and a value")
            meta.append((key, value))
        elif line.startswith("obs "):
            seen_obs = True
            observables.append(_parse_obs(line, lineno))
        else:
            raise ParseError(lineno, f"unknown record: {line.split(' ', 1)[0]!r}")

    names = [o.name for o in observables]
    if names != sorted(names):
        raise ParseError(0, "observables not in lexicographic order")
    try:
        ds = Dataset(tuple(meta), tuple(observables))
    except QuantityError as exc:
        raise ParseError(0, str(exc)) from None
    vars(ds)["id"] = hashlib.sha256(data).hexdigest()
    return ds


_CHUNK = 1 << 16  # characters of an obs line split at a time


def _cut(line: str, start: int) -> int:
    """Where the slice of `line` from `start` ends: at the first space
    _CHUNK characters on, or at the end of the line."""
    end = line.find(" ", start + _CHUNK)
    return len(line) if end < 0 else end


def _fill(line: str, tokens: list[str], end: int, n: int) -> int:
    """Split `line` past `end` into `tokens`, a slice at a time, until they
    are n or the line ends; return where the split stopped."""
    while len(tokens) < n and end < len(line):
        at, end = end + 1, _cut(line, end + 1)
        tokens.extend(line[at:end].split(" "))
    return end


def _token_fault(lineno: int, tokens, head=()) -> ParseError | None:
    """The error a "" token (a doubled space) or a -0 among `tokens` or
    `head` earns; either is an obs line's first fault, whatever else is wrong."""
    if "" in tokens or "" in head:
        return ParseError(lineno, "malformed spacing in obs line")
    if _NEGATIVE_ZERO in tokens or _NEGATIVE_ZERO in head:  # _clean and _cells write every zero as +0
        return ParseError(lineno, f"non-canonical number rendering: {_NEGATIVE_ZERO!r}")
    return None


def _parse_obs(line: str, lineno: int) -> Observable:
    found = line.count(" ")  # the tokens after "obs ", each led by a space
    end = _cut(line, len("obs "))
    tokens = line[len("obs "):end].split(" ")  # a short line's every token
    end = _fill(line, tokens, end, 5)  # name, kind, unit and counts of any line
    try:
        if len(tokens) < 3:
            raise ParseError(lineno, "expected name, kind and unit, line ended early")
        name, kind, unit_name = tokens[:3]
        if kind not in KINDS:
            raise ParseError(lineno, f"unknown kind: {kind!r}")
        if unit_name not in _REGISTRY:
            raise ParseError(lineno, f"unknown unit: {unit_name!r}")
        # counts and column names first, so the numbers are the exact tail
        start, count, width, columns = 3, 1, None, ()
        if kind == "vector3":
            count = 3
        elif kind == "series":
            rows = _count(tokens, 3, "series length", lineno)
            start, count, width = 4, 2 * rows, 2
        elif kind == "table":
            rows = _count(tokens, 3, "row count", lineno)
            width = _count(tokens, 4, "column count", lineno)
            if rows and not width:
                raise ParseError(lineno, "a table without columns holds no rows")
            start, count = 5 + width, rows * width
        if found != start + count:
            raise ParseError(lineno, f"expected {start + count} tokens, found {found}")
    except ParseError as exc:
        raise _token_fault(lineno, line.split(" ")) or exc from None
    end = _fill(line, tokens, end, start)
    if kind == "table":
        columns = tuple(tokens[5:start])
    # each distinct token once: a finite float that format_number renders back;
    # on a well-formed head, the distinct numbers and the head hold every token.
    # A table keeps no list of the numbers past its first slice.
    numbers = tokens[start:]
    distinct = set(numbers)
    while end < len(line):
        at, end = end + 1, _cut(line, end + 1)
        more = line[at:end].split(" ")
        distinct.update(more)
        if kind != "table":
            numbers.extend(more)
    fault = _token_fault(lineno, distinct, tokens[:start])
    if fault:
        raise fault
    try:
        parsed = dict(zip(distinct, map(float, distinct)))
    except ValueError:
        raise ParseError(lineno, "bad number") from None
    if not all(map(math.isfinite, parsed.values())) or not all(
        map(operator.eq, map(_FORMAT, parsed.values()), parsed)
    ):
        raise ParseError(lineno, "non-canonical or non-finite number rendering")
    if kind == "table":
        values = ()  # its numbers are its cells, read from the line
    else:
        values = tuple(map(parsed.__getitem__, numbers))
        if width is not None:
            values = _rows(values, width)
    try:
        obs = Observable(name, kind, _REGISTRY[unit_name], values, columns)
    except QuantityError as exc:
        raise ParseError(lineno, str(exc)) from None
    if kind == "table":
        vars(obs)["length"] = rows
    vars(obs)["line"] = line  # only an Observable's own canonical line parses
    return obs
