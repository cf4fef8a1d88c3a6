"""Content-addressed dataset store with one append-only journal per run.

All services exchange data through here: producers file whole datasets,
consumers read them back (verified against the content hash and parsed,
every number checked, on every read; a parsed table reads its cells from its
line only on first use, see quantities) and project out what they need.
store audit (audit) reads every blob the same way. A handle keeps the
datasets it filed, up to _HELD_BYTES of canonical bytes, oldest dropped
first: reading one of them back re-hashes the stored bytes and returns the
held object instead of parsing them again. A new handle holds nothing, so
another process always parses. The layout is blobs/<sha-256>, one canonical
dataset each, plus runs/<run id>.log, one JSON array per line:

    ["submitted", header]          first line: workflow name, text and hash,
                                   seed, user, params, max_iterations, bindings
    ["put", activity, seq, hash]   a staged input, filed under the run
    ["put", activity, seq, hash, base]
                                   a derived put: a staged input filed as blob
                                   base with the line "meta derived-from <base>"
                                   spliced in after its dataset-v1 header
    ["ckpt", activity, seq, hash]  a job's result, filed and committed
    ["rollback", activity]         drop the checkpoints after the activity's last;
                                   status rolled-back until the next ckpt
    ["status", status, summary]    status, plus the run's summary (entries,
                                   trace, started_at, finished_at, failure)

Journals from before ckpt filed its own dataset hold a put of the same
(activity, seq, hash) before each ckpt; they read unchanged.

A dataset is named by its hash, 64 lowercase hex digits: put and checkpoint
return it, get(run_id, hash) reads back one the run filed, and a run's
checkpoints are its live ckpt records' (activity, seq, hash), in journal
order. A put or ckpt line naming anything but a hash is malformed, so
no journal can point a read outside blobs/.

A put is derived when the dataset is a projection that keeps every
observable of a dataset with no meta (the same objects, as project leaves
an observable whose unit it keeps): its canonical bytes are then the base
blob's plus that one meta line, so no second blob is written. Its hash is
still the sha-256 of those bytes. Only the run's journal knows the record,
so get_by_hash reads a derived hash under the drive of its run, get() under
any handle; a read splices the line in and hashes and parses the bytes as it
would a blob's, each once.

Nothing rewrites a stored byte, so a run's history survives rollbacks. A
run's state is a fold of its own journal's records; no operation reads
another's. Only a claim creates a journal: it writes the "submitted" record
in the call that creates it exclusively (open mode "x").

One process at a time drives a run, and only a drive writes to it. The
drive holds an exclusive flock on runs/<run id>.lock (empty, never deleted)
throughout; the kernel drops it when its holder dies. Under it the drive
reads the journal once, cuts a torn tail (the unterminated last line of a
drive that died; none before the first line is whole, as a claim writes
that without the lock), and keeps the journal open and the run's folded
state until it ends. Each write (put, checkpoint, rollback, set_status)
decides on that state, appends one line through the open journal, flushes
it and folds the record in, all under the handle's lock, so the handle's
threads take turns. A write to a run the handle does not drive is a
StorageError. A read of a run the handle drives (get, run_state) reads the
kept state; a read of any other run, and store audit (journal_faults),
reads its journal in full, skips a torn tail and keeps nothing.

Fsync policy: none. A record is written before its operation returns, so a
killed process loses nothing it reported done; a power loss can lose what
the page cache held.
"""

from __future__ import annotations

import fcntl
import hashlib
import itertools
import json
import operator
import os
import re
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from .errors import RuntimeFailure, UserError
from .quantities import Dataset, ParseError, canonical_deserialize, canonical_serialize

__all__ = [
    "RunState",
    "ContentStore",
    "StorageError",
    "UnknownKey",
    "UnknownRun",
    "UnknownCheckpoint",
    "IntegrityError",
    "ACTIVE",
    "FAILED_RUN",
    "COMPLETED",
    "ROLLED_BACK",
]


class StorageError(UserError):
    pass


class UnknownKey(StorageError):
    pass


class UnknownRun(StorageError):
    pass


class UnknownCheckpoint(StorageError):
    pass


class IntegrityError(RuntimeFailure):
    """Stored bytes no longer hash to the name they were filed under."""


ACTIVE = "active"
FAILED_RUN = "failed"
COMPLETED = "completed"
ROLLED_BACK = "rolled-back"
_RUN_STATUSES = (ACTIVE, FAILED_RUN, COMPLETED, ROLLED_BACK)

_RUN_ID = re.compile(r"[A-Za-z0-9][A-Za-z0-9_-]*")
_NUMBERED = re.compile(r"run-([0-9]+)")
_HASH = re.compile(r"[0-9a-f]{64}")
_HELD_BYTES = 32 << 20  # canonical bytes of the datasets a handle keeps


@dataclass(frozen=True)
class RunState:
    run_id: str
    checkpoints: tuple[tuple[str, int, str], ...]  # (activity, seq, hash) of each live ckpt
    status: str
    header: dict | None = None  # the "submitted" record; None until its line is complete
    summary: dict | None = None  # from the last status record; None until there is one


def _line(record) -> bytes:
    return (json.dumps(record, separators=(",", ":")) + "\n").encode("ascii")


_decode = json.JSONDecoder().raw_decode


def _record(line: str, number: int) -> list | None:
    """The record on one journal line, or None when the line is malformed."""
    try:
        record, end = _decode(line)
    except ValueError:
        return None
    if end != len(line) or not line.isascii() or type(record) is not list or not record:
        return None
    kind, n = record[0], len(record)
    if kind == "put" or kind == "ckpt":
        ok = n == 4 or n == 5 and kind == "put" and type(record[4]) is str and _HASH.fullmatch(record[4])
        ok = ok and type(record[1]) is type(record[3]) is str and _HASH.fullmatch(record[3])
        ok = ok and type(record[2]) is int and record[2] >= 0  # not JSON true or false
    elif kind == "rollback":
        ok = n == 2 and type(record[1]) is str
    elif kind == "status":
        ok = n == 3 and record[1] in _RUN_STATUSES and type(record[2]) is dict
    else:
        ok = kind == "submitted" and number == 1 and n == 2 and type(record[1]) is dict
    return record if ok else None


@dataclass
class _Journal:
    """A run's state, folded from its journal's records in order."""

    run_id: str
    header: dict | None = None
    committed: list = field(default_factory=list)  # (activity, seq, hash) of each live ckpt
    status: str = ACTIVE
    summary: dict | None = None
    next_seq: dict = field(default_factory=dict)  # activity -> 1 + its highest put or ckpt seq
    keys: set = field(default_factory=set)  # hash of every put and ckpt
    derived: dict = field(default_factory=dict)  # hash -> base blob of each derived put
    writer: object = None  # the open journal, while this handle drives the run

    def take(self, record):
        kind, *rec = record
        if kind == "submitted":
            self.header = rec[0]
        elif kind == "put" or kind == "ckpt":
            self.keys.add(rec[2])
            if len(rec) == 4:
                self.derived[rec[2]] = rec[3]
            if rec[1] >= self.next_seq.get(rec[0], 0):
                self.next_seq[rec[0]] = rec[1] + 1
            if kind == "ckpt":
                self.committed.append(tuple(rec))
                if self.status == ROLLED_BACK:
                    self.status = ACTIVE
        elif kind == "rollback":
            cuts = [i for i, (name, _, _) in enumerate(self.committed) if name == rec[0]]
            if not cuts:
                raise IntegrityError(f"runs/{self.run_id}.log: rollback to {rec[0]!r}, never committed")
            del self.committed[cuts[-1] + 1 :]
            self.status = ROLLED_BACK
        else:  # status
            self.status, self.summary = rec

    def append(self, *record):
        """Write a record through the open journal, flushed, and fold it in."""
        self.writer.write(_line(record))
        self.writer.flush()
        self.take(record)

    def state(self) -> RunState:
        return RunState(self.run_id, tuple(self.committed), self.status, self.header, self.summary)


def _split(data: bytes) -> tuple[list[str], int]:
    """A journal's complete lines, as latin-1 (one character a byte), and the
    length of the unterminated tail after them."""
    end = data.rfind(b"\n") + 1
    return data[:end].decode("latin-1").split("\n")[:-1], len(data) - end


def _derives(ds: Dataset, base: Dataset | None) -> bool:
    """Whether ds's canonical bytes are base's with one derived-from line
    spliced in: base has no meta, and ds holds base's observables, the same
    objects, and that one meta line."""
    return (base is not None and not base.meta and ds.meta == (("derived-from", base.id),)
            and len(ds.observables) == len(base.observables)
            and all(map(operator.is_, ds.observables, base.observables)))


def _spliced(base: bytes, base_hash: str) -> bytes:
    """A derived put's bytes, from its base blob's: the header line, the
    derived-from line, the rest."""
    cut = base.find(b"\n") + 1
    view = memoryview(base)
    return b"".join((view[:cut], f"meta derived-from {base_hash}\n".encode("ascii"), view[cut:]))


def _corrupted(hash: str, base: str | None, digest: str) -> IntegrityError:
    """The error of a read whose bytes hash to `digest`, not `hash`."""
    if base is None:
        return IntegrityError(f"blob {hash} corrupted: bytes hash to {digest}")
    return IntegrityError(
        f"derived put {hash} corrupted: blob {base} with its derived-from line hashes to {digest}")


def _records(lines: list[str]) -> list:
    return [_record(line, n) for n, line in enumerate(lines, 1)]


def _fold(run_id: str, lines: list[str], records: list) -> _Journal:
    """The state of a run whose journal holds `lines`, parsed as `records`;
    IntegrityError names the first malformed line or a bad rollback."""
    if None in records:
        number = records.index(None)
        raise IntegrityError(f"runs/{run_id}.log line {number + 1} malformed: {lines[number][:80]!r}")
    kept = _Journal(run_id)
    for record in records:
        kept.take(record)
    return kept


class ContentStore:
    """Blob directory plus one append-only journal per run, under one root."""

    def __init__(self, root):
        self.root = Path(root)
        self.blob_dir = self.root / "blobs"
        self.runs_dir = self.root / "runs"
        self._held: dict[str, tuple[Dataset, int]] = {}  # hash -> (dataset, bytes), oldest first
        self._held_bytes = 0
        self._held_lock = threading.Lock()
        self._drives: dict[str, _Journal] = {}  # run id -> the state of a run this handle drives
        self._lock = threading.Lock()  # held by every write and every reader of _drives
        old_index = self.root / "index.log"
        if old_index.exists():
            raise StorageError(f"{old_index}: old store layout; only runs/<id>.log journals are read")
        self.blob_dir.mkdir(parents=True, exist_ok=True)
        self.runs_dir.mkdir(exist_ok=True)

    # -- journals ------------------------------------------------------------

    def journal(self, run_id: str) -> Path:
        """The journal path of a run id, which must be a plain name."""
        if not isinstance(run_id, str) or not _RUN_ID.fullmatch(run_id):
            raise StorageError(f"bad run id {run_id!r}: want [A-Za-z0-9][A-Za-z0-9_-]*")
        return self.runs_dir / f"{run_id}.log"

    def index_lines(self, run_id: str) -> list[str]:
        """Every complete line of a run's journal, torn tail skipped, as
        latin-1 (one character a byte)."""
        try:
            return _split(self.journal(run_id).read_bytes())[0]
        except FileNotFoundError:
            raise UnknownRun(f"unknown run: {run_id}") from None

    def _read(self, run_id: str) -> tuple[int, _Journal]:
        """One read of a run's whole journal: the bytes of its complete lines,
        and the run's state folded from them, every line checked."""
        lines = self.index_lines(run_id)
        return sum(map(len, lines)) + len(lines), _fold(run_id, lines, _records(lines))

    def _view(self, run_id: str) -> _Journal:
        """The state of a run this handle drives, else of one read of its
        journal, which nothing keeps. Callers hold _lock."""
        kept = self._drives.get(run_id)
        return kept if kept is not None else self._read(run_id)[1]

    def _driven(self, run_id: str) -> _Journal:
        """The state of a run this handle drives, to write to. Callers hold _lock."""
        kept = self._drives.get(run_id)
        if kept is None:
            self.journal(run_id)  # a bad run id is refused as one
            raise StorageError(f"run {run_id} is not driven by this store handle")
        return kept

    @contextmanager
    def driving(self, run_id: str, wait: bool = True):
        """Drive a run (see above) until the block ends. Unless `wait`, a
        lock that another process holds is a StorageError that names the run."""
        try:
            journal = open(self.journal(run_id), "r+b")  # journals are never deleted
        except FileNotFoundError:
            raise UnknownRun(f"unknown run: {run_id}") from None
        with journal, open(self.runs_dir / f"{run_id}.lock", "ab") as lock:
            try:
                fcntl.flock(lock, fcntl.LOCK_EX if wait else fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                raise StorageError(f"run {run_id} is being driven by another process") from None
            end, kept = self._read(run_id)
            if end and journal.seek(0, os.SEEK_END) > end:  # a dead drive's torn tail
                journal.truncate(end)
            journal.seek(0, os.SEEK_END)
            kept.writer = journal
            with self._lock:
                self._drives[run_id] = kept
            try:
                yield
            finally:
                with self._lock:
                    del self._drives[run_id]

    def claim(self, header: dict, run_id: str | None = None) -> str:
        """Create a run's journal, "submitted" record first; returns the run id:
        a new given one, else the next run-NNNN no other process took first."""
        if run_id is None:
            numbers = (_NUMBERED.fullmatch(name) for name in self.runs())
            highest = max((int(m.group(1)) for m in numbers if m), default=0)
            candidates = (f"run-{n:04d}" for n in itertools.count(highest + 1))
        else:
            candidates = [run_id]
        for candidate in candidates:
            try:
                with open(self.journal(candidate), "xb") as fh:
                    fh.write(_line(["submitted", header]))
                return candidate
            except FileExistsError:
                if run_id is not None:
                    raise StorageError(f"run {run_id} already exists") from None

    # -- core operations ----------------------------------------------------

    def put(self, ds: Dataset, run_id: str, activity_id: str, base: Dataset | None = None) -> str:
        """File a staged input under a run this handle drives and return its
        hash; `base`, if given, is the stored dataset `ds` was projected
        from, and makes the put a derived one when ds keeps all of it (see
        above)."""
        return self._file("put", ds, run_id, activity_id, base)

    def checkpoint(self, run_id: str, activity_id: str, ds: Dataset) -> str:
        """File a job's result under a run this handle drives, committed as
        the activity's latest checkpoint, and return its hash."""
        return self._file("ckpt", ds, run_id, activity_id)

    def _file(self, kind: str, ds: Dataset, run_id: str, activity_id: str, base=None) -> str:
        """Write ds's blob, unless it is derived or stored, then append one
        `kind` record for it and hold ds for reads back."""
        blob = canonical_serialize(ds)
        hash = vars(ds)["id"] = hashlib.sha256(blob).hexdigest()  # primes ds.id
        derived = [base.id] if _derives(ds, base) else []
        with self._lock:
            kept = self._driven(run_id)
            path = self.blob_dir / hash
            if not derived and not path.exists():
                # drives of other runs may put the same blob at the same
                # time: each writer renames its own temporary file
                tmp = path.with_name(f"{hash}.{os.getpid()}-{threading.get_ident()}.tmp")
                tmp.write_bytes(blob)
                tmp.replace(path)
            kept.append(kind, activity_id, kept.next_seq.get(activity_id, 0), hash, *derived)
        with self._held_lock:
            held = self._held.pop(hash, None)
            self._held[hash] = (ds, len(blob))
            self._held_bytes += len(blob) - (held[1] if held else 0)
            while self._held_bytes > _HELD_BYTES:
                self._held_bytes -= self._held.pop(next(iter(self._held)))[1]
        return hash

    def get(self, run_id: str, hash: str) -> Dataset:
        """The dataset a run filed under a hash."""
        with self._lock:
            journal = self._view(run_id)
            known = hash in journal.keys
            base = journal.derived.get(hash)
        if not known:
            raise UnknownKey(f"run {run_id} filed no dataset {hash}")
        return self._read_blob(hash, base)

    def get_by_hash(self, hash: str) -> Dataset:
        """The dataset stored under a hash: a blob's, or a derived put's of
        a run this handle drives."""
        with self._lock:
            base = next((kept.derived[hash] for kept in self._drives.values()
                         if hash in kept.derived), None)
        return self._read_blob(hash, base)

    def _read_blob(self, hash: str, base: str | None = None) -> Dataset:
        """Read blob `hash`, or the derived put `hash` of blob `base`, its
        bytes hashed once: by the parse, which primes the id, unless held."""
        name = base or hash
        try:
            data = (self.blob_dir / name).read_bytes()
        except FileNotFoundError:  # a journal names it, or get() has refused the hash
            raise IntegrityError(f"blob {name} missing") from None
        if base is not None:
            data = _spliced(data, base)
        held = self._held.get(hash)
        if held is not None and hashlib.sha256(data).hexdigest() == hash:
            return held[0]  # the bytes this handle wrote, still intact
        try:
            ds = canonical_deserialize(data)
        except ParseError as exc:
            if base is not None:  # a derived put's bytes were canonical when filed
                raise _corrupted(hash, base, hashlib.sha256(data).hexdigest()) from None
            raise IntegrityError(f"blob {name} unparseable: {exc}") from None
        if ds.id != hash:  # the sha-256 of the bytes just parsed
            raise _corrupted(hash, base, ds.id)
        return ds

    def rollback(self, run_id: str, to_activity_id: str):
        with self._lock:
            kept = self._driven(run_id)
            if not any(name == to_activity_id for name, _, _ in kept.committed):
                raise UnknownCheckpoint(
                    f"run {run_id} has no committed checkpoint for {to_activity_id}"
                )
            kept.append("rollback", to_activity_id)

    def set_status(self, run_id: str, status: str, summary: dict):
        """Append a status record carrying the run's summary."""
        if status not in _RUN_STATUSES:
            raise StorageError(f"unknown run status: {status}")
        with self._lock:
            self._driven(run_id).append("status", status, summary)

    # -- views ---------------------------------------------------------------

    def run_state(self, run_id: str) -> RunState:
        with self._lock:
            return self._view(run_id).state()

    def checkpoints(self, run_id: str) -> tuple[tuple[str, int, str], ...]:
        return self.run_state(run_id).checkpoints

    def runs(self) -> list[str]:
        return sorted(name[:-4] for name in os.listdir(self.runs_dir) if name.endswith(".log"))

    def audit(self) -> list[str]:
        """Read every blob as get() does, re-hashed and parsed in full;
        returns the IntegrityError text of each that fails."""
        bad = []
        for path in sorted(self.blob_dir.iterdir()):
            if path.suffix == ".tmp":
                continue
            try:
                self._read_blob(path.name)
            except IntegrityError as exc:
                bad.append(str(exc))
        return bad

    def journal_faults(self, run_id: str) -> tuple[int, list[str]]:
        """A lock-free fold of one read of a run's journal: the length of an
        unterminated last line (a drive that died mid-line), and, that tail
        skipped, the first malformed line or bad rollback, each put or ckpt
        of a missing blob, and each derived put whose spliced bytes do not
        hash to its hash."""
        lines, torn = _split(self.journal(run_id).read_bytes())
        records, faults = _records(lines), []
        try:
            _fold(run_id, lines, records)
        except IntegrityError as exc:
            faults.append(f"damaged {exc}")
        for number, record in enumerate(records, 1):
            if not record or record[0] not in ("put", "ckpt"):
                continue
            name, where = record[-1], f"runs/{run_id}.log line {number}"  # a derived put names its base
            path = self.blob_dir / name
            if not path.is_file():
                faults.append(f"missing blob {name} ({where})")
            elif len(record) == 5 and (
                    digest := hashlib.sha256(_spliced(path.read_bytes(), name)).hexdigest()) != record[3]:
                faults.append(f"damaged {where}: derived put {record[3]} of blob {name} hashes to {digest}")
        return torn, faults
