"""Content-addressed dataset store with run history, checkpoints, rollback.

All services exchange data through here: producers put whole datasets,
consumers read them back (verified against the content hash on every read)
and project out what they need. The backing layout is a directory of blobs
named by sha-256 plus one append-only index log; nothing ever rewrites a
stored byte, so the full history of a run stays reproducible even across
rollbacks.

Index records, one per line:

    put <run> <activity> <seq> <hash>
    ckpt <run> <activity> <seq> <hash>
    rollback <run> <activity>
    status <run> <status>

A ContentStore parses the index once, on first use, then only the complete
lines appended since its last read, catching up before every decision so
that appends by other stores and processes count. An append holds the thread
lock and an exclusive flock on index.log from the catch-up that decides it
through to the write. Under that flock an unterminated last line can only be
the torn tail of a writer that died mid-line, so the append cuts it off first.
"""

from __future__ import annotations

import fcntl
import hashlib
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from .errors import RuntimeFailure, UserError
from .quantities import Dataset, ParseError, canonical_deserialize, canonical_serialize

__all__ = [
    "ResultKey",
    "RunState",
    "ContentStore",
    "StorageError",
    "UnknownKey",
    "UnknownRun",
    "UnknownCheckpoint",
    "IntegrityError",
    "StorageFull",
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
    """Stored bytes no longer hash to the key they were filed under."""


class StorageFull(RuntimeFailure):
    pass


ACTIVE = "active"
FAILED_RUN = "failed"
COMPLETED = "completed"
ROLLED_BACK = "rolled-back"
_RUN_STATUSES = (ACTIVE, FAILED_RUN, COMPLETED, ROLLED_BACK)


@dataclass(frozen=True)
class ResultKey:
    hash: str
    run_id: str
    activity_id: str
    sequence: int

    def __post_init__(self):
        if self.sequence < 0:
            raise StorageError("sequence must be nonnegative")


@dataclass(frozen=True)
class RunState:
    run_id: str
    checkpoints: tuple[tuple[str, ResultKey], ...]
    status: str

    def latest(self, activity_id: str) -> ResultKey | None:
        for name, key in reversed(self.checkpoints):
            if name == activity_id:
                return key
        return None


class ContentStore:
    """Blob directory plus append-only index, all under one root path."""

    def __init__(self, root, capacity_bytes: int | None = None):
        self.root = Path(root)
        self.blob_dir = self.root / "blobs"
        self.index_path = self.root / "index.log"
        self.capacity_bytes = capacity_bytes
        self.blob_dir.mkdir(parents=True, exist_ok=True)
        open(self.index_path, "ab").close()
        self._lock = threading.Lock()
        self._offset = self._lines = 0  # bytes and lines of the index indexed so far
        self._next_seq: dict[tuple[str, str], int] = {}
        self._keys: set[str] = set()  # put and ckpt lines
        self._by_run: dict[str, list[str]] = {}  # each run's lines, runs first-seen first

    # -- index plumbing ----------------------------------------------------

    def index_lines(self) -> list[str]:
        """The complete lines appended to the index since the last catch-up."""
        with open(self.index_path, "rb") as fh:
            fh.seek(self._offset)
            return [raw[:-1].decode("utf-8") for raw in fh if raw.endswith(b"\n")]

    def _catch_up(self):
        """Index the lines appended since the last call; callers hold _lock.

        A malformed line stops indexing, so every later call raises for it."""
        lines = self.index_lines()
        done = 0
        try:
            for line in lines:
                kind, *fields = line.split(" ")
                if len(fields) == 4 and kind in ("put", "ckpt") and fields[2].isdecimal():
                    self._keys.add(line)
                    seq, pair = int(fields[2]), (fields[0], fields[1])
                    if seq >= self._next_seq.get(pair, 0):
                        self._next_seq[pair] = seq + 1
                elif len(fields) != 2 or not (
                    kind == "rollback" or kind == "status" and fields[1] in _RUN_STATUSES
                ):
                    raise IntegrityError(f"index line {self._lines + done + 1} malformed: {line!r}")
                self._by_run.setdefault(fields[0], []).append(line)
                done += 1
        finally:
            self._lines += done
            self._offset += sum(len(line.encode("utf-8")) + 1 for line in lines[:done])

    @contextmanager
    def _appending(self):
        """Caught-up index and a writer for it, both locks held throughout."""
        with self._lock, open(self.index_path, "ab") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)
            self._catch_up()
            fh.truncate(self._offset)  # drop a torn tail
            yield lambda *tokens: fh.write((" ".join(map(str, tokens)) + "\n").encode("utf-8"))

    def _known(self, key: ResultKey) -> bool:
        tail = f" {key.run_id} {key.activity_id} {key.sequence} {key.hash}"
        return "put" + tail in self._keys or "ckpt" + tail in self._keys

    # -- core operations ----------------------------------------------------

    def put(self, ds: Dataset, run_id: str, activity_id: str) -> ResultKey:
        blob = canonical_serialize(ds)
        hash = vars(ds)["id"] = hashlib.sha256(blob).hexdigest()  # primes ds.id
        with self._appending() as append:
            path = self.blob_dir / hash
            if self.capacity_bytes is not None:
                used = sum(p.stat().st_size for p in self.blob_dir.iterdir())
                extra = 0 if path.exists() else len(blob)
                if used + extra > self.capacity_bytes:
                    raise StorageFull(
                        f"store over capacity: {used + extra} > {self.capacity_bytes} bytes"
                    )
            if not path.exists():
                tmp = path.with_name(path.name + ".tmp")
                tmp.write_bytes(blob)
                tmp.rename(path)
            seq = self._next_seq.get((run_id, activity_id), 0)
            append("put", run_id, activity_id, seq, hash)
        return ResultKey(hash, run_id, activity_id, seq)

    def get(self, key: ResultKey) -> Dataset:
        with self._lock:
            self._catch_up()
            if not self._known(key):
                raise UnknownKey(f"no such key: {key}")
        return self._read_blob(key.hash)

    def get_by_hash(self, hash: str) -> Dataset:
        return self._read_blob(hash)

    def _read_blob(self, hash: str) -> Dataset:
        path = self.blob_dir / hash
        if not path.exists():
            raise UnknownKey(f"no blob for hash {hash}")
        try:
            ds = canonical_deserialize(path.read_bytes())
        except ParseError as exc:
            raise IntegrityError(f"blob {hash} unparseable: {exc}") from None
        if ds.id != hash:  # the sha-256 of the bytes just parsed
            raise IntegrityError(f"blob {hash} corrupted: bytes hash to {ds.id}")
        return ds

    def checkpoint(self, run_id: str, activity_id: str, key: ResultKey) -> RunState:
        with self._appending() as append:
            if not self._known(key):
                raise UnknownKey(f"cannot checkpoint unknown key: {key}")
            append("ckpt", run_id, activity_id, key.sequence, key.hash)
        return self.run_state(run_id)

    def rollback(self, run_id: str, to_activity_id: str) -> RunState:
        with self._appending() as append:
            state = self._run_state(run_id)
            if not any(name == to_activity_id for name, _ in state.checkpoints):
                raise UnknownCheckpoint(
                    f"run {run_id} has no committed checkpoint for {to_activity_id}"
                )
            append("rollback", run_id, to_activity_id)
        return self.run_state(run_id)

    def set_status(self, run_id: str, status: str):
        if status not in _RUN_STATUSES:
            raise StorageError(f"unknown run status: {status}")
        with self._appending() as append:
            self._run_state(run_id)
            append("status", run_id, status)

    # -- views ---------------------------------------------------------------

    def run_state(self, run_id: str) -> RunState:
        with self._lock:
            self._catch_up()
            return self._run_state(run_id)

    def _run_state(self, run_id: str) -> RunState:
        committed: list[tuple[str, ResultKey]] = []
        status = ACTIVE
        if run_id not in self._by_run:
            raise UnknownRun(f"unknown run: {run_id}")
        for line in self._by_run[run_id]:
            kind, _, *rec = line.split(" ")
            if kind == "ckpt":
                committed.append((rec[0], ResultKey(rec[2], run_id, rec[0], int(rec[1]))))
                if status == ROLLED_BACK:
                    status = ACTIVE
            elif kind == "rollback":
                cut = max(i for i, (name, _) in enumerate(committed) if name == rec[0])
                committed = committed[: cut + 1]
                status = ROLLED_BACK
            elif kind == "status":
                status = rec[0]
        return RunState(run_id, tuple(committed), status)

    def checkpoints(self, run_id: str) -> tuple[tuple[str, ResultKey], ...]:
        return self.run_state(run_id).checkpoints

    def runs(self) -> list[str]:
        with self._lock:
            self._catch_up()
            return list(self._by_run)

    def audit(self) -> list[str]:
        """Re-hash every blob; returns the list of corrupted hashes."""
        bad = []
        for path in sorted(self.blob_dir.iterdir()):
            if path.suffix == ".tmp":
                continue
            actual = hashlib.sha256(path.read_bytes()).hexdigest()
            if actual != path.name:
                bad.append(path.name)
        return bad

    def torn_tail(self) -> int:
        """Length of an unterminated last index line (a writer that died
        mid-line); 0 when the index ends on a newline. Takes no lock."""
        data = self.index_path.read_bytes()
        return len(data) - data.rfind(b"\n") - 1
