"""Content store: puts, integrity, checkpoints, rollback, append-only audit."""

import json
import multiprocessing
import os
import random
import re
import sys
import threading

import pytest

from gridflow import quantities
from gridflow import storage as storage_module
from gridflow.quantities import Dataset, ExtractionSpec, Observable, dataset_id, get_unit, project
from gridflow.storage import (
    ACTIVE,
    COMPLETED,
    FAILED_RUN,
    ROLLED_BACK,
    ContentStore,
    IntegrityError,
    ResultKey,
    StorageError,
    UnknownCheckpoint,
    UnknownKey,
    UnknownRun,
)

ONE = get_unit("dimensionless")


def ds(name, value):
    return Dataset.build([Observable.scalar(name, value, ONE)])


@pytest.fixture
def store(tmp_path):
    return ContentStore(tmp_path / "store")


@pytest.fixture
def r1(store):
    """Run r1, claimed with an empty header and driven by `store` for the
    whole test: only a drive writes to a run."""
    store.claim({}, "r1")
    with store.driving("r1"):
        yield "r1"


def records(store, run_id):
    """The records of a run's journal after its "submitted" line."""
    return [json.loads(line) for line in store.journal(run_id).read_bytes().splitlines()[1:]]


class TestPutGet:
    def test_put_then_get_round_trips(self, store, r1):
        d = ds("x", 1.5)
        key = store.put(d, "r1", "a")
        assert store.get(key) == d
        assert key.hash == d.id

    def test_put_serializes_once(self, store, r1, monkeypatch):
        calls = []
        for module in (quantities, storage_module):
            real = module.canonical_serialize
            monkeypatch.setattr(module, "canonical_serialize",
                                lambda d, real=real: calls.append(d) or real(d))
        d = ds("x", 1.5)
        key = store.put(d, "r1", "a")
        assert len(calls) == 1
        read = store.get(key)
        store.put(read, "r1", "b")
        assert len(calls) == 2
        assert read.id == key.hash == dataset_id(d)

    def test_same_content_twice_distinct_sequences(self, store, r1):
        d = ds("x", 1.5)
        k1 = store.put(d, "r1", "a")
        k2 = store.put(d, "r1", "a")
        assert k1.hash == k2.hash
        assert k1.sequence != k2.sequence

    def test_different_content_different_hashes(self, store, r1):
        k1 = store.put(ds("x", 1.0), "r1", "a")
        k2 = store.put(ds("x", 2.0), "r1", "a")
        assert k1.hash != k2.hash

    def test_fabricated_key_rejected(self, store, r1):
        store.put(ds("x", 1.0), "r1", "a")
        fake = ResultKey("0" * 64, "r1", "a", 0)
        with pytest.raises(UnknownKey):
            store.get(fake)

    def test_corrupted_blob_detected_on_read(self, store):
        store.claim({}, "r1")
        with store.driving("r1"):
            key = store.put(ds("x", 1.0), "r1", "a")
        path = store.blob_dir / key.hash
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(IntegrityError):
            store.get(key)

    def test_puts_past_the_held_bound_still_read_back(self, store, r1, monkeypatch):
        # a handle keeps at most _HELD_BYTES of what it put, oldest dropped
        # first; a dropped dataset is parsed from its blob again
        size = len(quantities.canonical_serialize(ds("x", 0.0)))
        monkeypatch.setattr(storage_module, "_HELD_BYTES", 3 * size)
        parsed, real = [], storage_module.canonical_deserialize
        monkeypatch.setattr(storage_module, "canonical_deserialize",
                            lambda data: parsed.append(data) or real(data))
        keys = [store.put(ds("x", float(i)), "r1", "a") for i in range(10)]
        assert list(store._held) == [key.hash for key in keys[-3:]]
        for i, key in enumerate(keys):
            assert store.get(key) == ds("x", float(i))
        assert len(parsed) == 7


class TestDerivedPuts:
    """A projection that keeps its base's every observable, from a base with
    no meta, is filed as a record naming the base's blob."""

    def base(self, **meta):
        return Dataset.build([Observable.scalar("x", 1.5, ONE),
                              Observable.scalar("y", 2.0, get_unit("nm"))], meta=meta)

    def test_a_whole_projection_writes_no_blob(self, store, r1):
        base = self.base()
        bkey = store.put(base, "r1", "a")
        whole = project(base, ExtractionSpec.of(("x", "1"), ("y", "nm")))
        key = store.put(whole, "r1", "b.in", base)
        assert key.hash == dataset_id(whole)  # the id of the bytes a blob would have held
        assert records(store, "r1")[-1] == ["put", "b.in", 0, key.hash, bkey.hash]
        assert sorted(p.name for p in store.blob_dir.iterdir()) == [bkey.hash]
        assert store.get_by_hash(key.hash) is whole  # held
        other = ContentStore(store.root)  # holds nothing, so parses
        assert other.get(key) == whole and other.get(key).id == key.hash
        assert quantities.canonical_serialize(other.get(key)) == quantities.canonical_serialize(whole)
        # only a drive of the run, or get(), knows a derived hash
        with pytest.raises(IntegrityError, match=f"^blob {key.hash} missing$"):
            other.get_by_hash(key.hash)

    @pytest.mark.parametrize("case", ["dropped", "converted", "base-meta", "no-base"])
    def test_any_other_put_writes_its_blob(self, store, r1, case):
        base = self.base(**({"source": "elsewhere"} if case == "base-meta" else {}))
        store.put(base, "r1", "a")
        wanted = {"dropped": [("x", "1")],
                  "converted": [("x", "1"), ("y", "angstrom")]}
        staged = project(base, ExtractionSpec.of(*wanted.get(case, [("x", "1"), ("y", "nm")])))
        key = store.put(staged, "r1", "b.in", None if case == "no-base" else base)
        assert records(store, "r1")[-1] == ["put", "b.in", 0, key.hash]
        assert (store.blob_dir / key.hash).read_bytes() == quantities.canonical_serialize(staged)

    def test_a_changed_base_fails_the_derived_read(self, store, r1):
        base = self.base()
        bkey = store.put(base, "r1", "a")
        key = store.put(project(base, ExtractionSpec.of(("x", "1"), ("y", "nm"))), "r1", "b.in", base)
        path = store.blob_dir / bkey.hash
        path.write_bytes(path.read_bytes().replace(b"obs y", b"obs z"))
        fault = f"^derived put {key.hash} corrupted: blob {bkey.hash} with its derived-from line hashes to "
        with pytest.raises(IntegrityError, match=fault):
            store.get_by_hash(key.hash)  # held, but the stored bytes are hashed first
        with pytest.raises(IntegrityError, match=fault):
            ContentStore(store.root).get(key)

    def test_a_base_that_no_longer_parses_fails_the_derived_read_as_changed(self, store, r1):
        base = self.base()
        bkey = store.put(base, "r1", "a")
        key = store.put(project(base, ExtractionSpec.of(("x", "1"), ("y", "nm"))), "r1", "b.in", base)
        path = store.blob_dir / bkey.hash
        path.write_bytes(path.read_bytes()[:-len(b"end\n")])
        fault = f"^derived put {key.hash} corrupted: blob {bkey.hash} with its derived-from line hashes to "
        with pytest.raises(IntegrityError, match=fault):
            ContentStore(store.root).get(key)  # holds nothing, so the parse meets the fault first

    @pytest.mark.parametrize("line", [
        '["put","a",0,"{h}","../blobs/{h}"]', '["put","a",0,"{h}",1]',
        '["put","a",0,"{h}","{h}","{h}"]', '["ckpt","a",0,"{h}","{h}"]',
    ])
    def test_a_base_must_be_a_sha256_on_a_put(self, store, line):
        store.claim({}, "r1")
        with open(store.journal("r1"), "ab") as fh:
            fh.write(line.replace("{h}", "ab" * 32).encode() + b"\n")
        with pytest.raises(IntegrityError, match=r"^runs/r1.log line 2 malformed"):
            store.run_state("r1")

    @pytest.mark.parametrize("line", [
        '["status","completed",null]', '["status","completed"]', '["status","completed",[]]',
    ])
    def test_a_status_record_carries_a_summary(self, store, line):
        store.claim({}, "r1")
        with open(store.journal("r1"), "ab") as fh:
            fh.write(line.encode() + b"\n")
        with pytest.raises(IntegrityError, match=r"^runs/r1.log line 2 malformed"):
            store.run_state("r1")


class TestCheckpoints:
    def test_checkpoint_and_state(self, store, r1):
        d = ds("x", 1.0)
        k = store.checkpoint("r1", "a", d)
        assert k == ResultKey(d.id, "r1", "a", 0)
        assert records(store, "r1") == [["ckpt", "a", 0, k.hash]]  # one record, no put
        assert (store.blob_dir / k.hash).read_bytes() == quantities.canonical_serialize(d)
        assert store.get(k) is d  # held
        assert ContentStore(store.root).get(k) == d  # parsed from its blob
        state = store.run_state("r1")
        assert state.checkpoints == (("a", k),)
        assert state.status == ACTIVE
        assert ContentStore(store.root).run_state("r1") == state  # read from disk

    def test_rollback_truncates_strictly_after_target(self, store, r1):
        keys = {}
        for name, value in (("a", 1.0), ("b", 2.0), ("c", 3.0)):
            keys[name] = store.checkpoint("r1", name, ds("x", value))
        store.rollback("r1", "a")
        state = store.run_state("r1")
        assert state.checkpoints == (("a", keys["a"]),)
        assert state.status == ROLLED_BACK
        assert ContentStore(store.root).run_state("r1") == state

    def test_truncated_history_stays_readable(self, store, r1):
        kb = None
        for name, value in (("a", 1.0), ("b", 2.0)):
            k = store.checkpoint("r1", name, ds("x", value))
            if name == "b":
                kb = k
        store.rollback("r1", "a")
        assert store.get(kb).get("x").magnitude == 2.0

    def test_next_checkpoint_clears_rolled_back(self, store, r1):
        store.checkpoint("r1", "a", ds("x", 1.0))
        store.rollback("r1", "a")
        store.checkpoint("r1", "b", ds("x", 2.0))
        assert store.run_state("r1").status == ACTIVE

    def test_rollback_unknown_activity(self, store, r1):
        store.checkpoint("r1", "a", ds("x", 1.0))
        with pytest.raises(UnknownCheckpoint):
            store.rollback("r1", "zz")

    def test_unknown_run(self, store):
        with pytest.raises(UnknownRun):
            store.run_state("ghost")

    def test_status_records(self, store, r1):
        store.checkpoint("r1", "a", ds("x", 1.0))
        store.set_status("r1", ACTIVE, {"failure": None})
        store.set_status("r1", COMPLETED, {"failure": "none"})
        state = store.run_state("r1")
        assert (state.status, state.summary) == (COMPLETED, {"failure": "none"})  # the last one's


class TestAppendOnly:
    def read_everything(self, store):
        return {p: p.read_bytes() for d in (store.runs_dir, store.blob_dir) for p in d.iterdir()}

    def test_no_operation_rewrites_existing_bytes(self, store, r1):
        k = store.checkpoint("r1", "a", ds("x", 1.0))
        before = self.read_everything(store)

        store.put(ds("x", 1.0), "r1", "b.in")
        store.checkpoint("r1", "b", ds("x", 2.0))
        store.rollback("r1", "a")
        store.get(k)
        store.set_status("r1", COMPLETED, {})

        after = self.read_everything(store)
        for path, blob in before.items():
            if path.parent == store.runs_dir:
                assert after[path].startswith(blob), f"journal {path.name} was not appended to"
            else:
                assert after[path] == blob, f"blob {path.name} was rewritten"

    def test_audit_flags_corrupted_blob(self, store, r1):
        key = store.put(ds("x", 1.0), "r1", "a")
        assert store.audit() == []
        path = store.blob_dir / key.hash
        path.write_bytes(path.read_bytes() + b"junk\n")
        assert store.audit() == [f"blob {key.hash} unparseable: line 4: missing 'end' trailer"]

    def test_missing_blob_is_damage_and_an_unknown_key_is_not(self, store, r1):
        key = store.put(ds("x", 1.0), "r1", "a")
        (store.blob_dir / key.hash).unlink()
        with pytest.raises(UnknownKey):
            store.get(ResultKey(key.hash, "r1", "a", 1))
        with pytest.raises(IntegrityError, match=f"blob {key.hash} missing"):
            store.get(key)

    def test_journal_faults_replay_from_disk(self, store):
        for run_id in ("r1", "r2"):
            store.claim({}, run_id)
        with store.driving("r1"):
            k1 = store.checkpoint("r1", "a", ds("x", 1.0))
            store.put(ds("x", 1.0), "r1", "b.in")  # a second record of the same blob
        with store.driving("r2"):
            store.put(ds("x", 2.0), "r2", "b")
        assert store.journal_faults("r1") == store.journal_faults("r2") == (0, [])
        (store.blob_dir / k1.hash).unlink()
        with open(store.journal("r1"), "ab") as fh:
            fh.write(b'["put","a"]\n["bogus"]\n["put","lat')  # torn tail skipped
        with open(store.journal("r2"), "ab") as fh:
            fh.write(b'["rollback","b"]\n')
        before = store.journal("r1").read_bytes()
        assert store.journal_faults("r1") == (len(b'["put","lat'), [
            """damaged runs/r1.log line 4 malformed: '["put","a"]'""",
            f"missing blob {k1.hash} (runs/r1.log line 2)",
            f"missing blob {k1.hash} (runs/r1.log line 3)",
        ])
        assert store.journal_faults("r2") == (
            0, ["damaged runs/r2.log: rollback to 'b', never committed"])
        assert store.journal("r1").read_bytes() == before  # nothing repaired

    @pytest.mark.parametrize("where", ["relative", "absolute"])
    def test_a_hash_that_is_not_a_sha256_names_no_file(self, store, monkeypatch, where):
        store.claim({}, "r1")
        with store.driving("r1"):
            key = store.checkpoint("r1", "a", ds("x", 1.0))
        planted = store.root.parent / "planted"  # a valid blob outside blobs/
        planted.write_bytes((store.blob_dir / key.hash).read_bytes())
        target = "../runs/r1.log" if where == "relative" else str(planted)
        journal = store.journal("r1")
        lines = journal.read_text(encoding="ascii").splitlines()
        lines[-1] = json.dumps(["ckpt", "a", 0, target], separators=(",", ":"))
        journal.write_text("\n".join(lines) + "\n", encoding="ascii")
        touched = []
        for method in ("read_bytes", "is_file"):
            real = getattr(type(journal), method)
            monkeypatch.setattr(type(journal), method,
                                lambda path, real=real: touched.append(path) or real(path))
        with pytest.raises(IntegrityError, match=r"^runs/r1.log line 2 malformed: "):
            store.run_state("r1")
        torn, faults = store.journal_faults("r1")
        assert torn == 0 and len(faults) == 1 and faults[0].startswith("damaged runs/r1.log line 2 malformed: ")
        assert touched and all(p == journal or p.parent == store.blob_dir for p in touched)

    def test_replay_reproduces_committed_sequence(self, store):
        originals = []
        store.claim({}, "r1")
        with store.driving("r1"):
            for name, value in (("a", 0.5), ("b", 1.5), ("c", 2.5)):
                d = ds("obs", value)
                store.checkpoint("r1", name, d)
                originals.append(d)
            kept = store.checkpoints("r1")
        assert store.checkpoints("r1") == kept  # read from disk, once the drive ended
        replayed = [store.get(key) for _, key in store.checkpoints("r1")]
        assert replayed == originals

    def test_reopen_preserves_state(self, store, r1):
        k = store.checkpoint("r1", "a", ds("x", 1.0))
        again = ContentStore(store.root)
        assert again.run_state("r1").checkpoints == (("a", k),)
        assert again.get(k).get("x").magnitude == 1.0


def journal_state(text, run_id):
    """Replay of one run's journal text: the reference for run_state."""
    committed, status = [], ACTIVE
    for line in text.splitlines():
        kind, *rest = json.loads(line)
        if kind == "ckpt":
            committed.append((rest[0], ResultKey(rest[2], run_id, rest[0], rest[1])))
            if status == ROLLED_BACK:
                status = ACTIVE
        elif kind == "rollback":
            cut = max(i for i, (name, _) in enumerate(committed) if name == rest[0])
            committed = committed[: cut + 1]
            status = ROLLED_BACK
        elif kind == "status":
            status = rest[0]
    return tuple(committed), status


def _put_worker(root, start, count, out):
    store = ContentStore(root)
    start.wait(timeout=60)
    sequences = []
    for _ in range(count):
        with store.driving("r1"):  # one put per drive: the processes take turns
            sequences.append(store.put(ds("x", 1.0), "r1", "a").sequence)
    out.put(sequences)


@pytest.fixture
def lines_read(store, monkeypatch):
    """How many lines each index_lines call of `store` returned, in order."""
    read = []
    index_lines = store.index_lines

    def counted(run_id):
        lines = index_lines(run_id)
        read.append(len(lines))
        return lines

    monkeypatch.setattr(store, "index_lines", counted)
    return read


class TestJournals:
    def test_half_written_line_is_not_consumed(self, store):
        store.claim({}, "r1")
        with store.driving("r1"):
            ka = store.checkpoint("r1", "a", ds("x", 1.0))
            kb = store.put(ds("x", 2.0), "r1", "b")
        before = store.run_state("r1")
        record = json.dumps(["ckpt", "b", kb.sequence, kb.hash]).encode() + b"\n"
        with open(store.journal("r1"), "ab") as fh:
            fh.write(record[:9])
        assert store.run_state("r1") == before
        with open(store.journal("r1"), "ab") as fh:
            fh.write(record[9:])
        assert store.run_state("r1").checkpoints == (("a", ka), ("b", kb))

    def test_two_stores_on_one_root_see_each_other(self, store):
        other = ContentStore(store.root)
        store.claim({}, "r1")
        with store.driving("r1"):
            assert other.run_state("r1").checkpoints == ()
            k0 = store.checkpoint("r1", "a", ds("x", 1.0))
            assert other.run_state("r1").checkpoints == (("a", k0),)
        with other.driving("r1"):
            assert other.run_state("r1").checkpoints == (("a", k0),)
            k1 = other.checkpoint("r1", "a", ds("x", 2.0))
            assert k1.sequence == k0.sequence + 1
            assert store.run_state("r1").checkpoints == (("a", k0), ("a", k1))
            with pytest.raises(StorageError, match="run r1 is being driven by another process"):
                with store.driving("r1", wait=False):
                    pass
        with store.driving("r1"):
            assert store.put(ds("x", 3.0), "r1", "a").sequence == k1.sequence + 1
            assert store.run_state("r1").checkpoints == (("a", k0), ("a", k1))
        assert other.runs() == store.runs() == ["r1"]

    def test_interleaved_drives_match_a_journal_replay(self, store):
        rng = random.Random(5)
        stores = [store, ContentStore(store.root)]
        runs = ["x", "y", "z"]
        for run in runs:
            store.claim({}, run)
        for _ in range(100):
            s, run = rng.choice(stores), rng.choice(runs)
            with s.driving(run):
                for _ in range(rng.randrange(1, 6)):
                    activity, op = rng.choice("abc"), rng.random()
                    if op < 0.6:
                        d = ds("v", float(rng.randrange(4)))
                        if rng.random() < 0.7:
                            s.checkpoint(run, activity, d)
                        else:
                            s.put(d, run, activity)
                    else:
                        names = [name for name, _ in s.run_state(run).checkpoints]
                        if op < 0.75 and names:
                            s.rollback(run, rng.choice(names))
                        else:
                            s.set_status(run, rng.choice((COMPLETED, FAILED_RUN)), {})
                state = s.run_state(run)  # what the drive keeps
                text = store.journal(run).read_text(encoding="utf-8")
                assert (state.checkpoints, state.status) == journal_state(text, run)
        for s in stores:
            assert s.runs() == runs
            for run in runs:
                text = store.journal(run).read_text(encoding="utf-8")
                state = s.run_state(run)
                assert (state.checkpoints, state.status) == journal_state(text, run)

    def test_processes_allocate_distinct_sequences(self, store):
        store.claim({}, "r1")
        ctx = multiprocessing.get_context("spawn")
        start, out = ctx.Barrier(4), ctx.Queue()
        workers = [
            ctx.Process(target=_put_worker, args=(store.root, start, 25, out))
            for _ in range(4)
        ]
        for w in workers:
            w.start()
        sequences = []
        for _ in workers:
            sequences.extend(out.get(timeout=60))
        for w in workers:
            w.join(timeout=30)
            assert not w.is_alive() and w.exitcode == 0
        assert sorted(sequences) == list(range(100))
        assert [record[:3] for record in records(store, "r1")] == [["put", "a", n] for n in range(100)]

    @staticmethod
    def run_threads(work, n=4):
        """work(t) on n threads started together, with a short switch interval."""
        start = threading.Barrier(n)

        def run(t):
            start.wait(timeout=60)
            work(t)

        threads = [threading.Thread(target=run, args=(t,)) for t in range(n)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)

    def test_threads_allocate_distinct_sequences(self, store, r1):
        # threads of one handle inside one drive: the handle's lock makes
        # them take turns at deciding and appending
        sequences = []
        self.run_threads(lambda t: sequences.extend(
            store.put(ds("x", 1.0), "r1", "a").sequence for _ in range(25)))
        assert sorted(sequences) == list(range(100))
        assert [record[:3] for record in records(store, "r1")] == [["put", "a", n] for n in range(100)]

    def test_threads_reading_and_appending_share_what_the_handle_keeps(self, store, r1):
        keys = []

        def work(t):
            for _ in range(20):
                d, activity = ds("x", float(t)), f"a{t % 2}"
                key = store.checkpoint("r1", activity, d) if t % 2 else store.put(d, "r1", activity)
                keys.append(key)
                assert store.get(key) == ds("x", float(t))
                store.run_state("r1")

        self.run_threads(work, n=8)
        for activity in ("a0", "a1"):
            assert sorted(k.sequence for k in keys if k.activity_id == activity) == list(range(80))
        text = store.journal("r1").read_text(encoding="utf-8")
        assert (store.run_state("r1").checkpoints, ACTIVE) == journal_state(text, "r1")
        assert ContentStore(store.root).run_state("r1") == store.run_state("r1")

    def test_threads_keep_the_held_datasets_within_their_bound(self, store, r1, monkeypatch):
        size = len(quantities.canonical_serialize(ds("x", 0.0)))
        monkeypatch.setattr(storage_module, "_HELD_BYTES", 5 * size)
        keys = {}

        def work(t):
            for value in map(float, range(100 * t, 100 * t + 25)):
                keys[store.put(ds("x", value), "r1", "a")] = value

        self.run_threads(work)
        assert len(store._held) == 5
        assert store._held_bytes == sum(n for _, n in store._held.values()) == 5 * size
        for key, value in keys.items():
            assert store.get(key) == ds("x", value)

    def test_a_drive_reads_its_journal_once(self, store, lines_read):
        store.claim({}, "r1")
        with store.driving("r1"):
            for i in range(300):
                key = store.checkpoint("r1", "a", ds("x", float(i % 7)))
                assert store.get(key) == ds("x", float(i % 7))
            store.rollback("r1", "a")
            store.set_status("r1", COMPLETED, {})
            assert store.run_state("r1").status == COMPLETED
        assert lines_read == [1]  # the "submitted" line, when the drive began
        with store.driving("r1"):
            assert store.run_state("r1").status == COMPLETED
        assert lines_read == [1, 1 + 300 + 2]

    def test_an_op_on_one_run_reads_no_other_journal(self, store, monkeypatch):
        for run_id in ("r1", "r2"):
            store.claim({}, run_id)
        with store.driving("r2"):
            store.checkpoint("r2", "a", ds("x", 2.0))
        store.journal("r2").write_bytes(b"not a record\n")  # any read of it would raise
        asked = []
        index_lines = store.index_lines
        monkeypatch.setattr(store, "index_lines", lambda run_id: asked.append(run_id) or index_lines(run_id))
        with store.driving("r1"):
            for i in range(20):
                key = store.checkpoint("r1", f"a{i % 3}", ds("x", float(i)))
                assert store.get(key) == ds("x", float(i))
            store.rollback("r1", "a0")
            store.set_status("r1", COMPLETED, {})
        assert store.run_state("r1").status == COMPLETED
        assert asked == ["r1", "r1"]  # the drive's read, then run_state's
        assert store.runs() == ["r1", "r2"]

    def test_torn_tail_is_cut_when_the_next_drive_starts(self, store):
        store.claim({}, "r1")
        with store.driving("r1"):
            k0 = store.put(ds("x", 1.0), "r1", "a")
        journal = store.journal("r1")
        whole = journal.read_bytes()
        with open(journal, "ab") as fh:
            fh.write(b'["put","lat')  # a drive that died mid-line
        reopened = ContentStore(store.root)
        assert reopened.run_state("r1").checkpoints == ()
        assert reopened.get(k0) == ds("x", 1.0)
        with reopened.driving("r1"):
            assert journal.read_bytes() == whole  # cut before any write
            k1 = reopened.checkpoint("r1", "a", ds("x", 2.0))
        assert k1.sequence == 1
        assert records(store, "r1") == [["put", "a", 0, k0.hash], ["ckpt", "a", 1, k1.hash]]

    def test_a_drive_cuts_nothing_of_a_claim_still_writing(self, store, monkeypatch):
        # a claim creates the journal, then writes its first line without the
        # lock: here that write lands between a drive's read and its cut
        journal = store.journal("r1")
        journal.write_bytes(b'["submitted",{')
        header = b'["submitted",{"user":"ada"}]\n'
        index_lines = store.index_lines

        def claim_lands(run_id):
            lines = index_lines(run_id)
            journal.write_bytes(header)
            return lines

        monkeypatch.setattr(store, "index_lines", claim_lands)
        with store.driving("r1"):
            assert store.run_state("r1").header is None  # as read: resume refuses it
        assert journal.read_bytes() == header

    def test_a_line_truncated_outside_gridflow(self, store):
        # a handle keeps nothing between drives: the next one folds what is left
        store.claim({}, "r1")
        with store.driving("r1"):
            ka = store.checkpoint("r1", "a", ds("x", 1.0))
            kb = store.checkpoint("r1", "b", ds("x", 2.0))
        journal = store.journal("r1")
        data = journal.read_bytes()
        os.truncate(journal, data[:-1].rfind(b"\n") + 1)  # drop b's checkpoint
        assert store.run_state("r1").checkpoints == (("a", ka),)
        with store.driving("r1"):
            assert store.checkpoint("r1", "b", ds("x", 2.0)) == kb  # b's dataset, filed again
            assert store.run_state("r1").checkpoints == (("a", ka), ("b", kb))
        assert journal.read_bytes() == data

    def test_malformed_line_raises_with_its_number_every_time(self, store):
        store.claim({}, "r1")
        with store.driving("r1"):
            store.put(ds("x", 1.0), "r1", "a")
        with open(store.journal("r1"), "ab") as fh:
            fh.write(b'["put","a"]\n')
        for read in (lambda: store.run_state("r1"), lambda: store.driving("r1").__enter__()):
            for _ in range(2):
                with pytest.raises(IntegrityError, match=r"runs/r1.log line 3 malformed"):
                    read()

    def test_a_write_to_an_undriven_run_raises_and_writes_nothing(self, store):
        store.claim({}, "r1")
        other = ContentStore(store.root)
        writes = [
            lambda run_id: store.put(ds("x", 1.0), run_id, "a"),
            lambda run_id: store.checkpoint(run_id, "a", ds("x", 1.0)),
            lambda run_id: store.rollback(run_id, "a"),
            lambda run_id: store.set_status(run_id, COMPLETED, {}),
        ]
        before = {p: p.read_bytes() for p in store.root.rglob("*") if p.is_file()}
        with other.driving("r1"):  # driven, but by another handle
            for run_id in ("r1", "ghost"):
                for write in writes:
                    with pytest.raises(StorageError, match=f"^run {run_id} is not driven by this store handle$"):
                        write(run_id)
        with pytest.raises(UnknownRun):  # only a claim creates a journal
            with store.driving("ghost"):
                pass
        after = {p: p.read_bytes() for p in store.root.rglob("*") if p.is_file()}
        assert after == {**before, store.runs_dir / "r1.lock": b""}

    def test_a_handle_keeps_nothing_of_a_run_it_does_not_drive(self, store):
        store.claim({}, "r1")
        with store.driving("r1"):
            key = store.checkpoint("r1", "a", ds("x", 1.0))
            assert list(store._drives) == ["r1"]
        assert store._drives == {}
        assert store.run_state("r1").checkpoints == (("a", key),)
        journal = store.journal("r1")
        journal.write_bytes(journal.read_bytes().replace(b'["ckpt"', b'["ckpX"'))
        line = f'["ckpX","a",0,"{key.hash}"]'
        damage = f"runs/r1.log line 2 malformed: {line[:80]!r}"
        assert store.journal_faults("r1") == (0, [f"damaged {damage}"])
        with pytest.raises(IntegrityError, match=re.escape(damage)):  # read again, in full
            store.run_state("r1")
        with pytest.raises(IntegrityError, match=re.escape(damage)):
            store.get(key)
        assert store._drives == {}


class TestRunIds:
    def test_claim_numbers_runs_and_writes_the_header_first(self, store):
        store.claim({}, "run-0007")
        assert store.claim({"workflow_name": "w"}) == "run-0008"
        assert store.claim({"workflow_name": "v"}) == "run-0009"
        state = store.run_state("run-0008")
        assert (state.header, state.summary, state.status) == ({"workflow_name": "w"}, None, ACTIVE)

    def test_explicit_id_is_claimed_once(self, store):
        assert store.claim({}, "mine") == "mine"
        with pytest.raises(StorageError, match="already exists"):
            store.claim({}, "mine")

    @pytest.mark.parametrize("run_id", ["..", "../x", "a/b", "", "-a", ".hidden", "r\n", "r\u0661"])
    def test_bad_run_ids_name_no_file(self, store, run_id):
        for call in (
            lambda: store.put(ds("x", 1.0), run_id, "a"),
            lambda: store.checkpoint(run_id, "a", ds("x", 1.0)),
            lambda: store.run_state(run_id),
            lambda: store.claim({}, run_id),
            lambda: store.set_status(run_id, COMPLETED, {}),
            lambda: store.driving(run_id).__enter__(),
        ):
            with pytest.raises(StorageError, match="bad run id"):
                call()
        assert sorted(p.name for p in store.root.parent.rglob("*")) == ["blobs", "runs", "store"]

    def test_old_layout_is_refused(self, tmp_path):
        (tmp_path / "old").mkdir()
        (tmp_path / "old" / "index.log").write_text("put r1 a 0 " + "0" * 64 + "\n")
        with pytest.raises(StorageError, match="index.log"):
            ContentStore(tmp_path / "old")
