"""The rolling store's segment + manifest layout (DESIGN section 9).

Three properties of compaction, each checked on the bytes on disk:

- **O(new cycle)**: a compacted cycle's segment file is never opened
  for writing again, and compaction writes the new cycle's bytes plus a
  manifest row per stored cycle.
- **Crash windows**: dying after the segment write, after the manifest
  write, or before the journal truncation leaves a store that reopens
  to the same cycles in the same order, and that one more ``compact()``
  makes byte-identical to an uninterrupted run.  Against a power loss,
  the fsynced journal is emptied only after the new segment, the
  manifest and the store directory are fsynced.
- **Hostile artifacts**: a damaged segment or an unreadable manifest
  raises :class:`StoreError` naming the file - never a bare
  ``JSONDecodeError``/``KeyError``, never a silently shorter store.
- **Journal lines**: only the final line may be unparsable (a killed
  append); the next append cuts it away instead of gluing its own
  first record onto it, and an unparsable line anywhere else raises -
  as does a line that is JSON but not a journal record.
- **Adopted lines**: a record built from cache reads journals each
  one-line entry byte for byte, canonical or not, and compaction copies
  the journal's bytes, so a restart between the two changes nothing.
"""

import hashlib
import json
import os
import shutil
from pathlib import Path

import pytest

from repro.obs.metrics import get_registry
from repro.service import store as store_module
from repro.core.cache import CachedTrial
from repro.core.experiment import ExperimentResult
from repro.service.store import (
    SNAPSHOT_FILENAME,
    STORE_SCHEMA_VERSION,
    CycleRecord,
    RollingResultStore,
    StoreError,
)

from tests.test_service import fake_result, make_record

SCHEMA1_FIXTURE = Path(__file__).parent / "data" / "store_snapshot_schema1.json"


def tree_bytes(root):
    return {
        path.name: path.read_bytes() for path in sorted(Path(root).iterdir())
    }


def segment_files(root):
    return sorted(Path(root).glob("segment-*.jsonl"))


def compacted_store(root, cycles=("c1", "c2")):
    store = RollingResultStore(root)
    for cycle_id in cycles:
        store.append_cycle(make_record(cycle_id))
    store.compact()
    return store


def foreign_record(cycle_id, trials=2):
    """A cycle read from one-line entries this library did not write:
    keys in insertion order, not sorted - valid, never canonical."""
    payloads = [fake_result(seed) for seed in range(trials)]
    return CycleRecord.from_cache_reads(
        cycle_id, f"entry-{cycle_id}", "fixed", False,
        [
            CachedTrial(
                f"{seed:064x}",
                payload,
                json.dumps(payload, separators=(",", ":")).encode() + b"\n",
                ExperimentResult.from_json(payload),
            )
            for seed, payload in enumerate(payloads)
        ],
    )


def read_manifest(root):
    return json.loads((Path(root) / SNAPSHOT_FILENAME).read_text())


def write_manifest(root, manifest):
    (Path(root) / SNAPSHOT_FILENAME).write_text(json.dumps(manifest))


class TestSegmentLayout:
    def test_manifest_lists_one_verified_segment_per_cycle(self, tmp_path):
        compacted_store(tmp_path)
        manifest = read_manifest(tmp_path)
        assert manifest["schema"] == STORE_SCHEMA_VERSION == 2
        rows = manifest["segments"]
        assert [row["cycle_id"] for row in rows] == ["c1", "c2"]
        assert [row["trials"] for row in rows] == [2, 2]
        for row in rows:
            data = (tmp_path / row["file"]).read_bytes()
            assert hashlib.sha256(data).hexdigest() == row["sha256"]
        # Flat beside the journal: nothing but files in the store dir.
        assert all(path.is_file() for path in tmp_path.iterdir())

    def test_segment_is_the_journal_segment_verbatim(self, tmp_path):
        store = RollingResultStore(tmp_path)
        store.append_cycle(make_record("c1"))
        journalled = store.journal_path.read_bytes()
        store.compact()
        (segment,) = segment_files(tmp_path)
        assert segment.read_bytes() == journalled

    def test_later_ingests_never_rewrite_a_compacted_segment(self, tmp_path):
        store = compacted_store(tmp_path, cycles=("c1",))
        (first,) = segment_files(tmp_path)
        before = (first.stat().st_ino, first.read_bytes())
        for cycle_id in ("c2", "c3"):
            store.append_cycle(make_record(cycle_id))
            store.compact()
        assert (first.stat().st_ino, first.read_bytes()) == before
        assert len(segment_files(tmp_path)) == 3

    def test_compaction_bytes_do_not_grow_with_history(self, tmp_path):
        counter = get_registry().counter("service.store.compact_bytes")
        store = RollingResultStore(tmp_path)
        written = []
        for index in range(6):
            store.append_cycle(make_record(f"cycle-{index}", trials=40))
            before = counter.value
            store.compact()
            written.append(counter.value - before)
        segment = segment_files(tmp_path)[0].stat().st_size
        assert written[0] > segment
        # Only the manifest's new row separates the sixth from the second.
        assert written[5] - written[1] < 0.05 * written[1]

    def test_window_retirement_unlinks_segments(self, tmp_path):
        store = compacted_store(tmp_path, cycles=("c0", "c1", "c2", "c3"))
        assert len(segment_files(tmp_path)) == 4
        store.compact(max_cycles=2)
        live = {row["file"] for row in read_manifest(tmp_path)["segments"]}
        assert {path.name for path in segment_files(tmp_path)} == live
        assert [r.cycle_id for r in RollingResultStore(tmp_path).cycles()] \
            == ["c2", "c3"]

    def test_store_bytes_are_a_function_of_data_and_order(self, tmp_path):
        """Compacting per ingest or once at the end, reopening in between
        or not: the same cycles in the same order give the same tree."""
        compacted_store(tmp_path / "batch", cycles=("c1", "c2", "c3"))
        for cycle_id in ("c1", "c2", "c3"):
            store = RollingResultStore(tmp_path / "stepwise")
            store.append_cycle(make_record(cycle_id))
            store.compact()
        assert tree_bytes(tmp_path / "stepwise") == tree_bytes(
            tmp_path / "batch"
        )

    def test_cycle_record_parses_its_results_once(self, tmp_path):
        store = compacted_store(tmp_path)
        first = [id(r) for r in store.store_view().all_results()]
        second = [id(r) for r in store.store_view().all_results()]
        assert first == second


class TestSchema1Upgrade:
    def test_schema1_snapshot_loads_and_next_compaction_converts(
        self, tmp_path
    ):
        upgraded = tmp_path / "upgraded"
        upgraded.mkdir()
        shutil.copy(SCHEMA1_FIXTURE, upgraded / SNAPSHOT_FILENAME)
        assert json.loads(SCHEMA1_FIXTURE.read_text())["schema"] == 1
        store = RollingResultStore(upgraded)
        assert [r.cycle_id for r in store.cycles()] == ["c1", "c2"]
        assert len(store) == 5
        store.append_cycle(make_record("c3"))
        store.compact()
        assert read_manifest(upgraded)["schema"] == 2
        # The converted store is the store a schema-2 history would be.
        native = RollingResultStore(tmp_path / "native")
        for record in store.cycles():
            native.append_cycle(record)
        native.compact()
        assert tree_bytes(upgraded) == tree_bytes(tmp_path / "native")


class _Crash(RuntimeError):
    pass


def crash_on_write(monkeypatch, index):
    """Make the ``index``-th ``atomic_write`` of a compaction the first
    one that does not happen (the process "dies" just before it)."""
    real = store_module.atomic_write
    calls = []

    def dying(path, data):
        if len(calls) == index:
            raise _Crash(str(path))
        calls.append(path)
        real(path, data)

    monkeypatch.setattr(store_module, "atomic_write", dying)


class TestCrashWindows:
    """One new cycle compacts in three writes: segment, manifest,
    journal.  Index n = crash with n of them done."""

    @pytest.mark.parametrize(
        "writes_done, window",
        [
            (0, "before the segment write"),
            (1, "after the segment write"),
            (2, "after the manifest write, before journal truncation"),
        ],
    )
    def test_crash_then_reopen_then_compact_is_byte_identical(
        self, tmp_path, monkeypatch, writes_done, window
    ):
        self._crash_reopen_compact(
            tmp_path, monkeypatch, writes_done, window, make_record
        )

    @pytest.mark.parametrize("writes_done", [0, 1, 2])
    def test_adopted_foreign_lines_survive_the_same_crashes(
        self, tmp_path, monkeypatch, writes_done
    ):
        """The restarted store holds parsed payloads, not the foreign
        bytes: only copying the journal gives the uninterrupted run's
        segment (re-encoding would sort the keys)."""
        self._crash_reopen_compact(
            tmp_path, monkeypatch, writes_done, "adopted", foreign_record
        )
        crashed = tmp_path / "crashed"
        segment = crashed / read_manifest(crashed)["segments"][1]["file"]
        (line,) = [
            line
            for line in segment.read_bytes().split(b"\n")
            if b'"seq":0' in line
        ]
        entry = json.dumps(fake_result(0), separators=(",", ":")).encode()
        assert line == (
            b'{"cycle_id":"c2","record":"trial","result":%b,"seq":0}' % entry
        )
        assert entry != json.dumps(
            fake_result(0), separators=(",", ":"), sort_keys=True
        ).encode()

    def _crash_reopen_compact(
        self, tmp_path, monkeypatch, writes_done, window, record_of
    ):
        control = compacted_store(tmp_path / "control", cycles=("c1",))
        control.append_cycle(record_of("c2"))
        control.compact()

        store = compacted_store(tmp_path / "crashed", cycles=("c1",))
        store.append_cycle(record_of("c2"))
        crash_on_write(monkeypatch, writes_done)
        with pytest.raises(_Crash):
            store.compact()
        monkeypatch.undo()

        reopened = RollingResultStore(tmp_path / "crashed")
        assert [r.cycle_id for r in reopened.cycles()] == ["c1", "c2"], window
        assert len(reopened) == 4
        reopened.compact()
        assert tree_bytes(tmp_path / "crashed") == tree_bytes(
            tmp_path / "control"
        )

    def test_crash_during_window_retirement(self, tmp_path, monkeypatch):
        """Manifest written without the retired row, crash before the
        unlink: the retired file is an orphan the next compaction sweeps."""
        control = compacted_store(tmp_path / "control", cycles=("c1", "c2"))
        control.append_cycle(make_record("c3"))
        control.compact(max_cycles=2)

        store = compacted_store(tmp_path / "crashed", cycles=("c1", "c2"))
        store.append_cycle(make_record("c3"))
        crash_on_write(monkeypatch, 2)
        with pytest.raises(_Crash):
            store.compact(max_cycles=2)
        monkeypatch.undo()
        assert len(segment_files(tmp_path / "crashed")) == 3

        reopened = RollingResultStore(tmp_path / "crashed")
        assert [r.cycle_id for r in reopened.cycles()] == ["c2", "c3"]
        reopened.compact(max_cycles=2)
        assert tree_bytes(tmp_path / "crashed") == tree_bytes(
            tmp_path / "control"
        )

    def test_segment_manifest_and_directory_reach_the_disk_before_the_journal_empties(
        self, tmp_path, monkeypatch
    ):
        """A power loss, not a kill: the fsynced journal is only emptied
        once the new segment, the manifest and the renames that put them
        in place are fsynced too (and nothing already compacted is)."""
        store = compacted_store(tmp_path, cycles=("c1",))
        store.append_cycle(make_record("c2"))
        events = []
        real_fsync, real_write = os.fsync, store_module.atomic_write

        def fsync(fd):
            events.append(("fsync", os.fstat(fd).st_ino))
            real_fsync(fd)

        def write(path, data):
            real_write(path, data)
            events.append(("write", Path(path).name))

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(store_module, "atomic_write", write)
        store.compact()
        monkeypatch.undo()
        names = {path.stat().st_ino: path.name for path in tmp_path.iterdir()}
        names[tmp_path.stat().st_ino] = "<store directory>"
        segment = store_module._segment_filename("c2")
        assert [
            (kind, names[what] if kind == "fsync" else what)
            for kind, what in events
        ] == [
            ("write", segment),
            ("fsync", segment),
            ("write", SNAPSHOT_FILENAME),
            ("fsync", SNAPSHOT_FILENAME),
            ("fsync", "<store directory>"),
            ("write", "journal.jsonl"),
        ]

    def test_orphan_segment_is_ignored_then_swept(self, tmp_path):
        compacted_store(tmp_path, cycles=("c1",))
        orphan = tmp_path / "segment-0123456789abcdef01234567.jsonl"
        orphan.write_text("left by a crash before the manifest write\n")
        reopened = RollingResultStore(tmp_path)
        assert [r.cycle_id for r in reopened.cycles()] == ["c1"]
        reopened.append_cycle(make_record("c2"))
        reopened.compact()
        assert not orphan.exists()
        assert len(segment_files(tmp_path)) == 2


class TestHostileArtifacts:
    def _segment(self, root, index=0):
        row = read_manifest(root)["segments"][index]
        return root / row["file"]

    def _assert_store_error_names(self, root, path):
        with pytest.raises(StoreError) as excinfo:
            RollingResultStore(root)
        assert str(path) in str(excinfo.value)

    def test_truncated_segment(self, tmp_path):
        compacted_store(tmp_path)
        segment = self._segment(tmp_path)
        data = segment.read_bytes()
        segment.write_bytes(data[: len(data) // 2])
        self._assert_store_error_names(tmp_path, segment)

    def test_bit_flipped_segment(self, tmp_path):
        compacted_store(tmp_path)
        segment = self._segment(tmp_path, index=1)
        data = bytearray(segment.read_bytes())
        data[len(data) // 2] ^= 0x01
        segment.write_bytes(bytes(data))
        self._assert_store_error_names(tmp_path, segment)

    def test_missing_segment(self, tmp_path):
        compacted_store(tmp_path)
        segment = self._segment(tmp_path)
        segment.unlink()
        self._assert_store_error_names(tmp_path, segment)

    def test_count_mismatched_segment(self, tmp_path):
        """A segment that is intact by hash but holds fewer trials than
        its manifest row promises (a stale row, a swapped file)."""
        compacted_store(tmp_path)
        manifest = read_manifest(tmp_path)
        manifest["segments"][0]["trials"] += 1
        write_manifest(tmp_path, manifest)
        self._assert_store_error_names(tmp_path, self._segment(tmp_path))

    def test_manifest_of_unknown_schema(self, tmp_path):
        compacted_store(tmp_path)
        manifest = read_manifest(tmp_path)
        manifest["schema"] = "two"
        write_manifest(tmp_path, manifest)
        with pytest.raises(StoreError, match="unknown manifest schema") as e:
            RollingResultStore(tmp_path)
        assert str(tmp_path / SNAPSHOT_FILENAME) in str(e.value)

    def test_manifest_from_a_future_version(self, tmp_path):
        compacted_store(tmp_path)
        manifest = read_manifest(tmp_path)
        manifest["schema"] = STORE_SCHEMA_VERSION + 1
        write_manifest(tmp_path, manifest)
        with pytest.raises(StoreError, match="newer than") as e:
            RollingResultStore(tmp_path)
        assert str(tmp_path / SNAPSHOT_FILENAME) in str(e.value)

    def test_truncated_manifest(self, tmp_path):
        compacted_store(tmp_path)
        path = tmp_path / SNAPSHOT_FILENAME
        path.write_bytes(path.read_bytes()[:40])
        self._assert_store_error_names(tmp_path, path)

    def test_manifest_row_naming_a_foreign_file(self, tmp_path):
        compacted_store(tmp_path)
        manifest = read_manifest(tmp_path)
        manifest["segments"][0]["file"] = "../journal.jsonl"
        write_manifest(tmp_path, manifest)
        self._assert_store_error_names(tmp_path, tmp_path / SNAPSHOT_FILENAME)

    def test_committed_trial_line_without_a_record_field(self, tmp_path):
        """A committed ``trial`` line whose result lacks a field every
        result is built from: named at replay, not a ``TypeError`` out of
        ``store_view``."""
        store = RollingResultStore(tmp_path)
        store.append_cycle(make_record("c1"))
        lines = store.journal_path.read_bytes().split(b"\n")
        record = json.loads(lines[1])
        del record["result"]["seed"]
        lines[1] = json.dumps(record).encode()
        store.journal_path.write_bytes(b"\n".join(lines))
        with pytest.raises(StoreError) as excinfo:
            RollingResultStore(tmp_path).store_view()
        message = str(excinfo.value)
        assert str(store.journal_path) in message
        assert "line 2" in message and "missing seed" in message

    def test_appending_a_result_without_a_record_field_writes_nothing(
        self, tmp_path
    ):
        """Refused before it is journalled: replay would refuse it on
        every later open."""
        record = make_record("c1")
        del record.results[0]["seed"]
        store = RollingResultStore(tmp_path)
        with pytest.raises(StoreError, match="trial 0 .*missing seed"):
            store.append_cycle(record)
        assert not store.journal_path.exists()
        assert store.ingested_ids() == set()

    @pytest.mark.parametrize(
        "damage, defect",
        [
            (lambda cycle: cycle.pop("cycle_id"), "cycle_id"),
            (lambda cycle: cycle["results"][0].pop("seed"), "missing seed"),
        ],
        ids=["cycle-without-id", "result-without-seed"],
    )
    def test_damaged_schema1_cycle(self, tmp_path, damage, defect):
        manifest = json.loads(SCHEMA1_FIXTURE.read_text())
        damage(manifest["cycles"][0])
        write_manifest(tmp_path, manifest)
        with pytest.raises(StoreError) as excinfo:
            RollingResultStore(tmp_path).store_view()
        message = str(excinfo.value)
        assert str(tmp_path / SNAPSHOT_FILENAME) in message
        assert "cycle 0" in message and defect in message


class TestJournalLines:
    TORN = b'{"cycle_id":"c2","record":"tri'

    def test_append_after_a_torn_tail_keeps_the_next_cycle(self, tmp_path):
        """A kill mid-append leaves a fragment without a newline; the
        next committed cycle must not be glued onto it and lost."""
        store = RollingResultStore(tmp_path)
        store.append_cycle(make_record("c1"))
        with open(store.journal_path, "ab") as fh:
            fh.write(self.TORN)
        store = RollingResultStore(tmp_path)
        assert [r.cycle_id for r in store.cycles()] == ["c1"]
        store.append_cycle(make_record("c2"))
        # Killed before compaction: the journal is all there is.
        reopened = RollingResultStore(tmp_path)
        assert [r.cycle_id for r in reopened.cycles()] == ["c1", "c2"]
        # The fragment is gone and the bytes are an uninterrupted run's.
        control = RollingResultStore(tmp_path / "control")
        control.append_cycle(make_record("c1"))
        control.append_cycle(make_record("c2"))
        assert (
            store.journal_path.read_bytes()
            == control.journal_path.read_bytes()
        )

    def test_torn_final_line_still_replays_clean(self, tmp_path):
        store = RollingResultStore(tmp_path)
        store.append_cycle(make_record("c1"))
        store.append_cycle(make_record("c2"))
        with open(store.journal_path, "ab") as fh:
            fh.write(self.TORN)
        reopened = RollingResultStore(tmp_path)
        assert [r.cycle_id for r in reopened.cycles()] == ["c1", "c2"]

    def test_unparsable_middle_line_raises_naming_file_and_line(
        self, tmp_path
    ):
        """A bit-flipped line with a committed cycle behind it is not a
        torn append: dropping everything after it would lose ``c2``."""
        store = RollingResultStore(tmp_path)
        store.append_cycle(make_record("c1"))
        store.append_cycle(make_record("c2"))
        lines = store.journal_path.read_bytes().split(b"\n")
        lines[1] = lines[1].replace(b'"record":', b'"record"?', 1)
        store.journal_path.write_bytes(b"\n".join(lines))
        with pytest.raises(StoreError) as excinfo:
            RollingResultStore(tmp_path)
        assert str(store.journal_path) in str(excinfo.value)
        assert "line 2" in str(excinfo.value)

    @pytest.mark.parametrize(
        "line",
        [
            b"3",
            b"[1]",
            b'"x"',
            b"null",
            b'{"cycle_id":"c1","record":"trial","seq":0}',
            b'{"cycle_id":"c1","record":"trial","result":[],"seq":0}',
            b'{"record":"begin"}',
        ],
    )
    @pytest.mark.parametrize("last", [False, True])
    def test_json_that_is_not_a_record_raises_naming_file_and_line(
        self, tmp_path, line, last
    ):
        """Valid JSON is no torn append, wherever it sits: it used to
        escape as a bare AttributeError / KeyError."""
        store = RollingResultStore(tmp_path)
        store.append_cycle(make_record("c1"))
        store.append_cycle(make_record("c2"))
        lines = store.journal_path.read_bytes().split(b"\n")
        if last:
            # A begin opens the segment the stray trial line claims.
            lines[-1:] = [lines[0], line, b""]
            number = len(lines) - 1
        else:
            lines[1] = line
            number = 2
        store.journal_path.write_bytes(b"\n".join(lines))
        with pytest.raises(StoreError) as excinfo:
            RollingResultStore(tmp_path)
        assert str(store.journal_path) in str(excinfo.value)
        assert f"line {number}" in str(excinfo.value)

    def test_a_commit_without_its_newline_is_not_a_commit(self, tmp_path):
        """The kill fell between the commit record and its newline: the
        next append cuts that fragment away, so replay must not count
        it either - or the cycle is lost while its entry sits in done/."""
        store = RollingResultStore(tmp_path)
        store.append_cycle(make_record("c1"))
        store.append_cycle(make_record("c2"))
        whole = store.journal_path.read_bytes()
        store.journal_path.write_bytes(whole[:-1])
        reopened = RollingResultStore(tmp_path)
        assert [r.cycle_id for r in reopened.cycles()] == ["c1"]
        reopened.append_cycle(make_record("c2"))
        again = RollingResultStore(tmp_path)
        assert [r.cycle_id for r in again.cycles()] == ["c1", "c2"]
        reopened.compact()
        assert tree_bytes(tmp_path) == tree_bytes(
            compacted_store(tmp_path / "control").root
        )

    def test_compaction_refuses_a_journal_changed_under_it(self, tmp_path):
        store = RollingResultStore(tmp_path)
        store.append_cycle(make_record("c1"))
        store.append_cycle(make_record("c2"))
        journal = store.journal_path.read_bytes()
        store.journal_path.write_bytes(journal[40:])
        with pytest.raises(StoreError, match="changed under this process"):
            store.compact()
        assert segment_files(tmp_path) == []
        assert not store.snapshot_path.exists()
