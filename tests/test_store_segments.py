"""The rolling store's layout (DESIGN section 9): each cycle is one
*segment* - a directory of record logs adopted from the cycle's cache -
and the journal is its *manifest*, one commit line per segment naming
each log's size and sha256 and the cycle's keys.

Four properties, each checked on the bytes on disk:

- **O(new cycle)**: a stored segment is never opened for writing again,
  and an ingest writes one commit line - no trial record.
- **Crash windows**: dying before the segment's rename, after it,
  before its commit line, or while retiring cycles from the window
  leaves a store that reopens to the committed cycles, and that the
  next ingest and ``compact()`` make byte-identical to an uninterrupted
  run, orphans swept.  Against a power loss, the commit line is written
  only after the logs, the segment and the store directory are fsynced.
- **Hostile artifacts**: an adopted log truncated, grown, bit-flipped
  or missing, a missing segment, a key no log holds, a log the line
  does not name, a damaged record and the older journal-and-segment
  layout each raise :class:`StoreError` naming the file - never a bare
  ``JSONDecodeError``/``KeyError``, never a silently shorter store.
- **Journal lines**: what follows the last newline is a torn append;
  the next append cuts it away instead of gluing its line onto it, and
  any complete line that is not a commit line raises.
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.core.cache import TrialCache, encode_record
from repro.obs.metrics import get_registry
from repro.service import WatchdogService
from repro.service import store as store_module
from repro.service.store import (
    JOURNAL_FILENAME,
    CycleRecord,
    RollingResultStore,
    StoreError,
)

from tests import cache_logs
from tests.test_ingest_linearity import deliver_cycle
from tests.test_service import fake_result, make_record


def tree_bytes(root):
    """Every file under ``root``, by relative path."""
    root = Path(root)
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def segments(root):
    return sorted(Path(root).glob("cycle-*"))


def stored(tmp_path, name, cycles=("c1", "c2"), record_of=make_record):
    """A store at ``tmp_path/name`` holding ``cycles``, compacted."""
    store = RollingResultStore(tmp_path / name)
    for cycle_id in cycles:
        store.append_cycle(record_of(tmp_path, cycle_id))
    store.compact()
    return store


def foreign_record(tmp_path, cycle_id, trials=2):
    """A cycle read from record lines this library did not write: keys
    in insertion order, not sorted - valid, never canonical."""
    cache = tmp_path / "foreign" / cycle_id
    keys = [f"{seed:064x}" for seed in range(trials)]
    if not cache.exists():
        cache.mkdir(parents=True)
        cache_logs.append(cache, {
            key: json.dumps(fake_result(seed), separators=(",", ":")).encode()
            for seed, key in enumerate(keys)
        })
    return CycleRecord.from_cache_reads(
        cycle_id, f"entry-{cycle_id}", "fixed", False,
        TrialCache(cache).read_keys(keys), cache,
    )


def commits(root):
    path = Path(root) / JOURNAL_FILENAME
    return [json.loads(line) for line in path.read_bytes().splitlines()]


def write_commits(root, lines):
    (Path(root) / JOURNAL_FILENAME).write_bytes(
        b"".join(encode_record(line) + b"\n" for line in lines)
    )


class TestSegmentLayout:
    def test_manifest_lists_one_verified_segment_per_cycle(self, tmp_path):
        store = stored(tmp_path, "store")
        lines = commits(store.root)
        assert [line["cycle_id"] for line in lines] == ["c1", "c2"]
        assert [line["seq"] for line in lines] == [0, 1]
        assert [line["keys"] for line in lines] == [
            make_record(tmp_path, cycle_id).keys for cycle_id in ("c1", "c2")
        ]
        for line in lines:
            segment = store.root / store_module._cycle_dirname(
                line["cycle_id"]
            )
            ((name, size, digest),) = line["logs"]
            data = (segment / name).read_bytes()
            assert (len(data), hashlib.sha256(data).hexdigest()) == (
                size, digest
            )
        # Beside the journal: one directory per cycle, nothing else.
        assert sorted(path.name for path in store.root.iterdir()) == sorted(
            [JOURNAL_FILENAME] + [path.name for path in segments(store.root)]
        )
        assert len(segments(store.root)) == 2

    def test_a_segment_holds_the_entry_logs_themselves(self, tmp_path):
        """Hard links: the store writes no byte of a trial record."""
        store = stored(tmp_path, "store", cycles=("c1",))
        (entry_log,) = cache_logs.logs(tmp_path / "entries" / "c1-2")
        (adopted,) = segments(store.root)[0].glob("records-*.log")
        assert adopted.stat().st_ino == entry_log.stat().st_ino
        assert entry_log.stat().st_nlink == 2

    def test_later_ingests_never_rewrite_a_compacted_segment(self, tmp_path):
        store = stored(tmp_path, "store", cycles=("c1",))
        (first,) = segments(store.root)
        (log,) = first.glob("records-*.log")
        line = store.journal_path.read_bytes()

        def untouched():
            return (
                first.stat().st_ino, first.stat().st_mtime_ns,
                log.stat().st_ino, log.stat().st_mtime_ns, log.read_bytes(),
            )

        before = untouched()
        for cycle_id in ("c2", "c3"):
            store.append_cycle(make_record(tmp_path, cycle_id))
            store.compact()
        assert untouched() == before
        assert store.journal_path.read_bytes().startswith(line)
        assert len(segments(store.root)) == 3

    def test_compaction_bytes_do_not_grow_with_history(self, tmp_path):
        """What the store writes per ingest - its commit line - is the
        same for the sixth cycle as for the second, and well under a
        trial record per trial (a record is ~1 KB)."""
        counter = get_registry().counter("service.store.bytes_written")
        store = RollingResultStore(tmp_path / "store")
        written = []
        for index in range(6):
            before = counter.value
            store.append_cycle(
                make_record(tmp_path, f"cycle-{index}", trials=40)
            )
            store.compact()
            written.append(counter.value - before)
        assert written[0] == store.journal_path.stat().st_size // 6
        assert written[5] == written[1]
        assert max(written) / 40 < 100

    def test_window_retirement_unlinks_segments(self, tmp_path):
        store = stored(tmp_path, "store", cycles=("c0", "c1", "c2", "c3"))
        assert len(segments(store.root)) == 4
        store.compact(max_cycles=2)
        live = {
            store_module._cycle_dirname(line["cycle_id"])
            for line in commits(store.root)
        }
        assert {path.name for path in segments(store.root)} == live
        reopened = RollingResultStore(store.root)
        assert [r.cycle_id for r in reopened.cycles()] == ["c2", "c3"]
        # Retirement keeps the commit order counting.
        assert reopened.next_seq == store.next_seq == 4

    def test_store_bytes_are_a_function_of_data_and_order(self, tmp_path):
        """Compacting per ingest or once at the end, reopening in between
        or not: the same cycles in the same order give the same tree."""
        stored(tmp_path, "batch", cycles=("c1", "c2", "c3"))
        for cycle_id in ("c1", "c2", "c3"):
            store = RollingResultStore(tmp_path / "stepwise")
            store.append_cycle(make_record(tmp_path, cycle_id))
            store.compact()
        assert tree_bytes(tmp_path / "stepwise") == tree_bytes(
            tmp_path / "batch"
        )

    def test_cycle_record_parses_its_results_once(self, tmp_path):
        store = stored(tmp_path, "store")
        first = [id(r) for r in store.store_view().all_results()]
        second = [id(r) for r in store.store_view().all_results()]
        assert first == second

    def test_replay_reads_each_log_whole_never_by_key(
        self, tmp_path, monkeypatch
    ):
        """Reopening is one sequential read per log (twice: its digest,
        then the cache reader's scan), not one ``pread`` per trial."""
        stored(tmp_path, "store", cycles=("c1", "c2"))

        def pread(*args):
            raise AssertionError("replay read a record by offset")

        monkeypatch.setattr(os, "pread", pread)
        reopened = RollingResultStore(tmp_path / "store")
        assert len(reopened) == 4


class _Crash(RuntimeError):
    pass


def _crash_before_rename(monkeypatch, store):
    real = os.rename

    def rename(source, target):
        if str(target).startswith(str(store.root)):
            raise _Crash(str(target))
        real(source, target)

    monkeypatch.setattr(os, "rename", rename)


def _crash_after_rename(monkeypatch, store):
    real = store_module._fsync

    def fsync(path):
        if Path(path) == store.root:
            raise _Crash(str(path))
        real(path)

    monkeypatch.setattr(store_module, "_fsync", fsync)


#: Where an append dies, in order: before its segment's rename, after it
#: (before the store directory's fsync), and once the segment is durable
#: but its commit line is not (``pre_commit``).
CRASHES = [
    (0, "before the segment's rename"),
    (1, "after the rename, before the directory fsync"),
    (2, "before the commit line"),
]


def _append_then_crash(monkeypatch, store, record, crash):
    pre_commit = None
    if crash == 0:
        _crash_before_rename(monkeypatch, store)
    elif crash == 1:
        _crash_after_rename(monkeypatch, store)
    else:
        def pre_commit():
            raise _Crash("pre-commit")
    with pytest.raises(_Crash):
        store.append_cycle(record, pre_commit=pre_commit)
    monkeypatch.undo()


class TestCrashWindows:
    @pytest.mark.parametrize("writes_done, window", CRASHES)
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
        """Records another writer spelled are stored as they are: the
        segment holds the entry's lines, not an encoding of them."""
        self._crash_reopen_compact(
            tmp_path, monkeypatch, writes_done, "adopted", foreign_record
        )
        crashed = tmp_path / "crashed"
        segment = crashed / store_module._cycle_dirname("c2")
        (log,) = segment.glob("records-*.log")
        entry = json.dumps(fake_result(0), separators=(",", ":")).encode()
        assert log.read_bytes().split(b"\n")[0] == b"%064x %b" % (0, entry)
        assert entry != encode_record(fake_result(0))

    def _crash_reopen_compact(
        self, tmp_path, monkeypatch, crash, window, record_of
    ):
        stored(tmp_path, "control", cycles=("c1", "c2"), record_of=record_of)
        store = stored(
            tmp_path, "crashed", cycles=("c1",), record_of=record_of
        )
        _append_then_crash(
            monkeypatch, store, record_of(tmp_path, "c2"), crash
        )
        # An orphan is left: the staging directory, or the segment.
        assert len(list(store.root.glob("cycle-*"))) == 2, window

        reopened = RollingResultStore(tmp_path / "crashed")
        assert [r.cycle_id for r in reopened.cycles()] == ["c1"], window
        reopened.append_cycle(record_of(tmp_path, "c2"))
        reopened.compact()
        assert tree_bytes(tmp_path / "crashed") == tree_bytes(
            tmp_path / "control"
        )

    def test_crash_during_window_retirement(self, tmp_path, monkeypatch):
        """Journal rewritten without the retired line, crash before the
        segment is removed: an orphan the next compaction sweeps.  A
        crash before the rewrite retires nothing yet."""
        control = stored(tmp_path, "control", cycles=("c1", "c2"))
        control.append_cycle(make_record(tmp_path, "c3"))
        control.compact(max_cycles=2)

        for name, target in (
            ("before-rewrite", "atomic_write"), ("before-removal", "shutil"),
        ):
            store = stored(tmp_path, name, cycles=("c1", "c2"))
            store.append_cycle(make_record(tmp_path, "c3"))

            def die(*_args, **_kwargs):
                raise _Crash(name)

            if target == "shutil":
                monkeypatch.setattr(store_module.shutil, "rmtree", die)
            else:
                monkeypatch.setattr(store_module, "atomic_write", die)
            with pytest.raises(_Crash):
                store.compact(max_cycles=2)
            monkeypatch.undo()
            assert len(segments(store.root)) == 3

            reopened = RollingResultStore(store.root)
            kept = ["c2", "c3"] if target == "shutil" else ["c1", "c2", "c3"]
            assert [r.cycle_id for r in reopened.cycles()] == kept
            reopened.compact(max_cycles=2)
            assert tree_bytes(store.root) == tree_bytes(control.root), name

    def test_logs_and_segment_reach_the_disk_before_the_commit_line(
        self, tmp_path, monkeypatch
    ):
        """A power loss, not a kill: the commit line is written once the
        adopted log, the segment and the rename that put it in place are
        fsynced (and nothing already stored is)."""
        store = stored(tmp_path, "store", cycles=("c1",))
        record = make_record(tmp_path, "c2")
        events = []
        real_fsync, real_rename = os.fsync, os.rename

        def fsync(fd):
            events.append(("fsync", os.fstat(fd).st_ino))
            real_fsync(fd)

        def rename(source, target):
            real_rename(source, target)
            events.append(("rename", Path(target).name))

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "rename", rename)
        store.append_cycle(record)
        monkeypatch.undo()
        segment = store.root / store_module._cycle_dirname("c2")
        (log,) = segment.glob("records-*.log")
        names = {
            log.stat().st_ino: "log",
            segment.stat().st_ino: "segment",
            store.root.stat().st_ino: "<store directory>",
            store.journal_path.stat().st_ino: JOURNAL_FILENAME,
        }
        assert [
            (kind, names[what] if kind == "fsync" else what)
            for kind, what in events
        ] == [
            ("fsync", "log"),
            ("fsync", "segment"),
            ("rename", segment.name),
            ("fsync", "<store directory>"),
            ("fsync", JOURNAL_FILENAME),
        ]

    def test_orphan_segment_is_ignored_then_swept(self, tmp_path):
        store = stored(tmp_path, "store", cycles=("c1",))
        orphans = [
            store.root / "cycle-0123456789abcdef01234567",
            store.root / "cycle-0123456789abcdef01234567.1.abcd1234.tmp",
        ]
        for orphan in orphans:
            orphan.mkdir()
            (orphan / "records-0-x.log").write_text("left by a crash\n")
        reopened = RollingResultStore(store.root)
        assert [r.cycle_id for r in reopened.cycles()] == ["c1"]
        reopened.append_cycle(make_record(tmp_path, "c2"))
        reopened.compact()
        assert not any(orphan.exists() for orphan in orphans)
        assert len(segments(store.root)) == 2


class TestHostileArtifacts:
    def _log(self, root, index=0):
        line = commits(root)[index]
        segment = root / store_module._cycle_dirname(line["cycle_id"])
        return segment / line["logs"][0][0]

    def _assert_store_error_names(self, root, path):
        with pytest.raises(StoreError) as excinfo:
            RollingResultStore(root)
        assert str(path) in str(excinfo.value)
        return str(excinfo.value)

    def _damage(self, log, data):
        """Replace ``log``'s bytes in a new inode: the entry it was
        linked from keeps its own."""
        log.unlink()
        log.write_bytes(data)

    def test_truncated_segment(self, tmp_path):
        store = stored(tmp_path, "store")
        log = self._log(store.root)
        self._damage(log, log.read_bytes()[:100])
        message = self._assert_store_error_names(store.root, log)
        assert "truncated" in message

    def test_grown_segment(self, tmp_path):
        store = stored(tmp_path, "store")
        log = self._log(store.root, index=1)
        self._damage(log, log.read_bytes() + b"0" * 64 + b" {}\n")
        message = self._assert_store_error_names(store.root, log)
        assert "grown" in message

    def test_bit_flipped_segment(self, tmp_path):
        store = stored(tmp_path, "store")
        log = self._log(store.root, index=1)
        data = bytearray(log.read_bytes())
        data[len(data) // 2] ^= 0x01
        self._damage(log, bytes(data))
        message = self._assert_store_error_names(store.root, log)
        assert "sha256 differs" in message

    def test_missing_segment(self, tmp_path):
        store = stored(tmp_path, "store")
        log = self._log(store.root)
        log.unlink()
        message = self._assert_store_error_names(store.root, log)
        assert "is missing" in message
        os.rmdir(log.parent)
        message = self._assert_store_error_names(store.root, log.parent)
        assert "directory" in message and "is missing" in message

    def test_count_mismatched_segment(self, tmp_path):
        """A segment that is intact by size and hash but lacks a trial its
        line commits (a stale line, a swapped directory)."""
        store = stored(tmp_path, "store")
        lines = commits(store.root)
        lines[0]["keys"].append("f" * 64)
        write_commits(store.root, lines)
        message = self._assert_store_error_names(
            store.root, self._log(store.root).parent
        )
        assert "f" * 64 in message

    def test_a_log_the_manifest_does_not_name(self, tmp_path):
        store = stored(tmp_path, "store")
        extra = self._log(store.root).parent / "records-0-extra.log"
        extra.write_bytes(b"")
        self._assert_store_error_names(store.root, extra)

    def test_manifest_row_naming_a_foreign_file(self, tmp_path):
        store = stored(tmp_path, "store")
        lines = commits(store.root)
        lines[0]["logs"][0][0] = "../journal.jsonl"
        write_commits(store.root, lines)
        self._assert_store_error_names(store.root, store.journal_path)

    def test_committed_trial_line_without_a_record_field(self, tmp_path):
        """A stored record that lacks a field every result is built from,
        in a log whose size and digest its line agrees with: the cache
        reader names it at replay, not a ``TypeError`` out of
        ``store_view``."""
        store = stored(tmp_path, "store", cycles=("c1",))
        log = self._log(store.root)
        key = commits(store.root)[0]["keys"][1]

        def without_seed(record):
            payload = json.loads(record)
            del payload["seed"]
            return json.dumps(payload).encode()

        cache_logs.rewrite(log.parent, key, without_seed)
        data = log.read_bytes()
        lines = commits(store.root)
        lines[0]["logs"][0][1:] = [
            len(data), hashlib.sha256(data).hexdigest()
        ]
        write_commits(store.root, lines)
        message = self._assert_store_error_names(store.root, log)
        assert f"line 2, key {key}" in message and "missing seed" in message

    def test_appending_a_result_without_a_record_field_writes_nothing(
        self, tmp_path
    ):
        """Refused before it is committed: the ingest's read names the
        delivered record, and the store holds no trace of the cycle."""
        service = WatchdogService(tmp_path / "spool", tmp_path / "out")
        deliver_cycle(tmp_path / "spool", 0)
        cache = tmp_path / "spool" / "incoming" / "cycle-00" / "cache"

        def without_seed(record):
            payload = json.loads(record)
            del payload["seed"]
            return json.dumps(payload).encode()

        cache_logs.rewrite(cache, min(cache_logs.records(cache)), without_seed)
        with pytest.raises(Exception, match="missing seed"):
            service.ingest_once()
        assert os.listdir(service.store.root) == []
        assert service.store.ingested_ids() == set()

    @pytest.mark.parametrize(
        "name, data",
        [
            ("segment-0123456789abcdef01234567.jsonl", b""),
            ("snapshot.json", b'{"schema":1,"cycles":[]}'),
            ("snapshot.json", b'{"kind":"service-snapshot","schema":2}'),
            (JOURNAL_FILENAME, b'{"cycle_id":"c","record":"begin"}\n'),
            (JOURNAL_FILENAME, b'{"cycle_id":"c","record":"trial"}\n'),
        ],
        ids=["segment", "schema-1", "schema-2", "begin", "trial"],
    )
    def test_an_old_layout_is_refused_by_name(self, tmp_path, name, data):
        root = tmp_path / "store"
        root.mkdir()
        (root / name).write_bytes(data)
        message = self._assert_store_error_names(root, root / name)
        assert "re-ingest the spool's done/ entries" in message

    def _refuses_a_manifest_of_schema(self, tmp_path, schema):
        """A ``snapshot.json`` of any schema is the older layout's, not a
        newer store's: refused by name, never read past."""
        store = stored(tmp_path, "store")
        (store.root / "snapshot.json").write_text(
            json.dumps({"schema": schema, "segments": []})
        )
        self._assert_store_error_names(
            store.root, store.root / "snapshot.json"
        )

    def test_manifest_of_unknown_schema(self, tmp_path):
        self._refuses_a_manifest_of_schema(tmp_path, "two")

    def test_manifest_from_a_future_version(self, tmp_path):
        self._refuses_a_manifest_of_schema(tmp_path, 3)


class TestJournalLines:
    TORN = b'{"cycle_id":"c2","kind":"fi'

    def test_append_after_a_torn_tail_keeps_the_next_cycle(self, tmp_path):
        """A kill mid-append leaves a fragment without a newline; the
        next committed cycle must not be glued onto it and lost."""
        store = stored(tmp_path, "store", cycles=("c1",))
        with open(store.journal_path, "ab") as fh:
            fh.write(self.TORN)
        store = RollingResultStore(store.root)
        assert [r.cycle_id for r in store.cycles()] == ["c1"]
        store.append_cycle(make_record(tmp_path, "c2"))
        reopened = RollingResultStore(store.root)
        assert [r.cycle_id for r in reopened.cycles()] == ["c1", "c2"]
        # The fragment is gone and the bytes are an uninterrupted run's.
        control = stored(tmp_path, "control")
        assert (
            store.journal_path.read_bytes()
            == control.journal_path.read_bytes()
        )

    def test_torn_final_line_still_replays_clean(self, tmp_path):
        store = stored(tmp_path, "store")
        with open(store.journal_path, "ab") as fh:
            fh.write(self.TORN)
        reopened = RollingResultStore(store.root)
        assert [r.cycle_id for r in reopened.cycles()] == ["c1", "c2"]

    def test_unparsable_middle_line_raises_naming_file_and_line(
        self, tmp_path
    ):
        """A bit-flipped line with a committed cycle behind it is not a
        torn append: dropping everything after it would lose ``c3``."""
        store = stored(tmp_path, "store", cycles=("c1", "c2", "c3"))
        lines = store.journal_path.read_bytes().split(b"\n")
        lines[1] = lines[1].replace(b'"cycle_id":', b'"cycle_id"?', 1)
        store.journal_path.write_bytes(b"\n".join(lines))
        with pytest.raises(StoreError) as excinfo:
            RollingResultStore(store.root)
        assert str(store.journal_path) in str(excinfo.value)
        assert "line 2" in str(excinfo.value)

    @pytest.mark.parametrize(
        "line",
        [
            b"3",
            b"[1]",
            b'"x"',
            b"null",
            b'{"cycle_id":"c1","seq":0}',
            b'{"cycle_id":"c9","keys":[],"kind":"fixed","logs":[["x",1,"y"]]'
            b',"partial":false,"seq":9,"source":"e"}',
            b'{"cycle_id":"c9","keys":["k"],"kind":"fixed","logs":[]'
            b',"partial":false,"seq":9,"source":"e"}',
            b'{"record":"begin"}',
        ],
    )
    @pytest.mark.parametrize("last", [False, True])
    def test_json_that_is_not_a_record_raises_naming_file_and_line(
        self, tmp_path, line, last
    ):
        """Valid JSON is no torn append, wherever it sits."""
        store = stored(tmp_path, "store")
        lines = store.journal_path.read_bytes().split(b"\n")
        if last:
            lines[-1:] = [line, b""]
            number = len(lines) - 1
        else:
            lines[1] = line
            number = 2
        store.journal_path.write_bytes(b"\n".join(lines))
        with pytest.raises(StoreError) as excinfo:
            RollingResultStore(store.root)
        assert str(store.journal_path) in str(excinfo.value)
        assert f"line {number}" in str(excinfo.value)

    def test_a_commit_without_its_newline_is_not_a_commit(self, tmp_path):
        """The kill fell between the commit line and its newline: the
        next append cuts that fragment away, so replay must not count
        it either - or the cycle is lost while its entry sits in done/."""
        store = stored(tmp_path, "store")
        whole = store.journal_path.read_bytes()
        store.journal_path.write_bytes(whole[:-1])
        reopened = RollingResultStore(store.root)
        assert [r.cycle_id for r in reopened.cycles()] == ["c1"]
        reopened.append_cycle(make_record(tmp_path, "c2"))
        again = RollingResultStore(store.root)
        assert [r.cycle_id for r in again.cycles()] == ["c1", "c2"]
        reopened.compact()
        assert tree_bytes(store.root) == tree_bytes(
            stored(tmp_path, "control").root
        )
