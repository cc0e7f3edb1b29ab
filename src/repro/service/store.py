"""The rolling result store: a crash-safe journal of ingested cycles.

The live deployment accumulates three years of trial results; ours
accumulates cycles at software speed.  Either way the store must survive
the process dying at any instruction, and folding one more cycle into it
must cost what that cycle costs, not what the history costs.  So it is an
append-only JSONL **journal**, one immutable **segment** file per
compacted cycle, and a small **manifest** (``snapshot.json``) ordering
the segments - all flat in the store directory:

- Every ingested cycle is first one journal *segment*: a ``begin``
  record (cycle identity + provenance), one ``trial`` record per result,
  and a ``commit`` record sealing it.  The trial records are flushed and
  fsynced *before* the commit is written, so a commit on disk guarantees
  its trials are too.  Every record is one line of
  :data:`~repro.core.cache.encode_record`, parsed back by
  :data:`~repro.core.cache.decode_record`; a ``trial`` line is built
  around its ``result`` without encoding it again when the record
  brings the cache record's bytes (:meth:`CycleRecord.from_cache_reads`):
  ``{"cycle_id":...,"record":"trial","result":`` + the record +
  ``,"seq":N}``.  An older or foreign record line is adopted as it
  is (the same JSON value, perhaps ``json``'s ``1e-05`` for
  ``0.00001``); a payload without bytes is encoded.  The store keeps
  none of those bytes once the cycle is
  appended - only where in the journal the cycle lies.
- :meth:`RollingResultStore.compact` moves each journalled cycle into
  its own ``segment-<sha256(cycle id) prefix>.jsonl`` - the cycle's
  journal segment verbatim, *copied* out of the journal file (whether
  this process appended it a moment ago or replayed it after a restart,
  so the two cannot differ even for lines that are not canonical),
  written through :func:`~repro.atomicio.atomic_write` and never opened
  for writing again - then rewrites the manifest (schema 2, one
  ``encode_record`` line: ``file``,
  ``cycle_id``, ``trials`` and ``sha256`` per segment, oldest first),
  fsyncs the new segments, the manifest and the store directory, then
  truncates the journal, then unlinks every segment file the manifest no
  longer names (cycles retired from the rolling window, orphans of an
  earlier crash).  Compaction therefore writes the new cycle's bytes plus one
  manifest row per stored cycle, however long the history.
- A crash between any two of those steps is harmless: a segment without
  a manifest row is ignored by replay (its cycle is still in the
  journal) and overwritten or swept by the next compaction; a manifest
  ahead of the journal truncation lists cycles the journal also holds,
  and replay deduplicates by cycle id.
- Replay (:meth:`RollingResultStore.replay`) tolerates everything a
  kill can leave behind in the *journal*: a torn final line is dropped,
  and any segment without its commit record is discarded - an
  interrupted ingest simply never happened, and re-ingesting the same
  spool entry reproduces the exact same committed bytes (results are
  deterministic simulations).  A line counts once its newline is on
  disk: what follows the last newline is a torn append even when it
  happens to parse, and the next append first cuts it away.  An
  unparsable line anywhere *but* last is damage and raises
  :class:`StoreError`, as does a line that parses but is no journal
  record (``3``, ``[1]``, a ``trial`` whose ``result`` is missing or
  fails the cache reader's :func:`~repro.core.cache.trial_record_defect`)
  wherever it sits - both name the file and the line.  Manifest and
  segment files are only ever renamed into place, so damage there is
  not a crash artefact: a missing, truncated, bit-flipped or
  miscounted segment, or a manifest of an unknown or newer schema,
  raises :class:`StoreError` naming the file rather than yielding a
  silently shorter store.
- A schema-1 ``snapshot.json`` (one indented file embedding every
  cycle) still loads, each cycle and trial checked the same way; the
  next compaction converts it.

Nothing in the journal, manifest or segments carries wall-clock time:
the store's bytes are a pure function of the ingested data and order,
which is what makes the kill-and-restart acceptance test ("replay yields
a store byte-identical to an uninterrupted run") checkable at all.
Operational timestamps live in the coordinator's state file instead.

Windowed views (:meth:`RollingResultStore.store_view`) are a plain
:class:`~repro.core.results.ResultStore` over the last N cycles - the
longitudinal angle: findings drift, so the site can be rendered over a
rolling window rather than all of history.  The view is live: each call
extends it with the cycles committed since the last, and it is rebuilt
only when the window is not the old one plus new cycles.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple, Union

from ..atomicio import atomic_write
from ..core.cache import (
    CachedTrial, _encode_checked, decode_record, encode_record,
    trial_record_defect,
)
from ..core.experiment import ExperimentResult
from ..core.results import ResultStore
from ..obs.metrics import get_registry

#: Journal filename inside the store directory.
JOURNAL_FILENAME = "journal.jsonl"

#: Manifest filename inside the store directory.
SNAPSHOT_FILENAME = "snapshot.json"

#: Segment files are ``segment-<hex>.jsonl`` beside the journal.
SEGMENT_PREFIX = "segment-"
SEGMENT_SUFFIX = ".jsonl"

#: Journal record layout version (stamped on ``begin`` records).
JOURNAL_SCHEMA_VERSION = 1

#: Manifest layout version.  Schema 1 was a single indented file
#: embedding every cycle; it is still read, never written.
STORE_SCHEMA_VERSION = 2


class StoreError(ValueError):
    """A store file cannot be trusted; the message names the file."""


@dataclass
class CycleRecord:
    """One ingested cycle: identity, provenance, and its trial payloads.

    ``results`` holds raw ``ExperimentResult.to_json()`` payloads (the
    serialisation the cache uses), kept as dicts so journal round-trips
    are byte-exact.  A cycle built from cache reads
    (:meth:`from_cache_reads`) also brings what those reads already
    produced, so nothing is decoded or encoded a second time.
    """

    cycle_id: str
    source: str
    kind: str  # "adaptive" | "fixed"
    partial: bool = False
    results: List[Dict] = field(default_factory=list)
    _parsed: Optional[List[ExperimentResult]] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Per trial, the bytes ``results[i]`` was parsed from (or ``None``);
    #: :meth:`RollingResultStore.append_cycle` takes the list.
    _entry_bytes: Optional[List[Optional[bytes]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def from_cache_reads(
        cls,
        cycle_id: str,
        source: str,
        kind: str,
        partial: bool,
        reads: List[CachedTrial],
    ) -> "CycleRecord":
        """A cycle whose trials one :meth:`TrialCache.read` just produced.

        Each :class:`~repro.core.cache.CachedTrial` brings the payload
        as parsed, the result object built from it, and the record
        bytes it was parsed from (``None`` when it came from memory),
        which become the ``result`` of its journal line byte for byte.
        """
        record = cls(
            cycle_id, source, kind, partial, [r.payload for r in reads]
        )
        record._parsed = [r.result for r in reads]
        record._entry_bytes = [r.raw for r in reads]
        return record

    def experiment_results(self) -> List[ExperimentResult]:
        """The cycle's trials as live result objects, parsed once.

        A committed cycle never changes, so every windowed view shares
        these objects instead of re-parsing the whole window per ingest.
        """
        if self._parsed is None:
            self._parsed = [
                ExperimentResult.from_json(r) for r in self.results
            ]
        return self._parsed


def _fsync(path: Path) -> None:
    """Flush a file's bytes, or a directory's entries, to disk."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def check_window(cycles: int) -> int:
    """A retention window, checked: keeping fewer than one cycle would
    drop every ingested trial, so it is an error, not an empty store."""
    if cycles < 1:
        raise ValueError(f"a cycle window keeps at least 1 cycle, not {cycles}")
    return cycles


def _segment_filename(cycle_id: str) -> str:
    """A cycle's segment file: a pure, filesystem-safe function of its id."""
    digest = hashlib.sha256(cycle_id.encode("utf-8")).hexdigest()
    return f"{SEGMENT_PREFIX}{digest[:24]}{SEGMENT_SUFFIX}"


def _encode_segment(record: CycleRecord) -> "tuple[bytes, bytes]":
    """A cycle's journal segment as ``(begin + trial lines, commit line)``.

    Every line is :data:`~repro.core.cache.encode_record` of its record.
    A trial line is assembled around its ``result``: the bytes the
    payload was parsed from when the record brought them (a record-log
    line, so one line: the same JSON value, in whatever spelling the
    record has), else the payload's encoding, checked to read back as it
    is (a schema-1 snapshot was parsed by ``json``, which reads ``NaN``).
    A result replay would refuse is refused here, before any write.
    """
    lines = [
        encode_record(
            {
                "record": "begin",
                "schema": JOURNAL_SCHEMA_VERSION,
                "cycle_id": record.cycle_id,
                "source": record.source,
                "kind": record.kind,
                "partial": record.partial,
            }
        )
    ]
    # Sorted, a trial record reads cycle_id, record, result, seq.
    head = b'{"cycle_id":%b,"record":"trial","result":' % encode_record(
        record.cycle_id
    )
    entry_bytes = record._entry_bytes or [None] * len(record.results)
    for index, (result, raw) in enumerate(zip(record.results, entry_bytes)):
        _trial(result, f"cycle {record.cycle_id[:12]} trial {index}")
        if raw is not None:
            encoded = raw.strip()
        else:
            encoded = _encode_checked(
                result, f"cycle {record.cycle_id[:12]} trial {index}",
                trial=False,
            )
        lines.append(b'%b%b,"seq":%d}' % (head, encoded, index))
    commit = encode_record(
        {
            "record": "commit",
            "cycle_id": record.cycle_id,
            "trials": len(record.results),
        }
    )
    return b"\n".join(lines) + b"\n", commit + b"\n"


def _trial(result, where: str):
    """``result`` if it is a trial record, else a StoreError naming ``where``."""
    defect = trial_record_defect(result)
    if defect is not None:
        raise StoreError(f"{where} is not a trial record ({defect})")
    return result


def _schema1_cycle(entry: Dict, where: str) -> CycleRecord:
    """One cycle embedded in a schema-1 manifest, its trials checked as
    a journal's are; a defect is a StoreError naming ``where``."""
    try:
        record = CycleRecord(
            entry["cycle_id"], entry["source"], entry["kind"],
            entry.get("partial", False), list(entry.get("results", [])),
        )
    except (KeyError, TypeError) as exc:
        raise StoreError(f"{where}: not a stored cycle ({exc!r})") from exc
    for index, result in enumerate(record.results):
        _trial(result, f"{where}: trial {index}")
    return record


def _committed_segments(
    raw: bytes, source: Path
) -> Iterable[Tuple[CycleRecord, int, int]]:
    """Committed cycles in journal-format bytes, each with the byte span
    ``[start, end)`` of its segment, tolerating a torn tail.

    A line counts once its newline is on disk: what follows the last
    newline is the fragment of a killed append - even when it happens to
    parse - and :meth:`RollingResultStore.append_cycle` cuts it away.
    """
    pending: Optional[CycleRecord] = None
    begin_at = offset = 0
    lines = raw.split(b"\n")
    torn_tail = lines.pop()
    for number, line in enumerate(lines, 1):
        start, offset = offset, offset + len(line) + 1
        if not line:
            continue
        try:
            payload = decode_record(line)
        except ValueError as exc:
            # A kill mid-append tears at most the final line, and any
            # segment it belonged to is uncommitted either way.  Anywhere
            # else it is damage, with committed cycles possibly behind it.
            if torn_tail or any(lines[number:]):
                raise StoreError(
                    f"{source}: line {number} is not valid JSON ({exc}) "
                    "and is not the last, so not a torn append"
                ) from exc
            break
        if not isinstance(payload, dict):
            raise StoreError(
                f"{source}: line {number} is JSON but not a journal "
                f"record (found {type(payload).__name__})"
            )
        kind = payload.get("record")
        try:
            if kind == "begin":
                # A new begin while a segment is open means the previous
                # ingest died before committing: discard it.
                pending = CycleRecord(
                    cycle_id=payload["cycle_id"],
                    source=payload.get("source", ""),
                    kind=payload.get("kind", "fixed"),
                    partial=payload.get("partial", False),
                )
                begin_at = start
            elif kind == "trial":
                if (
                    pending is not None
                    and payload.get("cycle_id") == pending.cycle_id
                ):
                    pending.results.append(_trial(
                        payload["result"], f"{source}: line {number}: result"
                    ))
            elif kind == "commit":
                if (
                    pending is not None
                    and payload.get("cycle_id") == pending.cycle_id
                    and payload.get("trials") == len(pending.results)
                ):
                    yield pending, begin_at, offset
                pending = None
        except KeyError as exc:
            raise StoreError(
                f"{source}: line {number}: {kind} record without {exc}"
            ) from exc


class RollingResultStore:
    """Durable, windowed store of per-cycle trial results.

    ``root`` is the store directory (created if missing) holding the
    journal, the manifest and the segment files.  Construction replays
    them, so a freshly opened store always reflects every *committed*
    ingest - and nothing an interrupted one left behind.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._cycles: List[CycleRecord] = []
        #: cycle id -> manifest row of every cycle that has a segment.
        self._segments: Dict[str, Dict] = {}
        #: cycle id -> byte span of its segment in the journal file, for
        #: every journalled cycle (appended by this process or replayed):
        #: compaction copies those bytes, it never encodes them again.
        self._journal_spans: Dict[str, Tuple[int, int]] = {}
        #: The live view (see :meth:`store_view`) and the cycles it holds.
        self._live: Optional[Tuple[ResultStore, List[CycleRecord]]] = None
        self.replay()

    @property
    def journal_path(self) -> Path:
        return self.root / JOURNAL_FILENAME

    @property
    def snapshot_path(self) -> Path:
        return self.root / SNAPSHOT_FILENAME

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def replay(self) -> List[CycleRecord]:
        """Rebuild the committed-cycle list from manifest + journal.

        Order is manifest segments first (they were committed earlier),
        then journal segments in append order; a cycle id present in
        both (crash between manifest rename and journal truncation)
        keeps its first occurrence.
        """
        cycles: List[CycleRecord] = []
        seen: Set[str] = set()
        self._segments = {}
        self._journal_spans = {}
        for record in chain(self._replay_snapshot(), self._replay_journal()):
            if record.cycle_id not in seen:
                seen.add(record.cycle_id)
                cycles.append(record)
        self._cycles = cycles
        return list(cycles)

    def _replay_snapshot(self) -> Iterable[CycleRecord]:
        """Compacted cycles, oldest first, each verified against its row."""
        path = self.snapshot_path
        if not path.exists():
            return
        try:
            manifest = json.loads(path.read_bytes())
            schema = manifest["schema"]
        except (ValueError, KeyError, TypeError) as exc:
            raise StoreError(f"{path}: not a store manifest ({exc})") from exc
        if schema == 1:
            for index, entry in enumerate(manifest.get("cycles", [])):
                yield _schema1_cycle(entry, f"{path}: cycle {index}")
            return
        if isinstance(schema, int) and schema > STORE_SCHEMA_VERSION:
            raise StoreError(
                f"{path}: manifest schema {schema} is newer than the "
                f"{STORE_SCHEMA_VERSION} this library writes - upgrade "
                "before opening this store"
            )
        if schema != STORE_SCHEMA_VERSION:
            raise StoreError(f"{path}: unknown manifest schema {schema!r}")
        for row in manifest.get("segments", []):
            record = self._load_segment(row)
            self._segments[record.cycle_id] = row
            yield record

    def _load_segment(self, row: Dict) -> CycleRecord:
        """One manifest row's cycle; any disagreement is a StoreError."""
        try:
            name, cycle_id = row["file"], row["cycle_id"]
            trials, digest = row["trials"], row["sha256"]
        except (KeyError, TypeError) as exc:
            raise StoreError(
                f"{self.snapshot_path}: malformed segment row {row!r}"
            ) from exc
        if name != _segment_filename(cycle_id):
            raise StoreError(
                f"{self.snapshot_path}: row for cycle {cycle_id[:12]} "
                f"names {name!r}, not that cycle's segment file"
            )
        path = self.root / name
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            raise StoreError(
                f"{path}: segment named by the manifest is missing"
            ) from None
        if hashlib.sha256(raw).hexdigest() != digest:
            raise StoreError(
                f"{path}: sha256 differs from the manifest's "
                "(truncated or corrupted segment)"
            )
        records = [r for r, _s, _e in _committed_segments(raw, path)]
        held = [(r.cycle_id, len(r.results)) for r in records]
        if held != [(cycle_id, trials)]:
            raise StoreError(
                f"{path}: holds {held or 'no committed cycle'}; the "
                f"manifest says {cycle_id[:12]} with {trials} trial(s)"
            )
        return records[0]

    def _replay_journal(self) -> Iterable[CycleRecord]:
        """Committed cycles still in the journal, in append order."""
        path = self.journal_path
        if path.exists():
            for record, start, end in _committed_segments(
                path.read_bytes(), path
            ):
                self._journal_spans.setdefault(record.cycle_id, (start, end))
                yield record

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    def ingested_ids(self) -> Set[str]:
        """Cycle ids already committed (spool dedup / idempotent ingest)."""
        return {record.cycle_id for record in self._cycles}

    def append_cycle(
        self,
        record: CycleRecord,
        pre_commit: Optional[Callable[[], None]] = None,
    ) -> None:
        """Durably append one cycle: begin + trials, fsync, commit.

        ``pre_commit`` runs after the trial records are durable but
        before the commit record is written - the fault-injection seam
        the kill-and-restart test uses to die at the worst moment.
        """
        if record.cycle_id in self.ingested_ids():
            raise ValueError(
                f"cycle {record.cycle_id[:12]}... already ingested"
            )
        body, commit = _encode_segment(record)
        record._entry_bytes = None  # in the journal now; not kept twice
        with open(self.journal_path, "a+b") as fh:
            # A journal not ending in a newline ends in the fragment of
            # a killed append: uncommitted, ignored by replay - and the
            # ``begin`` record glued onto it would take this whole cycle
            # with it.  Cut it back to the last newline first.
            start = fh.tell()  # append mode opens at the end
            if start:
                fh.seek(-1, os.SEEK_END)
                if fh.read(1) != b"\n":
                    fh.seek(0)
                    start = fh.read().rfind(b"\n") + 1
                    fh.truncate(start)
            fh.write(body)
            fh.flush()
            os.fsync(fh.fileno())
            if pre_commit is not None:
                pre_commit()
            fh.write(commit)
            fh.flush()
            os.fsync(fh.fileno())
        self._journal_spans[record.cycle_id] = (
            start,
            start + len(body) + len(commit),
        )
        self._cycles.append(record)

    def _journal_segment(self, journal: bytes, record: CycleRecord) -> bytes:
        """``record``'s segment as the journal holds it, checked to begin
        and commit that cycle (the span was taken from this process's
        own append or replay; a journal another writer changed since
        must not become a segment)."""
        start, end = self._journal_spans[record.cycle_id]
        data = journal[start:end]
        try:
            begin = decode_record(data[: data.index(b"\n")])
            commit = decode_record(data[data.rindex(b"\n", 0, -1) + 1 :])
            intact = (
                begin["record"] == "begin"
                and commit["record"] == "commit"
                and begin["cycle_id"] == commit["cycle_id"] == record.cycle_id
                and commit["trials"] == len(record.results)
            )
        except (ValueError, LookupError, TypeError):
            intact = False
        if not intact:
            raise StoreError(
                f"{self.journal_path}: bytes {start}-{end} are no longer "
                f"cycle {record.cycle_id[:12]}'s segment; the journal "
                "changed under this process"
            )
        return data

    def compact(self, max_cycles: Optional[int] = None) -> None:
        """Move journalled cycles into segments; truncate the journal.

        Only cycles without a segment are written, so the cost is the
        new cycle's plus one manifest row per stored cycle - and what is
        written is the cycle's journal bytes, copied: a cycle appended a
        moment ago and one replayed after a restart take the same path,
        and no line is encoded twice.  (Only a cycle that was never
        journalled - a schema-1 snapshot's - is encoded here.)
        ``max_cycles`` (>= 1) bounds retention: cycles beyond the window
        lose their manifest row and then their file (the rolling half of
        "rolling result store").  Every write is an atomic rename, in
        the order segment -> manifest -> journal -> unlink, so a crash
        at any point leaves a store that replays to the same cycles; new
        segments, the manifest and the directory are fsynced before the
        journal is emptied, so a power loss does not trade the journal
        for files that never reached the disk.
        """
        if max_cycles is not None:
            self._cycles = self._cycles[-check_window(max_cycles):]
        rows: List[Dict] = []
        written = 0
        journal: Optional[bytes] = None
        for record in self._cycles:
            row = self._segments.get(record.cycle_id)
            if row is None:
                if record.cycle_id in self._journal_spans:
                    if journal is None:
                        journal = self.journal_path.read_bytes()
                    data = self._journal_segment(journal, record)
                else:
                    data = b"".join(_encode_segment(record))
                name = _segment_filename(record.cycle_id)
                atomic_write(self.root / name, data)
                _fsync(self.root / name)
                written += len(data)
                row = {
                    "file": name,
                    "cycle_id": record.cycle_id,
                    "trials": len(record.results),
                    "sha256": hashlib.sha256(data).hexdigest(),
                }
            rows.append(row)
        manifest = encode_record(
            {
                "schema": STORE_SCHEMA_VERSION,
                "kind": "service-snapshot",
                "segments": rows,
            }
        ) + b"\n"
        atomic_write(self.snapshot_path, manifest)
        # The journal is fsynced; what replaces it must be on disk - file
        # bytes and directory entries - before it is emptied.
        _fsync(self.snapshot_path)
        _fsync(self.root)
        self._segments = {row["cycle_id"]: row for row in rows}
        self._journal_spans = {}
        atomic_write(self.journal_path, "")
        live = {row["file"] for row in rows}
        for path in self.root.glob(f"{SEGMENT_PREFIX}*{SEGMENT_SUFFIX}"):
            if path.name not in live:
                path.unlink()
        get_registry().counter("service.store.compact_bytes").inc(
            written + len(manifest)
        )

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def cycles(self) -> List[CycleRecord]:
        """Every committed cycle, oldest first."""
        return list(self._cycles)

    def __len__(self) -> int:
        """Total trials across every committed cycle."""
        return sum(len(record.results) for record in self._cycles)

    def store_view(self, last_cycles: Optional[int] = None) -> ResultStore:
        """A plain :class:`ResultStore` over a window of cycles.

        ``last_cycles`` (>= 1) keeps only the N most recent ingests.  Invalid
        trials are dropped, matching the watchdog's hygiene rule.

        Partial-cycle ingests carry ``<base>+<trials>`` ids; when a
        fuller delivery of the same base cycle is later ingested, the
        later record supersedes the earlier one here, so the view never
        double-counts a cycle's trials.

        The returned view is live and read-only: it is this store's one
        view, and the next call extends that same object in place with
        the cycles committed since, so each trial is added - and its
        keys resolved - once.  Only when the new window is not the old
        one plus new cycles (a cycle aged out, a fuller delivery
        superseded a partial one, another ``last_cycles``) does a call
        build a new view instead; a reopened store starts from none.
        Either way the view holds the trials a fresh build would, bucket
        for bucket in the same order.
        """
        window = self._cycles
        if last_cycles is not None:
            window = window[-check_window(last_cycles):]
        latest: Dict[str, tuple] = {}
        for index, record in enumerate(window):
            base = record.cycle_id.split("+", 1)[0]
            latest[base] = (index, record)
        records = [record for _index, record in sorted(latest.values())]
        store, held = self._live or (ResultStore(), [])
        if len(held) > len(records) or any(
            old is not new for old, new in zip(held, records)
        ):
            store, held = ResultStore(), []
        # Dropped while extending: a call that raises part-way leaves no
        # half-extended view for the next one to build on.
        self._live = None
        for record in records[len(held):]:
            store.extend(record.experiment_results(), valid_only=True)
        self._live = (store, records)
        return store

    def bandwidths_bps(self) -> List[float]:
        """Distinct bandwidth settings any committed cycle has data at."""
        return sorted(
            {
                result["bandwidth_bps"]
                for record in self._cycles
                for result in record.results
            }
        )
