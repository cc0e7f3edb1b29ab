"""The rolling result store: ingested cycles kept as their own record logs.

The live deployment accumulates three years of trial results; ours
accumulates cycles at software speed.  Either way the store must survive
the process dying at any instruction, and folding one more cycle into it
must cost what that cycle costs, not what the history costs.  A trial
record is written once, by the cache that recorded it
(:meth:`~repro.core.cache.TrialCache.put`), and the store keeps it
there.  Its directory holds:

- ``cycle-<sha256(cycle id) prefix>/`` per cycle: the record logs of the
  cache the cycle was read from, hard-linked
  (:func:`~repro.atomicio.link_or_copy`; copied where the OS refuses the
  link).  The store never opens an adopted log for writing: its inode
  may be shared with the spool entry, and with other stores.
- ``journal.jsonl``: one **commit line** per stored cycle, oldest first,
  each one :data:`~repro.core.cache.encode_record` line of ``seq`` (one
  more than the last cycle committed, retired ones included), ``cycle_id``,
  ``source``, ``kind``, ``partial``, ``logs`` (``[name, size, sha256]``
  of each adopted log) and ``keys`` (the trials' cache keys in plan
  order).

:meth:`RollingResultStore.append_cycle` links the logs into a temporary
directory, fsyncs them and it, renames it into place and fsyncs the
store directory; then it appends the commit line and fsyncs the journal.
That line is the commit point.  A cycle directory no line names - a
crash came before its line - is an orphan: the same cycle's next ingest
replaces it, and :meth:`~RollingResultStore.compact` sweeps it.

Replay (:meth:`RollingResultStore.replay`) reads the journal.  A line
counts once its newline is on disk: what follows the last newline is a
torn append, dropped even when it parses, and the next append cuts it
away.  Any other line that is not a commit line raises
:class:`StoreError` naming the file and the line.  Each adopted log must
have its line's size and sha256, and the cycle's trials are read by key
in one :meth:`~repro.core.cache.TrialCache.read_keys` batch: the cache's
own reader, so a key with several lines reads as its most complete one,
and a damaged record is named by log, line and key.  A missing
directory or log, a log of another size or digest, a log no line names
and a key no log holds each raise :class:`StoreError` naming the file,
never a silently shorter store.  A store of the older layout -
``segment-*.jsonl`` files, a ``snapshot.json`` manifest, a journal of
``begin``/``trial``/``commit`` records - is refused by name.

Nothing in the journal carries wall-clock time: the store's bytes are a
pure function of the ingested data and order, which is what makes the
kill-and-restart acceptance test ("replay yields a store byte-identical
to an uninterrupted run") checkable at all.  Operational timestamps
live in the coordinator's state file instead.

Windowed views (:meth:`RollingResultStore.store_view`) are a plain
:class:`~repro.core.results.ResultStore` over the last N cycles - the
longitudinal angle: findings drift, so the site can be rendered over a
rolling window rather than all of history.  The view is live: each call
extends it with the cycles committed since the last, and it is rebuilt
only when the window is not the old one plus new cycles.
"""

from __future__ import annotations

import hashlib
import os
import re
import secrets
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Set, Union

from ..atomicio import atomic_write, link_or_copy
from ..core.cache import (
    LOG_PREFIX,
    LOG_SUFFIX,
    CachedTrial,
    CacheEntryError,
    TrialCache,
    _list_cache_dir,
    decode_record,
    encode_record,
    is_cache_key,
)
from ..core.experiment import ExperimentResult
from ..core.results import ResultStore
from ..obs.metrics import get_registry

#: The commit log's filename inside the store directory.
JOURNAL_FILENAME = "journal.jsonl"

#: A cycle's directory is ``cycle-<hex>`` beside the journal.
CYCLE_DIR_PREFIX = "cycle-"

#: A file of the journal-and-segment layout this store replaced.
_OLD_LAYOUT = re.compile(r"snapshot\.json|segment-.*\.jsonl")
_REINGEST = (
    "the older journal-and-segment store layout, which this store no "
    "longer reads - re-ingest the spool's done/ entries into a fresh --out"
)

#: A commit line's fields and their types.
_COMMIT_FIELDS = {
    "seq": int, "cycle_id": str, "source": str, "kind": str,
    "partial": bool, "logs": list, "keys": list,
}

#: An adopted log's name: a record log's, and nothing that leaves the
#: cycle's directory.
_LOG_NAME = re.compile(
    re.escape(LOG_PREFIX) + r"[^/\\\0]*" + re.escape(LOG_SUFFIX)
)


class StoreError(ValueError):
    """A store file cannot be trusted; the message names the file."""


@dataclass
class CycleRecord:
    """One ingested cycle: identity, provenance, and its trial payloads.

    ``results`` holds raw ``ExperimentResult.to_json()`` payloads (the
    serialisation the cache uses), ``keys`` their cache keys, and
    ``origin`` the cache directory whose record logs hold them - the
    logs :meth:`RollingResultStore.append_cycle` adopts.
    """

    cycle_id: str
    source: str
    kind: str  # "adaptive" | "fixed"
    partial: bool = False
    results: List[Dict] = field(default_factory=list)
    keys: List[str] = field(default_factory=list)
    origin: Optional[Path] = None
    _parsed: Optional[List[ExperimentResult]] = field(
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
        origin: Union[str, Path],
    ) -> "CycleRecord":
        """A cycle whose trials one :meth:`TrialCache.read` of the cache
        at ``origin`` just produced: per trial the key, the payload as
        parsed and the result object built from it."""
        record = cls(
            cycle_id, source, kind, partial,
            [r.payload for r in reads], [r.key for r in reads], Path(origin),
        )
        record._parsed = [r.result for r in reads]
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


def _cycle_dirname(cycle_id: str) -> str:
    """A cycle's directory: a pure, filesystem-safe function of its id."""
    digest = hashlib.sha256(cycle_id.encode("utf-8")).hexdigest()
    return f"{CYCLE_DIR_PREFIX}{digest[:24]}"


def _commit_line(line: bytes, where: str) -> Dict:
    """The commit record ``line`` holds; anything else is a StoreError
    naming ``where``."""
    try:
        commit = decode_record(line)
    except ValueError as exc:
        raise StoreError(f"{where} is not valid JSON ({exc})") from exc
    if type(commit) is not dict:
        raise StoreError(
            f"{where} is JSON but not a commit line (found "
            f"{type(commit).__name__})"
        )
    if "record" in commit:
        raise StoreError(
            f"{where} is a {commit['record']!r} record of {_REINGEST}"
        )
    for name, kind in _COMMIT_FIELDS.items():
        if type(commit.get(name)) is not kind:
            raise StoreError(f"{where}: {name} is no {kind.__name__}")
    for log in commit["logs"]:
        if not (
            type(log) is list and len(log) == 3
            and type(log[0]) is str and _LOG_NAME.fullmatch(log[0])
            and type(log[1]) is int and type(log[2]) is str
        ):
            raise StoreError(
                f"{where}: {log!r} is not a record log's [name, size, sha256]"
            )
    keys = commit["keys"]
    if not all(type(key) is str and is_cache_key(key) for key in keys):
        raise StoreError(f"{where}: a key that is no cache key")
    return commit


class RollingResultStore:
    """Durable, windowed store of per-cycle trial results.

    ``root`` is the store directory (created if missing) holding the
    journal and the cycle directories.  Construction replays them, so a
    freshly opened store always reflects every *committed* ingest - and
    nothing an interrupted one left behind.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._cycles: List[CycleRecord] = []
        #: cycle id -> its commit line, newline included.
        self._lines: Dict[str, bytes] = {}
        #: The ``seq`` the next committed cycle gets.
        self.next_seq = 0
        #: The live view (see :meth:`store_view`) and the cycles it holds.
        self._live: Optional[tuple] = None
        self.replay()

    @property
    def journal_path(self) -> Path:
        return self.root / JOURNAL_FILENAME

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def replay(self) -> List[CycleRecord]:
        """Rebuild the committed-cycle list from the journal, in commit
        order, each cycle's trials read from its adopted logs."""
        for name in sorted(os.listdir(self.root)):
            if _OLD_LAYOUT.fullmatch(name):
                raise StoreError(f"{self.root / name}: a file of {_REINGEST}")
        path = self.journal_path
        raw = path.read_bytes() if path.exists() else b""
        cycles: List[CycleRecord] = []
        lines: Dict[str, bytes] = {}
        seq = 0
        # What follows the last newline is a torn append.
        for number, line in enumerate(raw.split(b"\n")[:-1], 1):
            where = f"{path}: line {number}"
            commit = _commit_line(line, where)
            if commit["cycle_id"] in lines or commit["seq"] < seq:
                raise StoreError(
                    f"{where}: commits cycle {commit['cycle_id'][:12]} "
                    f"(seq {commit['seq']}) out of order or twice"
                )
            cycles.append(self._load_cycle(commit, where))
            lines[commit["cycle_id"]] = line + b"\n"
            seq = commit["seq"] + 1
        self._cycles, self._lines, self.next_seq = cycles, lines, seq
        return list(cycles)

    def _load_cycle(self, commit: Dict, where: str) -> CycleRecord:
        """The cycle ``commit`` names, read from its verified logs."""
        cycle_id, keys = commit["cycle_id"], commit["keys"]
        directory = self.root / _cycle_dirname(cycle_id)
        if not directory.is_dir():
            raise StoreError(
                f"{directory}: cycle {cycle_id[:12]}'s directory, which "
                f"{where} commits, is missing"
            )
        for name, size, digest in commit["logs"]:
            log = directory / name
            try:
                data = log.read_bytes()
            except FileNotFoundError:
                raise StoreError(
                    f"{log}: adopted log committed by {where} is missing"
                ) from None
            if len(data) != size:
                raise StoreError(
                    f"{log}: {len(data)} bytes where {where} committed "
                    f"{size} ({'truncated' if len(data) < size else 'grown'})"
                )
            if hashlib.sha256(data).hexdigest() != digest:
                raise StoreError(
                    f"{log}: sha256 differs from the one {where} "
                    "committed (corrupted)"
                )
        try:
            named = {name for name, _size, _digest in commit["logs"]}
            foreign = sorted(set(_list_cache_dir(directory)) - named)
            if foreign:
                raise StoreError(
                    f"{directory / foreign[0]}: a log {where} does not commit"
                )
            reads = TrialCache(directory).read_keys(keys, allow_truncated=True)
        except CacheEntryError as exc:
            raise StoreError(f"{where}: {exc}") from exc
        if None in reads:
            index = reads.index(None)
            raise StoreError(
                f"{directory}: no log holds key {keys[index]}, trial "
                f"{index} of {where}"
            )
        return CycleRecord(
            cycle_id, commit["source"], commit["kind"], commit["partial"],
            [read.payload for read in reads], keys, directory,
        )

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    def ingested_ids(self) -> Set[str]:
        """Cycle ids already committed (spool dedup / idempotent ingest)."""
        return set(self._lines)

    def append_cycle(
        self,
        record: CycleRecord,
        pre_commit: Optional[Callable[[], None]] = None,
    ) -> None:
        """Durably adopt one cycle's record logs, then commit it.

        ``pre_commit`` runs once the cycle's directory is durable but
        before its commit line is written - the fault-injection seam the
        kill-and-restart test uses to die at the worst moment.
        """
        if record.cycle_id in self._lines:
            raise ValueError(
                f"cycle {record.cycle_id[:12]}... already ingested"
            )
        if record.origin is None:
            raise ValueError(
                f"cycle {record.cycle_id[:12]}...: no record logs to adopt"
            )
        final = self.root / _cycle_dirname(record.cycle_id)
        staging = Path(f"{final}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
        staging.mkdir()
        logs, written = [], 0
        for name in _list_cache_dir(record.origin):
            target = staging / name
            written += link_or_copy(Path(record.origin, name), target)
            data = target.read_bytes()
            logs.append([name, len(data), hashlib.sha256(data).hexdigest()])
            _fsync(target)
        _fsync(staging)
        if final.exists():  # an orphan: a crash came before its commit
            shutil.rmtree(final)
        os.rename(staging, final)
        _fsync(self.root)
        if pre_commit is not None:
            pre_commit()
        line = encode_record({
            "seq": self.next_seq,
            "cycle_id": record.cycle_id,
            "source": record.source,
            "kind": record.kind,
            "partial": record.partial,
            "logs": logs,
            "keys": record.keys,
        }) + b"\n"
        created = not self.journal_path.exists()
        with open(self.journal_path, "a+b") as fh:
            # A journal not ending in a newline ends in the fragment of
            # a killed append: uncommitted, ignored by replay - and this
            # line glued onto it would take the cycle with it.  Cut it
            # back to the last newline first.
            if fh.tell():  # append mode opens at the end
                fh.seek(-1, os.SEEK_END)
                if fh.read(1) != b"\n":
                    fh.seek(0)
                    fh.truncate(fh.read().rfind(b"\n") + 1)
            fh.write(line)
            fh.flush()
            os.fsync(fh.fileno())
        if created:
            _fsync(self.root)
        record.origin = final
        self._cycles.append(record)
        self._lines[record.cycle_id] = line
        self.next_seq += 1
        get_registry().counter("service.store.bytes_written").inc(
            written + len(line)
        )

    def compact(self, max_cycles: Optional[int] = None) -> None:
        """Retire the cycles beyond a window of ``max_cycles`` (>= 1),
        then remove every cycle directory no commit line names.

        Retiring rewrites the journal with the kept lines (an atomic
        rename, then an fsync of the file and the store directory), so
        a crash before the removal leaves orphans, swept by the next
        call.  With no window, or nothing beyond it, nothing is written.
        """
        if max_cycles is not None:
            kept = self._cycles[-check_window(max_cycles):]
            if len(kept) < len(self._cycles):
                data = b"".join(self._lines[r.cycle_id] for r in kept)
                atomic_write(self.journal_path, data)
                _fsync(self.journal_path)
                _fsync(self.root)
                self._cycles = kept
                self._lines = {
                    r.cycle_id: self._lines[r.cycle_id] for r in kept
                }
                get_registry().counter("service.store.bytes_written").inc(
                    len(data)
                )
        live = {_cycle_dirname(cycle_id) for cycle_id in self._lines}
        for name in os.listdir(self.root):
            if name.startswith(CYCLE_DIR_PREFIX) and name not in live:
                shutil.rmtree(self.root / name)

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
