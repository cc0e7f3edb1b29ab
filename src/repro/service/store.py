"""The rolling result store: a crash-safe journal of ingested cycles.

The live deployment accumulates three years of trial results; ours
accumulates cycles at software speed.  Either way the store must survive
the process dying at any instruction, so it is built as an append-only
JSONL **journal** plus an atomic **snapshot**:

- Every ingested cycle is one journal *segment*: a ``begin`` record
  (cycle identity + provenance), one ``trial`` record per result, and a
  ``commit`` record sealing the segment.  The trial records are flushed
  and fsynced *before* the commit is written, so a commit on disk
  guarantees its trials are too.
- Replay (:meth:`RollingResultStore.replay`) tolerates everything a
  kill can leave behind: a torn final line is dropped, and any segment
  without its commit record is discarded - an interrupted ingest simply
  never happened, and re-ingesting the same spool entry reproduces the
  exact same committed bytes (results are deterministic simulations).
- :meth:`RollingResultStore.compact` folds every committed segment into
  ``snapshot.json`` (write-temp-then-rename) and then truncates the
  journal (also via rename).  A crash between the two renames leaves
  the same cycles in both files; replay deduplicates by cycle id, so
  the merged view is unchanged.

Nothing in the journal or snapshot carries wall-clock time: the store's
bytes are a pure function of the ingested data and order, which is what
makes the kill-and-restart acceptance test ("replay yields a store
byte-identical to an uninterrupted run") checkable at all.  Operational
timestamps live in the coordinator's state file instead.

Windowed views (:meth:`RollingResultStore.store_view`) rebuild a plain
:class:`~repro.core.results.ResultStore` over the last N cycles or a
timestamp cutoff - the longitudinal angle: findings drift, so the site
can be rendered over a rolling window rather than all of history.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Set, Union

from ..atomicio import atomic_write
from ..core.experiment import ExperimentResult
from ..core.results import ResultStore

#: Journal filename inside the store directory.
JOURNAL_FILENAME = "journal.jsonl"

#: Snapshot filename inside the store directory.
SNAPSHOT_FILENAME = "snapshot.json"

#: Bump when the journal/snapshot record layout changes incompatibly.
STORE_SCHEMA_VERSION = 1


@dataclass
class CycleRecord:
    """One ingested cycle: identity, provenance, and its trial payloads.

    ``results`` holds raw ``ExperimentResult.to_json()`` payloads (the
    same serialisation the cache and ``ResultStore.save`` use), kept as
    dicts so journal round-trips are byte-exact.
    """

    cycle_id: str
    source: str
    kind: str  # "adaptive" | "fixed"
    partial: bool = False
    results: List[Dict] = field(default_factory=list)

    def to_json(self) -> Dict:
        """Return the record as a JSON-serialisable dict."""
        return {
            "cycle_id": self.cycle_id,
            "source": self.source,
            "kind": self.kind,
            "partial": self.partial,
            "results": list(self.results),
        }

    @classmethod
    def from_json(cls, payload: Dict) -> "CycleRecord":
        return cls(
            cycle_id=payload["cycle_id"],
            source=payload["source"],
            kind=payload["kind"],
            partial=payload.get("partial", False),
            results=list(payload.get("results", [])),
        )

    def experiment_results(self) -> List[ExperimentResult]:
        """The cycle's trials as live result objects."""
        return [ExperimentResult.from_json(r) for r in self.results]


def _canonical_line(payload: Dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class RollingResultStore:
    """Durable, windowed store of per-cycle trial results.

    ``root`` is the store directory (created if missing) holding the
    journal and snapshot.  Construction replays both, so a freshly
    opened store always reflects every *committed* ingest - and nothing
    an interrupted one left behind.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._cycles: List[CycleRecord] = []
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
        """Rebuild the committed-cycle list from snapshot + journal.

        Order is snapshot cycles first (they were committed earlier),
        then journal segments in append order; a cycle id present in
        both (crash between snapshot rename and journal truncation)
        keeps its first occurrence.
        """
        cycles: List[CycleRecord] = []
        seen: Set[str] = set()
        if self.snapshot_path.exists():
            payload = json.loads(self.snapshot_path.read_text())
            if payload.get("schema") != STORE_SCHEMA_VERSION:
                raise ValueError(
                    f"snapshot schema {payload.get('schema')!r} != "
                    f"supported {STORE_SCHEMA_VERSION}"
                )
            for entry in payload.get("cycles", []):
                record = CycleRecord.from_json(entry)
                if record.cycle_id not in seen:
                    seen.add(record.cycle_id)
                    cycles.append(record)
        for record in self._replay_journal():
            if record.cycle_id not in seen:
                seen.add(record.cycle_id)
                cycles.append(record)
        self._cycles = cycles
        return list(cycles)

    def _replay_journal(self) -> Iterable[CycleRecord]:
        """Committed segments from the journal, tolerating torn tails."""
        if not self.journal_path.exists():
            return
        raw = self.journal_path.read_bytes()
        pending: Optional[CycleRecord] = None
        for line in raw.split(b"\n"):
            if not line:
                continue
            try:
                payload = json.loads(line)
            except ValueError:
                # A kill mid-append tears at most the final line; any
                # segment it belonged to is uncommitted either way.
                break
            kind = payload.get("record")
            if kind == "begin":
                # A new begin while a segment is open means the previous
                # ingest died before committing: discard it.
                pending = CycleRecord(
                    cycle_id=payload["cycle_id"],
                    source=payload.get("source", ""),
                    kind=payload.get("kind", "fixed"),
                    partial=payload.get("partial", False),
                )
            elif kind == "trial":
                if (
                    pending is not None
                    and payload.get("cycle_id") == pending.cycle_id
                ):
                    pending.results.append(payload["result"])
            elif kind == "commit":
                if (
                    pending is not None
                    and payload.get("cycle_id") == pending.cycle_id
                    and payload.get("trials") == len(pending.results)
                ):
                    yield pending
                pending = None

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
        begin = {
            "record": "begin",
            "schema": STORE_SCHEMA_VERSION,
            "cycle_id": record.cycle_id,
            "source": record.source,
            "kind": record.kind,
            "partial": record.partial,
        }
        with open(self.journal_path, "a", encoding="utf-8") as fh:
            fh.write(_canonical_line(begin) + "\n")
            for index, result in enumerate(record.results):
                line = {
                    "record": "trial",
                    "cycle_id": record.cycle_id,
                    "seq": index,
                    "result": result,
                }
                fh.write(_canonical_line(line) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
            if pre_commit is not None:
                pre_commit()
            commit = {
                "record": "commit",
                "cycle_id": record.cycle_id,
                "trials": len(record.results),
            }
            fh.write(_canonical_line(commit) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        self._cycles.append(record)

    def compact(self, max_cycles: Optional[int] = None) -> None:
        """Fold committed segments into the snapshot; truncate the journal.

        ``max_cycles`` bounds retention: older cycles beyond the window
        are dropped from the snapshot (the rolling half of "rolling
        result store").  Both writes are atomic renames; a crash between
        them only duplicates cycles, which replay deduplicates.
        """
        if max_cycles is not None:
            self._cycles = (
                self._cycles[-max_cycles:] if max_cycles > 0 else []
            )
        snapshot = {
            "schema": STORE_SCHEMA_VERSION,
            "kind": "service-snapshot",
            "cycles": [record.to_json() for record in self._cycles],
        }
        atomic_write(
            self.snapshot_path, json.dumps(snapshot, indent=1, sort_keys=True)
        )
        atomic_write(self.journal_path, "")

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def cycles(self) -> List[CycleRecord]:
        """Every committed cycle, oldest first."""
        return list(self._cycles)

    def __len__(self) -> int:
        """Total trials across every committed cycle."""
        return sum(len(record.results) for record in self._cycles)

    def store_view(
        self,
        last_cycles: Optional[int] = None,
        since_unix: Optional[float] = None,
        timestamps: Optional[Dict[str, float]] = None,
    ) -> ResultStore:
        """A plain :class:`ResultStore` over a window of cycles.

        ``last_cycles`` keeps only the N most recent ingests;
        ``since_unix`` keeps cycles whose ingest timestamp (looked up in
        ``timestamps``, the coordinator's cycle-id -> unix map) is at or
        after the cutoff - cycles with no recorded timestamp are kept,
        erring on the side of showing data.  Invalid trials are dropped,
        matching the watchdog's hygiene rule.

        Partial-cycle ingests carry ``<base>+<trials>`` ids; when a
        fuller delivery of the same base cycle is later ingested, the
        later record supersedes the earlier one here, so the view never
        double-counts a cycle's trials.
        """
        window = self._cycles
        if last_cycles is not None:
            window = window[-last_cycles:] if last_cycles > 0 else []
        if since_unix is not None:
            stamps = timestamps or {}
            window = [
                record
                for record in window
                if stamps.get(record.cycle_id) is None
                or stamps[record.cycle_id] >= since_unix
            ]
        latest: Dict[str, tuple] = {}
        for index, record in enumerate(window):
            base = record.cycle_id.split("+", 1)[0]
            latest[base] = (index, record)
        store = ResultStore()
        for _index, record in sorted(latest.values()):
            store.extend(record.experiment_results(), valid_only=True)
        return store

    def bandwidths_bps(self, last_cycles: Optional[int] = None) -> List[float]:
        """Distinct bandwidth settings with data in the window."""
        window = (
            self._cycles[-last_cycles:]
            if last_cycles is not None and last_cycles > 0
            else self._cycles
        )
        out: Set[float] = set()
        for record in window:
            for result in record.results:
                out.add(result["bandwidth_bps"])
        return sorted(out)
