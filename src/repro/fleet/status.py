"""Mid-run fleet visibility: diff receipt coverage against the plan.

``repro fleet status plan.json <dir...>`` answers the question the
operator of a sharded run actually has - *how far along is the fleet,
and is anything stuck?* - without touching the workers.  It reads only
what the fleet stages already write to disk (shard receipts and cache
records), so it is safe to run concurrently with ``fleet run-shard``:

- a shard whose directory carries a matching :class:`ShardReceipt` is
  **done**;
- a shard whose directory has cache records but no receipt yet is
  **running** - unless its newest write (a record appended to a log
  counts) is older than ``--stall-sec``,
  in which case it is flagged **stalled** (worker died mid-shard);
- a shard with no directory at all is **missing** (not started, or
  its cache has not been shipped back yet).

Directories are matched to shards by receipt when present, else by
overlap between the records on disk and each shard's planned key set
(shard caches carry no other identity before completion).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Union

from ..core.cache import scan_cache_dir
from ..core.runner import RunnerStats
from .plan import FleetPlan
from .worker import RECEIPT_FILENAME, ShardReceipt

#: Seconds without a new cache entry before a receipt-less shard
#: directory is considered stalled rather than running.
DEFAULT_STALL_SEC = 600.0

SHARD_STATES = ("done", "running", "stalled", "missing")


@dataclass
class ShardStatus:
    """One shard's progress against the plan."""

    shard_index: int
    state: str
    planned: int
    completed: int
    directory: Optional[str] = None
    age_sec: Optional[float] = None
    attempt: Optional[int] = None
    #: The parsed receipt backing a "done" row (not serialised per-shard;
    #: FleetStatus folds every receipt into its telemetry rollup).
    receipt: Optional[ShardReceipt] = None
    #: Planned trials whose record in the directory is served with a
    #: ``flight`` sidecar (telemetry only, like ``receipt``).
    flight_recorded: int = 0

    def to_json(self) -> Dict:
        """Plain-JSON row for ``fleet status --json``."""
        return {
            "shard_index": self.shard_index,
            "state": self.state,
            "planned": self.planned,
            "completed": self.completed,
            "directory": self.directory,
            "age_sec": (
                round(self.age_sec, 1) if self.age_sec is not None else None
            ),
            "attempt": self.attempt,
        }


@dataclass
class FleetStatus:
    """Fleet-wide rollup of :class:`ShardStatus` rows."""

    plan_id: str
    num_shards: int
    shards: List[ShardStatus] = field(default_factory=list)
    foreign_dirs: List[str] = field(default_factory=list)

    def counts(self) -> Dict[str, int]:
        """How many shards are in each state (all states present)."""
        out = {state: 0 for state in SHARD_STATES}
        for shard in self.shards:
            out[shard.state] += 1
        return out

    @property
    def trials_planned(self) -> int:
        return sum(s.planned for s in self.shards)

    @property
    def trials_completed(self) -> int:
        return sum(s.completed for s in self.shards)

    @property
    def complete(self) -> bool:
        return all(s.state == "done" for s in self.shards)

    def telemetry(self) -> Optional[Dict]:
        """Fold every seen receipt into fleet-wide obs totals.

        ``None`` until at least one receipt exists.  Sums the receipts'
        :class:`RunnerStats` counters, unions their metrics snapshots
        (:func:`~repro.obs.metrics.merge_snapshots`), counts the
        flight-recorded trials (records served with a ``flight`` sidecar
        in those shards' directories), rolls up the earlystop counters
        (trials truncated, sim-seconds saved, audited mispredict rate -
        ``None`` until an audit trial has run), and reports the youngest
        receipt's age -
        the fleet-side half of the observability rollup (the service
        side lives in ``repro service status``).
        """
        receipts = [s.receipt for s in self.shards if s.receipt is not None]
        if not receipts:
            return None
        from ..obs.metrics import merge_snapshots

        ages = [
            s.age_sec
            for s in self.shards
            if s.receipt is not None and s.age_sec is not None
        ]
        stats = RunnerStats.total(r.stats for r in receipts)
        return {
            "receipts": len(receipts),
            "trials_folded": stats.trials_total,
            "trials_simulated": stats.trials_run,
            "cache_hits": stats.cache_hits,
            "cache_misses": stats.cache_misses,
            "wall_clock_sec": round(stats.wall_clock_sec, 3),
            "flight_recorded": sum(
                s.flight_recorded for s in self.shards if s.receipt is not None
            ),
            **stats.earlystop_rollup(),
            "newest_receipt_age_sec": (
                round(min(ages), 1) if ages else None
            ),
            "metrics": merge_snapshots(
                r.metrics for r in receipts if r.metrics is not None
            ),
        }

    def to_json(self) -> Dict:
        """Machine-readable rollup (counts, coverage, per-shard rows)."""
        return {
            "plan_id": self.plan_id,
            "num_shards": self.num_shards,
            "counts": self.counts(),
            "trials_planned": self.trials_planned,
            "trials_completed": self.trials_completed,
            "complete": self.complete,
            "telemetry": self.telemetry(),
            "shards": [s.to_json() for s in self.shards],
            "foreign_dirs": list(self.foreign_dirs),
        }

    def render(self) -> str:
        """Human-oriented status table plus a one-line rollup."""
        lines = [
            f"{'shard':>5}  {'state':<8} {'trials':>13}  "
            f"{'age':>8}  directory"
        ]
        for shard in self.shards:
            trials = f"{shard.completed}/{shard.planned}"
            age = (
                f"{shard.age_sec:.0f}s"
                if shard.age_sec is not None
                else "-"
            )
            lines.append(
                f"{shard.shard_index:>5}  {shard.state:<8} {trials:>13}  "
                f"{age:>8}  {shard.directory or '-'}"
            )
        counts = self.counts()
        rollup = ", ".join(
            f"{counts[state]} {state}"
            for state in SHARD_STATES
            if counts[state]
        )
        lines.append(
            f"plan {self.plan_id[:12]}...: {rollup or '0 shards'}; "
            f"{self.trials_completed}/{self.trials_planned} planned "
            "trials covered"
        )
        telemetry = self.telemetry()
        if telemetry is not None:
            age = telemetry["newest_receipt_age_sec"]
            flight = (
                f", {telemetry['flight_recorded']} flight-recorded"
                if telemetry["flight_recorded"]
                else ""
            )
            line = (
                f"telemetry: {telemetry['trials_folded']} trials folded "
                f"from {telemetry['receipts']} receipt(s) "
                f"({telemetry['trials_simulated']} simulated, "
                f"{telemetry['cache_hits']} cache hits{flight})"
            )
            if age is not None:
                line += f"; newest receipt {age:.0f}s old"
            lines.append(line)
            if telemetry["trials_truncated"] or telemetry["trials_audited"]:
                lines.append(
                    RunnerStats.from_json(telemetry).earlystop_summary()
                )
        if self.foreign_dirs:
            lines.append(
                f"ignored {len(self.foreign_dirs)} unrelated "
                f"director{'y' if len(self.foreign_dirs) == 1 else 'ies'}: "
                + ", ".join(self.foreign_dirs)
            )
        return "\n".join(lines)


def _looks_like_shard_dir(directory: Path) -> bool:
    if (directory / RECEIPT_FILENAME).exists():
        return True
    return bool(scan_cache_dir(directory)[0])


def _expand_dirs(dirs: Sequence[Union[str, Path]]) -> List[Path]:
    """Accept shard caches directly or parents holding several of them."""
    out: List[Path] = []
    for raw in dirs:
        directory = Path(raw)
        if not directory.is_dir():
            continue
        if _looks_like_shard_dir(directory):
            out.append(directory)
            continue
        out.extend(
            sorted(
                child
                for child in directory.iterdir()
                if child.is_dir() and _looks_like_shard_dir(child)
            )
        )
    return out


def _newest_mtime(directory: Path) -> float:
    """Newest write in the directory - the receipt, a record
    appended to a log (which moves the log's mtime, not the
    directory's), or the directory itself."""
    newest = directory.stat().st_mtime
    with os.scandir(directory) as listing:
        for entry in listing:
            try:
                newest = max(newest, entry.stat().st_mtime)
            except OSError:  # deleted since the listing
                continue
    return newest


def fleet_status(
    plan: FleetPlan,
    dirs: Sequence[Union[str, Path]],
    stall_sec: float = DEFAULT_STALL_SEC,
    now: Optional[float] = None,
) -> FleetStatus:
    """Diff what is on disk in ``dirs`` against what ``plan`` expects.

    ``dirs`` may list shard cache directories directly or parent
    directories containing them.  Never raises on partial/foreign
    state - an in-progress fleet is the expected input.  ``now``
    overrides the wall clock for age computation (tests).
    """
    if now is None:
        now = time.time()
    shard_keys: List[Set[str]] = [
        {t.cache_key for t in plan.shard_trials(index)}
        for index in range(plan.num_shards)
    ]
    status = FleetStatus(plan_id=plan.plan_id, num_shards=plan.num_shards)
    claimed: Dict[int, ShardStatus] = {}
    for directory in _expand_dirs(dirs):
        receipt: Optional[ShardReceipt] = None
        receipt_path = directory / RECEIPT_FILENAME
        if receipt_path.exists():
            try:
                receipt = ShardReceipt.load(directory)
            except Exception:
                receipt = None  # torn write mid-run; treat as receipt-less
        keys, sidecars = scan_cache_dir(directory)
        entries = set(keys)
        age = now - _newest_mtime(directory)
        if receipt is not None:
            if (
                receipt.plan_id != plan.plan_id
                or not 0 <= receipt.shard_index < plan.num_shards
            ):
                status.foreign_dirs.append(str(directory))
                continue
            index = receipt.shard_index
        else:
            overlaps = [
                (len(entries & keys), index)
                for index, keys in enumerate(shard_keys)
                if index not in claimed
            ]
            overlaps = [item for item in overlaps if item[0] > 0]
            if not overlaps:
                status.foreign_dirs.append(str(directory))
                continue
            index = max(overlaps)[1]
        done_keys = entries & shard_keys[index]
        if receipt is not None:
            state = "done"
        elif age > stall_sec:
            state = "stalled"
        else:
            state = "running"
        row = ShardStatus(
            shard_index=index,
            state=state,
            planned=len(shard_keys[index]),
            completed=len(done_keys),
            directory=str(directory),
            age_sec=max(age, 0.0),
            attempt=receipt.attempt if receipt is not None else None,
            receipt=receipt,
            flight_recorded=sum(
                "flight" in sidecars.get(key, ()) for key in done_keys
            ),
        )
        # Two dirs claiming one shard: keep the more advanced one -
        # done beats not-done, then a later retry attempt beats an
        # earlier one, then more completed trials.
        def _rank(status_row: ShardStatus) -> tuple:
            return (
                status_row.state == "done",
                status_row.attempt if status_row.attempt is not None else -1,
                status_row.completed,
            )

        current = claimed.get(index)
        if current is None or _rank(row) > _rank(current):
            claimed[index] = row
    for index in range(plan.num_shards):
        row = claimed.get(index)
        if row is None:
            # A shard that owns zero trials has nothing to do: done even
            # before (or without) a worker touching it.
            row = ShardStatus(
                shard_index=index,
                state="done" if not shard_keys[index] else "missing",
                planned=len(shard_keys[index]),
                completed=0,
            )
        status.shards.append(row)
    return status


def retry_manifests(
    plan: FleetPlan,
    status: FleetStatus,
    attempt: Optional[int] = None,
) -> List[Dict]:
    """Fresh attempt-bumped manifests for every shard that is not done.

    The retry half of receipt recovery: ``fleet status`` decides which
    shards are missing or stalled; this emits a new manifest for each,
    with ``attempt`` bumped past the best receipt seen (or to the
    explicit ``attempt``), so the merge's supersede rule deterministically
    prefers the retry's receipt over any stale duplicate.
    """
    manifests: List[Dict] = []
    for row in status.shards:
        if row.state == "done":
            continue
        bump = (
            attempt
            if attempt is not None
            else (row.attempt if row.attempt is not None else 0) + 1
        )
        manifests.append(plan.manifest_for(row.shard_index, attempt=bump))
    return manifests
