"""Cache merge: union shard caches back into one, losslessly and loudly.

The merge is where multi-host execution either becomes exactly a
single-host run or silently is not - so it verifies everything it can:

- every shard directory carries a completion receipt for *this* plan
  (plan-id match) at *this* cache schema version (skew rejected);
- entries present in several shards must hold the same record (the
  simulator is deterministic - divergent duplicates mean version skew or
  a corrupted transfer, never legitimate data).  The same record in
  another layout - the indented entry of an older cache beside today's
  one-line entry - is a duplicate like any other.  The one sanctioned
  exception is early termination (:mod:`repro.core.earlystop`): a
  truncated trial and its full-length sibling share a cache key by
  design, and the merge resolves that pair with the cache's own
  supersede rule - full-length wins, longer horizon breaks ties;
- the union is diffed against the plan's expected key set: gaps
  (planned-but-missing trials) fail the merge unless explicitly allowed,
  and extras (unplanned entries, e.g. from a pre-warmed shared cache)
  are counted but tolerated.

A shard's record logs are hard-linked into the destination (copied
where the OS will not link), never re-written: a log has one writer
that only appends, so sharing its inode with the shard directory is
safe, and a merge makes one link per shard log, not one per trial; a
record's sidecars are lines of its log.  Every key is judged before any
of its shard's logs is linked, and bytes are read again only to
adjudicate a key that is already present.  Both lines of a superseded
pair stay in the destination; its readers read the more complete one
and its sidecars, as the cache's own reader does.

Shard receipts' :class:`~repro.core.runner.RunnerStats` are summed, so
the merged cache knows how much total simulation the fleet performed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ..atomicio import link_or_copy
from ..core.cache import (
    CACHE_SCHEMA_VERSION,
    CacheEntryError,
    _completeness,
    _decode,
    _LogIndex,
    canonical_json,
    encode_record,
)
from ..core.runner import RunnerStats
from ..obs.metrics import merge_snapshots
from .plan import FleetError, FleetPlan
from .worker import ShardReceipt


@dataclass
class MergeReport:
    """What the merge did and what it found.

    ``stats`` sums every receipt's :class:`RunnerStats` (retries
    included - it measures total fleet effort); ``per_shard_stats``
    keeps the per-shard breakdown keyed by shard index, with duplicate
    receipts for one shard resolved by the supersede rule (highest
    attempt wins - see :func:`merge_shards`; ``superseded_receipts``
    counts the losers).  ``metrics`` unions the receipts'
    :mod:`repro.obs` snapshots, so shard-level telemetry survives the
    merge instead of being dropped.  ``superseded_entries`` counts
    divergent duplicate *entries* resolved by the earlystop completeness
    rule (full-length supersedes truncated).
    """

    shards: int = 0
    entries_merged: int = 0
    duplicates: int = 0
    gaps: List[str] = field(default_factory=list)
    extras: int = 0
    superseded_receipts: int = 0
    superseded_entries: int = 0
    stats: RunnerStats = field(default_factory=RunnerStats)
    per_shard_stats: Dict[int, RunnerStats] = field(default_factory=dict)
    metrics: Dict = field(default_factory=dict)

    def to_json(self) -> Dict:
        """Machine-readable merge summary (stats nested as JSON)."""
        return {
            "shards": self.shards,
            "entries_merged": self.entries_merged,
            "duplicates": self.duplicates,
            "gaps": list(self.gaps),
            "extras": self.extras,
            "superseded_receipts": self.superseded_receipts,
            "superseded_entries": self.superseded_entries,
            "stats": self.stats.to_json(),
            "per_shard_stats": {
                str(index): stats.to_json()
                for index, stats in sorted(self.per_shard_stats.items())
            },
            "metrics": self.metrics,
        }


def _resolve_divergent(challenger: bytes, incumbent: bytes) -> Optional[str]:
    """Adjudicate a byte-divergent duplicate entry, or refuse to.

    Early termination is the one way two runs of a deterministic trial
    legitimately produce different bytes under one cache key: a shard
    that ran with the monitor armed wrote a truncated result, another
    (or an audit trial) wrote the full-length one.  Both sides must be
    trial records - read as every cache read reads a record
    (:data:`~repro.core.cache.decode_record` and the record shape check)
    - and differ *in completeness* (full beats truncated, longer
    truncated horizon beats shorter -
    :func:`repro.core.cache._completeness`); anything else is real
    divergence and stays a hard error.  Bytes that differ only in
    layout - both parse to one payload, type for type - are no
    divergence at all.  Returns ``"same"`` / ``"replace"`` / ``"keep"``,
    or ``None`` when the conflict is neither format skew nor an
    earlystop supersede.
    """
    try:
        challenger_payload = _decode(challenger)
        incumbent_payload = _decode(incumbent)
    except CacheEntryError:
        return None
    # Type for type: ``1``, ``1.0`` and ``true`` are spelled apart.
    if encode_record(challenger_payload) == encode_record(incumbent_payload):
        return "same"
    challenger_rank = _completeness(challenger_payload)
    incumbent_rank = _completeness(incumbent_payload)
    if challenger_rank == incumbent_rank:
        return None
    if not (
        challenger_payload.get("earlystop") or incumbent_payload.get("earlystop")
    ):
        # Neither side was early-terminated: a completeness gap without
        # an earlystop block means genuinely different trials collided.
        return None
    return "replace" if challenger_rank > incumbent_rank else "keep"


def _supersedes(challenger: ShardReceipt, incumbent: ShardReceipt) -> bool:
    """Does ``challenger`` win the shard over ``incumbent``?

    Retry semantics: a later attempt supersedes an earlier one.  A tie
    falls back to comparing the receipts' canonical JSON, so the winner
    is a deterministic function of the receipt *contents* - independent
    of the order shard directories were listed in.  (Every receipt of
    one plan's shard covers the same trials: it is written only once
    the whole manifest is recorded.)
    """
    if challenger.attempt != incumbent.attempt:
        return challenger.attempt > incumbent.attempt
    return canonical_json(challenger.to_json()) < canonical_json(
        incumbent.to_json()
    )


def merge_shards(
    plan: FleetPlan,
    shard_dirs: Sequence[Union[str, Path]],
    dest_dir: Union[str, Path],
    allow_gaps: bool = False,
) -> MergeReport:
    """Union shard cache directories into ``dest_dir`` for this plan.

    Raises :class:`FleetError` on receipt/plan/schema mismatch, on
    divergent duplicate entries (except truncated-vs-full earlystop
    pairs, which resolve to the more complete payload), and (unless
    ``allow_gaps``) when the union does not cover every key the plan
    expects.  ``dest_dir`` may
    be pre-populated (e.g. merging additional shards later); existing
    byte-identical entries count as duplicates.
    """
    if plan.cache_schema != CACHE_SCHEMA_VERSION:
        raise FleetError(
            f"plan cache schema {plan.cache_schema} != this library's "
            f"{CACHE_SCHEMA_VERSION} - the plan is stale; re-plan before "
            "merging"
        )
    dest = Path(dest_dir)
    dest.mkdir(parents=True, exist_ok=True)
    dest_prefix = os.path.join(dest, "")
    expected = set(plan.expected_keys())
    held = _LogIndex(os.fspath(dest))
    held.scan()  # a pre-populated dest
    merged_keys = set(held.spans)
    # Logs linked since ``held`` last looked: re-index before judging.
    stale = False
    report = MergeReport(shards=len(shard_dirs))
    shard_metrics: List[Dict] = []
    winners: Dict[int, ShardReceipt] = {}
    for shard_dir in shard_dirs:
        shard = Path(shard_dir)
        if not shard.is_dir():
            raise FleetError(f"shard cache {shard} is not a directory")
        receipt = ShardReceipt.load(shard)
        if receipt.plan_id != plan.plan_id:
            raise FleetError(
                f"receipt in {shard} belongs to plan "
                f"{receipt.plan_id[:12]}..., not this plan "
                f"{plan.plan_id[:12]}..."
            )
        if receipt.cache_schema != plan.cache_schema:
            raise FleetError(
                f"receipt in {shard} was produced at cache schema "
                f"{receipt.cache_schema}, plan expects "
                f"{plan.cache_schema} - rejected (results would not "
                "be comparable)"
            )
        report.stats = report.stats.merged_with(receipt.stats)
        incumbent = winners.get(receipt.shard_index)
        if incumbent is None:
            winners[receipt.shard_index] = receipt
        else:
            # Duplicate receipts for one shard (retries): the
            # supersede rule picks a deterministic winner for the
            # per-shard breakdown; total stats keep both (they both
            # really ran).
            report.superseded_receipts += 1
            if _supersedes(receipt, incumbent):
                winners[receipt.shard_index] = receipt
        if receipt.metrics is not None:
            shard_metrics.append(receipt.metrics)
        index = _LogIndex(os.fspath(shard))
        fresh = index.scan()
        new_keys: List[str] = []
        for key in index.spans:
            if key not in merged_keys:
                new_keys.append(key)
                continue
            if stale:
                held.scan()
                stale = False
            data = index.bytes_of(key, fresh)
            existing = held.bytes_of(key)
            if existing != data:
                verdict = _resolve_divergent(data, existing)
                if verdict is None:
                    raise FleetError(
                        f"divergent duplicate for key {key[:12]}... "
                        f"({index.at(index.spans[key])} vs "
                        f"{held.at(held.spans[key])}) - "
                        "deterministic trials cannot legitimately "
                        "differ; suspect version skew or corruption"
                    )
                if verdict != "same":
                    report.superseded_entries += 1
                    continue
            report.duplicates += 1
        # Every key judged: now the shard's logs join the destination.
        for name in index.sizes:
            # A log of that name already there is this one (one writer
            # per name): linked, or a copy an earlier merge made, which
            # its writer may since have appended to - copied again.
            link_or_copy(index.prefix + name, dest_prefix + name)
        stale = True
        for key in new_keys:
            merged_keys.add(key)
            if key not in expected:
                report.extras += 1
        report.entries_merged += len(new_keys)
    report.per_shard_stats = {
        index: receipt.stats for index, receipt in winners.items()
    }
    if shard_metrics:
        report.metrics = merge_snapshots(shard_metrics)
    report.gaps = sorted(expected - merged_keys)
    if report.gaps and not allow_gaps:
        preview = ", ".join(k[:12] + "..." for k in report.gaps[:5])
        raise FleetError(
            f"merge leaves {len(report.gaps)} of {len(expected)} planned "
            f"trials uncovered ({preview}) - a shard is missing or "
            "incomplete"
        )
    return report
