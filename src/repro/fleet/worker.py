"""The shard worker: execute one manifest into a cache directory.

One worker invocation (``python -m repro fleet run-shard shard-0.json
--cache-dir cache0``) is the unit of multi-host distribution: ship the
manifest to any host with this library installed, run it, and ship the
resulting cache directory back.  Everything flows through the existing
:class:`~repro.core.runner.ExecutionBackend` machinery - the worker adds
only validation (manifest schema, cache-schema, and per-spec key
recomputation, so library version skew is caught before burning compute)
and a completion receipt recording the plan, the shard and
:class:`~repro.core.runner.RunnerStats`.  The receipt names no keys: it
is written only once every one of the manifest's trials is recorded, so
the manifest is its key list.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..atomicio import atomic_write
from ..core.cache import CACHE_SCHEMA_VERSION, TrialCache
from ..core.runner import RunnerStats, build_backend
from ..obs import tracing
from ..obs.metrics import diff_snapshots, get_registry
from .plan import (
    FleetError,
    _checked_manifest,
    key_skew,
    load_json_artifact,
    trial_rows,
    supported_schema,
)

#: Receipt filename inside a shard's cache directory.  The cache reads
#: only its record logs, so the receipt can live alongside them and
#: travel with the directory.
RECEIPT_FILENAME = "shard-receipt.json"

#: The receipt layout, unchanged since manifest schema 2 (manifest
#: schema 3 moved plan and manifest rows only; ``completed_keys`` is no
#: longer written, and readers have always defaulted it), so a merger
#: one version behind still reads what this worker writes.
RECEIPT_SCHEMA_VERSION = 2


@dataclass
class ShardReceipt:
    """Proof that one shard completed, with provenance and counters.

    Besides the :class:`RunnerStats` counters, a receipt carries the
    shard's :mod:`repro.obs` metrics snapshot (``metrics``) - cache
    hit/miss/byte counters, per-trial simulator histograms - isolated to
    this shard run via a registry delta.  ``merge_shards`` unions the
    snapshots into fleet-wide totals, so no shard-level telemetry is
    dropped on merge.
    """

    plan_id: str
    shard_index: int
    num_shards: int
    cache_schema: int
    stats: RunnerStats = field(default_factory=RunnerStats)
    metrics: Optional[Dict] = None
    attempt: int = 0
    round_index: Optional[int] = None

    def to_json(self) -> Dict:
        """Schema-versioned receipt payload, round-trippable via from_json."""
        payload = {
            "schema": RECEIPT_SCHEMA_VERSION,
            "kind": "shard-receipt",
            "plan_id": self.plan_id,
            "shard_index": self.shard_index,
            "num_shards": self.num_shards,
            "cache_schema": self.cache_schema,
            "stats": self.stats.to_json(),
            "attempt": self.attempt,
        }
        if self.round_index is not None:
            payload["round_index"] = self.round_index
        if self.metrics is not None:
            payload["metrics"] = self.metrics
        return payload

    @classmethod
    def from_json(cls, payload: Dict) -> "ShardReceipt":
        """Load a receipt, ignoring unknown keys (forward compatibility).

        Pre-retry receipts carry no ``attempt``; they load as attempt 0,
        so the merge's supersede rule treats them as the first try.
        Older receipts' ``completed_keys`` (always the manifest's keys)
        are ignored like any other unknown field.
        """
        supported_schema(payload, "receipt")
        return cls(
            plan_id=payload["plan_id"],
            shard_index=payload["shard_index"],
            num_shards=payload["num_shards"],
            cache_schema=payload["cache_schema"],
            stats=RunnerStats.from_json(payload.get("stats", {})),
            metrics=payload.get("metrics"),
            attempt=payload.get("attempt", 0),
            round_index=payload.get("round_index"),
        )

    @classmethod
    def load(cls, cache_dir: Union[str, Path]) -> "ShardReceipt":
        path = Path(cache_dir) / RECEIPT_FILENAME
        if not path.exists():
            raise FleetError(
                f"no {RECEIPT_FILENAME} in {cache_dir} - shard incomplete "
                "or not a shard cache directory"
            )
        return load_json_artifact(path, cls.from_json, "shard receipt")

    def write(self, cache_dir: Union[str, Path]) -> Path:
        """Write the receipt into ``cache_dir`` so it ships with the cache.

        The receipt is the shard's completion marker, so it appears
        atomically: a reader sees no receipt or a whole one.
        """
        path = Path(cache_dir) / RECEIPT_FILENAME
        atomic_write(path, json.dumps(self.to_json(), indent=1))
        return path


def _checked_specs(payload: Dict) -> "tuple[Dict, List]":
    """``(manifest, its specs)``, refused on manifest-schema,
    cache-schema or cache-key skew."""
    manifest = _checked_manifest(payload)
    if manifest.get("cache_schema") != CACHE_SCHEMA_VERSION:
        raise FleetError(
            f"manifest cache schema {manifest.get('cache_schema')!r} != "
            f"this library's {CACHE_SCHEMA_VERSION} - re-plan with a "
            "matching version"
        )
    specs, claimed = [], []
    for spec, row in trial_rows(manifest, with_shard=False):
        specs.append(spec)
        claimed.append(row[4])
    skew = key_skew(specs, claimed, "manifest", "worker")
    if skew is not None:
        raise FleetError(skew)
    return manifest, specs


def run_shard(
    manifest: Union[Dict, str, Path],
    cache_dir: Union[str, Path],
    backend_kind: Optional[str] = None,
    workers: Optional[int] = None,
    record_flight: bool = False,
) -> ShardReceipt:
    """Execute one shard manifest into ``cache_dir``; write the receipt.

    The manifest's specs run through an execution backend wired to a
    :class:`TrialCache` over ``cache_dir``.  The backend writes each
    trial's entry as the trial finishes, so re-running an interrupted
    shard resumes from what it already simulated
    (``tests/test_fleet.py::TestInterruptedShard::test_inline_rerun_resumes``).
    Each spec's cache key is recomputed and checked against the manifest
    before anything runs - a mismatch means the planning and executing
    hosts disagree about trial semantics, which would poison the merge.
    That derivation is from the row's contents, never from its ``cache_key``
    (``tests/test_cache_keys.py::test_edited_manifest_key_never_seeds_the_memo``),
    and it is the last one the trial costs: later lookups read the memo
    it left on the spec (``test_two_derivations_two_parses_per_trial`` in
    ``tests/test_control_plane_budget.py``).  Every service id is checked
    against the backend's catalog before anything runs too: a plan naming
    a service this host does not know (one submitted on the planning
    host) is a :class:`FleetError`, with nothing simulated.

    ``record_flight`` runs every cache-missing trial under a flight
    recorder (:mod:`repro.obs.flight`): each recording is written with
    its record, as its ``flight`` sidecar.  Both substrates record,
    with the same bytes.

    A manifest carrying an ``earlystop`` block (the model artifact plus
    audit fraction; see :mod:`repro.core.earlystop`) arms every simulated
    trial with the trial-level early-termination monitor; the receipt's
    ``stats`` then report trials truncated, sim-seconds saved, and the
    audited mispredict counters.
    """
    if isinstance(manifest, dict):
        manifest, specs = _checked_specs(manifest)
        source = f"plan {manifest['plan_id']} shard {manifest['shard_index']}"
    else:
        # Rows are rebuilt inside the load, so a defect in one names the
        # file like any other.
        source = str(manifest)
        manifest, specs = load_json_artifact(
            Path(manifest), _checked_specs, "shard manifest"
        )
    cache = TrialCache(cache_dir)
    earlystop = None
    earlystop_json = manifest.get("earlystop")
    if earlystop_json is not None:
        from ..core.earlystop import EarlyStopConfig

        earlystop = EarlyStopConfig.from_json(earlystop_json)
    backend = build_backend(
        backend_kind,
        workers,
        cache=cache,
        earlystop=earlystop,
        record_flight=record_flight,
    )
    unknown = sorted(
        {sid for spec in specs for sid in spec.service_ids}
        - set(backend.catalog.ids())
    )
    if unknown:
        raise FleetError(
            f"{source}: unknown service(s) {', '.join(unknown)} - this "
            "host's catalog cannot run them; nothing was simulated"
        )
    metrics_before = get_registry().snapshot()
    with tracing.span(
        "shard.run",
        shard=manifest["shard_index"],
        trials=len(specs),
    ):
        # Completion alone: the shard only records its trials, so a
        # cache hit is read and checked but never built into a result.
        backend.complete(specs)
    cycle = manifest.get("cycle") or {}
    receipt = ShardReceipt(
        plan_id=manifest["plan_id"],
        shard_index=manifest["shard_index"],
        num_shards=manifest["num_shards"],
        cache_schema=manifest["cache_schema"],
        stats=backend.stats,
        metrics=diff_snapshots(metrics_before, get_registry().snapshot()),
        attempt=manifest.get("attempt", 0),
        round_index=cycle.get("round"),
    )
    receipt.write(cache_dir)
    return receipt
