"""Deterministic shard planning: a cycle or sweep as a partitionable plan.

The paper runs its all-pairs matrix on one testbed; Section 9 names
parallel execution as the scaling path.  ``repro.fleet`` takes the step
the ROADMAP calls "sharded multi-host sweep": because every trial is a
deterministic seeded simulation addressed by a content hash
(:func:`~repro.core.cache.trial_cache_key`), an entire watchdog cycle can
be *planned* - every :class:`~repro.core.runner.TrialSpec` and its cache
key enumerated up front - then partitioned across hosts, executed into
disjoint cache directories, merged, and re-assembled into the exact
report a single host would have produced.

Planning is deterministic and the partition is *stable*: a spec's shard
is a pure function of its cache key (hash modulo shard count), so
re-planning - even after adding services or sweep points - never moves
previously-planned work between shards.  Plans and per-shard manifests
are schema-versioned JSON, forward-compatible in the same
ignore-unknown-keys style as ``ExperimentResult.from_json``.

A plan holds thousands of trials over a handful of configs, and what it
derives or states it derives or states once: one key per spec (the
planner's; a worker rebuilding the rows derives its own, see
``run_shard``), one ``plan_id`` per plan, and - manifest schema 3 - each
config once per *file*: ``plan.json`` and every ``shard-<i>.json`` carry
``networks`` / ``configs`` tables and a trial row's ``network`` /
``config`` is an index into them (:func:`_tabulate` writes,
:func:`trial_rows` reads; DESIGN section 2.1 "Manifest layout").
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union,
)

from .. import units
from .. import atomicio
from ..atomicio import atomic_write
from ..config import ExperimentConfig, NetworkConfig, TrialPolicyConfig
from ..core.cache import (
    CACHE_SCHEMA_VERSION,
    _INT64_MAX,
    _INT64_MIN,
    _unstorable_field,
    config_fields,
    encode_record,
    trial_cache_keys,
)
from ..core.convergence import ConvergenceTracker
from ..core.policy import TrialPolicy
from ..core.runner import TrialSpec
from ..core.sweep import expand_sweep_networks, pair_sweep_trials

#: Bump when the plan/manifest JSON layout changes incompatibly.
#: v2 adds adaptive-round identity (``cycle`` block: parent cycle id +
#: round index) and retry attempts on shard manifests; v3 states each
#: config once, in per-file tables that trial rows index.
MANIFEST_SCHEMA_VERSION = 3

#: Plan/manifest schema versions this library still reads.  v1 and v2
#: files (every row repeating its configs inline) load through the same
#: reader: their plan ids were computed under their own schema, and
#: :attr:`FleetPlan.plan_id` recomputes with the file's schema so the
#: identity check - and every receipt naming that id - still holds.
SUPPORTED_MANIFEST_SCHEMAS = (1, 2, 3)


class FleetError(RuntimeError):
    """A fleet invariant was violated (skew, gaps, duplicates, schema)."""


def supported_schema(payload: Dict, what: str) -> int:
    """The schema version of a plan, manifest or receipt this library
    reads; :class:`FleetError` for any other."""
    schema = payload.get("schema")
    if schema not in SUPPORTED_MANIFEST_SCHEMAS:
        raise FleetError(
            f"{what} schema {schema!r} not in supported "
            f"{SUPPORTED_MANIFEST_SCHEMAS}"
        )
    return schema


def load_json_artifact(path: Path, parse: Callable, what: str):
    """:func:`repro.atomicio.load_json_artifact` raising :class:`FleetError`."""
    return atomicio.load_json_artifact(path, parse, what, FleetError)


def _canonical(payload: Dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _dataclass_from_json(cls, payload: Dict):
    """Rebuild a config dataclass, ignoring unknown keys (fwd compat)."""
    if not isinstance(payload, dict):
        raise FleetError(f"no {cls.__name__} object or table entry {payload!r}")
    known = {f.name for f in dataclasses.fields(cls)}
    return cls(**{k: v for k, v in payload.items() if k in known})


def _config_reader(cls, table: Optional[List]) -> "tuple[List, Callable]":
    """``(entries, resolve)`` for one file's ``network`` or ``config``
    column: the file's table, built here once per entry (schema 3; a
    row's ``int`` is a position in it), and ``row value -> config`` for
    any other value - the config itself (schema 1/2), interned for this
    load, or a defect to name.  ``resolve`` interns by ``repr``, which
    is *type-exact*: ``true`` is not index 1, and ``8e6`` / ``8000000``
    compare equal but serialise, and therefore key, differently (as
    ``config_canonical_json``)."""
    entries = [_dataclass_from_json(cls, entry) for entry in table or ()]
    interned: Dict[str, object] = {}

    def resolve(ref):
        token = repr(ref)
        config = interned.get(token)
        if config is None:
            config = interned[token] = _dataclass_from_json(cls, ref)
        return config

    return entries, resolve


def shard_for_key(cache_key: str, num_shards: int) -> int:
    """The shard owning one cache key: stable hash partitioning.

    Uses a prefix of the key itself (already a uniform SHA-256 digest),
    so the assignment depends on nothing but the trial's content and the
    shard count - re-planning with more services or sweep points never
    reshuffles existing keys between shards.
    """
    if num_shards < 1:
        raise ValueError("need at least one shard")
    return int(cache_key[:16], 16) % num_shards


#: A schema-3 trial row is a list in this order; a shard manifest's rows
#: stop before ``shard``.  Schema-1/2 rows were objects naming the same
#: fields.
ROW_COLUMNS = ("service_ids", "network", "config", "seed", "cache_key", "shard")


def trial_rows(
    payload: Dict, with_shard: bool
) -> Iterator[Tuple[TrialSpec, List]]:
    """``(TrialSpec, row)`` per trial of a plan or manifest payload,
    whatever schema wrote it: a row arrives as a list or is made one
    (:data:`ROW_COLUMNS` order).  The spec is built from the row's
    contents only; ``row[4]``, its ``cache_key``, is a claim to check."""
    columns = ROW_COLUMNS if with_shard else ROW_COLUMNS[:-1]
    networks, network_of = _config_reader(
        NetworkConfig, payload.get("networks")
    )
    configs, config_of = _config_reader(
        ExperimentConfig, payload.get("configs")
    )
    num_networks, num_configs = len(networks), len(configs)
    for row in payload["trials"]:
        if isinstance(row, dict):
            row = [row[name] for name in columns]
        network, config = row[1], row[2]
        spec = TrialSpec(
            service_ids=tuple(row[0]),
            network=networks[network]
            if type(network) is int and 0 <= network < num_networks
            else network_of(network),
            config=configs[config]
            if type(config) is int and 0 <= config < num_configs
            else config_of(config),
            seed=row[3],
        )
        yield spec, row


@dataclass(frozen=True)
class PlannedTrial:
    """One trial in a plan: the spec, its cache key, and its shard."""

    spec: TrialSpec
    cache_key: str
    shard: int


def _tabulate(
    trials: Sequence[PlannedTrial], with_shard: bool
) -> Tuple[List[NetworkConfig], List[ExperimentConfig], List[List]]:
    """``(networks, configs, rows)`` of a plan or manifest file: each
    distinct config *object* once (``==`` would conflate ``8e6`` with
    ``8000000``, whose keys differ) and
    :data:`ROW_COLUMNS` rows holding its table index."""
    networks: Dict[int, Tuple[int, NetworkConfig]] = {}
    configs: Dict[int, Tuple[int, ExperimentConfig]] = {}
    rows = []
    for trial in trials:
        spec = trial.spec
        network, config = spec.network, spec.config
        row = [
            list(spec.service_ids),
            networks.setdefault(id(network), (len(networks), network))[0],
            configs.setdefault(id(config), (len(configs), config))[0],
            spec.seed,
            trial.cache_key,
        ]
        if with_shard:
            row.append(trial.shard)
        rows.append(row)
    return (
        [network for _index, network in networks.values()],
        [config for _index, config in configs.values()],
        rows,
    )


class FleetPlan:
    """A fully-enumerated, shardable trial matrix plus assembly recipe.

    ``kind`` is ``"cycle"`` (all-pairs watchdog cycle) or ``"sweep"``
    (pair parameter sweep); ``params`` holds whatever the assembler needs
    to rebuild the published artifact (service ids and networks for a
    cycle; sweep kind/values/pair for a sweep).  ``trials`` is the full
    ordered trial list - plan order is single-host execution order, which
    is what makes assembled reports bit-identical to unsharded runs.

    A *round-scoped* plan (one round of an adaptive cycle) additionally
    carries ``cycle_id`` (identity of the parent adaptive cycle) and
    ``round_index``; both fold into :attr:`plan_id`, so two rounds of the
    same cycle - even if they happen to plan identical trial sets - have
    distinct identities and receipts cannot cross rounds.
    """

    def __init__(
        self,
        kind: str,
        num_shards: int,
        trials: Sequence[PlannedTrial],
        params: Dict,
        cache_schema: int = CACHE_SCHEMA_VERSION,
        cycle_id: Optional[str] = None,
        round_index: Optional[int] = None,
        schema: int = MANIFEST_SCHEMA_VERSION,
    ) -> None:
        if kind not in ("cycle", "sweep"):
            raise ValueError(f"unknown plan kind {kind!r}")
        if (cycle_id is None) != (round_index is None):
            raise ValueError(
                "round-scoped plans need both cycle_id and round_index"
            )
        self.kind = kind
        self.num_shards = num_shards
        self.trials = list(trials)
        self.params = dict(params)
        self.cache_schema = cache_schema
        self.cycle_id = cycle_id
        self.round_index = round_index
        self.schema = schema

    # -- identity ------------------------------------------------------

    @functools.cached_property
    def plan_id(self) -> str:
        """Content identity of the planned work (derived once: nothing
        edits a plan after it is built).

        Covers the sorted cache-key set (which itself covers every trial
        input) and the schema versions - *not* the shard count, so the
        same matrix planned at different widths shares one identity.
        Round-scoped plans also fold in the parent cycle id and round
        index, so each round of an adaptive cycle is its own plan and
        shard receipts cannot leak between rounds.
        """
        payload = {
            "manifest_schema": self.schema,
            "cache_schema": self.cache_schema,
            "keys": sorted(t.cache_key for t in self.trials),
        }
        if self.cycle_id is not None:
            payload["cycle"] = {
                "id": self.cycle_id,
                "round": self.round_index,
            }
        return hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()

    def expected_keys(self) -> List[str]:
        """Every cache key the plan expects, in plan order."""
        return [t.cache_key for t in self.trials]

    def shard_trials(self, shard_index: int) -> List[PlannedTrial]:
        """The trials owned by one shard, in plan order."""
        if not 0 <= shard_index < self.num_shards:
            raise ValueError(
                f"shard {shard_index} out of range for "
                f"{self.num_shards} shards"
            )
        return [t for t in self.trials if t.shard == shard_index]

    # -- serialisation -------------------------------------------------

    def to_json(self) -> Dict:
        """Schema-versioned plan payload, round-trippable via from_json."""
        networks, configs, rows = _tabulate(self.trials, with_shard=True)
        payload = {
            "schema": self.schema,
            "kind": "fleet-plan",
            "plan_kind": self.kind,
            "plan_id": self.plan_id,
            "cache_schema": self.cache_schema,
            "num_shards": self.num_shards,
            "params": self.params,
            "networks": [config_fields(n) for n in networks],
            "configs": [config_fields(c) for c in configs],
            "trials": rows,
        }
        if self.cycle_id is not None:
            payload["cycle"] = {
                "id": self.cycle_id,
                "round": self.round_index,
            }
        return payload

    @classmethod
    def from_json(cls, payload: Dict) -> "FleetPlan":
        """Load a plan, ignoring unknown keys; reject schema skew.

        Accepts every :data:`SUPPORTED_MANIFEST_SCHEMAS` version - a v1
        plan (pre-adaptive) loads with no cycle identity and keeps its
        v1-computed plan id valid.
        """
        schema = supported_schema(payload, "plan")
        trials = [
            PlannedTrial(spec, row[4], row[5])
            for spec, row in trial_rows(payload, with_shard=True)
        ]
        cycle = payload.get("cycle") or {}
        plan = cls(
            kind=payload["plan_kind"],
            num_shards=payload["num_shards"],
            trials=trials,
            params=payload.get("params", {}),
            cache_schema=payload.get("cache_schema", CACHE_SCHEMA_VERSION),
            cycle_id=cycle.get("id"),
            round_index=cycle.get("round"),
            schema=schema,
        )
        stated = payload.get("plan_id")
        if stated is not None and stated != plan.plan_id:
            raise FleetError(
                "plan_id mismatch: file says "
                f"{stated[:12]}..., recomputed {plan.plan_id[:12]}... "
                "(edited plan or library version skew)"
            )
        return plan

    def manifest_for(self, shard_index: int, attempt: int = 0) -> Dict:
        """The standalone JSON manifest one shard worker executes.

        ``attempt`` stamps retries: a re-dispatched manifest for a shard
        whose receipt never arrived carries attempt 1, 2, ... and the
        merge's supersede rule prefers the highest-attempt receipt.
        """
        if attempt < 0:
            raise ValueError("attempt must be >= 0")
        networks, configs, rows = _tabulate(
            self.shard_trials(shard_index), with_shard=False
        )
        manifest = {
            "schema": MANIFEST_SCHEMA_VERSION,
            "kind": "shard-manifest",
            "plan_id": self.plan_id,
            "plan_kind": self.kind,
            "cache_schema": self.cache_schema,
            "shard_index": shard_index,
            "num_shards": self.num_shards,
            "attempt": attempt,
            "networks": [config_fields(n) for n in networks],
            "configs": [config_fields(c) for c in configs],
            "trials": rows,
        }
        # The early-termination model artifact travels with every shard
        # manifest so workers arm identical monitors (plan identity is
        # untouched: params are not part of plan_id, and two plans over
        # the same keys merge cleanly either way because full-length
        # results supersede truncated ones).
        if "earlystop" in self.params:
            manifest["earlystop"] = self.params["earlystop"]
        if self.cycle_id is not None:
            manifest["cycle"] = {
                "id": self.cycle_id,
                "round": self.round_index,
            }
        return manifest

    def write(self, out_dir: Union[str, Path]) -> List[Path]:
        """Write ``plan.json`` plus one ``shard-<i>.json`` per shard.

        Returns the written paths, plan file first.
        """
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        paths = [out / "plan.json"]
        write_manifest(paths[0], self.to_json())
        for shard in range(self.num_shards):
            path = out / f"shard-{shard}.json"
            write_manifest(path, self.manifest_for(shard))
            paths.append(path)
        return paths


def write_manifest(path: Union[str, Path], payload: Dict) -> None:
    """Publish a plan or shard manifest atomically, as
    :data:`~repro.core.cache.encode_record` bytes: workers poll the
    directories these land in (``out/next-plan/``, ``spool/retry/``,
    adaptive round directories), so none may be read half-written.

    A value no reader would get back - a non-finite float (written as
    ``null``), an integer beyond signed 64 bits (a trial seed no cache
    entry may hold) - is a :class:`FleetError` naming the field, and
    nothing is written.  The small parts are walked; of the rows only
    the seeds can hold either, checked as one column in C.
    """
    seeds = list(map(_SEED, payload["trials"]))
    parts = [(k, v) for k, v in payload.items() if k != "trials"]
    if seeds and not (
        {int}.issuperset(map(type, seeds))
        and _INT64_MIN <= min(seeds)
        and max(seeds) <= _INT64_MAX
    ):
        parts += [(f"trials[{i}][3]", seed) for i, seed in enumerate(seeds)]
    for name, value in parts:
        found = _unstorable_field(value, name)
        if found is not None:
            raise FleetError(found)
    try:
        encoded = encode_record(payload)
    except TypeError as exc:  # a key that is no str, a lone surrogate
        raise FleetError(f"{path} not written: {exc}") from exc
    atomic_write(path, encoded)


#: A row's seed (``ROW_COLUMNS[3]``).
_SEED = operator.itemgetter(3)


def load_plan(path: Union[str, Path]) -> FleetPlan:
    """Read a ``plan.json`` from disk (:func:`load_json_artifact`)."""
    return load_json_artifact(Path(path), FleetPlan.from_json, "plan")


def load_manifest(path: Union[str, Path]) -> Dict:
    """Read a shard manifest from disk, validating its schema.

    v1 manifests (no ``attempt``/``cycle`` fields) load unchanged;
    consumers treat a missing attempt as 0.
    """
    return load_json_artifact(Path(path), _checked_manifest, "shard manifest")


def _checked_manifest(payload: Dict) -> Dict:
    supported_schema(payload, "manifest")
    if payload.get("kind") != "shard-manifest":
        raise FleetError(
            f"not a shard manifest: kind={payload.get('kind')!r}"
        )
    missing = {"plan_id", "shard_index", "num_shards", "trials"} - set(payload)
    if missing:
        raise FleetError(f"manifest lacks {', '.join(sorted(missing))}")
    return payload


def key_skew(
    specs: Sequence[TrialSpec], claimed: List, claimant: str, reader: str
) -> Optional[str]:
    """Derive ``specs``' keys in one batch: ``None`` when they are the
    ``claimed`` list, else what the first disagreement says - planner /
    ``reader`` version skew, which a file's rows and the cache files
    they name may share, so it is caught before any trial is read as
    missing or run."""
    derived = trial_cache_keys(specs)
    if derived == claimed:
        return None
    spec, says, computes = next(
        trial for trial in zip(specs, claimed, derived) if trial[1] != trial[2]
    )
    return (
        f"cache-key mismatch for seed {spec.seed} "
        f"({'+'.join(spec.service_ids)}): {claimant} says {says[:12]}..., "
        f"this library computes {computes[:12]}... - planner/{reader} "
        "version skew"
    )


def _planned(specs: Sequence[TrialSpec], num_shards: int) -> List[PlannedTrial]:
    return [
        PlannedTrial(spec, key, shard_for_key(key, num_shards))
        for spec, key in zip(specs, trial_cache_keys(specs))
    ]


def plan_cycle(
    service_ids: Sequence[str],
    networks: Sequence[NetworkConfig],
    config: ExperimentConfig,
    trials_per_pair: int,
    num_shards: int,
    base_seed: int = 0,
    include_self_pairs: bool = True,
    earlystop: Optional[Dict] = None,
) -> FleetPlan:
    """Plan one all-pairs watchdog cycle as a shardable trial matrix.

    A fixed-count cycle is the single round of a
    :meth:`TrialPolicyConfig.fixed` policy, so the plan is what
    :meth:`ConvergenceTracker.queued_specs` queues before anything has
    run, network by network: the specs, seeds and round-robin order
    ``Prudentia.run_cycle`` (cycle 0) hands its backend under the same
    policy - which is what lets the assembler rebuild a bit-identical
    report.

    ``earlystop`` (an :class:`~repro.core.earlystop.EarlyStopConfig`
    encoded via ``to_json``) rides in the plan params and every shard
    manifest, so workers arm identical early-termination monitors.
    """
    tracker = ConvergenceTracker.for_services(
        service_ids,
        TrialPolicy(TrialPolicyConfig.fixed(trials_per_pair)),
        include_self_pairs=include_self_pairs,
        base_seed=base_seed,
    )
    specs = [
        spec
        for network in networks
        for spec in tracker.queued_specs(network, config)
    ]
    params = {
        "service_ids": sorted(service_ids),
        "networks": [dataclasses.asdict(n) for n in networks],
        "config": dataclasses.asdict(config),
        "trials_per_pair": trials_per_pair,
        "base_seed": base_seed,
        "include_self_pairs": include_self_pairs,
    }
    if earlystop is not None:
        params["earlystop"] = earlystop
    return FleetPlan("cycle", num_shards, _planned(specs, num_shards), params)


def plan_sweep(
    sweep_kind: str,
    service_id_a: str,
    service_id_b: str,
    values: Sequence[float],
    config: ExperimentConfig,
    num_shards: int,
    base_network: Optional[NetworkConfig] = None,
    trials: int = 3,
    base_seed: int = 1,
) -> FleetPlan:
    """Plan a pair parameter sweep as a shardable trial matrix.

    Sweep points expand through
    :func:`~repro.core.sweep.expand_sweep_networks` and
    :func:`~repro.core.sweep.pair_sweep_trials`, the enumeration
    :func:`~repro.core.sweep.run_sweep` runs, so a merged fleet sweep
    reduces to exactly the local curve for the same arguments.
    """
    base = base_network or NetworkConfig(bandwidth_bps=units.mbps(8))
    networks = expand_sweep_networks(sweep_kind, values, base)
    specs = pair_sweep_trials(
        service_id_a, service_id_b, networks, config, trials, base_seed
    )
    params = {
        "sweep_kind": sweep_kind,
        "service_id_a": service_id_a,
        "service_id_b": service_id_b,
        "values": list(values),
        "base_network": dataclasses.asdict(base),
        "config": dataclasses.asdict(config),
        "trials": trials,
        "base_seed": base_seed,
    }
    return FleetPlan("sweep", num_shards, _planned(specs, num_shards), params)
