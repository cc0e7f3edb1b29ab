"""The streaming coordinator: Prudentia as a long-running service.

One :class:`WatchdogService` process is the deployment shape of the
paper's watchdog: fleet workers (or the adaptive driver) drop merged
cycle outputs into a **spool** directory, and the coordinator ingests
each as it lands - folding trial results into the rolling store by
*cache replay only* (a missing cache entry aborts the ingest rather
than ever re-simulating), regenerating the findings site section by
section, accepting third-party submissions from a spool file, and
publishing the next cycle's plan with those submissions folded in.

Spool layout (created on startup)::

    spool/
      incoming/<entry>/       - merged cycle outputs to ingest; an entry
                                is an adaptive cycle directory
                                (cycle-state.json + cache/) or a fixed
                                plan (plan.json + cache/ or entries
                                alongside)
      done/<entry>/           - entries moved here after their commit
      failed/<entry>/         - entries that could not be ingested
      retry/<id>/             - re-queued manifests for open/missing
                                work (shard loss, unconverged pairs)
      submissions.jsonl       - one JSON submission per line

Output layout::

    out/
      store/                  - commit journal + one directory of
                                adopted record logs per cycle
                                (repro.service.store)
      site/                   - findings site (repro.service.site)
      next-plan/              - next cycle's plan + shard manifests
      service-state.json      - submissions ledger, flight diagnoses
                                counted, the last ingest's wall clock
      heartbeat.json          - repro.obs heartbeat
      stop                    - create this file for graceful shutdown

Crash model: the journal commit is the ingest's linearisation point.
Everything before it (adopting the entry's record logs) is invisible to
replay until the commit lands; everything after it (moving the entry to
``done/``, site regeneration, state/plan rewrites) is repeated
idempotently on restart
- re-scanning finds the committed entry still in ``incoming/``, skips
re-folding (dedup by cycle id), moves it, and a full site refresh on
startup heals any missing section.  ``REPRO_SERVICE_FAULT`` names a
crash point (``pre-commit``/``post-commit``) at which the process
SIGKILLs itself - the seam the kill-and-restart test drives.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ..atomicio import atomic_write, load_json_artifact
from ..config import (
    ExperimentConfig,
    NetworkConfig,
    highly_constrained,
    moderately_constrained,
)
from ..core.cache import CacheEntryError, CachedTrial, TrialCache
from ..core.results import ResultStore
from ..core.runner import RunnerStats, TrialSpec, lookup
from ..core.submission import SubmissionError, SubmissionPortal
from ..fleet.adaptive import AdaptiveCycleState, ASSEMBLY_PLAN_FILENAME, STATE_FILENAME
from ..fleet.plan import (
    FleetError, FleetPlan, key_skew, load_plan, write_manifest,
)
from ..obs import tracing
from ..obs.flight import (
    FLIGHT_SCHEMA_VERSION, diagnose, explain_unfairness,
)
from ..obs.heartbeat import Heartbeat, HeartbeatError, HeartbeatWriter
from ..obs.log import get_logger
from ..obs.metrics import get_registry
from ..services.catalog import ServiceCatalog, default_catalog
from .site import SiteRenderer, bandwidth_tag
from .store import CycleRecord, RollingResultStore, check_window

_log = get_logger("service")

#: Service-state filename inside the output directory.
SERVICE_STATE_FILENAME = "service-state.json"

#: Bump when the service-state layout changes incompatibly.
SERVICE_STATE_SCHEMA_VERSION = 1

#: Environment variable naming a crash point for fault-injection tests.
FAULT_ENV = "REPRO_SERVICE_FAULT"


class ServiceError(RuntimeError):
    """The coordinator hit an invariant violation it cannot ingest past."""


def _checked_state(payload: Dict) -> Dict:
    """``payload`` if it is a service state this version reads."""
    schema = payload.get("schema")
    if schema != SERVICE_STATE_SCHEMA_VERSION:
        raise ServiceError(
            f"service state schema {schema!r} != supported "
            f"{SERVICE_STATE_SCHEMA_VERSION}"
        )
    # A missing section is a LookupError here, which the loader reports
    # with the file's name, rather than a KeyError mid-ingest.
    for section in ("accepted", "rejected", "processed_lines"):
        payload["submissions"][section]
    # Older states also copied every cycle and the fold totals from the
    # store; only what the store does not hold is carried over.
    totals = payload.pop("totals", None) or {}
    stamps = [c.get("ingested_unix") for c in payload.pop("cycles", ())]
    payload.setdefault("flight_diagnosed", totals.get("flight_diagnosed", 0))
    payload.setdefault(
        "last_ingest_unix", max(filter(None, stamps), default=None)
    )
    return payload


def _fault(point: str) -> None:
    """Die by SIGKILL at a named crash point (fault-injection tests)."""
    if os.environ.get(FAULT_ENV) == point:
        os.kill(os.getpid(), signal.SIGKILL)


@dataclass
class IngestReport:
    """What one spool entry's ingest did."""

    source: str
    cycle_id: str
    kind: str
    trials: int = 0
    partial: bool = False
    skipped: bool = False
    bandwidths_bps: List[float] = field(default_factory=list)
    requeued: List[str] = field(default_factory=list)
    diagnosed: int = 0

    def to_json(self) -> Dict:
        """Return the report as a JSON-serialisable dict."""
        return dataclasses.asdict(self)


class WatchdogService:
    """Long-running coordinator over a spool of merged fleet cycles."""

    def __init__(
        self,
        spool_dir: Union[str, Path],
        out_dir: Union[str, Path],
        catalog: Optional[ServiceCatalog] = None,
        networks: Optional[Sequence[NetworkConfig]] = None,
        plan_config: Optional[ExperimentConfig] = None,
        plan_trials: int = 3,
        plan_shards: int = 2,
        base_seed: int = 0,
        window_cycles: Optional[int] = None,
        access_codes: Optional[List[str]] = None,
        poll_sec: float = 2.0,
        stop_file: Optional[Union[str, Path]] = None,
    ) -> None:
        if window_cycles is not None:
            check_window(window_cycles)
        self.spool = Path(spool_dir)
        self.out = Path(out_dir)
        for sub in ("incoming", "done", "failed", "retry"):
            (self.spool / sub).mkdir(parents=True, exist_ok=True)
        self.out.mkdir(parents=True, exist_ok=True)
        self.catalog = catalog or default_catalog()
        self.networks = list(
            networks
            if networks is not None
            else [highly_constrained(), moderately_constrained()]
        )
        self.plan_config = plan_config or ExperimentConfig()
        self.plan_trials = plan_trials
        self.plan_shards = plan_shards
        self.base_seed = base_seed
        self.window_cycles = window_cycles
        self.poll_sec = poll_sec
        self.stop_file = (
            Path(stop_file) if stop_file is not None else self.out / "stop"
        )
        self.store = RollingResultStore(self.out / "store")
        self.site = SiteRenderer(self.out / "site")
        self.portal = SubmissionPortal(self.catalog, access_codes=access_codes)
        self.heartbeat = HeartbeatWriter(self.out / "heartbeat.json")
        self._stop_requested = False
        self.state = self._load_state()
        self._replay_submissions()

    # ------------------------------------------------------------------
    # Durable operational state: what the store does not hold
    # ------------------------------------------------------------------

    @property
    def state_path(self) -> Path:
        return self.out / SERVICE_STATE_FILENAME

    def _load_state(self) -> Dict:
        """The submissions ledger, the count of flight diagnoses
        published and the wall clock of the last ingest; a fresh state
        when the file is absent.  Everything about the ingested cycles
        themselves is read from the store (:meth:`status`), so the two
        cannot disagree.

        A file that is there but is not this library's service state -
        cut short, corrupted, another JSON shape or schema - raises
        :class:`ServiceError` naming it: starting from an empty ledger
        instead would silently drop every accepted submission.
        """
        if self.state_path.exists():
            return load_json_artifact(
                self.state_path, _checked_state, "service state", ServiceError
            )
        return {
            "schema": SERVICE_STATE_SCHEMA_VERSION,
            "submissions": {
                "accepted": [],
                "rejected": [],
                "processed_lines": 0,
            },
            "flight_diagnosed": 0,
            "last_ingest_unix": None,
        }

    def _save_state(self) -> None:
        atomic_write(
            self.state_path,
            json.dumps(self.state, indent=1, sort_keys=True),
        )

    def _replay_submissions(self) -> None:
        """Re-register accepted submissions into this process's catalog.

        The catalog is rebuilt fresh on every start; the submissions
        ledger is durable.  Re-submission is idempotent, so replay is
        safe even if a submission somehow survived in the catalog.
        """
        for entry in self.state["submissions"]["accepted"]:
            try:
                self.portal.submit(entry["url"], entry["access_code"])
            except SubmissionError as exc:  # pragma: no cover - defensive
                _log.warning(
                    "service.submission_replay_failed",
                    url=entry["url"],
                    error=str(exc),
                )

    # ------------------------------------------------------------------
    # Submissions
    # ------------------------------------------------------------------

    @property
    def submissions_path(self) -> Path:
        return self.spool / "submissions.jsonl"

    def process_submissions(self) -> List[Dict]:
        """Fold new spool-file submissions into the catalog and ledger.

        Each line of ``submissions.jsonl`` is ``{"url": ...,
        "access_code": ...}``.  Lines are processed exactly once (a
        durable line cursor); accepted submissions join the catalog now
        and the next plan at its next write.  Invalid lines - not UTF-8,
        not JSON, not an object of strings, refused by the portal - are
        recorded as rejections, never fatal: the portal's job is to say
        no, and the cursor moves past them.
        """
        if not self.submissions_path.exists():
            return []
        lines = self.submissions_path.read_bytes().splitlines()
        ledger = self.state["submissions"]
        start = ledger["processed_lines"]
        accepted: List[Dict] = []
        for raw in lines[start:]:
            if not raw.strip():
                continue
            try:
                # UnicodeDecodeError and JSONDecodeError are ValueErrors.
                payload = json.loads(raw.decode("utf-8"))
                if not isinstance(payload, dict):
                    raise ValueError(
                        "expected a JSON object, found "
                        f"{type(payload).__name__}"
                    )
                url = payload["url"]
                access_code = payload.get("access_code", "")
                if not isinstance(url, str) or not isinstance(access_code, str):
                    raise ValueError("url and access_code must be strings")
                submission = self.portal.submit(url, access_code)
            except (ValueError, KeyError, SubmissionError) as exc:
                line = raw.decode("utf-8", "replace").strip()
                ledger["rejected"].append(
                    {"line": line[:200], "error": str(exc)}
                )
                _log.warning("service.submission_rejected", error=str(exc))
                continue
            entry = {
                "url": submission.url,
                "service_id": submission.service_id,
                "kind": submission.kind,
                "access_code": submission.submitter_code,
            }
            if not any(
                prior["service_id"] == entry["service_id"]
                for prior in ledger["accepted"]
            ):
                ledger["accepted"].append(entry)
                accepted.append(entry)
            _log.info(
                "service.submission_accepted",
                url=submission.url,
                service_id=submission.service_id,
            )
        ledger["processed_lines"] = len(lines)
        self._save_state()
        return accepted

    # ------------------------------------------------------------------
    # Spool scanning + entry ingestion
    # ------------------------------------------------------------------

    def scan_spool(self) -> List[Path]:
        """Ingestable entries under ``incoming/``, name order."""
        incoming = self.spool / "incoming"
        out = []
        for child in sorted(incoming.iterdir()):
            if not child.is_dir():
                continue
            if (
                (child / STATE_FILENAME).exists()
                or (child / ASSEMBLY_PLAN_FILENAME).exists()
                or (child / "plan.json").exists()
            ):
                out.append(child)
        return out

    def _entry_cache_dir(self, entry: Path) -> Path:
        cache = entry / "cache"
        return cache if cache.is_dir() else entry

    def _requeue_open_rounds(
        self, state: AdaptiveCycleState
    ) -> List[str]:
        """Write the open pairs' next-round manifests into ``retry/``."""
        plan = state.plan_round(self.plan_shards)
        if plan is None:
            return []
        retry_dir = self.spool / "retry" / state.cycle_id[:12]
        retry_dir.mkdir(parents=True, exist_ok=True)
        return [str(path) for path in plan.write(retry_dir)]

    def _requeue_missing_shards(
        self, plan: FleetPlan, missing_shards: List[int]
    ) -> List[str]:
        """Attempt-bumped manifests for shards with uncovered trials."""
        retry_dir = self.spool / "retry" / plan.plan_id[:12]
        retry_dir.mkdir(parents=True, exist_ok=True)
        written = []
        for shard in missing_shards:
            manifest = plan.manifest_for(shard, attempt=1)
            path = retry_dir / f"shard-{shard}-attempt1.json"
            write_manifest(path, manifest)
            written.append(str(path))
        return written

    def _ingest_flight_sidecars(
        self, cache: TrialCache, specs: Sequence[TrialSpec]
    ) -> int:
        """Diagnose the entry's flight recordings into ``out/diagnoses/``.

        Each ``flight`` sidecar the entry's ``cache`` serves (fleet
        workers write them with ``--record-flight``) is reduced to its
        :func:`repro.obs.flight.diagnose` summary and published under
        ``out/diagnoses/<bandwidth-tag>/<a>__<b>.json`` (later-sorted
        keys win for a pair, deterministically) - only when its service
        ids and bandwidth, which name the file, are one of ``specs``'.
        Diagnosis is best-effort decoration - a bad or foreign recording
        is logged and skipped, never fatal to the ingest - and the
        atomic per-pair writes make re-runs after a crash idempotent.
        """
        trials = {
            (tuple(s.service_ids), s.network.bandwidth_bps) for s in specs
        }
        written = 0
        try:
            keys = cache.sidecar_keys("flight")
        except CacheEntryError as exc:
            _log.warning("service.flight_diagnose_failed", error=str(exc))
            return 0
        for key in keys:
            try:
                payload = cache.get_sidecar(key, "flight")
                if payload.get("schema") != FLIGHT_SCHEMA_VERSION:
                    continue
                diagnosis = diagnose(payload)
                meta = diagnosis.get("meta") or {}
                ids = tuple(meta.get("service_ids") or ())
                bandwidth = meta.get("bandwidth_bps")
                if (ids, bandwidth) not in trials:
                    raise ValueError(f"{ids!r} at {bandwidth!r} bps: no trial")
            except Exception as exc:
                _log.warning(
                    "service.flight_diagnose_failed",
                    sidecar=f"{key}.flight",
                    error=str(exc),
                )
                continue
            dest_dir = self.out / "diagnoses" / bandwidth_tag(float(bandwidth))
            dest_dir.mkdir(parents=True, exist_ok=True)
            dest = dest_dir / f"{ids[0]}__{ids[-1]}.json"
            atomic_write(
                dest, json.dumps(diagnosis, indent=1, sort_keys=True)
            )
            written += 1
        if written:
            get_registry().counter("service.flight_diagnosed").inc(written)
        return written

    def load_diagnoses(self) -> Dict[float, Dict]:
        """Published diagnoses as bandwidth -> (a, b) pair -> payload.

        A file that cannot be read as a diagnosis - not JSON, not an
        object, a ``meta`` that is not one, a bandwidth that is not a
        number, a body :func:`~repro.obs.flight.explain_unfairness`
        cannot explain - is treated as absent and logged: diagnoses are
        re-derived from the flight sidecars, and a damaged one must not
        stop the site from rendering.
        """
        root = self.out / "diagnoses"
        out: Dict[float, Dict] = {}
        if not root.is_dir():
            return out
        for path in sorted(root.glob("*/*.json")):
            try:
                payload = json.loads(path.read_text())
                meta = payload.get("meta") or {}
                ids = meta.get("service_ids") or []
                bandwidth = meta.get("bandwidth_bps")
                if not ids or bandwidth is None:
                    continue
                pair = (ids[0], ids[-1])
                bandwidth = float(bandwidth)
                explain_unfairness(payload)
                out.setdefault(bandwidth, {})[pair] = payload
            except (OSError, AttributeError, LookupError, TypeError,
                    ValueError) as exc:
                _log.warning(
                    "service.diagnosis_discarded", defect=repr(exc),
                    path=str(path),
                )
        return out

    def _move_entry(self, entry: Path, bucket: str) -> None:
        dest = self.spool / bucket / entry.name
        if dest.exists():
            stamp = 1
            while (self.spool / bucket / f"{entry.name}.{stamp}").exists():
                stamp += 1
            dest = self.spool / bucket / f"{entry.name}.{stamp}"
        os.replace(entry, dest)

    def _read_trials(
        self, entry: Path, cache: TrialCache, specs: Sequence[TrialSpec]
    ) -> List[Optional[CachedTrial]]:
        """The entry's one cache read: a record per spec, ``None`` where
        the cache has none.  Fleet caches may hold early-terminated
        trials (:mod:`repro.core.earlystop`); folding takes whatever the
        fleet measured, so truncated entries are results here, not
        misses.  A damaged entry retires the spool entry."""
        try:
            return lookup(cache, specs, allow_truncated=True)[0]
        except CacheEntryError as exc:
            raise self._retire_unreadable(entry, exc) from exc

    def _retire_unreadable(
        self, entry: Path, cause: Exception
    ) -> ServiceError:
        """Move an entry whose own files cannot be read to ``failed/``.

        Left in ``incoming/`` it would fail every pass and every
        restart; the caller raises the returned error.
        """
        self._move_entry(entry, "failed")
        return ServiceError(
            f"spool entry {entry.name}: {cause}; entry moved to failed/"
        )

    def _stamp_ingest(self, diagnosed: int = 0) -> None:
        """Record that an entry's cycle is in the store now (committed,
        or found committed) - before the entry leaves ``incoming/``."""
        self.state["flight_diagnosed"] += diagnosed
        self.state["last_ingest_unix"] = time.time()
        self._save_state()

    def _skip_ingested(
        self, entry: Path, cache: TrialCache, specs: Sequence[TrialSpec],
        cycle_id: str, kind: str, partial: bool,
    ) -> IngestReport:
        """Retire a re-delivered entry whose cycle is already ingested."""
        # Re-diagnose before retiring: heals a crash that landed between
        # the journal commit and the diagnosis writes.
        diagnosed = self._ingest_flight_sidecars(cache, specs)
        self._stamp_ingest()
        self._move_entry(entry, "done")
        return IngestReport(
            source=entry.name,
            cycle_id=cycle_id,
            kind=kind,
            partial=partial,
            skipped=True,
            diagnosed=diagnosed,
        )

    def ingest_entry(self, entry: Path) -> IngestReport:
        """Ingest one spool entry: fold, journal, commit, requeue, move.

        Folding is one cache read per delivered trial
        (:func:`~repro.core.runner.lookup`, which cannot simulate); the
        store adopts the entry's record logs and commits the cycle's
        keys; the journal commit is the linearisation point;
        the entry moves to ``done/`` only after its commit, so a crash
        anywhere re-runs idempotently.  A fixed plan's trials the read
        misses mark their shards missing; a plan row whose cache key is
        not the one this library derives is version skew, and retires
        the entry to ``failed/`` (otherwise every trial would miss and
        every shard be requeued on every pass).  A re-delivered entry
        whose cycle is already ingested is skipped to ``done/``: an
        adaptive one before its read, a fixed one after it (its cycle id
        counts the trials its cache holds).
        """
        requeued: List[str] = []
        cache = TrialCache(self._entry_cache_dir(entry))
        if (entry / STATE_FILENAME).exists():
            try:
                state = AdaptiveCycleState.load(entry)
                # Every folded round's trials, in round order: for a done
                # cycle that is its assembly plan.
                specs = state.executed_specs()
            except (FleetError, LookupError) as exc:
                raise self._retire_unreadable(entry, exc) from exc
            kind = "adaptive"
            partial = not state.done
            cycle_id = state.cycle_id
            if partial:
                cycle_id = f"{state.cycle_id}+{len(specs)}"
                requeued = self._requeue_open_rounds(state)
            if cycle_id in self.store.ingested_ids():
                return self._skip_ingested(
                    entry, cache, specs, cycle_id, kind, partial
                )
            records = self._read_trials(entry, cache, specs)
            missing = records.count(None)
            if missing:
                self._move_entry(entry, "failed")
                raise ServiceError(
                    f"spool entry {entry.name}: {missing} planned "
                    "trial(s) missing from its cache - folding never "
                    "simulates; entry moved to failed/"
                )
        else:
            plan_path = (
                entry / ASSEMBLY_PLAN_FILENAME
                if (entry / ASSEMBLY_PLAN_FILENAME).exists()
                else entry / "plan.json"
            )
            try:
                plan = load_plan(plan_path)
            except FleetError as exc:
                raise self._retire_unreadable(entry, exc) from exc
            kind = "fixed"
            specs = [trial.spec for trial in plan.trials]
            records = self._read_trials(entry, cache, specs)
            # The read left every key on its spec: this check derives none.
            skew = key_skew(
                specs, plan.expected_keys(), "the plan", "coordinator"
            )
            if skew is not None:
                raise self._retire_unreadable(entry, ServiceError(skew))
            missing_shards = {
                trial.shard
                for trial, record in zip(plan.trials, records)
                if record is None
            }
            records = [record for record in records if record is not None]
            partial = bool(missing_shards)
            cycle_id = plan.plan_id
            if partial:
                cycle_id = f"{plan.plan_id}+{len(records)}"
                requeued = self._requeue_missing_shards(
                    plan, sorted(missing_shards)
                )
            if cycle_id in self.store.ingested_ids():
                return self._skip_ingested(
                    entry, cache, specs, cycle_id, kind, partial
                )
        with tracing.span(
            "service.ingest", source=entry.name, trials=len(records)
        ):
            # One read per trial serves what the store keeps in memory:
            # the key, the payload and the result object; the record
            # stays in the entry's log, which the store adopts.  A spool
            # name that is not UTF-8 (``os.listdir`` hands it over with
            # lone surrogates, which the record decoder refuses) is
            # committed spelled out.
            source = entry.name.encode("utf-8", "backslashreplace").decode()
            record = CycleRecord.from_cache_reads(
                cycle_id, source, kind, partial, records, cache.cache_dir
            )
            del records  # the read bytes are not kept
            self.store.append_cycle(
                record, pre_commit=lambda: _fault("pre-commit")
            )
        _fault("post-commit")
        diagnosed = self._ingest_flight_sidecars(cache, specs)
        self._stamp_ingest(diagnosed)
        self._move_entry(entry, "done")
        registry = get_registry()
        registry.counter("service.cycles_ingested").inc()
        registry.counter("service.trials_ingested").inc(len(record.results))
        bandwidths = sorted(
            {result["bandwidth_bps"] for result in record.results}
        )
        _log.info(
            "service.ingested",
            source=entry.name,
            cycle=cycle_id[:12],
            trials=len(record.results),
            partial=partial,
        )
        return IngestReport(
            source=entry.name,
            cycle_id=cycle_id,
            kind=kind,
            trials=len(record.results),
            partial=partial,
            bandwidths_bps=bandwidths,
            requeued=requeued,
            diagnosed=diagnosed,
        )

    # ------------------------------------------------------------------
    # Site + next plan
    # ------------------------------------------------------------------

    def windowed_store(self) -> ResultStore:
        """The store view the site renders (rolling window applied).

        The view is live and read-only: it is the rolling store's own,
        and the next pass extends it in place with the cycles committed
        meanwhile (see :meth:`RollingResultStore.store_view`), so each
        trial is added - and its keys resolved - once, not once per pass.
        """
        return self.store.store_view(self.window_cycles)

    def regenerate_site(
        self, changed_bandwidths: Optional[Sequence[float]] = None
    ) -> List[float]:
        """Re-render changed sections (all of them when unscoped).

        A rolling window makes any ingest able to age data out of *any*
        section, so windowed services always do a full refresh; the
        unwindowed default regenerates only the bandwidths the new
        cycle touched.
        """
        if self.window_cycles is not None:
            changed_bandwidths = None
        return self.site.regenerate(
            self.windowed_store(),
            changed_bandwidths,
            diagnoses=self.load_diagnoses(),
        )

    def write_next_plan(self) -> Path:
        """Publish the next cycle's plan, submissions folded in.

        The plan covers the heatmap catalog plus every accepted
        third-party submission, seeded per committed cycle the way
        ``Prudentia.run_cycle`` advances seeds per cycle: by the store's
        ``next_seq``, which keeps counting when a rolling window retires
        cycles, so a full window does not publish one plan forever.
        """
        from ..fleet.plan import plan_cycle

        ids = self.catalog.heatmap_ids() + sorted(
            entry["service_id"]
            for entry in self.state["submissions"]["accepted"]
        )
        plan = plan_cycle(
            ids,
            self.networks,
            self.plan_config,
            trials_per_pair=self.plan_trials,
            num_shards=self.plan_shards,
            base_seed=self.base_seed + self.store.next_seq,
        )
        plan_dir = self.out / "next-plan"
        plan.write(plan_dir)
        return plan_dir / "plan.json"

    # ------------------------------------------------------------------
    # Top-level passes
    # ------------------------------------------------------------------

    def ingest_once(self, full_site_refresh: bool = False) -> Dict:
        """One coordinator pass: submissions, spool, site, next plan."""
        accepted = self.process_submissions()
        reports: List[IngestReport] = []
        changed: set = set()
        failures: List[ServiceError] = []
        for entry in self.scan_spool():
            try:
                report = self.ingest_entry(entry)
            except ServiceError as exc:
                # That entry is in failed/ now; the ones behind it must
                # not wait for an operator.  Raised once the pass is done.
                failures.append(exc)
                continue
            reports.append(report)
            changed.update(report.bandwidths_bps)
            if not report.skipped:
                self.heartbeat.batch_done(report.trials)
        ingested = [r for r in reports if not r.skipped]
        if ingested:
            self.store.compact(max_cycles=self.window_cycles)
        if ingested or accepted or full_site_refresh:
            changed_list = self.regenerate_site(
                None if full_site_refresh else sorted(changed)
            )
            self.write_next_plan()
            if ingested:
                self.heartbeat.cycle_done()
        else:
            changed_list = []
        get_registry().gauge("service.cycles_total").set(
            len(self.store.cycles())
        )
        if failures:
            raise ServiceError(
                "; ".join(str(exc) for exc in failures)
            ) from failures[0]
        return {
            "ingested": [r.to_json() for r in reports],
            "submissions_accepted": accepted,
            "site_sections_changed": changed_list,
            "cycles_total": len(self.store.cycles()),
            "trials_total": len(self.store),
        }

    def _should_stop(self) -> bool:
        return self._stop_requested or self.stop_file.exists()

    def request_stop(self) -> None:
        """Ask the run loop to exit after the current pass."""
        self._stop_requested = True

    def run(self, max_loops: Optional[int] = None) -> int:
        """The service loop: poll, ingest, repeat until told to stop.

        Stops on SIGTERM/SIGINT, on the stop file appearing, or after
        ``max_loops`` passes (tests).  Always finishes the in-flight
        pass before exiting - shutdown is graceful by construction -
        and returns 0 on a clean stop.
        """
        previous = {}
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                previous[signum] = signal.signal(
                    signum, lambda _s, _f: self.request_stop()
                )
            except ValueError:  # pragma: no cover - non-main thread
                pass
        self.heartbeat.starting()
        _log.info(
            "service.started", spool=str(self.spool), out=str(self.out)
        )
        def _pass(**kwargs) -> None:
            # A poisoned entry (already moved to failed/) must not take
            # the whole service down.
            cycles = self.heartbeat.cycles_completed
            try:
                self.ingest_once(**kwargs)
            except ServiceError as exc:
                _log.error("service.ingest_failed", error=str(exc))
            # Every pass beats, so an idle service never looks stalled.
            if self.heartbeat.cycles_completed == cycles:
                self.heartbeat.idle()

        loops = 0
        try:
            # Startup reconcile: full site refresh heals a crash that
            # landed between a journal commit and the site write.
            _pass(full_site_refresh=True)
            loops += 1
            while not self._should_stop():
                if max_loops is not None and loops >= max_loops:
                    break
                waited = 0.0
                while waited < self.poll_sec and not self._should_stop():
                    time.sleep(min(0.2, self.poll_sec - waited))
                    waited += 0.2
                if self._should_stop():
                    break
                _pass()
                loops += 1
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
            self.heartbeat.finished()
        _log.info("service.stopped", loops=loops)
        return 0

    # ------------------------------------------------------------------
    # Status
    # ------------------------------------------------------------------

    def status(self) -> Dict:
        """Machine-readable service status (CLI ``repro service status``)."""
        pending = [entry.name for entry in self.scan_spool()]
        ledger = self.state["submissions"]
        cycles = self.store.cycles()
        return {
            "spool": str(self.spool),
            "out": str(self.out),
            "cycles_ingested": len(cycles),
            "trials_total": len(self.store),
            "window_cycles": self.window_cycles,
            "bandwidths_bps": self.store.bandwidths_bps(),
            "pending_entries": pending,
            "submissions": {
                "accepted": len(ledger["accepted"]),
                "rejected": len(ledger["rejected"]),
            },
            "last_cycles": [
                {
                    "cycle_id": record.cycle_id,
                    "source": record.source,
                    "kind": record.kind,
                    "partial": record.partial,
                    "trials": len(record.results),
                }
                for record in cycles[-5:]
            ],
            "observability": self._observability_status(cycles),
            "site_index": str(self.site.index_path),
            "next_plan": str(self.out / "next-plan" / "plan.json"),
        }

    def _observability_status(self, cycles: List[CycleRecord]) -> Dict:
        """Freshness ages and obs totals for ``status()``.

        ``last_ingest_age_sec`` is how long since an ingest pass last
        committed (or found committed) a cycle, ``heartbeat_age_sec``
        how long since the service loop wrote its heartbeat (``None``
        before either happens) - the two staleness signals an operator
        watches.  The fold totals are counted over the stored ``cycles``
        (every folded trial is a cache hit: folding never simulates);
        ``flight_diagnosed`` accumulates across restarts in the service
        state.
        """
        now = time.time()
        heartbeat_age = None
        try:
            beat = Heartbeat.load(self.out / "heartbeat.json")
            heartbeat_age = round(beat.age_sec(now), 1)
        except (OSError, HeartbeatError):
            pass
        folded = sum(len(record.results) for record in cycles)
        totals = {
            "cache_hits": folded,
            "trials_folded": folded,
            "flight_diagnosed": self.state["flight_diagnosed"],
        }
        earlystop = RunnerStats()
        for record in cycles:
            for result in record.results:
                earlystop.record_earlystop(result.get("earlystop"))
        if earlystop.trials_truncated:
            # Earlystop keys appear only once a truncated trial has been
            # folded, so pre-earlystop status payloads are unchanged.
            totals["trials_truncated"] = earlystop.trials_truncated
            totals["sim_sec_saved"] = round(earlystop.sim_sec_saved, 3)
        last = self.state["last_ingest_unix"]
        return {
            "last_ingest_age_sec": (
                round(now - last, 1) if last is not None else None
            ),
            "heartbeat_age_sec": heartbeat_age,
            "totals": totals,
            "diagnoses_published": len(
                list((self.out / "diagnoses").glob("*/*.json"))
            )
            if (self.out / "diagnoses").is_dir()
            else 0,
        }
