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
      store/                  - journal + per-cycle segments + manifest
                                (repro.service.store)
      site/                   - findings site (repro.service.site)
      next-plan/              - next cycle's plan + shard manifests
      service-state.json      - ingest ledger, submissions, timestamps
      heartbeat.json          - repro.obs heartbeat
      stop                    - create this file for graceful shutdown

Crash model: the journal commit is the ingest's linearisation point.
Everything before it (trial appends) is invisible to replay until the
commit lands; everything after it (moving the entry to ``done/``, site
regeneration, state/plan rewrites) is repeated idempotently on restart
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
from ..core.cache import CacheEntryError, TrialCache
from ..core.runner import CacheMissError, replay
from ..core.submission import SubmissionError, SubmissionPortal
from ..fleet.adaptive import AdaptiveCycleState, ASSEMBLY_PLAN_FILENAME, STATE_FILENAME
from ..fleet.plan import FleetError, FleetPlan, load_plan, write_manifest
from ..obs import tracing
from ..obs.flight import FLIGHT_SCHEMA_VERSION, diagnose
from ..obs.heartbeat import Heartbeat, HeartbeatError, HeartbeatWriter
from ..obs.log import get_logger
from ..obs.metrics import get_registry
from ..services.catalog import ServiceCatalog, default_catalog
from .site import SiteRenderer, bandwidth_tag
from .store import CycleRecord, RollingResultStore

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
    payload["cycles"]
    for section in ("accepted", "rejected", "processed_lines"):
        payload["submissions"][section]
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
        site_title: str = "Prudentia - Internet Fairness Watchdog",
    ) -> None:
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
        self.site = SiteRenderer(self.out / "site", title=site_title)
        self.portal = SubmissionPortal(self.catalog, access_codes=access_codes)
        self.heartbeat = HeartbeatWriter(self.out / "heartbeat.json")
        self._stop_requested = False
        self.state = self._load_state()
        self._replay_submissions()

    # ------------------------------------------------------------------
    # Durable operational state (timestamps, submissions ledger)
    # ------------------------------------------------------------------

    @property
    def state_path(self) -> Path:
        return self.out / SERVICE_STATE_FILENAME

    def _load_state(self) -> Dict:
        """The durable ledger; a fresh one when the file is absent.

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
            "cycles": [],
            "submissions": {
                "accepted": [],
                "rejected": [],
                "processed_lines": 0,
            },
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

    def _ingest_flight_sidecars(self, entry: Path) -> int:
        """Diagnose the entry's flight recordings into ``out/diagnoses/``.

        Fleet workers running with ``--record-flight`` leave
        ``<key>.flight.json`` sidecars next to the cache entries; each
        is reduced to its :func:`repro.obs.flight.diagnose` summary and
        published under ``out/diagnoses/<bandwidth-tag>/<a>__<b>.json``
        (later-sorted sidecars win for a pair, deterministically).
        Diagnosis is best-effort decoration - a bad sidecar is logged
        and skipped, never fatal to the ingest - and the atomic
        per-pair writes make re-runs after a crash idempotent.
        """
        cache_dir = self._entry_cache_dir(entry)
        written = 0
        for path in sorted(cache_dir.glob("*.flight.json")):
            try:
                payload = json.loads(path.read_text())
                if payload.get("schema") != FLIGHT_SCHEMA_VERSION:
                    continue
                diagnosis = diagnose(payload)
            except Exception as exc:
                _log.warning(
                    "service.flight_diagnose_failed",
                    sidecar=path.name,
                    error=str(exc),
                )
                continue
            meta = diagnosis.get("meta") or {}
            ids = meta.get("service_ids") or []
            bandwidth = meta.get("bandwidth_bps")
            if not ids or bandwidth is None:
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
        """Published diagnoses as bandwidth -> (a, b) pair -> payload."""
        root = self.out / "diagnoses"
        out: Dict[float, Dict] = {}
        if not root.is_dir():
            return out
        for path in sorted(root.glob("*/*.json")):
            try:
                payload = json.loads(path.read_text())
            except (OSError, ValueError):  # torn write; skip
                continue
            meta = payload.get("meta") or {}
            ids = meta.get("service_ids") or []
            bandwidth = meta.get("bandwidth_bps")
            if not ids or bandwidth is None:
                continue
            pair = (ids[0], ids[-1])
            out.setdefault(float(bandwidth), {})[pair] = payload
        return out

    def _move_entry(self, entry: Path, bucket: str) -> None:
        dest = self.spool / bucket / entry.name
        if dest.exists():
            stamp = 1
            while (self.spool / bucket / f"{entry.name}.{stamp}").exists():
                stamp += 1
            dest = self.spool / bucket / f"{entry.name}.{stamp}"
        os.replace(entry, dest)

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

    def ingest_entry(self, entry: Path) -> IngestReport:
        """Ingest one spool entry: fold, journal, commit, requeue, move.

        Folding is pure cache replay (:func:`~repro.core.runner.replay`,
        which cannot simulate); the journal commit is the linearisation
        point; the entry moves to ``done/`` only after its commit, so a
        crash anywhere re-runs idempotently.
        """
        requeued: List[str] = []
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
            cache = TrialCache(self._entry_cache_dir(entry))
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
            cache = TrialCache(self._entry_cache_dir(entry))
            specs, missing_shards = [], set()
            for trial in plan.trials:
                if cache.contains_key(trial.cache_key):
                    specs.append(trial.spec)
                else:
                    missing_shards.add(trial.shard)
            partial = bool(missing_shards)
            cycle_id = plan.plan_id
            if partial:
                cycle_id = f"{plan.plan_id}+{len(specs)}"
                requeued = self._requeue_missing_shards(
                    plan, sorted(missing_shards)
                )
        if cycle_id in self.store.ingested_ids():
            # Re-diagnose before retiring: heals a crash that landed
            # between the journal commit and the diagnosis writes.
            diagnosed = self._ingest_flight_sidecars(entry)
            self._move_entry(entry, "done")
            return IngestReport(
                source=entry.name,
                cycle_id=cycle_id,
                kind=kind,
                partial=partial,
                skipped=True,
                diagnosed=diagnosed,
            )
        with tracing.span(
            "service.ingest", source=entry.name, trials=len(specs)
        ):
            try:
                # Fleet caches may hold early-terminated trials
                # (repro.core.earlystop); folding replays whatever the
                # fleet measured, so truncated entries are results here,
                # not misses.
                records, stats = replay(cache, specs, allow_truncated=True)
            except CacheEntryError as exc:
                raise self._retire_unreadable(entry, exc) from exc
            except CacheMissError as exc:
                self._move_entry(entry, "failed")
                raise ServiceError(
                    f"spool entry {entry.name}: {len(exc.misses)} planned "
                    "trial(s) missing from its cache - folding never "
                    "simulates; entry moved to failed/"
                ) from exc
            # One read per trial serves all three forms the store wants:
            # the payload, the result object and the journal line.
            record = CycleRecord.from_cache_reads(
                cycle_id, entry.name, kind, partial, records
            )
            del records  # the entry bytes live in ``record`` until appended
            self.store.append_cycle(
                record, pre_commit=lambda: _fault("pre-commit")
            )
        _fault("post-commit")
        diagnosed = self._ingest_flight_sidecars(entry)
        self.state["cycles"].append(
            {
                "cycle_id": cycle_id,
                "source": entry.name,
                "kind": kind,
                "partial": partial,
                "trials": len(record.results),
                "ingested_unix": time.time(),
            }
        )
        totals = self.state.setdefault(
            "totals",
            {"cache_hits": 0, "trials_folded": 0, "flight_diagnosed": 0},
        )
        totals["cache_hits"] += stats.cache_hits
        totals["trials_folded"] += len(record.results)
        totals["flight_diagnosed"] += diagnosed
        truncated = [r for r in record.experiment_results() if r.truncated]
        if truncated:
            # Earlystop keys appear only once a truncated trial has been
            # folded, so pre-earlystop status payloads are unchanged.
            totals["trials_truncated"] = (
                totals.get("trials_truncated", 0) + len(truncated)
            )
            totals["sim_sec_saved"] = round(
                totals.get("sim_sec_saved", 0.0)
                + sum(
                    r.earlystop.get("sim_sec_saved", 0.0) for r in truncated
                ),
                3,
            )
        self._save_state()
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

    def windowed_store(self):
        """The store view the site renders (rolling window applied)."""
        return self.store.store_view(last_cycles=self.window_cycles)

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
        third-party submission, seeded per ingested-cycle count the way
        ``Prudentia.run_cycle`` advances seeds per cycle.
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
            base_seed=self.base_seed + len(self.store.cycles()),
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
            try:
                self.ingest_once(**kwargs)
            except ServiceError as exc:
                _log.error("service.ingest_failed", error=str(exc))

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
        return {
            "spool": str(self.spool),
            "out": str(self.out),
            "cycles_ingested": len(self.store.cycles()),
            "trials_total": len(self.store),
            "window_cycles": self.window_cycles,
            "bandwidths_bps": self.store.bandwidths_bps(),
            "pending_entries": pending,
            "submissions": {
                "accepted": len(ledger["accepted"]),
                "rejected": len(ledger["rejected"]),
            },
            "last_cycles": self.state["cycles"][-5:],
            "observability": self._observability_status(),
            "site_index": str(self.site.index_path),
            "next_plan": str(self.out / "next-plan" / "plan.json"),
        }

    def _observability_status(self) -> Dict:
        """Freshness ages and durable obs totals for ``status()``.

        ``last_ingest_age_sec`` is how long since a cycle was folded,
        ``heartbeat_age_sec`` how long since the service loop wrote its
        heartbeat (``None`` before either happens) - the two staleness
        signals an operator watches.  Totals accumulate across restarts
        via the service state (legacy states report zeros).
        """
        now = time.time()
        ingest_times = [
            entry["ingested_unix"]
            for entry in self.state["cycles"]
            if entry.get("ingested_unix") is not None
        ]
        heartbeat_age = None
        try:
            beat = Heartbeat.load(self.out / "heartbeat.json")
            heartbeat_age = round(beat.age_sec(now), 1)
        except (OSError, HeartbeatError):
            pass
        totals = self.state.get("totals") or {
            "cache_hits": 0,
            "trials_folded": 0,
            "flight_diagnosed": 0,
        }
        return {
            "last_ingest_age_sec": (
                round(now - max(ingest_times), 1) if ingest_times else None
            ),
            "heartbeat_age_sec": heartbeat_age,
            "totals": dict(totals),
            "diagnoses_published": len(
                list((self.out / "diagnoses").glob("*/*.json"))
            )
            if (self.out / "diagnoses").is_dir()
            else 0,
        }
