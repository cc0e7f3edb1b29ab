"""The four workloads and the seeded synthetic-result generator.

Every workload has the same four steps: ``setup`` builds its inputs from
the seed (timed as ``setup_s``), ``prepare`` makes one body's fresh
directories (untimed), ``body`` is the timed closed loop over public
functions, and ``verify`` checks the body's outputs (untimed).  Bodies
take a span recorder; end-to-end passes hand them the no-op one.

Workloads 2 and 4 never simulate.  Their inputs come from
:func:`synth_result`: for every planned ``TrialSpec`` a plausible
``ExperimentResult`` stored with the public ``TrialCache.put``, so keys
are the real content addresses and the program sees only ordinary cache
directories.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro import units
from repro.config import ExperimentConfig, NetworkConfig, TrialPolicyConfig
from repro.core.cache import TrialCache
from repro.core.earlystop import EarlyStopConfig
from repro.core.experiment import ExperimentResult
from repro.core.report import FairnessReport
from repro.core.runner import InlineBackend, RunnerStats, TrialSpec
from repro.fleet import (
    ASSEMBLY_PLAN_FILENAME,
    assemble_reports,
    load_plan,
    merge_shards,
    plan_cycle,
    run_adaptive_cycle,
    run_shard,
)
from repro.service.coordinator import WatchdogService
from repro.service.store import RollingResultStore
from repro.services.catalog import default_catalog


# ----------------------------------------------------------------------
# Seeded synthetic results
# ----------------------------------------------------------------------


def synth_result(spec: TrialSpec, rng: random.Random) -> ExperimentResult:
    """A plausible full-length, valid pair result for ``spec``."""
    a, b = spec.service_ids[0], spec.service_ids[-1]
    ids = (a, b if b != a else f"{b}#2")
    bandwidth = spec.network.bandwidth_bps
    allocation = bandwidth / 2
    shares = {sid: rng.uniform(0.1, 0.9) for sid in ids}
    throughput = {sid: shares[sid] * allocation for sid in ids}
    return ExperimentResult(
        contender_id=ids[0],
        incumbent_id=ids[1],
        bandwidth_bps=bandwidth,
        buffer_packets=spec.network.queue_packets,
        seed=spec.seed,
        duration_usec=spec.config.measure_duration_usec,
        throughput_bps=throughput,
        mmf_allocation_bps={sid: allocation for sid in ids},
        mmf_share=shares,
        loss_rate={sid: rng.uniform(0.0, 0.05) for sid in ids},
        queueing_delay_usec={sid: rng.uniform(1e3, 2e5) for sid in ids},
        service_metrics={
            sid: {
                "mean_selected_bitrate_bps": throughput[sid] * 0.8,
                "current_bitrate_bps": throughput[sid] * 0.7,
                "rebuffer_events": float(rng.randrange(3)),
                "bitrate_switches": float(rng.randrange(6)),
                "buffer_sec": rng.uniform(0.0, 30.0),
                "chunks_fetched": float(rng.randrange(1, 40)),
            }
            for sid in ids
        },
        utilization=sum(throughput.values()) / bandwidth,
        external_loss_fraction=0.0,
    )


def fill_cache(
    cache_dir: Path, specs: Sequence[TrialSpec], rng: random.Random
) -> List[ExperimentResult]:
    """Store one synthetic result per spec under its real cache key."""
    cache = TrialCache(cache_dir)
    results = []
    for spec in specs:
        result = synth_result(spec, rng)
        cache.put(spec, result)
        results.append(result)
    return results


def self_check(seed: int, root: Path, sizes: Dict) -> List[str]:
    """Failed generator checks (empty when the generator is sound).

    Every synthesized entry round-trips ``ExperimentResult.from_json``;
    ``assemble_reports`` over a synthetic cache yields a heatmap with no
    empty off-diagonal cell; another seed changes the inputs but not the
    trial count.
    """
    failures: List[str] = []
    workload = WarmReplan(sizes, seed)
    plan = workload.plan()
    results = fill_cache(
        root / "a", [t.spec for t in plan.trials], random.Random(seed)
    )
    for result in results:
        payload = json.loads(json.dumps(result.to_json()))
        if ExperimentResult.from_json(payload).to_json() != payload:
            failures.append("round-trip")
            break
    if any(not r.valid or r.truncated for r in results):
        failures.append("valid-full-length")
    for report in assemble_reports(plan, TrialCache(root / "a")):
        cells = report.heatmap()
        if any(v is None for (x, y), v in cells.items() if x != y):
            failures.append("heatmap-off-diagonal")
            break
    other = WarmReplan(sizes, seed + 1).plan()
    other_results = fill_cache(
        root / "b", [t.spec for t in other.trials], random.Random(seed + 1)
    )
    if len(other.trials) != len(plan.trials):
        failures.append("seed-changes-trial-count")
    if other.expected_keys() == plan.expected_keys() or [
        r.to_json() for r in other_results
    ] == [r.to_json() for r in results]:
        failures.append("seed-does-not-change-inputs")
    return failures


# ----------------------------------------------------------------------
# Shared pieces
# ----------------------------------------------------------------------


def report_sha256(payloads: Sequence[Dict]) -> str:
    """Digest of the simulated statistics: every report, sorted JSON,
    minus ``runner_stats`` (host timings and cache provenance)."""
    stripped = [
        {k: v for k, v in payload.items() if k != "runner_stats"}
        for payload in payloads
    ]
    blob = json.dumps(stripped, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _networks(mbps: Sequence[float]) -> List[NetworkConfig]:
    return [NetworkConfig(bandwidth_bps=units.mbps(m)) for m in mbps]


def _sim_seconds(stats: RunnerStats, config: ExperimentConfig) -> float:
    """Simulated seconds actually run: the cooldown is never simulated
    and a truncated trial stops ``sim_sec_saved`` short of the window's
    end."""
    full = config.measure_end_usec / units.USEC_PER_SEC
    return stats.trials_run * full - stats.sim_sec_saved


class Workload:
    """Common state (sizes, seed, services, networks, protocol) and the
    four steps every workload implements."""

    name = ""

    def __init__(self, sizes: Dict, seed: int) -> None:
        self.sizes = sizes[self.name]
        self.seed = seed
        self.services = list(
            self.sizes["services"] or default_catalog().ids()
        )
        self.networks = _networks(self.sizes["mbps"])
        self.config = ExperimentConfig().scaled(self.sizes["duration_s"])
        self.root: Optional[Path] = None

    def setup(self, root: Path) -> None:
        """Build the inputs under ``root`` (safe to call repeatedly)."""
        root.mkdir(parents=True, exist_ok=True)
        self.root = root

    def prepare(self, rep: Path) -> None:
        rep.mkdir(parents=True, exist_ok=True)

    def body(self, rep: Path, spans) -> Dict:
        raise NotImplementedError

    def verify(self, outcome: Dict) -> Dict[str, bool]:
        """Named output checks of one body (True = passed)."""
        raise NotImplementedError

    def _warm_up(self, earlystop: Optional[EarlyStopConfig] = None) -> None:
        """One pair trial per network at the workload's own protocol, so
        lazy imports and first-call costs land in set-up, not in the
        first body."""
        InlineBackend(earlystop=earlystop).run(
            [
                TrialSpec.pair(
                    self.services[0],
                    self.services[1],
                    network,
                    self.config,
                    seed=self.seed,
                )
                for network in self.networks
            ]
        )


def _report_outcome(plan, reports, spans) -> Dict:
    with spans.span("core.report.to_json"):
        payloads = [report.to_json() for report in reports]
    with spans.span("core.report.render_heatmap"):
        for report in reports:
            report.render_heatmap()
    folded = len(reports[0].store)
    return {
        "report_payloads": payloads,
        "planned_trials": len(plan.trials),
        "trials": folded,
        # A trial dropped by the external-loss rule is a failed op.
        "attempted_ops": len(plan.trials),
        "failed_ops": len(plan.trials) - folded,
    }


class _FixedCycle(Workload):
    """plan -> write -> run_shard x N -> merge -> assemble -> render."""

    def plan(self):
        return plan_cycle(
            self.services,
            self.networks,
            self.config,
            trials_per_pair=self.sizes["trials_per_pair"],
            num_shards=self.sizes["shards"],
            base_seed=self.seed,
            include_self_pairs=True,
        )

    def shard_dirs(self, rep: Path) -> List[Path]:
        raise NotImplementedError

    def body(self, rep: Path, spans) -> Dict:
        with spans.span("fleet.plan.plan_cycle"):
            plan = self.plan()
        with spans.span("fleet.plan.write"):
            paths = plan.write(rep / "plan")
        shard_dirs = self.shard_dirs(rep)
        stats = RunnerStats()
        for manifest_path, shard_dir in zip(paths[1:], shard_dirs):
            with spans.span("fleet.worker.run_shard"):
                receipt = run_shard(
                    manifest_path, shard_dir, backend_kind="inline"
                )
            stats = stats.merged_with(receipt.stats)
        with spans.span("fleet.merge.merge_shards"):
            merge = merge_shards(plan, shard_dirs, rep / "merged")
        with spans.span("fleet.assemble.assemble_reports"):
            reports = assemble_reports(plan, TrialCache(rep / "merged"))
        outcome = _report_outcome(plan, reports, spans)
        outcome.update(
            trials_simulated=stats.trials_run,
            sim_sec_simulated=_sim_seconds(stats, self.config),
            dispatch_s=stats.wall_clock_sec,
            merge=merge.to_json(),
            assembly_trials_run=reports[0].runner_stats.trials_run,
        )
        return outcome

    def verify(self, outcome: Dict) -> Dict[str, bool]:
        merge = outcome["merge"]
        planned = outcome["planned_trials"]
        return {
            "merge-covers-plan": not merge["gaps"]
            and merge["entries_merged"] + merge["duplicates"] == planned,
            "assembly-simulated-nothing": outcome["assembly_trials_run"] == 0,
            "every-trial-folded": outcome["trials"] == planned,
            "heatmap-off-diagonal-filled": all(
                value is not None
                for payload in outcome["report_payloads"]
                for cell, value in payload["heatmap"].items()
                if len(set(cell.split("|"))) == 2
            ),
        }


class ColdCycle(_FixedCycle):
    name = "cold-cycle"

    def setup(self, root: Path) -> None:
        super().setup(root)
        self._warm_up()

    def shard_dirs(self, rep: Path) -> List[Path]:
        return [rep / f"shard-{s}" for s in range(self.sizes["shards"])]

    def verify(self, outcome: Dict) -> Dict[str, bool]:
        checks = super().verify(outcome)
        checks["every-trial-simulated"] = (
            outcome["trials_simulated"] == outcome["planned_trials"]
        )
        return checks


class WarmReplan(_FixedCycle):
    name = "warm-replan"

    def setup(self, root: Path) -> None:
        super().setup(root)
        plan = self.plan()
        rng = random.Random(self.seed)
        for shard, shard_dir in enumerate(self.shard_dirs(root)):
            fill_cache(
                shard_dir, [t.spec for t in plan.shard_trials(shard)], rng
            )

    def shard_dirs(self, rep: Path) -> List[Path]:
        # Every body reads the same pre-filled shard caches through fresh
        # TrialCache objects; only the merge destination is per body.
        return [
            self.root / f"shard-{s}" for s in range(self.sizes["shards"])
        ]

    def verify(self, outcome: Dict) -> Dict[str, bool]:
        checks = super().verify(outcome)
        checks["zero-simulations"] = outcome["trials_simulated"] == 0
        return checks


class AdaptiveEarlystop(Workload):
    name = "adaptive-earlystop"

    def __init__(self, sizes: Dict, seed: int) -> None:
        super().__init__(sizes, seed)
        # A zero CI half-width is out of reach, so no pair retires before
        # the cap: rounds and trial count are then a function of the
        # shape alone, not of which pairs a seed happens to settle early
        # (with the paper's +/-0.5 Mbps the count moved 170..220 across
        # seeds).  The stopping rule still runs on every batch.
        self.policy = TrialPolicyConfig(
            ci_halfwidth_bps=0.0, **self.sizes["policy"]
        )
        self.earlystop = EarlyStopConfig(
            audit_fraction=self.sizes["audit_fraction"]
        )

    def setup(self, root: Path) -> None:
        super().setup(root)
        self._warm_up(self.earlystop)

    def body(self, rep: Path, spans) -> Dict:
        out = rep / "cycle"

        def dispatch(manifest: Dict, shard_cache: Path) -> None:
            with spans.span("fleet.worker.run_shard"):
                run_shard(manifest, shard_cache, backend_kind="inline")

        with spans.span("fleet.adaptive.run_adaptive_cycle"):
            state = run_adaptive_cycle(
                out,
                self.services,
                self.networks,
                self.config,
                policies=[self.policy],
                num_shards=self.sizes["shards"],
                base_seed=self.seed,
                include_self_pairs=self.sizes["self_pairs"],
                dispatch=dispatch,
                earlystop=self.earlystop.to_json(),
            )
        with spans.span("fleet.plan.load_plan"):
            plan = load_plan(out / ASSEMBLY_PLAN_FILENAME)
        with spans.span("fleet.assemble.assemble_reports"):
            reports = assemble_reports(plan, TrialCache(out / "cache"))
        outcome = _report_outcome(plan, reports, spans)
        stats = RunnerStats()
        for entry in state.history:
            stats = stats.merged_with(
                RunnerStats.from_json(entry["fleet_stats"])
            )
        outcome.update(
            trials_simulated=stats.trials_run,
            sim_sec_simulated=_sim_seconds(stats, self.config),
            dispatch_s=stats.wall_clock_sec,
            done=state.done,
            rounds=state.round_index,
            trials_saved=state.trials_saved(),
            verdicts=[
                sorted(
                    ("|".join(pair), verdict)
                    for pair, verdict in tracker.verdicts().items()
                )
                for tracker in state.trackers
            ],
            earlystop=state.progress_json()["earlystop"],
            assembly_trials_run=reports[0].runner_stats.trials_run,
        )
        return outcome

    def verify(self, outcome: Dict) -> Dict[str, bool]:
        return {
            "state-done": bool(outcome["done"]),
            "assembly-simulated-nothing": outcome["assembly_trials_run"] == 0,
            "every-trial-folded": outcome["trials"]
            == outcome["planned_trials"],
            "earlystop-armed": bool(outcome["earlystop"]["model_id"]),
        }


class ServiceIngest(Workload):
    name = "service-ingest"

    def setup(self, root: Path) -> None:
        super().setup(root)
        rng = random.Random(self.seed)
        self.cycle_trials = 0
        for index in range(self.sizes["cycles"]):
            plan = plan_cycle(
                self.services,
                self.networks,
                self.config,
                trials_per_pair=self.sizes["trials_per_pair"],
                num_shards=1,
                base_seed=self.seed * 1000 + index,
            )
            entry = root / "template" / f"cycle-{index:02d}"
            plan.write(entry)
            fill_cache(entry / "cache", [t.spec for t in plan.trials], rng)
            self.cycle_trials = len(plan.trials)

    def prepare(self, rep: Path) -> None:
        super().prepare(rep)
        # Hard links: ingest only reads and moves the entries, so every
        # body can share the template's bytes.
        shutil.copytree(
            self.root / "template", rep / "staging", copy_function=os.link
        )

    def body(self, rep: Path, spans) -> Dict:
        spool, out = rep / "spool", rep / "out"
        with spans.span("service.coordinator.start"):
            service = WatchdogService(spool, out)
        for attr, name in (
            ("ingest_entry", "service.coordinator.ingest_entry"),
            ("regenerate_site", "service.site.regenerate"),
            ("write_next_plan", "service.coordinator.write_next_plan"),
            ("process_submissions", "service.coordinator.process_submissions"),
        ):
            spans.wrap(service, attr, name)
        for attr in ("append_cycle", "compact", "store_view"):
            spans.wrap(service.store, attr, f"service.store.{attr}")
        passes, ingest_walls = [], []
        for entry in sorted((rep / "staging").iterdir()):
            os.replace(entry, spool / "incoming" / entry.name)
            start = time.perf_counter()
            with spans.span("service.coordinator.ingest_once"):
                passes.append(service.ingest_once())
            ingest_walls.append(time.perf_counter() - start)
        start = time.perf_counter()
        with spans.span("service.store.replay"):
            reopened = RollingResultStore(out / "store")
        replay_s = time.perf_counter() - start
        start = time.perf_counter()
        with spans.span("service.coordinator.site_refresh"):
            refresh = service.ingest_once(full_site_refresh=True)
        refresh_s = time.perf_counter() - start
        ingested = [
            report for result in passes for report in result["ingested"]
        ]
        clean = [
            r for r in ingested if not r["skipped"] and not r["partial"]
        ]
        return {
            "ingest_walls": ingest_walls,
            "replay_s": replay_s,
            "site_refresh_s": refresh_s,
            "ingested": len(ingested),
            "clean_ingests": len(clean),
            "cycles_total": refresh["cycles_total"],
            "reopened_trials": len(reopened),
            "sections_changed": sum(
                len(result["site_sections_changed"]) for result in passes
            ),
            "store_bytes": sum(
                path.stat().st_size for path in (out / "store").iterdir()
            ),
            "index_md": (out / "site" / "index.md").read_text(),
            "reopened": reopened,
            "trials": sum(r["trials"] for r in clean),
            "trials_simulated": 0,
            "sim_sec_simulated": 0.0,
            "dispatch_s": 0.0,
            "attempted_ops": self.sizes["cycles"],
            "failed_ops": self.sizes["cycles"] - len(clean),
        }

    def verify(self, outcome: Dict) -> Dict[str, bool]:
        cycles = self.sizes["cycles"]
        # The published view of the reopened store, outside the body.
        view = outcome.pop("reopened").store_view()
        outcome["report_payloads"] = [
            FairnessReport(view, self.services, n.bandwidth_bps).to_json()
            for n in self.networks
        ]
        index_md = outcome.pop("index_md")
        return {
            "clean-ingests": outcome["ingested"] == cycles
            and outcome["clean_ingests"] == cycles,
            "cycles-total": outcome["cycles_total"] == cycles,
            "site-has-every-bandwidth": all(
                f"{n.bandwidth_bps / 1e6:.0f} Mbps" in index_md
                for n in self.networks
            ),
            "reopened-store-length": outcome["reopened_trials"]
            == cycles * self.cycle_trials,
        }


WORKLOADS = {
    cls.name: cls
    for cls in (ColdCycle, WarmReplan, AdaptiveEarlystop, ServiceIngest)
}
