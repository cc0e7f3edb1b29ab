"""The traced run: per-layer numbers, measured from outside.

One ``--trace 1`` run times a few untraced bodies (the base), then runs
the body three more times: with only the program's own ``repro.obs``
spans on; with those plus the benchmark's spans and method wrappers; and,
for the simulating workloads, under ``cProfile``.  cProfile inflates
Python calls and not native code, so its rows are reported as *shares* of
the profiled pass, never as seconds.  Layer probes (scheduler, cache,
convergence, process pool) run last, each on the workload it informs.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import random
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro import units
from repro.config import ExperimentConfig, NetworkConfig, TrialPolicyConfig
from repro.core.cache import TrialCache
from repro.core.convergence import ConvergenceTracker
from repro.core.policy import TrialPolicy
from repro.core.runner import InlineBackend, ProcessPoolBackend, TrialSpec
from repro.netsim.engine import build_engine
from repro.obs import tracing

from . import harness, spans as spanlib, spec
from .workloads import Workload, synth_result


# ----------------------------------------------------------------------
# Traced passes
# ----------------------------------------------------------------------


def _with_program_spans(path: Path, fn: Callable[[], Dict]) -> Tuple[Dict, List[Dict]]:
    """Run ``fn`` with ``repro.obs.tracing`` on; return its spans too."""
    tracing.configure(path)
    try:
        result = fn()
    finally:
        tracing.disable()
    return result, tracing.read_spans(path)


def profile_shares(stats: pstats.Stats) -> Dict[str, float]:
    """``tottime`` grouped by source file into PROFILE_ROWS shares.

    A file matches the first row whose pattern it contains, so
    ``cca/bbr.py`` lands in ``cca.bbr`` and the remaining ``cca/`` files
    in ``cca.other``.
    """
    totals = {stem: 0.0 for stem, _files in spec.PROFILE_ROWS}
    whole = 0.0
    for (filename, _line, _func), row in stats.stats.items():
        tottime = row[2]
        whole += tottime
        path = filename.replace("\\", "/")
        if "/repro/" not in path:
            continue
        for stem, patterns in spec.PROFILE_ROWS:
            if any(pattern in path for pattern in patterns):
                totals[stem] += tottime
                break
    return {stem: (total / whole if whole else 0.0) for stem, total in totals.items()}


def traced_run(
    workload: Workload, workdir: Path, trace_out: Optional[Path]
) -> Dict:
    """Everything a ``--trace 1`` run measures, as one dict."""
    base = harness.run_bodies(
        workload, workdir, seconds=0.0, min_repeats=spec.TRACE_BASE_REPEATS
    )
    base_wall = harness.quartiles([p["wall_s"] for p in base])[1]

    obs_only, _records = _with_program_spans(
        workdir / "obs-only.jsonl",
        lambda: harness.timed_body(
            workload, workdir / "body-obs", spanlib.NullSpans()
        ),
    )

    recorder = spanlib.Spans(trace=1)
    traced, program = _with_program_spans(
        workdir / "obs-traced.jsonl",
        lambda: harness.timed_body(workload, workdir / "body-traced", recorder),
    )
    nodes = spanlib.build_tree(
        recorder.records + spanlib.program_records(program)
    )
    root = next(n for n in nodes if n["name"] == "body")
    if trace_out is not None:
        trace_out.write_text(json.dumps(nodes, indent=1))

    passes = base + [obs_only, traced]
    profiled = None
    shares: Dict[str, float] = {}
    if workload.name in ("cold-cycle", "adaptive-earlystop"):
        profiler = cProfile.Profile()
        profiled = harness.timed_body(
            workload,
            workdir / "body-profiled",
            spanlib.NullSpans(),
            runner=profiler.runcall,
        )
        shares = profile_shares(pstats.Stats(profiler))
        passes.append(profiled)

    ops = harness.ledger(passes)
    unattributed = root["self_us"] / max(root["dur_us"], 1)
    if unattributed > spec.MAX_UNATTRIBUTED_FRAC:
        ops["failed"] += 1
        ops["correct"] = False
        ops["failures"].append(
            f"unattributed_frac {unattributed:.3f} > "
            f"{spec.MAX_UNATTRIBUTED_FRAC}"
        )
    ops["attempted"] += 1

    values = {name: 0.0 for name in spec.PER_LAYER_NAMES}
    for name, metric in harness.specific(base, ops).items():
        values[name] = metric["value"]
    for stem, share in shares.items():
        values[f"{stem}.self_share"] = share
    values.update(_span_metrics(nodes, root, traced))
    values["obs.tracing.overhead_frac"] = obs_only["wall_s"] / base_wall - 1
    values["trace_overhead_frac"] = traced["wall_s"] / base_wall - 1
    if profiled is not None:
        values["profile_overhead_frac"] = profiled["wall_s"] / base_wall - 1
    values["unattributed_frac"] = unattributed
    values.update(PROBES[workload.name](workload, workdir))
    return {
        "values": values,
        "ops": ops,
        "table": spanlib.render_table(nodes, root),
        "traced_host_speed": traced["host_speed"],
        "report_sha256": traced["outcome"].get("report_sha256"),
    }


def _span_metrics(nodes: List[Dict], root: Dict, traced: Dict) -> Dict[str, float]:
    """Per-layer values read off the traced body's tree and outcome.

    Span seconds take the traced body's raw-to-quiet factor, so they are
    in the same quiet-box seconds as the end-to-end numbers.
    """
    rows = spanlib.by_name(nodes)
    outcome, counters = traced["outcome"], traced["counters"]
    quiet = traced["wall_s"] / traced["raw_wall_s"]

    def total(name: str) -> float:
        return rows.get(name, {}).get("total_s", 0.0) * quiet

    def count(name: str) -> float:
        return float(rows.get(name, {}).get("count", 0))

    run_shard_s = total("fleet.worker.run_shard")
    dispatch_s = outcome.get("dispatch_s", 0.0) * quiet
    lookups = counters["cache.hits"] + counters["cache.misses"]
    merge = outcome.get("merge", {})
    earlystop = outcome.get("earlystop", {})
    values = {
        "netsim.events_per_pkt": (
            counters["sim.events"] / counters["sim.packets"]
            if counters["sim.packets"]
            else 0.0
        ),
        "netsim.queue_drops": counters["sim.queue_drops"],
        "span.sim.run.total_s": total("sim.run"),
        "span.sim.run.count": count("sim.run"),
        "core.runner.dispatch_s": dispatch_s,
        "fleet.worker.run_shard_s": run_shard_s,
        "fleet.worker.nonsim_s": max(run_shard_s - dispatch_s, 0.0),
        "core.cache.bytes_written": counters["cache.bytes_written"],
        "core.cache.hit_ratio": (
            counters["cache.hits"] / lookups if lookups else 0.0
        ),
        "fleet.plan.plan_cycle_s": total("fleet.plan.plan_cycle"),
        "fleet.plan.write_s": total("fleet.plan.write"),
        "fleet.plan.trials": outcome.get("planned_trials", 0),
        "fleet.merge.merge_shards_s": total("fleet.merge.merge_shards"),
        "fleet.merge.entries_copied": merge.get("entries_merged", 0),
        "fleet.merge.duplicates": merge.get("duplicates", 0),
        "fleet.assemble.assemble_reports_s": total(
            "fleet.assemble.assemble_reports"
        ),
        "core.report.to_json_s": total("core.report.to_json"),
        "core.report.render_s": total("core.report.render_heatmap"),
        "fleet.adaptive.rounds": outcome.get("rounds", 0),
        "fleet.adaptive.nondispatch_s": max(
            total("fleet.adaptive.run_adaptive_cycle") - run_shard_s, 0.0
        )
        if "rounds" in outcome
        else 0.0,
        "fleet.adaptive.trials_saved": outcome.get("trials_saved", 0),
        "core.earlystop.trials_truncated": earlystop.get("trials_truncated", 0),
        "core.earlystop.sim_sec_saved": earlystop.get("sim_sec_saved", 0.0),
        "core.earlystop.audit_mispredict_rate": earlystop.get(
            "audit_mispredict_rate"
        )
        or 0.0,
        "service.coordinator.ingest_entry_s": total(
            "service.coordinator.ingest_entry"
        ),
        "service.coordinator.write_next_plan_s": total(
            "service.coordinator.write_next_plan"
        ),
        "service.coordinator.process_submissions_s": total(
            "service.coordinator.process_submissions"
        ),
        "service.store.append_cycle_s": total("service.store.append_cycle"),
        "service.store.compact_s": total("service.store.compact"),
        "service.store.replay_s": total("service.store.replay"),
        "service.store.store_view_s": total("service.store.store_view"),
        "service.store.bytes": outcome.get("store_bytes", 0),
        "service.site.regenerate_s": total("service.site.regenerate"),
        "service.site.sections_changed": outcome.get("sections_changed", 0),
    }
    return {name: float(value) for name, value in values.items()}


# ----------------------------------------------------------------------
# Layer probes
# ----------------------------------------------------------------------

ENGINE_PROBE_EVENTS = 150_000
CACHE_PROBE_ENTRIES = 400
CONVERGENCE_PROBE_PAIRS = 8
CONVERGENCE_PROBE_SHARES = 30
PROCESS_PROBE_TRIALS = 8


def _quiet_seconds(fn: Callable[[], object]) -> float:
    """Wall time of ``fn`` in quiet-box seconds (see ``HostNoise``)."""
    return harness.timed(fn)["wall_s"]


def engine_events_per_s() -> float:
    """Pure ``build_engine()`` schedule/run rate: 64 self-clocking chains
    cycling three serialisation steps and one path hop, no transport."""
    engine = build_engine()
    delays = (240, 240, 240, 24_400)
    budget = [ENGINE_PROBE_EVENTS]

    def make_chain(phase: int):
        state = [phase]

        def step() -> None:
            if budget[0] <= 0:
                return
            budget[0] -= 1
            state[0] += 1
            engine.schedule(delays[state[0] & 3] + (state[0] * 37 & 0xFF), step)

        return step

    def run() -> None:
        for index in range(64):
            engine.schedule(index * 393 % sum(delays), make_chain(index))
        engine.run()

    seconds = _quiet_seconds(run)
    return engine.events_scheduled / seconds


def cache_probe(workload: Workload, workdir: Path) -> Dict[str, float]:
    """Per-entry cost of a put, a disk read and a memory re-read."""
    plan = workload.plan()
    specs = [t.spec for t in plan.trials[:CACHE_PROBE_ENTRIES]]
    rng = random.Random(workload.seed)
    results = [synth_result(s, rng) for s in specs]
    cache_dir = workdir / "cache-probe"
    writer = TrialCache(cache_dir)
    reader = TrialCache(cache_dir)

    def put_all() -> None:
        for one, result in zip(specs, results):
            writer.put(one, result)

    def get_all() -> None:
        for one in specs:
            reader.get(one)

    put_s = _quiet_seconds(put_all)
    disk_s = _quiet_seconds(get_all)
    mem_s = _quiet_seconds(get_all)
    per = 1e6 / len(specs)
    return {
        "core.cache.put_us_per_entry": put_s * per,
        "core.cache.get_disk_us_per_entry": disk_s * per,
        "core.cache.get_mem_us_per_entry": mem_s * per,
    }


def convergence_probe(workload: Workload, workdir: Path) -> Dict[str, float]:
    """30 synthetic shares per pair through ``record_trial`` and one
    ``evaluate_pair`` (the bootstrap), per pair."""
    rng = random.Random(workload.seed)
    pairs = [(f"svc{i:02d}", f"svc{i + 1:02d}") for i in range(CONVERGENCE_PROBE_PAIRS)]
    policy = TrialPolicy(
        TrialPolicyConfig(
            min_trials=CONVERGENCE_PROBE_SHARES,
            max_trials=CONVERGENCE_PROBE_SHARES,
            batch_size=CONVERGENCE_PROBE_SHARES,
        )
    )
    tracker = ConvergenceTracker(pairs, policy, base_seed=workload.seed)

    def fold_all() -> None:
        for pair in pairs:
            for _ in range(CONVERGENCE_PROBE_SHARES):
                tracker.record_trial(
                    pair,
                    {
                        pair[0]: rng.uniform(0.1, 0.9) * 4e6,
                        pair[1]: rng.uniform(0.1, 0.9) * 4e6,
                    },
                )
            tracker.evaluate_pair(pair)

    wall = _quiet_seconds(fold_all)
    return {"core.convergence.evaluate_us_per_pair": wall * 1e6 / len(pairs)}


def process_overhead_probe(workload: Workload, workdir: Path) -> float:
    """The same 8 Mbps specs inline and through a one-worker process
    pool; the difference per trial is what spawning, pickling and the
    worker's catalog rebuild cost."""
    network = NetworkConfig(bandwidth_bps=units.mbps(8))
    config = ExperimentConfig().scaled(3.0)
    specs = [
        TrialSpec.pair("iperf_cubic", "iperf_bbr", network, config, seed=workload.seed + i)
        for i in range(PROCESS_PROBE_TRIALS)
    ]
    inline_s = _quiet_seconds(lambda: InlineBackend().run(specs))
    pool_s = _quiet_seconds(lambda: ProcessPoolBackend(max_workers=1).run(specs))
    return (pool_s - inline_s) / len(specs)


def _cold_probes(workload: Workload, workdir: Path) -> Dict[str, float]:
    return {
        "netsim.engine.events_per_s": engine_events_per_s(),
        "core.runner.process_overhead_s_per_trial": process_overhead_probe(
            workload, workdir
        ),
    }


PROBES: Dict[str, Callable[[Workload, Path], Dict[str, float]]] = {
    "cold-cycle": _cold_probes,
    "warm-replan": cache_probe,
    "adaptive-earlystop": convergence_probe,
    "service-ingest": lambda workload, workdir: {},
}
