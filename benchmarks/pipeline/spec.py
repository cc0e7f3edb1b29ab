"""Names the benchmark is built from: workloads, sizes, metric tables.

``BENCHMARK.json`` at the repo root is the driver-facing copy of these
tables; ``test_smoke.py`` fails when the two disagree.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

#: Every end-to-end timing is the median over at least this many bodies.
MIN_REPEATS = 5

#: ``setup_s`` is the median over this many complete set-ups per run.
SETUP_ROUNDS = 3

#: Untraced bodies a ``--trace 1`` run times before its traced passes
#: (the base of ``trace_overhead_frac``).
TRACE_BASE_REPEATS = 3

#: A traced run fails when more of the body than this lies outside
#: every top-level span.
MAX_UNATTRIBUTED_FRAC = 0.05

WORKLOADS: List[Tuple[str, str]] = [
    (
        "cold-cycle",
        "simulation-bound: 4 mixed bulk/ABR/RTC services x 8/50 Mbps into "
        "empty caches; netsim, transport, cca, services do >=90% of the "
        "wall, the control plane almost none",
    ),
    (
        "warm-replan",
        "zero simulations: the same call sequence over pre-filled shard "
        "caches, so plan, cache reads, receipts, merge, assemble, report "
        "do all the work; a simulator change must not move it",
    ),
    (
        "adaptive-earlystop",
        "many short truncated trials over three rounds: per-trial set-up, "
        "earlystop checkpoints, manifests, receipts and convergence folds "
        "carry weight that cold-cycle's long trials hide",
    ),
    (
        "service-ingest",
        "no simulation: spool ingest, journal append+fsync, compaction, "
        "store replay, site render and next-plan writing as the store "
        "grows; write path beside read path",
    ),
]

WORKLOAD_NAMES = [name for name, _why in WORKLOADS]

#: The four services of the simulating workloads: two bulk CCAs, an ABR
#: video client and an RTC call, so no single CCA path dominates.
SIM_SERVICES = ("iperf_cubic", "iperf_bbr", "netflix", "meet")

#: Workload shapes.  ``full`` is what ``BENCHMARK.json`` measures: every
#: body is sized to ~1.5-2 s on a quiet 2-core box so that ~10 bodies
#: and SETUP_ROUNDS set-ups fit one ``run_seconds`` window.  ``smoke`` is
#: the reduced shape ``test_smoke.py`` runs.
SIZES: Dict[str, Dict[str, Dict]] = {
    "full": {
        "cold-cycle": dict(
            services=SIM_SERVICES, mbps=(8, 50), duration_s=5.0,
            trials_per_pair=1, shards=2,
        ),
        "warm-replan": dict(
            services=None, mbps=(8, 50), duration_s=15.0,
            trials_per_pair=6, shards=4,
        ),
        "adaptive-earlystop": dict(
            services=SIM_SERVICES, mbps=(8,), duration_s=10.0,
            policy=dict(min_trials=2, max_trials=6, batch_size=2),
            self_pairs=False, audit_fraction=0.05, shards=2,
        ),
        "service-ingest": dict(
            services=None, mbps=(8, 50), duration_s=15.0,
            trials_per_pair=1, cycles=5,
        ),
    },
    "smoke": {
        "cold-cycle": dict(
            services=SIM_SERVICES, mbps=(8, 50), duration_s=3.0,
            trials_per_pair=1, shards=2,
        ),
        "warm-replan": dict(
            services=None, mbps=(8, 50), duration_s=3.0,
            trials_per_pair=2, shards=4,
        ),
        "adaptive-earlystop": dict(
            services=SIM_SERVICES, mbps=(8,), duration_s=3.0,
            policy=dict(min_trials=2, max_trials=4, batch_size=2),
            self_pairs=False, audit_fraction=0.05, shards=2,
        ),
        "service-ingest": dict(
            services=None, mbps=(8, 50), duration_s=3.0,
            trials_per_pair=2, cycles=2,
        ),
    },
}


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    bound: Optional[float] = None


#: What a user of the pipeline sees, defined on every workload and never
#: zero (the driver's rule).  The workload-specific end-to-end numbers
#: (simulation rates, ingest latencies) and the exact counts are listed
#: under PER_LAYER instead, where a zero is allowed.
#:
#: These bounds are what the driver rejects a later change on, and they
#: must exceed what the box does to an unchanged commit: across two sets
#: of 10 runs the corrected medians moved by up to 7% and one workload's
#: run values spread 11% (README, "Host noise").  ``compare`` judges at
#: COMPARE_BOUNDS instead and says ``unresolved`` when the data is too
#: wide to tell.
END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", 0.25),
    Metric("cycle_wall_s", "s", "lower", 0.25),
    Metric("cycle_cpu_s", "s", "lower", 0.25),
    Metric("trials_per_s", "1/s", "higher", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.10),
]

#: Source files whose cProfile ``tottime`` is reported as a share of the
#: profiled pass, keyed by the row's metric stem.
PROFILE_ROWS: List[Tuple[str, Tuple[str, ...]]] = [
    ("netsim.engine", ("netsim/engine.py",)),
    ("netsim.link", ("netsim/link.py",)),
    ("netsim.queue", ("netsim/queue.py",)),
    ("netsim.trace", ("netsim/trace.py",)),
    ("transport.connection", ("transport/connection.py",)),
    ("transport.rate_sampler", ("transport/rate_sampler.py",)),
    ("transport.rtt", ("transport/rtt.py",)),
    ("transport.windowed_filter", ("transport/windowed_filter.py",)),
    ("cca.bbr", ("cca/bbr.py", "cca/bbrv3.py")),
    ("cca.cubic", ("cca/cubic.py",)),
    ("cca.gcc", ("cca/gcc.py",)),
    ("cca.other", ("cca/",)),
    ("services", ("services/",)),
    ("core.testbed", ("core/testbed.py", "netsim/topology.py")),
    ("core.experiment", ("core/experiment.py",)),
]


def _m(name: str, unit: str, better: str = "lower") -> Metric:
    return Metric(name, unit, better)


PER_LAYER: List[Metric] = (
    [_m(f"{stem}.self_share", "ratio") for stem, _files in PROFILE_ROWS]
    + [
        # Uncorrected body times and the host speed the noise sampler
        # saw (1.0 = quiet sizing box), from the untraced bodies.
        _m("cycle_wall_raw_s", "s"),
        _m("cycle_cpu_raw_s", "s"),
        _m("host_speed", "ratio", "higher"),
        # Workload-specific end-to-end numbers, from the untraced bodies.
        _m("sim_pkts_per_s", "pkt/s", "higher"),
        _m("sim_sec_per_wall_s", "ratio", "higher"),
        _m("trials_simulated", "count"),
        _m("sim_sec_simulated", "sim-s"),
        _m("ingest_total_s", "s"),
        _m("ingest_last_s", "s"),
        _m("site_refresh_s", "s"),
        _m("failed_ops_frac", "ratio"),
        # Simulator: exact counters and the pure scheduler probe.
        _m("netsim.events_per_pkt", "ratio"),
        _m("netsim.queue_drops", "count"),
        _m("netsim.engine.events_per_s", "1/s", "higher"),
        _m("span.sim.run.total_s", "s"),
        _m("span.sim.run.count", "count"),
        # Runner and shard worker.
        _m("core.runner.dispatch_s", "s"),
        _m("core.runner.process_overhead_s_per_trial", "s"),
        _m("fleet.worker.run_shard_s", "s"),
        _m("fleet.worker.nonsim_s", "s"),
        # Cache.
        _m("core.cache.put_us_per_entry", "us"),
        _m("core.cache.get_disk_us_per_entry", "us"),
        _m("core.cache.get_mem_us_per_entry", "us"),
        _m("core.cache.bytes_written", "bytes"),
        _m("core.cache.hit_ratio", "ratio", "higher"),
        # Plan, merge, assemble, report.
        _m("fleet.plan.plan_cycle_s", "s"),
        _m("fleet.plan.write_s", "s"),
        _m("fleet.plan.trials", "count"),
        _m("fleet.merge.merge_shards_s", "s"),
        _m("fleet.merge.entries_copied", "count"),
        _m("fleet.merge.duplicates", "count"),
        _m("fleet.assemble.assemble_reports_s", "s"),
        _m("core.report.to_json_s", "s"),
        _m("core.report.render_s", "s"),
        # Adaptive rounds, convergence, early termination.
        _m("fleet.adaptive.rounds", "count"),
        _m("fleet.adaptive.nondispatch_s", "s"),
        _m("fleet.adaptive.trials_saved", "count", "higher"),
        _m("core.convergence.evaluate_us_per_pair", "us"),
        _m("core.earlystop.trials_truncated", "count", "higher"),
        _m("core.earlystop.sim_sec_saved", "sim-s", "higher"),
        _m("core.earlystop.audit_mispredict_rate", "ratio"),
        # Service coordinator, store, site.
        _m("service.coordinator.ingest_entry_s", "s"),
        _m("service.coordinator.write_next_plan_s", "s"),
        _m("service.coordinator.process_submissions_s", "s"),
        _m("service.store.append_cycle_s", "s"),
        _m("service.store.compact_s", "s"),
        _m("service.store.replay_s", "s"),
        _m("service.store.store_view_s", "s"),
        _m("service.store.bytes", "bytes"),
        _m("service.site.regenerate_s", "s"),
        _m("service.site.sections_changed", "count"),
        # The harness itself.
        _m("obs.tracing.overhead_frac", "ratio"),
        _m("trace_overhead_frac", "ratio"),
        _m("profile_overhead_frac", "ratio"),
        _m("unattributed_frac", "ratio"),
    ]
)

#: What ``compare`` judges: 10% on every wall/CPU/rate/RSS metric, exact
#: on every count.
COMPARE_BOUNDS: Dict[str, Tuple[str, float]] = {
    **{m.name: (m.better, 0.10) for m in END_TO_END},
    "sim_pkts_per_s": ("higher", 0.10),
    "sim_sec_per_wall_s": ("higher", 0.10),
    "trials_simulated": ("lower", 0.0),
    "sim_sec_simulated": ("lower", 0.0),
    "ingest_total_s": ("lower", 0.10),
    "ingest_last_s": ("lower", 0.10),
    "site_refresh_s": ("lower", 0.10),
    "failed_ops_frac": ("lower", 0.0),
}

END_TO_END_NAMES = [m.name for m in END_TO_END]
PER_LAYER_NAMES = [m.name for m in PER_LAYER]
UNITS: Dict[str, str] = {m.name: m.unit for m in END_TO_END + PER_LAYER}


def benchmark_json(run_seconds: int) -> Dict:
    """The ``BENCHMARK.json`` payload these tables imply."""
    return {
        "command": ["python3", "benchmarks/pipeline/run.py"],
        "paths": ["benchmarks/pipeline"],
        "run_seconds": run_seconds,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
