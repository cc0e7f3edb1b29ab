"""``python -m repro fleet ...`` - the multi-host operational surface.

The subcommands mirror the fleet stages:

- ``fleet plan cycle|sweep`` - enumerate the trial matrix, partition it
  by cache-key hash, write ``plan.json`` + ``shard-<i>.json`` manifests
- ``fleet run-shard``        - execute one manifest into a cache dir
  (runs on any host; ship the manifest there and the cache dir back)
- ``fleet merge``            - union shard caches, verifying receipts,
  schema versions, duplicates, and coverage against the plan
- ``fleet status``           - diff receipt coverage against the plan
  mid-run: done / running / stalled / missing shards, trial counts;
  pointed at an adaptive cycle directory it shows per-round
  convergence progress instead
- ``fleet retry``            - emit attempt-bumped manifests for shards
  ``fleet status`` reports missing or stalled
- ``fleet report``           - rebuild the fairness report / sweep curve
  from the merged cache with zero re-simulation
- ``fleet cycle``            - the adaptive multi-round driver: plan ->
  run -> merge -> re-plan until every pair converges or caps out
  (Section 3.4), with receipt recovery via retries

A two-shard local walkthrough lives in the README's multi-host section;
CI runs it end-to-end and asserts the assembled report equals the
single-host one.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..cliargs import (
    add_backend_arg,
    add_cache_dir_arg,
    add_earlystop_args,
    add_network_args,
    add_policy_args,
    add_record_flight_arg,
    add_sweep_args,
    add_workers_arg,
    config_from_args,
    earlystop_from_args,
    network_from_args,
    non_negative_int,
    policy_from_args,
    positive_int,
    print_heatmap,
    print_sweep,
    reporting_errors,
)
from ..core.cache import CacheEntryError, TrialCache
from ..core.earlystop import EarlyStopModelError
from ..core.runner import RunnerStats
from ..services.catalog import default_catalog
from ..obs.log import get_logger
from .adaptive import (
    ASSEMBLY_PLAN_FILENAME,
    STATE_FILENAME,
    AdaptiveCycleState,
    run_adaptive_cycle,
)
from .assemble import assemble_reports, assemble_sweep
from .merge import merge_shards
from .plan import (
    FleetError,
    load_manifest,
    load_plan,
    plan_cycle,
    plan_sweep,
    trial_rows,
    write_manifest,
)
from .status import DEFAULT_STALL_SEC, fleet_status, retry_manifests
from .worker import run_shard

_log = get_logger("fleet")


def _earlystop(args):
    """Earlystop config JSON from ``--earlystop`` knobs, or ``None``."""
    config = earlystop_from_args(args)
    return config.to_json() if config is not None else None


def cmd_fleet_plan(args) -> int:
    """Write plan.json + per-shard manifests for a cycle or sweep."""
    if args.plan_kind == "cycle":
        ids = args.services or default_catalog().heatmap_ids()
        plan = plan_cycle(
            ids,
            [network_from_args(args)],
            config_from_args(args),
            trials_per_pair=args.trials,
            num_shards=args.shards,
            base_seed=args.seed,
            include_self_pairs=not args.no_self_pairs,
            earlystop=_earlystop(args),
        )
    else:
        plan = plan_sweep(
            args.kind,
            args.service_a,
            args.service_b,
            args.values,
            config_from_args(args),
            num_shards=args.shards,
            base_network=network_from_args(args),
            trials=args.trials,
            base_seed=args.seed,
        )
    paths = plan.write(args.out_dir)
    sizes = [len(plan.shard_trials(s)) for s in range(plan.num_shards)]
    print(
        f"planned {len(plan.trials)} trials into {plan.num_shards} shards "
        f"{sizes} (plan {plan.plan_id[:12]}...)"
    )
    for path in paths:
        print(f"  {path}")
    return 0


def cmd_fleet_run_shard(args) -> int:
    """Execute one shard manifest into a cache directory."""
    receipt = run_shard(
        args.manifest,
        args.cache_dir,
        backend_kind=args.backend,
        workers=args.workers,
        record_flight=args.record_flight,
    )
    stats = receipt.stats
    print(
        f"shard {receipt.shard_index}/{receipt.num_shards}: "
        f"{stats.trials_total} trials done "
        f"({stats.trials_run} simulated, {stats.cache_hits} cache hits, "
        f"{stats.wall_clock_sec:.1f}s simulating) -> {args.cache_dir}"
    )
    if args.record_flight:
        recorded = set(TrialCache(args.cache_dir).sidecar_keys("flight"))
        planned = {
            row[4]
            for _spec, row in trial_rows(
                load_manifest(args.manifest), with_shard=False
            )
        }
        print(
            f"  flight recordings: "
            f"{len(recorded & planned)} trial(s) "
            "(flight sidecars in the cache dir's record logs)"
        )
    if stats.trials_truncated or stats.trials_audited:
        print(
            f"  earlystop: {stats.trials_truncated} truncated "
            f"({stats.sim_sec_saved:.1f} sim-seconds saved), "
            f"{stats.trials_audited} audited full-length, "
            f"{stats.audit_mispredicts} mispredicted"
        )
    return 0


def cmd_fleet_merge(args) -> int:
    """Union shard cache directories against a plan."""
    plan = load_plan(args.plan)
    report = merge_shards(
        plan,
        args.shard_dirs,
        args.into,
        allow_gaps=args.allow_gaps,
    )
    print(
        f"merged {report.entries_merged} entries from {report.shards} "
        f"shards into {args.into} "
        f"({report.duplicates} duplicates, {report.extras} extras, "
        f"{len(report.gaps)} gaps; fleet simulated "
        f"{report.stats.trials_run} trials in "
        f"{report.stats.wall_clock_sec:.1f}s)"
    )
    if report.superseded_entries:
        print(
            f"  resolved {report.superseded_entries} truncated-vs-full "
            "duplicate entr"
            f"{'y' if report.superseded_entries == 1 else 'ies'} "
            "(full-length wins)"
        )
    for index, stats in sorted(report.per_shard_stats.items()):
        print(
            f"  shard {index}: {stats.trials_run} simulated, "
            f"{stats.cache_hits} cache hits, "
            f"{stats.wall_clock_sec:.1f}s simulating"
        )
    if report.gaps:
        print(f"WARNING: {len(report.gaps)} planned trials uncovered",
              file=sys.stderr)
    return 0


def cmd_fleet_status(args) -> int:
    """Diff on-disk shard coverage against the plan, mid-run safe.

    Exit code 0 when every shard is done, 1 while work remains (so the
    command doubles as a completion probe in wait loops).  Pointed at an
    adaptive cycle directory (one holding ``cycle-state.json``) instead
    of a ``plan.json``, it reports per-round convergence progress.
    """
    target = Path(args.plan)
    if target.is_dir() and (target / STATE_FILENAME).exists():
        state = AdaptiveCycleState.load(target)
        if args.json:
            print(json.dumps(state.progress_json(), indent=1))
        else:
            print(state.render_progress())
        return 0 if state.done else 1
    plan = load_plan(args.plan)
    status = fleet_status(plan, args.dirs, stall_sec=args.stall_sec)
    if args.json:
        print(json.dumps(status.to_json(), indent=1))
    else:
        print(status.render())
    return 0 if status.complete else 1


def cmd_fleet_retry(args) -> int:
    """Write attempt-bumped manifests for missing/stalled shards."""
    plan = load_plan(args.plan)
    status = fleet_status(plan, args.dirs, stall_sec=args.stall_sec)
    manifests = retry_manifests(plan, status, attempt=args.attempt)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for manifest in manifests:
        path = (
            out
            / f"shard-{manifest['shard_index']}"
              f"-attempt{manifest['attempt']}.json"
        )
        write_manifest(path, manifest)
        print(
            f"shard {manifest['shard_index']} attempt "
            f"{manifest['attempt']}: {path}"
        )
    if not manifests:
        print("all shards done; nothing to retry")
    return 0


def cmd_fleet_cycle(args) -> int:
    """Run an adaptive multi-round cycle to convergence."""
    ids = args.services or default_catalog().heatmap_ids()
    policy = policy_from_args(args)
    state = run_adaptive_cycle(
        args.out_dir,
        ids,
        [network_from_args(args)],
        config_from_args(args),
        policies=[policy] if policy is not None else None,
        num_shards=args.shards,
        base_seed=args.seed,
        backend_kind=args.backend,
        workers=args.workers,
        max_retries=args.max_retries,
        earlystop=_earlystop(args),
    )
    summary = {
        "cycle_id": state.cycle_id,
        "rounds": state.round_index,
        "trials_done": state.trials_done_total(),
        "trials_cap": state.trials_cap_total(),
        "trials_saved": state.trials_saved(),
        "verdicts": [t.counts() for t in state.trackers],
        "unstable_pairs": [
            ["|".join(pair) for pair in t.unstable_pairs()]
            for t in state.trackers
        ],
        "out_dir": str(args.out_dir),
    }
    earlystop_rollup = state.progress_json().get("earlystop")
    if earlystop_rollup is not None:
        summary["earlystop"] = earlystop_rollup
    if args.json:
        print(json.dumps(summary, indent=1))
        return 0
    print(state.render_progress())
    if earlystop_rollup is not None:
        print(
            RunnerStats.from_json(earlystop_rollup).earlystop_summary(
                audits=False
            )
        )
    print(
        f"converged in {state.round_index} round(s): "
        f"{state.trials_done_total()} trials run, "
        f"{state.trials_saved()} saved vs the fixed "
        f"{state.trials_cap_total()}-trial plan"
    )
    print(
        f"assemble the report with: repro fleet report --plan "
        f"{Path(args.out_dir) / ASSEMBLY_PLAN_FILENAME} "
        f"--cache-dir {Path(args.out_dir) / 'cache'}"
    )
    return 0


def cmd_fleet_report(args) -> int:
    """Assemble the published artifact from a merged cache."""
    plan = load_plan(args.plan)
    cache = TrialCache(Path(args.cache_dir))
    if plan.kind == "sweep":
        print_sweep(
            assemble_sweep(plan, cache),
            plan.params["sweep_kind"],
            plan.params["service_id_a"],
            plan.params["service_id_b"],
            args.json,
        )
        return 0
    reports = assemble_reports(plan, cache)
    if args.json:
        payload = [r.to_json() for r in reports]
        print(json.dumps(payload[0] if len(payload) == 1 else payload,
                         indent=1))
    else:
        for report in reports:
            print_heatmap(report)
    assembly = reports[0].runner_stats
    _log.info(
        "fleet.assembled",
        trials_run=assembly.trials_run,
        cache_hits=assembly.cache_hits,
    )
    return 0


_wrap = reporting_errors(
    "fleet", FleetError, CacheEntryError, EarlyStopModelError
)


def register(sub: argparse._SubParsersAction) -> None:
    """Attach the ``fleet`` command tree to the top-level CLI."""
    fleet = sub.add_parser(
        "fleet", help="sharded multi-host trial execution"
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)

    plan = fleet_sub.add_parser(
        "plan", help="enumerate + partition a trial matrix"
    )
    plan_sub = plan.add_subparsers(dest="plan_kind", required=True)

    def add_plan_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--shards", type=positive_int, required=True,
                       help="number of shards to partition into")
        p.add_argument("--out-dir", required=True,
                       help="directory for plan.json + shard manifests")
        p.add_argument("--trials", type=positive_int, default=3)
        add_network_args(p)

    p = plan_sub.add_parser("cycle", help="all-pairs watchdog cycle")
    p.add_argument("--services", nargs="*", default=None)
    p.add_argument("--no-self-pairs", action="store_true")
    add_plan_common(p)
    add_earlystop_args(p)
    p.set_defaults(func=_wrap(cmd_fleet_plan))

    p = plan_sub.add_parser("sweep", help="pair parameter sweep")
    add_sweep_args(p)
    add_plan_common(p)
    p.set_defaults(func=_wrap(cmd_fleet_plan))

    p = fleet_sub.add_parser(
        "run-shard", help="execute one shard manifest on this host"
    )
    p.add_argument("manifest", help="shard-<i>.json written by fleet plan")
    add_cache_dir_arg(p, "cache directory to execute into")
    add_backend_arg(p, "execution substrate (default: process when "
                       "--workers is set, else inline)")
    add_workers_arg(p, "process-pool size")
    add_record_flight_arg(p)
    p.set_defaults(func=_wrap(cmd_fleet_run_shard))

    p = fleet_sub.add_parser(
        "merge", help="union shard caches, verify against the plan"
    )
    p.add_argument("shard_dirs", nargs="+",
                   help="shard cache directories to merge")
    p.add_argument("--plan", required=True, help="plan.json path")
    p.add_argument("--into", required=True,
                   help="destination merged cache directory")
    p.add_argument("--allow-gaps", action="store_true",
                   help="tolerate planned trials missing from the union")
    p.set_defaults(func=_wrap(cmd_fleet_merge))

    p = fleet_sub.add_parser(
        "status", help="diff shard receipt coverage against the plan, "
                       "or show an adaptive cycle's round progress"
    )
    p.add_argument("plan", help="plan.json path, or an adaptive cycle "
                                "directory holding cycle-state.json")
    p.add_argument("dirs", nargs="*",
                   help="shard cache directories (or parents of them); "
                        "unused for adaptive cycle directories")
    p.add_argument("--stall-sec", type=float, default=DEFAULT_STALL_SEC,
                   help="flag receipt-less shards with no write newer "
                        "than this as stalled (default: 600)")
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable JSON")
    p.set_defaults(func=_wrap(cmd_fleet_status))

    p = fleet_sub.add_parser(
        "retry", help="write attempt-bumped manifests for shards "
                      "status reports missing or stalled"
    )
    p.add_argument("plan", help="plan.json path")
    p.add_argument("dirs", nargs="+",
                   help="shard cache directories (or parents of them)")
    p.add_argument("--out-dir", required=True,
                   help="directory for the retry manifests")
    p.add_argument("--attempt", type=positive_int, default=None,
                   help="explicit attempt number (default: best seen + 1)")
    p.add_argument("--stall-sec", type=float, default=DEFAULT_STALL_SEC,
                   help="flag receipt-less shards with no write newer "
                        "than this as stalled (default: 600)")
    p.set_defaults(func=_wrap(cmd_fleet_retry))

    p = fleet_sub.add_parser(
        "cycle", help="adaptive multi-round cycle: plan/run/merge/re-plan "
                      "until the Section 3.4 stopping rule retires "
                      "every pair"
    )
    p.add_argument("--services", nargs="*", default=None)
    p.add_argument("--shards", type=positive_int, default=2,
                   help="shards per round (default: 2)")
    p.add_argument("--out-dir", required=True,
                   help="cycle directory (state, round plans, cache)")
    add_policy_args(
        p,
        "trial policy floor (default: paper's 10)",
        "trial policy cap (default: paper's 30)",
        "trials added per round past the floor (default: paper's 10)",
        "CI half-width threshold in Mbps (default: the paper's "
        "per-bandwidth threshold)",
    )
    add_network_args(p)
    add_backend_arg(p, "execution substrate for shard workers")
    add_workers_arg(p, "process-pool size per shard")
    p.add_argument("--max-retries", type=non_negative_int, default=2,
                   help="receipt-recovery re-dispatches per shard per "
                        "round (default: 2)")
    add_earlystop_args(p)
    p.add_argument("--json", action="store_true",
                   help="emit a machine-readable cycle summary")
    p.set_defaults(func=_wrap(cmd_fleet_cycle))

    p = fleet_sub.add_parser(
        "report", help="assemble the report from a merged cache"
    )
    p.add_argument("--plan", required=True, help="plan.json path")
    add_cache_dir_arg(p, "merged cache directory")
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable JSON")
    p.set_defaults(func=_wrap(cmd_fleet_report))
