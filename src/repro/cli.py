"""Command-line interface: ``python -m repro <command>``.

A thin operational layer over the library, mirroring how the live
watchdog is driven:

- ``services``  - list the catalog (Table 1)
- ``solo``      - calibrate one service uncontended
- ``pair``      - run one pair experiment and print both MmF shares
- ``cycle``     - run an all-pairs watchdog cycle and print the heatmap
- ``classify``  - run the CCA classifier on a named controller
- ``sweep``     - fairness vs bandwidth/buffer/RTT/loss for one pair
- ``fleet``     - sharded multi-host execution: plan / run-shard /
  merge / status / report (see :mod:`repro.fleet.cli`)
- ``earlystop`` - train the trial-level early-termination stop rule from
  a cached corpus; arm it via ``--earlystop`` on ``pair``/``cycle`` and
  the fleet commands (see :mod:`repro.core.earlystop`)
- ``obs``       - observability artifacts: span-trace summaries, Chrome
  trace export, heartbeat inspection (see :mod:`repro.obs.cli`)
- ``service``   - long-running watchdog coordinator: spool ingestion,
  rolling result store, incremental findings site, submissions
  (see :mod:`repro.service.cli`)

Performance has no subcommand: ``python3 benchmarks/pipeline/run.py``
measures whole cycles, and the tier-1 budget tests pin exact per-packet
and per-trial work counts.

Global flags (before the subcommand): ``--log-level``/``--log-json``
route the library's structured diagnostics to stderr, ``--trace-file``
records wall-clock spans for the whole invocation to a JSONL file that
``repro obs summarize`` digests.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from . import units
from .cca.bbr import BBRv1, BBR_LINUX_4_15, BBR_LINUX_5_15
from .cca.bbrv3 import BBRv3
from .cca.classifier import CCAClassifier
from .cca.cubic import Cubic
from .cca.reno import NewReno
from .cca.vegas import Vegas
from .cliargs import (
    add_backend_arg,
    add_cache_dir_arg,
    add_earlystop_args,
    add_network_args,
    add_policy_args,
    add_sweep_args,
    add_workers_arg,
    config_from_args,
    duration,
    earlystop_from_args,
    network_from_args,
    policy_from_args,
    positive_int,
    print_heatmap,
    print_sweep,
    reporting_errors,
)
from .config import TrialPolicyConfig
from .core.cache import CacheEntryError, TrialCache
from .core.earlystop import EarlyStopModelError
from .core.runner import (
    ExecutionBackend,
    RunnerStats,
    TrialSpec,
    build_backend,
)
from .core.sweep import run_sweep
from .core.watchdog import Prudentia
from .fleet.cli import register as register_fleet
from .obs import tracing
from .obs.cli import register as register_obs
from .obs.log import LEVELS, configure as configure_logging, get_logger
from .service.cli import register as register_service
from .services.catalog import default_catalog

_log = get_logger("cli")

CCA_FACTORIES = {
    "reno": lambda: NewReno(),
    "cubic": lambda: Cubic(),
    "bbr": lambda: BBRv1(BBR_LINUX_4_15, seed=1),
    "bbr-5.15": lambda: BBRv1(BBR_LINUX_5_15, seed=1),
    "bbrv3": lambda: BBRv3(seed=1),
    "vegas": lambda: Vegas(),
}


def _cache(args) -> "TrialCache | None":
    if getattr(args, "cache_dir", None):
        return TrialCache(args.cache_dir)
    return None


def _backend(args) -> ExecutionBackend:
    """The execution backend CLI commands dispatch trials through."""
    return build_backend(
        kind=getattr(args, "backend", None),
        workers=getattr(args, "workers", None),
        cache=_cache(args),
        earlystop=earlystop_from_args(args),
    )


def _print_runner_stats(args, stats: Optional[RunnerStats]) -> None:
    """One structured summary of execution counters (only when caching)."""
    if not getattr(args, "cache_dir", None) or stats is None:
        return
    _log.info(
        "runner.stats",
        trials_run=stats.trials_run,
        cache_hits=stats.cache_hits,
        wall_clock_sec=round(stats.wall_clock_sec, 2),
    )


def _add_runner_args(parser: argparse.ArgumentParser) -> None:
    add_workers_arg(
        parser, "fan trials out over N worker processes (default: inline)"
    )
    add_backend_arg(
        parser,
        "execution substrate (default: process when --workers is set, "
        "else inline)",
    )
    add_cache_dir_arg(
        parser,
        "content-addressed trial cache directory; re-runs skip "
        "already-simulated trials",
        required=False,
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    add_network_args(parser)
    parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )


def cmd_services(args) -> int:
    """List the service catalog (Table 1)."""
    catalog = default_catalog()
    rows = []
    for service_id in catalog.ids():
        spec = catalog.get(service_id)
        rows.append(
            {
                "id": spec.service_id,
                "name": spec.display_name,
                "category": spec.category,
                "cca": spec.cca_label,
                "flows": spec.num_flows,
            }
        )
    if args.json:
        print(json.dumps(rows, indent=1))
        return 0
    print(f"{'id':<16} {'category':<14} {'cca':<26} {'flows':>5}  name")
    for row in rows:
        print(
            f"{row['id']:<16} {row['category']:<14} {row['cca']:<26} "
            f"{row['flows']:>5}  {row['name']}"
        )
    return 0


def cmd_solo(args) -> int:
    """Calibrate one service uncontended."""
    spec = TrialSpec.solo(
        args.service,
        network_from_args(args),
        config_from_args(args),
        seed=args.seed,
    )
    result = _backend(args).run([spec])[0]
    if args.json:
        print(json.dumps(result.to_json(), indent=1))
        return 0
    sid = args.service
    print(f"{sid}: {result.throughput_mbps(sid):.2f} Mbps solo "
          f"(loss {result.loss_rate[sid] * 100:.2f}%, "
          f"mean queueing delay "
          f"{result.queueing_delay_usec[sid] / 1000:.1f} ms)")
    return 0


def cmd_pair(args) -> int:
    """Run one pair experiment and print both MmF shares."""
    backend = _backend(args)
    spec = TrialSpec.pair(
        args.service_a,
        args.service_b,
        network_from_args(args),
        config_from_args(args),
        seed=args.seed,
    )
    result = backend.run([spec])[0]
    _print_runner_stats(args, backend.stats)
    if args.json:
        print(json.dumps(result.to_json(), indent=1))
        return 0
    print(f"bottleneck {args.bandwidth:.0f} Mbps, "
          f"{result.buffer_packets}-packet queue, "
          f"utilization {result.utilization * 100:.0f}%")
    for sid in result.throughput_bps:
        print(
            f"  {sid:<16} {result.throughput_mbps(sid):>7.2f} Mbps  "
            f"{result.mmf_share[sid] * 100:>5.0f}% of MmF share  "
            f"loss {result.loss_rate[sid] * 100:.2f}%"
        )
    return 0


def _cycle_policy_overrides(args) -> "dict | None":
    """Trial policy for ``repro cycle``.

    Default: a fixed trial count (``--trials`` per pair, no early stop).
    With ``--adaptive``: the paper's stopping rule (min 10, batches of
    10 to 30, CI-gated), optionally tuned via ``--min-trials`` /
    ``--max-trials`` / ``--batch-size`` / ``--ci-mbps``; ``None`` lets
    :class:`Prudentia` pick :func:`trial_policy_for` per network.
    """
    if args.adaptive:
        policy = policy_from_args(args)
    else:
        policy = TrialPolicyConfig.fixed(args.trials)
    return {units.mbps(args.bandwidth): policy} if policy else None


def cmd_cycle(args) -> int:
    """Run an all-pairs watchdog cycle and print the heatmap."""
    watchdog = Prudentia(
        networks=[network_from_args(args)],
        experiment_config=config_from_args(args),
        policy_overrides=_cycle_policy_overrides(args),
        base_seed=args.seed,
        cache=_cache(args),
        earlystop=earlystop_from_args(args),
    )
    ids = args.services or watchdog.catalog.heatmap_ids()
    watchdog.run_cycle(
        service_ids=ids,
        backend=watchdog.backend(args.backend, args.workers),
    )
    stats = watchdog.last_cycle_stats
    _print_runner_stats(args, stats)
    if stats is not None and (stats.trials_truncated or stats.trials_audited):
        print(stats.earlystop_summary(), file=sys.stderr)
    report = watchdog.report(network_from_args(args), service_ids=ids)
    if args.json:
        print(json.dumps(report.to_json(), indent=1))
        return 0
    print_heatmap(report)
    return 0


def cmd_earlystop_fit(args) -> int:
    """Train the early-termination stop rule from a cached corpus.

    Reads full-length flight-recorded trials (records written with a
    ``flight`` sidecar - warm a cache with ``fleet run-shard
    --record-flight`` or any flight-recorded run),
    calibrates the threshold rule offline against their final
    throughput shares, and writes the versioned model artifact that
    ``--earlystop`` flags consume.
    """
    from .core.earlystop import fit_model

    cache = TrialCache(args.cache_dir)
    corpus = []
    window_usec = 0
    skipped_truncated = 0
    skipped_no_window = 0
    for key in cache.sidecar_keys("flight"):
        payload = cache.payload_for(key)
        if (payload.get("earlystop") or {}).get("truncated"):
            skipped_truncated += 1  # only full trials are ground truth
            continue
        flight = cache.get_sidecar(key, "flight")
        if (flight.get("queue") or {}).get("window_row") is None:
            skipped_no_window += 1  # recorded before the window-open field
            continue
        corpus.append((flight, payload["throughput_bps"]))
        window_usec = max(window_usec, int(payload["duration_usec"]))
    if not corpus:
        print(
            f"no full-length flight-recorded trials in {args.cache_dir} "
            f"({skipped_truncated} truncated, {skipped_no_window} without a "
            "recorded window-open skipped); warm a cache with a "
            "flight-recorded run first "
            "(e.g. 'repro fleet run-shard ... --record-flight')",
            file=sys.stderr,
        )
        return 1
    try:
        model = fit_model(
            corpus,
            # The recorded grid, never one inferred from sample spacing:
            # the model is served on exactly the grid it names.
            grid_usec=corpus[0][0]["grid_usec"],
            window_usec=window_usec,
            target_share_error=args.target_share_error,
            target_mispredict_rate=args.target_mispredict_rate,
        )
    except ValueError as exc:  # the corpus mixes sampling grids
        print(f"cannot fit from {args.cache_dir}: {exc}", file=sys.stderr)
        return 1
    model.save(args.out)
    summary = {
        "model_id": model.model_id,
        "trained_on": model.trained_on,
        "skipped_truncated": skipped_truncated,
        "skipped_no_window": skipped_no_window,
        "grid_usec": model.grid_usec,
        "min_horizon_usec": model.min_horizon_usec,
        "epsilon_share": model.epsilon_share,
        "consecutive": model.consecutive,
        "out": str(args.out),
    }
    if args.json:
        print(json.dumps(summary, indent=1))
        return 0
    print(
        f"fit model {model.model_id} from {model.trained_on} full-length "
        f"trial(s) ({skipped_truncated} truncated, {skipped_no_window} "
        f"without a recorded window-open skipped) -> {args.out}"
    )
    print(
        f"  grid {model.grid_usec / 1000:.0f} ms, min horizon "
        f"{model.min_horizon_usec / 1e6:.1f} s, epsilon_share "
        f"{model.epsilon_share}, consecutive {model.consecutive}, "
        f"drop burst {model.max_drop_burst}"
    )
    return 0


def cmd_classify(args) -> int:
    """Classify a named congestion controller."""
    factory = CCA_FACTORIES.get(args.cca)
    if factory is None:
        print(f"unknown CCA {args.cca!r}; choices: {sorted(CCA_FACTORIES)}",
              file=sys.stderr)
        return 2
    classifier = CCAClassifier(duration_sec=args.duration, seed=args.seed)
    reportobj = classifier.run(factory)
    if args.json:
        print(json.dumps(reportobj.__dict__, indent=1))
        return 0
    print(f"label: {reportobj.label}")
    print(f"  mean queue fraction: {reportobj.mean_queue_fraction:.2f}")
    print(f"  ramp linearity:      {reportobj.ramp_linearity:.3f}")
    print(f"  deep dips:           {reportobj.deep_dip_count}")
    print(f"  loss rate:           {reportobj.loss_rate * 100:.2f}%")
    return 0


def cmd_sweep(args) -> int:
    """Fairness vs one network setting for one pair: the trials ``fleet
    plan sweep`` plans for the same arguments."""
    backend = _backend(args)
    points = run_sweep(
        args.kind,
        args.service_a,
        args.service_b,
        args.values,
        config_from_args(args),
        base_network=network_from_args(args),
        trials=args.trials,
        base_seed=args.seed,
        backend=backend,
    )
    _print_runner_stats(args, backend.stats)
    print_sweep(points, args.kind, args.service_a, args.service_b, args.json)
    return 0


#: A damaged cache entry or model file is exit 1 and one clean line, as
#: under ``fleet`` and ``service``.
_wrap = reporting_errors("repro", CacheEntryError, EarlyStopModelError)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Prudentia Internet-fairness watchdog (simulated)",
    )
    parser.add_argument(
        "--log-level", choices=list(LEVELS), default="info",
        help="stderr diagnostic verbosity (default: info)",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit diagnostics as JSON lines instead of text",
    )
    parser.add_argument(
        "--trace-file", default=None, metavar="PATH",
        help="record wall-clock spans for this invocation to a JSONL "
             "file (inspect with 'repro obs summarize')",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("services", help="list the service catalog")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_wrap(cmd_services))

    p = sub.add_parser("solo", help="calibrate one service uncontended")
    p.add_argument("service")
    _add_common(p)
    p.set_defaults(func=_wrap(cmd_solo))

    p = sub.add_parser("pair", help="run one pair experiment")
    p.add_argument("service_a")
    p.add_argument("service_b")
    _add_common(p)
    _add_runner_args(p)
    add_earlystop_args(p)
    p.set_defaults(func=_wrap(cmd_pair))

    p = sub.add_parser("cycle", help="run an all-pairs watchdog cycle")
    p.add_argument("--services", nargs="*", default=None)
    p.add_argument(
        "--trials", type=positive_int, default=3,
        help="fixed trials per pair (ignored with --adaptive; default: 3)",
    )
    p.add_argument(
        "--adaptive", action="store_true",
        help="use the paper's CI-gated stopping rule (min 10 trials, "
             "batches of 10 up to 30) instead of a fixed --trials count",
    )
    add_policy_args(
        p,
        "adaptive: trials before the first convergence check",
        "adaptive: cap before a pair is flagged unstable",
        "adaptive: trials added per round while a pair is open",
        "adaptive: 95%% CI half-width (Mbps) that counts as converged",
    )
    _add_common(p)
    _add_runner_args(p)
    add_earlystop_args(p)
    p.set_defaults(func=_wrap(cmd_cycle))

    p = sub.add_parser(
        "earlystop",
        help="trial-level early termination: train the stop-rule model",
    )
    earlystop_sub = p.add_subparsers(dest="earlystop_command", required=True)
    p = earlystop_sub.add_parser(
        "fit", help="calibrate the stop rule from a cached trial corpus"
    )
    add_cache_dir_arg(
        p, "cache directory holding full-length flight-recorded trials"
    )
    p.add_argument(
        "--out", required=True, metavar="MODEL.json",
        help="where to write the versioned model artifact",
    )
    p.add_argument(
        "--target-share-error", type=float, default=0.05,
        help="max tolerated |predicted - final| throughput share "
             "(default: 0.05)",
    )
    p.add_argument(
        "--target-mispredict-rate", type=float, default=0.0,
        help="max tolerated fraction of corpus trials mispredicted "
             "(default: 0 - the rule must be right on every trial)",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_wrap(cmd_earlystop_fit))

    p = sub.add_parser("classify", help="classify a congestion controller")
    p.add_argument("cca", help=f"one of {sorted(CCA_FACTORIES)}")
    p.add_argument("--duration", type=duration, default=30.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_wrap(cmd_classify))

    p = sub.add_parser("sweep", help="fairness vs a network parameter")
    add_sweep_args(p)
    p.add_argument("--trials", type=positive_int, default=3)
    _add_common(p)
    _add_runner_args(p)
    p.set_defaults(func=_wrap(cmd_sweep))

    register_fleet(sub)
    register_obs(sub)
    register_service(sub)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(level=args.log_level, json_mode=args.log_json)
    if args.trace_file:
        tracing.configure(args.trace_file)
    try:
        with tracing.span("cli.command", command=args.command):
            return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0
    finally:
        if args.trace_file:
            tracing.disable()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
