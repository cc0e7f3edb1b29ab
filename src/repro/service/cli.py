"""``repro service`` subcommands: the watchdog-as-a-service surface.

- ``service run``          - the long-running coordinator loop
- ``service ingest-once``  - a single coordinator pass (cron-style)
- ``service status``       - machine-readable service status
- ``service submit``       - append a submission to the spool file

``run`` and ``ingest-once`` share the same pass (submissions, spool,
site, next plan); ``run`` merely repeats it until SIGTERM, SIGINT, the
stop file, or ``--max-loops``.  ``submit`` only appends a line to
``spool/submissions.jsonl`` - the running coordinator folds it in on its
next pass, so submitters never race the service for catalog state.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from .. import units
from ..cliargs import (
    duration, positive_float, positive_floats, positive_int, reporting_errors,
)
from ..config import ExperimentConfig, NetworkConfig
from ..obs.log import get_logger
from .coordinator import ServiceError, WatchdogService
from .store import StoreError

_log = get_logger("service.cli")


def _service(args) -> WatchdogService:
    networks = [
        NetworkConfig(bandwidth_bps=units.mbps(mbps))
        for mbps in args.plan_bandwidths
    ]
    return WatchdogService(
        args.spool,
        args.out,
        networks=networks,
        plan_config=ExperimentConfig().scaled(args.plan_duration),
        plan_trials=args.plan_trials,
        plan_shards=args.plan_shards,
        base_seed=args.seed,
        window_cycles=args.window_cycles,
        poll_sec=args.poll_sec,
        stop_file=args.stop_file,
    )


def cmd_service_run(args) -> int:
    """Run the coordinator loop until stopped."""
    return _service(args).run(max_loops=args.max_loops)


def cmd_service_ingest_once(args) -> int:
    """One coordinator pass; print what it did."""
    service = _service(args)
    try:
        summary = service.ingest_once()
    except ServiceError as exc:
        _log.error("service.ingest_failed", error=str(exc))
        print(json.dumps({"error": str(exc)}, indent=1))
        return 1
    print(json.dumps(summary, indent=1, sort_keys=True))
    return 0


def cmd_service_status(args) -> int:
    """Print the service's machine-readable status."""
    print(json.dumps(_service(args).status(), indent=1, sort_keys=True))
    return 0


def cmd_service_submit(args) -> int:
    """Append a submission line to the spool file."""
    spool = Path(args.spool)
    spool.mkdir(parents=True, exist_ok=True)
    line = json.dumps(
        {"url": args.url, "access_code": args.access_code},
        sort_keys=True,
    )
    with open(spool / "submissions.jsonl", "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    print(f"queued {args.url} for the next coordinator pass")
    return 0


#: A service error raised outside a pass (an unreadable
#: ``service-state.json`` at start-up) or a store that cannot be trusted
#: is exit 1 and one clean line.
_wrap = reporting_errors("service", ServiceError, StoreError)


def _add_service_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--spool", required=True,
        help="spool directory (incoming/, done/, retry/, submissions)",
    )
    parser.add_argument(
        "--out", required=True,
        help="output directory (store/, site/, next-plan/, heartbeat)",
    )
    parser.add_argument(
        "--window-cycles", type=positive_int, default=None,
        help="rolling retention: keep only the last N ingested cycles "
             "(default: keep everything)",
    )
    parser.add_argument(
        "--plan-trials", type=positive_int, default=3,
        help="trials per pair in the published next plan (default: 3)",
    )
    parser.add_argument(
        "--plan-shards", type=positive_int, default=2,
        help="shards in the published next plan (default: 2)",
    )
    parser.add_argument(
        "--plan-bandwidths", type=positive_floats, default="8,50",
        help="comma-separated bottleneck Mbps for the next plan "
             "(default: 8,50 - the paper's two settings)",
    )
    parser.add_argument(
        "--plan-duration", type=duration, default=60.0,
        help="experiment duration (s) in the next plan (default: 60)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--poll-sec", type=positive_float, default=2.0,
        help="spool poll interval for 'service run' (default: 2)",
    )
    parser.add_argument(
        "--stop-file", default=None,
        help="graceful-stop sentinel path (default: <out>/stop)",
    )


def register(sub) -> None:
    """Attach the ``service`` command group to the main CLI."""
    service = sub.add_parser(
        "service",
        help="long-running watchdog coordinator over a spool directory",
    )
    ssub = service.add_subparsers(dest="service_command", required=True)

    p = ssub.add_parser("run", help="run the coordinator loop")
    _add_service_args(p)
    p.add_argument(
        "--max-loops", type=positive_int, default=None,
        help="stop after N passes (default: run until signalled)",
    )
    p.set_defaults(func=_wrap(cmd_service_run))

    p = ssub.add_parser(
        "ingest-once", help="one coordinator pass, then exit"
    )
    _add_service_args(p)
    p.set_defaults(func=_wrap(cmd_service_ingest_once))

    p = ssub.add_parser("status", help="print service status as JSON")
    _add_service_args(p)
    p.set_defaults(func=_wrap(cmd_service_status))

    p = ssub.add_parser(
        "submit", help="queue a third-party URL submission"
    )
    p.add_argument("url")
    p.add_argument(
        "--spool", required=True, help="spool directory of the service"
    )
    p.add_argument(
        "--access-code", required=True,
        help="Appendix-A access code gating submissions",
    )
    p.set_defaults(func=cmd_service_submit)
