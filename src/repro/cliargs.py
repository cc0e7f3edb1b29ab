"""Arguments several ``repro`` commands share, declared once.

``repro pair|cycle|sweep``, ``repro fleet plan|run-shard|cycle`` and
``repro obs flight record`` take the same network, protocol, backend,
early-termination and trial-policy flags, ``repro sweep`` / ``repro
fleet plan sweep`` the same sweep arguments, and every command reading
or writing a trial cache the same ``--cache-dir``.  Each group is added
by one function here and turned into its config object by one builder,
so a flag has one type, one default and one meaning everywhere; a
heatmap or sweep curve is printed by one function too.  (A module of
its own because :mod:`repro.cli` imports the sub-CLIs at load time.)
Where commands word a flag's help differently, the caller passes the
wording; everything else about the flag lives here.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from typing import List, Optional, Sequence

from . import units
from .config import ExperimentConfig, NetworkConfig, TrialPolicyConfig
from .core.earlystop import EarlyStopConfig, EarlyStopModel
from .core.report import FairnessReport
from .core.runner import BACKEND_KINDS
from .core.sweep import SWEEP_KINDS, SweepPoint, render_sweep


def reporting_errors(label: str, *errors: type):
    """Wrap a command function so each of ``errors`` ends it with exit 1
    and one ``<label> error: ...`` line on stderr, not a traceback."""

    def wrap(func):
        def runner(args) -> int:
            try:
                return func(args)
            except errors as exc:
                print(f"{label} error: {exc}", file=sys.stderr)
                return 1

        return runner

    return wrap


def add_network_args(parser: argparse.ArgumentParser) -> None:
    """``--bandwidth --buffer-bdp --duration --seed``: one trial setting."""
    parser.add_argument(
        "--bandwidth", type=positive_float, default=8.0,
        help="bottleneck bandwidth in Mbps (default: 8)",
    )
    parser.add_argument(
        "--buffer-bdp", type=positive_float, default=4.0,
        help="queue size as a BDP multiple (default: 4)",
    )
    parser.add_argument(
        "--duration", type=duration, default=60.0,
        help="experiment duration in seconds (default: 60)",
    )
    parser.add_argument("--seed", type=int, default=1)


def network_from_args(args) -> NetworkConfig:
    """The bottleneck ``--bandwidth`` / ``--buffer-bdp`` describe."""
    return NetworkConfig(
        bandwidth_bps=units.mbps(args.bandwidth),
        buffer_bdp_multiple=args.buffer_bdp,
    )


def config_from_args(args) -> ExperimentConfig:
    """The paper's protocol scaled to ``--duration`` seconds."""
    return ExperimentConfig().scaled(args.duration)


def _values(text: str) -> List[float]:
    """``--values``' type: comma-separated finite numbers, else a usage
    error (exit 2)."""
    return [finite_float(item) for item in text.split(",")]


def add_sweep_args(parser: argparse.ArgumentParser) -> None:
    """``kind service_a service_b --values``: what one sweep varies."""
    parser.add_argument("kind", choices=list(SWEEP_KINDS))
    parser.add_argument("service_a")
    parser.add_argument("service_b")
    parser.add_argument("--values", type=_values, required=True,
                        help="comma-separated parameter values")


def add_backend_arg(parser: argparse.ArgumentParser, text: str) -> None:
    """``--backend``: the execution substrate by name."""
    parser.add_argument(
        "--backend", choices=list(BACKEND_KINDS), default=None, help=text
    )


def positive_int(text: str) -> int:
    """The type of every count flag (``--workers``, ``--trials``,
    ``--shards``, ...): an integer >= 1, else a usage error (exit 2)."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1: {text!r}")
    return int(text)


def finite_float(text: str) -> float:
    """A finite number (each ``--values`` item), else a usage error
    (exit 2)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number: {text!r}")
    return value


def positive_float(text: str) -> float:
    """The type of every rate, size and interval flag (``--bandwidth``,
    ``--buffer-bdp``, ``--poll-sec``, each ``--plan-bandwidths`` item):
    a finite number > 0, else a usage error (exit 2)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"expected a number > 0: {text!r}")
    return value


def positive_floats(text: str) -> List[float]:
    """A comma-separated list of :func:`positive_float` values."""
    return [positive_float(item) for item in text.split(",")]


def duration(text: str) -> float:
    """The type of every experiment-duration flag (``--duration``,
    ``--plan-duration``): seconds > 0 that
    :meth:`~repro.config.ExperimentConfig.scaled` turns into a positive
    measurement window, else a usage error (exit 2)."""
    seconds = positive_float(text)
    try:
        ExperimentConfig().scaled(seconds)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected seconds that leave a positive measurement window: "
            f"{text!r}"
        ) from None
    return seconds


def non_negative_int(text: str) -> int:
    """The type of every retry budget (``--max-retries``): an integer
    >= 0, else a usage error (exit 2)."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0: {text!r}")
    return int(text)


def add_cache_dir_arg(
    parser: argparse.ArgumentParser, text: str, required: bool = True
) -> None:
    """``--cache-dir``: a trial cache directory."""
    parser.add_argument("--cache-dir", required=required, help=text)


def add_record_flight_arg(parser: argparse.ArgumentParser) -> None:
    """``--record-flight``: flight-record every simulated trial."""
    parser.add_argument(
        "--record-flight", action="store_true",
        help="flight-record simulated trials: the recordings land as "
             "cache sidecars",
    )


def add_workers_arg(parser: argparse.ArgumentParser, text: str) -> None:
    """``--workers``: the process-pool size."""
    parser.add_argument("--workers", type=positive_int, default=None, help=text)


def add_earlystop_args(parser: argparse.ArgumentParser) -> None:
    """``--earlystop --earlystop-audit``: arm trial-level early stop."""
    parser.add_argument(
        "--earlystop", default=None, metavar="MODEL.json",
        help="arm trial-level early termination with this model "
             "artifact (train one with 'repro earlystop fit')",
    )
    parser.add_argument(
        "--earlystop-audit", type=float, default=0.05,
        help="fraction of armed trials audited at full length to "
             "measure the mispredict rate (default: 0.05)",
    )


def earlystop_from_args(args) -> Optional[EarlyStopConfig]:
    """The armed configuration from the ``--earlystop`` knobs, or
    ``None`` when the command is unarmed (or has no such flags)."""
    if getattr(args, "earlystop", None) is None:
        return None
    return EarlyStopConfig(
        model=EarlyStopModel.load(args.earlystop),
        audit_fraction=args.earlystop_audit,
    )


def add_policy_args(
    parser: argparse.ArgumentParser,
    min_help: str,
    max_help: str,
    batch_help: str,
    ci_help: str,
) -> None:
    """``--min-trials --max-trials --batch-size --ci-mbps``: the Section
    3.4 stopping rule's knobs, all defaulting to the paper's."""
    for flag, kind, text in (
        ("--min-trials", positive_int, min_help),
        ("--max-trials", positive_int, max_help),
        ("--batch-size", positive_int, batch_help),
        ("--ci-mbps", positive_float, ci_help),
    ):
        parser.add_argument(flag, type=kind, default=None, help=text)


def policy_from_args(args) -> Optional[TrialPolicyConfig]:
    """An explicit trial policy from the knobs given (the paper's
    defaults for the rest), or ``None`` - the paper's per-bandwidth
    policy - when none was given."""
    given = {
        "min_trials": args.min_trials,
        "max_trials": args.max_trials,
        "batch_size": args.batch_size,
        "ci_halfwidth_bps": None if args.ci_mbps is None
        else units.mbps(args.ci_mbps),
    }
    given = {name: value for name, value in given.items() if value is not None}
    return TrialPolicyConfig(**given) if given else None


def print_heatmap(report: FairnessReport) -> None:
    """A report as commands print it: the heatmap, then who loses."""
    print(report.render_heatmap())
    stats = report.losing_service_stats()
    if stats:
        print(f"\nmedian losing share: "
              f"{stats['median_losing_share'] * 100:.0f}%")
        print(f"most contentious: {report.most_contentious()}  |  "
              f"least contentious: {report.least_contentious()}")


def print_sweep(
    points: Sequence[SweepPoint],
    kind: str,
    id_a: str,
    id_b: str,
    as_json: bool,
) -> None:
    """A sweep curve as commands print it: the points as JSON, or the
    table on the kind's axis."""
    if as_json:
        print(json.dumps([dataclasses.asdict(p) for p in points], indent=1))
        return
    print(render_sweep(points, id_a, id_b, SWEEP_KINDS[kind].label))
