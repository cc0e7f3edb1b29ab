"""``python -m repro obs ...`` - inspect observability artifacts.

Three subcommands over the files the instrumented pipeline produces:

- ``obs summarize <trace.jsonl>`` - per-span-kind duration percentiles
  (count, total, p50/p90/p95/p99, max) from a tracer JSONL file
- ``obs chrome <trace.jsonl>``    - export the trace in Chrome
  ``trace_event`` format for Perfetto / ``chrome://tracing``
- ``obs heartbeat <file>``        - decode a watchdog heartbeat file
  (phase, cycle and trial counts, staleness)
- ``obs flight record|summarize|render`` - run a flight-recorded trial,
  print its diagnosis, or render the ASCII timeline / Chrome counters
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..atomicio import load_json_artifact
from ..cliargs import add_network_args, config_from_args, network_from_args
from . import flight as flight_mod
from .heartbeat import Heartbeat, HeartbeatError, describe
from .tracing import read_spans, render_summary, summarize, to_chrome_trace


def cmd_obs_summarize(args) -> int:
    """Print per-span-kind duration percentiles from a JSONL trace."""
    try:
        spans = read_spans(args.trace)
    except OSError as exc:
        print(f"obs error: cannot read {args.trace}: {exc}", file=sys.stderr)
        return 1
    summary = summarize(spans)
    if args.json:
        print(json.dumps(summary, indent=1, sort_keys=True))
    else:
        print(render_summary(summary))
        if summary:
            print(f"\n{len(spans)} spans, {len(summary)} kinds")
    return 0 if summary else 1


def cmd_obs_chrome(args) -> int:
    """Convert a JSONL trace into a Chrome trace_event JSON file."""
    try:
        spans = read_spans(args.trace)
    except OSError as exc:
        print(f"obs error: cannot read {args.trace}: {exc}", file=sys.stderr)
        return 1
    payload = to_chrome_trace(spans)
    if args.output == "-":
        json.dump(payload, sys.stdout, indent=1)
        print()
    else:
        with open(args.output, "w") as fh:
            json.dump(payload, fh, indent=1)
        print(
            f"wrote {len(payload['traceEvents'])} events to {args.output} "
            "(open in Perfetto or chrome://tracing)"
        )
    return 0


def cmd_obs_heartbeat(args) -> int:
    """Decode a watchdog heartbeat file; exit 1 when stale."""
    try:
        beat = Heartbeat.load(args.heartbeat)
    except (OSError, HeartbeatError) as exc:
        print(f"obs error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        payload = beat.to_json()
        payload["age_sec"] = round(beat.age_sec(), 3)
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        print(describe(beat))
    stale = (
        args.stale_after is not None and beat.age_sec() > args.stale_after
        and beat.phase != "done"
    )
    if stale:
        print(
            f"WARNING: heartbeat is {beat.age_sec():.0f}s old "
            f"(threshold {args.stale_after:.0f}s) - watchdog stalled?",
            file=sys.stderr,
        )
        return 1
    return 0


def _load_flight(path: str):
    """A recording, as :class:`~repro.obs.flight.FlightRecorder` reads
    and rewrites it, or ``None`` after naming what is wrong with it."""
    try:
        return load_json_artifact(
            Path(path),
            lambda raw: flight_mod.FlightRecorder.from_json(raw).to_json(),
            "flight recording",
            ValueError,
        )
    except (OSError, ValueError) as exc:
        print(f"obs error: {exc}", file=sys.stderr)
        return None


def cmd_obs_flight_record(args) -> int:
    """Run one flight-recorded pair trial and write the recording JSON."""
    from ..core.experiment import run_trial_artifacts
    from ..services.catalog import default_catalog

    catalog = default_catalog()
    try:
        specs = [catalog.get(sid) for sid in args.services]
    except KeyError as exc:
        print(f"obs error: {exc}", file=sys.stderr)
        return 1
    recorder = flight_mod.FlightRecorder(grid_usec=args.grid_usec)
    run_trial_artifacts(
        specs,
        network_from_args(args),
        config_from_args(args),
        seed=args.seed,
        recorders=[recorder],
    )
    payload = recorder.to_json()
    encoded = json.dumps(payload, indent=1, sort_keys=True)
    if args.out == "-":
        print(encoded)
    else:
        with open(args.out, "w") as fh:
            fh.write(encoded + "\n")
        samples = sum(
            len(c.times_usec) for c in recorder.connections.values()
        )
        print(
            f"recorded {len(recorder.connections)} connection(s), "
            f"{samples} samples to {args.out}"
        )
    return 0


def cmd_obs_flight_summarize(args) -> int:
    """Print the per-trial diagnosis derived from a flight recording."""
    payload = _load_flight(args.recording)
    if payload is None:
        return 1
    diagnosis = flight_mod.diagnose(payload)
    if args.json:
        print(json.dumps(diagnosis, indent=1, sort_keys=True))
    else:
        print(flight_mod.render_summary(diagnosis))
        print()
        print("why is this unfair:")
        for line in flight_mod.explain_unfairness(diagnosis):
            print(f"- {line}")
    return 0


def cmd_obs_flight_render(args) -> int:
    """Render a flight recording: ASCII timeline and/or Chrome counters."""
    payload = _load_flight(args.recording)
    if payload is None:
        return 1
    print(flight_mod.render_timeline(payload, width=args.width))
    if args.chrome is not None:
        events = flight_mod.to_chrome_counters(payload)
        if args.spans is not None:
            try:
                spans = read_spans(args.spans)
            except OSError as exc:
                print(
                    f"obs error: cannot read {args.spans}: {exc}",
                    file=sys.stderr,
                )
                return 1
            events = to_chrome_trace(spans)["traceEvents"] + events
        with open(args.chrome, "w") as fh:
            json.dump({"traceEvents": events}, fh, indent=1)
        print(
            f"wrote {len(events)} counter/span events to {args.chrome} "
            "(open in Perfetto or chrome://tracing)"
        )
    return 0


def register(sub: argparse._SubParsersAction) -> None:
    """Attach the ``obs`` command tree to the top-level CLI."""
    obs = sub.add_parser(
        "obs", help="inspect metrics / trace / heartbeat artifacts"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    p = obs_sub.add_parser(
        "summarize", help="per-span-kind duration percentiles"
    )
    p.add_argument("trace", help="span JSONL file written via --trace-file")
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable JSON")
    p.set_defaults(func=cmd_obs_summarize)

    p = obs_sub.add_parser(
        "chrome", help="export a trace for Perfetto / chrome://tracing"
    )
    p.add_argument("trace", help="span JSONL file written via --trace-file")
    p.add_argument("--output", "-o", default="trace-chrome.json",
                   help="output file, or '-' for stdout")
    p.set_defaults(func=cmd_obs_chrome)

    p = obs_sub.add_parser(
        "heartbeat", help="decode a watchdog heartbeat file"
    )
    p.add_argument("heartbeat", help="heartbeat JSON file")
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable JSON (with age_sec)")
    p.add_argument("--stale-after", type=float, default=None,
                   help="exit 1 when the heartbeat is older than this "
                        "many seconds (and not done)")
    p.set_defaults(func=cmd_obs_heartbeat)

    fl = obs_sub.add_parser(
        "flight", help="simulation-time flight recordings (repro.obs.flight)"
    )
    fl_sub = fl.add_subparsers(dest="flight_command", required=True)

    p = fl_sub.add_parser(
        "record", help="run one flight-recorded trial, write the recording"
    )
    p.add_argument("services", nargs="+",
                   help="service ids to contend (one = solo run)")
    add_network_args(p)
    p.add_argument("--grid-usec", type=int,
                   default=flight_mod.DEFAULT_GRID_USEC,
                   help="sampling grid in simulated usec (default: 100000)")
    p.add_argument("--out", "-o", default="flight.json",
                   help="recording output file, or '-' for stdout")
    p.set_defaults(func=cmd_obs_flight_record)

    p = fl_sub.add_parser(
        "summarize",
        help="dwell times, queue/throughput shares, unfairness diagnosis",
    )
    p.add_argument("recording", help="flight recording JSON file")
    p.add_argument("--json", action="store_true",
                   help="emit the machine-readable diagnosis")
    p.set_defaults(func=cmd_obs_flight_summarize)

    p = fl_sub.add_parser(
        "render", help="ASCII timeline + optional Chrome counter export"
    )
    p.add_argument("recording", help="flight recording JSON file")
    p.add_argument("--width", type=int, default=60,
                   help="timeline width in characters (default: 60)")
    p.add_argument("--chrome", default=None,
                   help="also write Chrome counter-track JSON here")
    p.add_argument("--spans", default=None,
                   help="merge wall-clock spans from this JSONL trace "
                        "into the --chrome export")
    p.set_defaults(func=cmd_obs_flight_render)
