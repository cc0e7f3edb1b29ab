"""Command line of the pipeline benchmark.

One workload in this interpreter (the form ``BENCHMARK.json`` names)::

    python3 benchmarks/pipeline/run.py --workload cold-cycle --seed 1 \
        --seconds 20 --trace 0

prints every metric by name with its unit and, as the last line of
standard output, one JSON object ``{correct, attempted, failed,
metrics}``.  ``--trace 1`` prints the per-layer table and metrics instead.

``all`` runs every workload in a fresh interpreter each and writes a
results file; ``compare A B`` is the A/B tool; ``spread FILE`` prints the
run-to-run spread of every end-to-end metric; ``selfcheck`` checks the
synthetic-result generator.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

from . import compare as comparelib
from . import harness, spec

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Scratch space inside the checkout (git-ignored, removed on exit).
WORK_ROOT = REPO_ROOT / ".bench_work"

DEFAULT_RESULTS = REPO_ROOT / "benchmarks" / "results" / "pipeline.json"


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: str = "full",
    trace_out: Optional[Path] = None,
) -> Dict:
    """Run one workload in this interpreter; return the detail object."""
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    try:
        workload = harness.make_workload(name, seed, scale)
        setup_walls = harness.run_setups(workload, workdir)
        detail: Dict = {"workload": name, "seed": seed, "scale": scale}
        if trace:
            from . import layers

            traced = layers.traced_run(workload, workdir, trace_out)
            ops = traced["ops"]
            detail.update(
                trace=1,
                table=traced["table"],
                traced_host_speed=traced["traced_host_speed"],
                report_sha256=traced["report_sha256"],
                metrics={
                    name: {"value": value, "unit": spec.UNITS[name]}
                    for name, value in traced["values"].items()
                },
            )
        else:
            min_repeats = spec.MIN_REPEATS if scale == "full" else 1
            passes = harness.run_bodies(workload, workdir, seconds, min_repeats)
            ops = harness.ledger(passes)
            outcome = passes[-1]["outcome"]
            detail.update(
                trace=0,
                bodies=len(passes),
                report_sha256=outcome.get("report_sha256"),
                metrics=harness.end_to_end(setup_walls, passes),
                specific=harness.specific(passes, ops),
            )
        detail.update(
            correct=ops["correct"],
            attempted=ops["attempted"],
            failed=ops["failed"],
            failures=ops["failures"],
        )
        return detail
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def result_line(detail: Dict) -> str:
    """The driver-facing JSON object (last line of standard output)."""
    return json.dumps(
        {
            "correct": detail["correct"],
            "attempted": detail["attempted"],
            "failed": detail["failed"],
            "metrics": {
                name: {"value": metric["value"], "unit": metric["unit"]}
                for name, metric in detail["metrics"].items()
            },
        }
    )


def render(detail: Dict) -> str:
    """Human-readable report of one run: every metric, name and unit."""
    head = (
        f"workload {detail['workload']}  seed {detail['seed']}  "
        f"scale {detail['scale']}  trace {detail['trace']}"
    )
    lines = [head]
    if detail["trace"]:
        lines += [
            "",
            "traced body, raw host seconds (host_speed "
            f"{detail['traced_host_speed']:.2f}):",
            detail["table"],
            "",
        ]
        for name, metric in detail["metrics"].items():
            lines.append(f"  {name:<46} {metric['value']:>16.6g} {metric['unit']}")
    else:
        lines[0] += f"  bodies {detail['bodies']}"
        lines.append(
            f"  {'metric':<22} {'median':>14} {'unit':<6} "
            f"{'q1':>12} {'q3':>12} {'n':>3}"
        )
        for group in ("metrics", "specific"):
            for name, metric in detail[group].items():
                q1, _median, q3 = harness.quartiles(metric["samples"])
                lines.append(
                    f"  {name:<22} {metric['value']:>14.6g} "
                    f"{metric['unit']:<6} {q1:>12.6g} {q3:>12.6g} "
                    f"{len(metric['samples']):>3}"
                )
    lines.append(f"  report_sha256 {detail['report_sha256']}")
    lines.append(
        f"  failed_ops {detail['failed']} / attempted_ops "
        f"{detail['attempted']}  correct={detail['correct']}"
    )
    lines += [f"  FAILED: {failure}" for failure in detail["failures"]]
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Suite: every workload, each run in its own interpreter
# ----------------------------------------------------------------------


def _child(args: List[str], detail_path: Path) -> Dict:
    command = [
        sys.executable,
        str(Path(__file__).with_name("run.py")),
        *args,
        "--detail",
        str(detail_path),
    ]
    completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(completed.stdout)
    if completed.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {completed.returncode}")
    return json.loads(detail_path.read_text())


def run_all(args: argparse.Namespace) -> int:
    WORK_ROOT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="suite-", dir=WORK_ROOT))
    names = args.only or spec.WORKLOAD_NAMES
    results: Dict = {
        "scale": args.scale,
        "seconds": args.seconds,
        "workloads": {name: {"runs": [], "traced": None} for name in names},
    }
    try:
        for name in names:
            common = ["--workload", name, "--scale", args.scale,
                      "--seconds", str(args.seconds)]
            for run in range(args.runs):
                seed = args.seed + run
                results["workloads"][name]["runs"].append(
                    _child(
                        common + ["--seed", str(seed), "--trace", "0"],
                        scratch / "detail.json",
                    )
                )
            if args.traced:
                spans_path = Path(args.out).with_suffix(f".{name}.spans.json")
                spans_path.parent.mkdir(parents=True, exist_ok=True)
                results["workloads"][name]["traced"] = _child(
                    common + ["--seed", str(args.seed), "--trace", "1",
                              "--trace-out", str(spans_path)],
                    scratch / "detail.json",
                )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results))
    print(f"results written to {out}")
    runs = [
        run
        for entry in results["workloads"].values()
        for run in entry["runs"] + ([entry["traced"]] if entry["traced"] else [])
    ]
    return 0 if all(run["correct"] for run in runs) else 1


def run_selfcheck(args: argparse.Namespace) -> int:
    from .workloads import self_check

    WORK_ROOT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=WORK_ROOT))
    try:
        failures = self_check(args.seed, scratch, spec.SIZES[args.scale])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("generator self-check:", "ok" if not failures else failures)
    return 1 if failures else 0


# ----------------------------------------------------------------------
# Argument parsing
# ----------------------------------------------------------------------


def _single_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="benchmarks.pipeline", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", required=True, choices=spec.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1,
                        help="feeds base seeds and the synthetic results")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long the untraced bodies measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced passes and per-layer metrics")
    parser.add_argument("--scale", choices=sorted(spec.SIZES), default="full")
    parser.add_argument("--detail", type=Path,
                        help="also write samples, digest and checks here")
    parser.add_argument("--trace-out", type=Path,
                        help="keep the traced body's span tree here")
    return parser


def _suite_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="benchmarks.pipeline all")
    parser.add_argument("--runs", type=int, default=1,
                        help="end-to-end runs per workload, seeds seed..seed+runs-1")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--scale", choices=sorted(spec.SIZES), default="full")
    parser.add_argument("--traced", action="store_true",
                        help="add one --trace 1 run per workload")
    parser.add_argument("--only", action="append", choices=spec.WORKLOAD_NAMES)
    parser.add_argument("--out", default=str(DEFAULT_RESULTS))
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "all":
        return run_all(_suite_parser().parse_args(argv[1:]))
    if argv and argv[0] == "compare":
        parser = argparse.ArgumentParser(prog="benchmarks.pipeline compare")
        parser.add_argument("base")
        parser.add_argument("change")
        args = parser.parse_args(argv[1:])
        return comparelib.main(Path(args.base), Path(args.change))
    if argv and argv[0] == "spread":
        parser = argparse.ArgumentParser(prog="benchmarks.pipeline spread")
        parser.add_argument("results")
        return comparelib.spread(Path(parser.parse_args(argv[1:]).results))
    if argv and argv[0] == "selfcheck":
        parser = argparse.ArgumentParser(prog="benchmarks.pipeline selfcheck")
        parser.add_argument("--seed", type=int, default=1)
        parser.add_argument("--scale", choices=sorted(spec.SIZES), default="smoke")
        return run_selfcheck(parser.parse_args(argv[1:]))
    args = _single_parser().parse_args(argv)
    detail = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        scale=args.scale, trace_out=args.trace_out,
    )
    print(render(detail))
    if args.detail:
        args.detail.write_text(json.dumps(detail, indent=1))
    print(result_line(detail))
    return 0
