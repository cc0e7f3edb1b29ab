"""A/B comparison of two results files, and the run-to-run spread of one.

``compare A.json B.json`` prints one row per (metric, workload): both
medians with quartiles and sample counts, the ratio B/A (A is the base),
the bound, and a verdict:

- ``regressed``  - B's median is worse than A's by more than the bound;
- ``unresolved`` - not regressed, but a side's inter-quartile spread is
  wider than the bound, and B's samples are not all better than A's: the
  data cannot say "unchanged";
- ``ok``         - otherwise.

An exact count (bound 0) is a function of the seed, not of the host, so
its spread over a file's seeds is not noise: it is ``regressed`` when B's
median is worse and ``ok`` otherwise.

Samples are the per-body values pooled over a file's runs.  Exit status is
non-zero on any ``regressed`` row or a higher ``failed_ops_frac``.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List, Tuple

from . import spec
from .harness import quartiles


def _pooled(entry: Dict, name: str) -> List[float]:
    values: List[float] = []
    for run in entry["runs"]:
        metric = run["metrics"].get(name) or run["specific"].get(name)
        if metric:
            values.extend(metric["samples"])
    return values


def _worsening(base: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``base``, as a share of base."""
    if base == 0:
        return 0.0 if change == 0 else float("inf")
    delta = (change - base) / abs(base)
    return delta if better == "lower" else -delta


def verdict(
    base: List[float], change: List[float], better: str, bound: float
) -> Tuple[str, Dict]:
    qa, qb = quartiles(base), quartiles(change)
    worse = _worsening(qa[1], qb[1], better)
    spread = max(
        (q[2] - q[0]) / abs(q[1]) if q[1] else 0.0 for q in (qa, qb)
    )
    if better == "lower":
        all_better = max(change) < min(base)
    else:
        all_better = min(change) > max(base)
    if worse > bound:
        word = "regressed"
    elif bound > 0 and spread > bound and not all_better:
        word = "unresolved"
    else:
        word = "ok"
    return word, {"base": qa, "change": qb, "worse": worse, "spread": spread}


def rows(base: Dict, change: Dict) -> List[Dict]:
    out = []
    for workload in spec.WORKLOAD_NAMES:
        a = base["workloads"].get(workload)
        b = change["workloads"].get(workload)
        if not a or not b or not a["runs"] or not b["runs"]:
            continue
        for name, (better, bound) in spec.COMPARE_BOUNDS.items():
            va, vb = _pooled(a, name), _pooled(b, name)
            if not va or not vb or not (any(va) or any(vb)):
                continue  # the metric has no meaning on this workload
            word, stats = verdict(va, vb, better, bound)
            out.append(
                dict(workload=workload, metric=name, bound=bound,
                     verdict=word, n_base=len(va), n_change=len(vb), **stats)
            )
    return out


def _digests(entry: Dict) -> Dict[int, str]:
    return {run["seed"]: run["report_sha256"] for run in entry["runs"]}


def main(base_path: Path, change_path: Path) -> int:
    base = json.loads(base_path.read_text())
    change = json.loads(change_path.read_text())
    print(f"base   A = {base_path}\nchange B = {change_path}")
    print(
        f"{'workload':<19} {'metric':<20} {'A median [q1..q3] n':<38} "
        f"{'B median [q1..q3] n':<38} {'B/A':>7} {'bound':>6}  verdict"
    )
    table = rows(base, change)
    def cell(q: List[float], n: int) -> str:
        return f"{q[1]:.5g} [{q[0]:.5g}..{q[2]:.5g}] {n}"

    for row in table:
        ratio = row["change"][1] / row["base"][1] if row["base"][1] else float("nan")
        print(
            f"{row['workload']:<19} {row['metric']:<20} "
            f"{cell(row['base'], row['n_base']):<38} "
            f"{cell(row['change'], row['n_change']):<38} "
            f"{ratio:>6.3f}x {row['bound']:>6.2f}  {row['verdict']}"
        )
    for workload in spec.WORKLOAD_NAMES:
        a = base["workloads"].get(workload)
        b = change["workloads"].get(workload)
        if not a or not b:
            continue
        da, db = _digests(a), _digests(b)
        shared = sorted(set(da) & set(db))
        differing = [seed for seed in shared if da[seed] != db[seed]]
        print(
            f"{workload:<19} report_sha256: {len(shared) - len(differing)}"
            f"/{len(shared)} shared seeds identical"
            + (f"; DIFFERS on seeds {differing}" if differing else "")
        )
    regressed = [r for r in table if r["verdict"] == "regressed"]
    failed_more = [
        r for r in table
        if r["metric"] == "failed_ops_frac" and r["change"][1] > r["base"][1]
    ]
    unresolved = sum(r["verdict"] == "unresolved" for r in table)
    print(
        f"{len(table)} rows: {len(regressed)} regressed, "
        f"{unresolved} unresolved, "
        f"{len(table) - len(regressed) - unresolved} ok"
    )
    return 1 if regressed or failed_more else 0


def spread(results_path: Path) -> int:
    """The driver's acceptance statistic on one results file: for every
    end-to-end metric, the inter-quartile range of the run values as a
    share of their median (needs ``all --runs N`` with N >= 2)."""
    results = json.loads(results_path.read_text())
    status = 0
    print(
        f"{'workload':<19} {'metric':<14} {'q1':>11} {'median':>11} "
        f"{'q3':>11} {'spread':>7} {'bound':>6} {'runs':>4}"
    )
    for workload, entry in results["workloads"].items():
        for metric in spec.END_TO_END:
            values = [run["metrics"][metric.name]["value"] for run in entry["runs"]]
            if len(values) < 2:
                continue
            q1, median, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / median
            flag = ""
            if metric.name != "setup_s":
                if share > metric.bound:
                    flag, status = "  OVER BOUND", 1
                elif share > metric.bound / 3:
                    flag = "  over bound/3"
            print(
                f"{workload:<19} {metric.name:<14} {q1:>11.5g} "
                f"{median:>11.5g} {q3:>11.5g} {share:>7.3f} "
                f"{metric.bound:>6.2f} {len(values):>4}{flag}"
            )
    return status
