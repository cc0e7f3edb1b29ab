"""Smoke test of the pipeline benchmark.  Not tier-1; run it explicitly::

    PYTHONPATH=src python -m pytest benchmarks/pipeline/test_smoke.py -q

Each workload runs once at ``--scale smoke`` (1 body, 3 sim-s windows,
2 trials per pair, 2 ingest cycles) through the same ``run.py`` the
driver calls, untraced and traced.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.pipeline import compare, spec
from benchmarks.pipeline.workloads import self_check

ROOT = Path(__file__).resolve().parents[2]
RUN = Path(__file__).with_name("run.py")
NO_SIMULATION = ("warm-replan", "service-ingest")

#: Per-layer numbers that must be live (non-zero) on the workload that
#: owns them: its probes and its own layers' spans.
LIVE = {
    "cold-cycle": ("netsim.engine.events_per_s", "netsim.engine.self_share",
                   "span.sim.run.total_s", "fleet.worker.run_shard_s"),
    "warm-replan": ("core.cache.put_us_per_entry",
                    "core.cache.get_disk_us_per_entry",
                    "fleet.merge.merge_shards_s", "fleet.plan.plan_cycle_s"),
    "adaptive-earlystop": ("core.convergence.evaluate_us_per_pair",
                           "fleet.adaptive.rounds",
                           "fleet.adaptive.nondispatch_s"),
    "service-ingest": ("ingest_total_s", "service.store.compact_s",
                       "service.site.regenerate_s", "service.store.bytes"),
}


def _run(*args: str) -> dict:
    completed = subprocess.run(
        [sys.executable, str(RUN), *args, "--scale", "smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    return result["metrics"]


def test_benchmark_json_is_the_spec():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert declared == spec.benchmark_json(declared["run_seconds"])
    names = spec.END_TO_END_NAMES + spec.PER_LAYER_NAMES
    assert len(names) == len(set(names))


def test_generator_self_check(tmp_path):
    assert self_check(3, tmp_path, spec.SIZES["smoke"]) == []


@pytest.mark.parametrize("workload", spec.WORKLOAD_NAMES)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    metrics = _run("--workload", workload, "--seed", "3",
                   "--seconds", "0", "--trace", "0")
    assert set(metrics) == set(spec.END_TO_END_NAMES)
    for name, metric in metrics.items():
        assert metric["unit"] == spec.UNITS[name]
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", spec.WORKLOAD_NAMES)
def test_traced_run_rows_sum_to_wall(workload, tmp_path):
    spans_path = tmp_path / "spans.json"
    metrics = _run("--workload", workload, "--seed", "3", "--seconds", "0",
                   "--trace", "1", "--trace-out", str(spans_path))
    assert set(metrics) == set(spec.PER_LAYER_NAMES)
    assert metrics["unattributed_frac"]["value"] <= spec.MAX_UNATTRIBUTED_FRAC
    nodes = json.loads(spans_path.read_text())
    root = next(n for n in nodes if n["name"] == "body")
    top = sum(
        n["dur_us"] for n in nodes if n["parent_index"] == root["index"]
    )
    assert abs(top - root["dur_us"]) <= 0.05 * root["dur_us"]
    simulated = metrics["span.sim.run.count"]["value"]
    assert (simulated == 0) == (workload in NO_SIMULATION)
    for name in LIVE[workload]:
        assert metrics[name]["value"] > 0, name


def _metric(values, unit):
    return {
        "value": sorted(values)[len(values) // 2], "unit": unit,
        "samples": values,
    }


def _results(wall_samples):
    run = {
        "seed": 1, "report_sha256": "x", "correct": True,
        "metrics": {"cycle_wall_s": _metric(wall_samples, "s")},
        "specific": {"failed_ops_frac": _metric([0.0], "ratio")},
    }
    return {"workloads": {"cold-cycle": {"runs": [run], "traced": None}}}


def test_compare_verdicts():
    steady = [1.00, 1.01, 0.99, 1.00, 1.02]
    slower = [value * 1.4 for value in steady]
    noisy = [0.7, 1.0, 1.5, 0.8, 1.3]

    def word(a, b):
        (row,) = compare.rows(_results(a), _results(b))
        return row["verdict"]

    assert word(steady, steady) == "ok"
    assert word(steady, slower) == "regressed"
    assert word(slower, steady) == "ok"
    assert word(steady, noisy) == "unresolved"
