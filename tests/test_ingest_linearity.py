"""Ingest costs O(new cycle), checked by counts rather than a stopwatch.

Six equal synthetic cycles go through ``WatchdogService.ingest_once``;
three exact counters from ``repro.obs.metrics`` must not depend on how
many cycles the store already holds:

- ``core.results.trials_resolved`` - trials whose incumbent keys were
  resolved (both services' at once): the new cycle's trials, because
  the service's view is live and only extended by each pass;
- ``core.report.cells_derived`` - median-share cells derived from raw
  trials: n^2 per rendered section (each cell once, whatever reads it);
- ``service.store.bytes_written`` - every byte the store writes: the
  new cycle's commit line, never the history again, and never a trial
  record (the store keeps the entry's record logs, hard-linked).
"""

import dataclasses
import random

from repro import units
from repro.config import ExperimentConfig, NetworkConfig
from repro.core.cache import TrialCache
from repro.fleet.plan import plan_cycle
from repro.obs.metrics import get_registry
from repro.service import WatchdogService

from tests.test_report import fake_result

IDS = ["iperf_cubic", "iperf_reno", "iperf_bbr", "netflix", "meet"]
NETWORKS = [
    NetworkConfig(bandwidth_bps=units.mbps(8)),
    NetworkConfig(bandwidth_bps=units.mbps(50)),
]
CONFIG = ExperimentConfig().scaled(4)
CYCLES = 6


def synthetic_result(spec, rng):
    """A plausible valid full-length result for ``spec`` (no simulation)."""
    a, b = spec.service_ids
    return dataclasses.replace(
        fake_result(
            a, b, rng.uniform(0.1, 1.9), rng.uniform(0.1, 1.9), spec.seed
        ),
        bandwidth_bps=spec.network.bandwidth_bps,
    )


def deliver_cycle(spool, index):
    """Drop one merged fixed cycle (plan + filled cache) into the spool."""
    plan = plan_cycle(
        IDS, NETWORKS, CONFIG, trials_per_pair=2, num_shards=1,
        base_seed=100 + index,
    )
    entry = spool / "incoming" / f"cycle-{index:02d}"
    plan.write(entry)
    cache = TrialCache(entry / "cache")
    rng = random.Random(index)
    for planned in plan.trials:
        cache.put(planned.spec, synthetic_result(planned.spec, rng))
    return len(plan.trials)


def test_six_equal_ingests_cost_the_same_by_count(tmp_path):
    service = WatchdogService(
        tmp_path / "spool", tmp_path / "out",
        networks=NETWORKS, plan_config=CONFIG, plan_trials=1,
    )
    registry = get_registry()
    resolved = registry.counter("core.results.trials_resolved")
    cells = registry.counter("core.report.cells_derived")
    written = registry.counter("service.store.bytes_written")
    trials_per_ingest, resolved_per_ingest = [], []
    cells_per_ingest, bytes_per_ingest = [], []
    for index in range(CYCLES):
        trials = deliver_cycle(tmp_path / "spool", index)
        resolved_before = resolved.value
        cells_before, bytes_before = cells.value, written.value
        summary = service.ingest_once()
        assert summary["ingested"][0]["trials"] == trials
        assert len(summary["site_sections_changed"]) == len(NETWORKS)
        trials_per_ingest.append(trials)
        resolved_per_ingest.append(resolved.value - resolved_before)
        cells_per_ingest.append(cells.value - cells_before)
        bytes_per_ingest.append(written.value - bytes_before)
    assert summary["cycles_total"] == CYCLES

    # Each trial's keys are resolved once, when the live view takes it
    # in: the sixth ingest resolves its own cycle, not all six (every
    # stored trial was resolved twice, once per grid cell, on every
    # pass when the view was rebuilt and each cell re-read its trials).
    assert resolved_per_ingest == trials_per_ingest

    # One n x n matrix per rendered section, on the first ingest and on
    # the sixth (it was ~37 n^2 when every consumer re-derived its cells).
    assert cells_per_ingest == [len(NETWORKS) * len(IDS) ** 2] * CYCLES

    # The store writes the arriving cycle's commit line, not the history:
    # the sixth ingest's bytes are within 5% of the second's.
    assert bytes_per_ingest[5] >= bytes_per_ingest[1]
    assert bytes_per_ingest[5] - bytes_per_ingest[1] < (
        0.05 * bytes_per_ingest[1]
    )
    # And no trial record: a key per trial plus the line's frame (a
    # record is ~1 KB; ~2 200 bytes per trial when the store journalled
    # and then copied each one).
    assert max(
        spent / trials
        for spent, trials in zip(bytes_per_ingest, trials_per_ingest)
    ) < 100
