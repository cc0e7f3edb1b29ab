"""The service's live windowed view equals a fresh one after every pass.

``WatchdogService.windowed_store`` is live: each pass extends the same
``ResultStore`` with the cycles it just committed, and rebuilds it only
when the window is not the old one plus new cycles.  A mixed sequence -
a partial cycle, its fuller delivery, a restart, two cycles in one pass,
a cycle that ages a bandwidth out - runs under no window and windows of
1 and 2 cycles; after every pass the live view must hold the trials a
fresh build (a reopened ``RollingResultStore``'s first view) holds, bucket
for bucket in the same order, and every published section must be the
fresh view's bytes.
"""

import dataclasses
import random

import pytest

from repro import units
from repro.core import results
from repro.analysis.site import render_bandwidth_section
from repro.config import ExperimentConfig, NetworkConfig
from repro.core.cache import TrialCache
from repro.fleet.plan import plan_cycle
from repro.obs.metrics import get_registry
from repro.service import RollingResultStore, WatchdogService
from repro.service.site import _service_ids_at, bandwidth_tag

from tests.test_ingest_linearity import synthetic_result

IDS = ["iperf_cubic", "iperf_reno", "netflix"]
BW8, BW50 = units.mbps(8), units.mbps(50)
CONFIG = ExperimentConfig().scaled(4)


def deliver(spool, name, seed, bandwidths=(BW8, BW50), lost_shard=None):
    """Drop one fixed cycle into the spool: plan + cache, every fifth
    trial invalid (external loss), ``lost_shard``'s entries missing."""
    plan = plan_cycle(
        IDS, [NetworkConfig(bandwidth_bps=bw) for bw in bandwidths], CONFIG,
        trials_per_pair=2, num_shards=2, base_seed=seed,
    )
    entry = spool / "incoming" / name
    plan.write(entry)
    cache = TrialCache(entry / "cache")
    rng = random.Random(seed)
    for index, planned in enumerate(plan.trials):
        result = synthetic_result(planned.spec, rng)
        if index % 5 == 4:
            result = dataclasses.replace(result, external_loss_fraction=0.5)
        if planned.shard != lost_shard:
            cache.put(planned.spec, result)
    return plan


def assert_live_view_is_fresh(service):
    live = service.windowed_store()
    # The reference: a reopened store's first view, built from scratch.
    fresh = RollingResultStore(service.store.root).store_view(
        service.window_cycles
    )
    assert live.pairs() == fresh.pairs()
    for pair in fresh.pairs():
        assert live.trials(*pair) == fresh.trials(*pair)
    sections = service.site.sections_dir
    for bandwidth in (BW8, BW50):
        path = sections / f"bw-{bandwidth_tag(bandwidth)}.md"
        ids = _service_ids_at(fresh, bandwidth)
        if not ids:
            assert not path.exists()
            continue
        section = render_bandwidth_section(fresh, ids, bandwidth)
        assert render_bandwidth_section(live, ids, bandwidth) == section
        assert path.read_text() == section + "\n"


@pytest.mark.parametrize("window", [None, 1, 2], ids=["all", "w1", "w2"])
def test_the_live_view_equals_a_fresh_view_after_every_pass(tmp_path, window):
    spool, out = tmp_path / "spool", tmp_path / "out"

    def start():
        return WatchdogService(
            spool, out, networks=[NetworkConfig(bandwidth_bps=BW8)],
            plan_config=CONFIG, plan_trials=1, window_cycles=window,
        )

    resolved = get_registry().counter("core.results.trials_resolved")
    service = start()
    deliver(spool, "c0", seed=10)
    service.ingest_once()
    assert_live_view_is_fresh(service)

    # A partial cycle, then its fuller delivery superseding it.
    partial = deliver(spool, "c1-partial", seed=11, lost_shard=1)
    summary = service.ingest_once()
    assert summary["ingested"][0]["partial"]
    assert_live_view_is_fresh(service)
    full = deliver(spool, "c1-full", seed=11)
    assert full.plan_id == partial.plan_id
    summary = service.ingest_once()
    assert not summary["ingested"][0]["partial"]
    assert_live_view_is_fresh(service)

    # A restart: the reopened store builds its view anew.
    service = start()
    deliver(spool, "c2", seed=12)
    service.ingest_once()
    assert_live_view_is_fresh(service)

    # Two cycles in one pass; the second touches 50 Mbps only, so a
    # one-cycle window ages the 8 Mbps section out.
    deliver(spool, "c3", seed=13)
    deliver(spool, "c4", seed=14, bandwidths=(BW50,))
    before = resolved.value
    summary = service.ingest_once()
    added = resolved.value - before
    assert len(summary["ingested"]) == 2
    if window is None:
        # Extended, not rebuilt: the pass added (and resolved the keys
        # of) the two new cycles' valid trials, nothing else.
        assert added == sum(
            result.valid
            for record in service.store.cycles()[-2:]
            for result in record.experiment_results()
        )
    assert_live_view_is_fresh(service)

    # A pass with nothing new leaves the view and the site alone.
    assert service.ingest_once()["site_sections_changed"] == []
    assert_live_view_is_fresh(service)


def test_a_view_that_raised_part_way_is_rebuilt_not_extended(
    tmp_path, monkeypatch
):
    """An extend that fails part-way leaves no half-built view behind:
    the next call starts over, so no trial is held twice, and the
    half-extended store's version has moved."""
    spool, out = tmp_path / "spool", tmp_path / "out"
    service = WatchdogService(
        spool, out, networks=[NetworkConfig(bandwidth_bps=BW8)],
        plan_config=CONFIG, plan_trials=1,
    )
    deliver(spool, "c0", seed=10)
    service.ingest_once()
    view = service.windowed_store()
    deliver(spool, "c1", seed=11)
    service.ingest_once()
    version = view.version
    # The next cycle's third key resolution fails.
    deliver(spool, "c2", seed=12)
    entry = spool / "incoming" / "c2"
    service.ingest_entry(entry)
    calls = []

    def flaky(trial, incumbent, contender):
        calls.append(trial)
        if len(calls) == 3:
            raise IndexError("flaky")
        return real(trial, incumbent, contender)

    real = results.incumbent_key
    monkeypatch.setattr(results, "incumbent_key", flaky)
    with pytest.raises(IndexError):
        service.windowed_store()
    assert view.version > version
    monkeypatch.setattr(results, "incumbent_key", real)
    assert service.windowed_store() is not view
    service.regenerate_site()
    assert_live_view_is_fresh(service)
