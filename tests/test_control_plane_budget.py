"""A deterministic budget for the warm control plane.

A re-planned cycle whose trials are all cached simulates nothing, so
what it costs is the fixed price per planned trial: identify it, find
its entry, decode it.  Wall clock cannot gate that in tier-1, but the
*work* is exact.  On a fixed warm cycle (every default-catalog pair,
8 and 50 Mbps, two trials per pair, four shards, synthetic results)
this file pins:

* ``cache.keys_derived`` - real SHA-256 key derivations - at two per
  planned trial: the planner's and the worker's skew check.  The
  worker's lookup and the assembler's lookup read the memo on the spec
  (four derivations per trial before the memo).  The counter moves
  once per batch, by the derivations in it;
* ``cache.entries_parsed`` - records decoded - at two per trial:
  once in the shard's cache, once in the merged one;
* ``ExperimentResult`` objects built - at one per planned trial, in
  assembly: ``run_shard`` reads and checks its hits but never builds
  their results (two per trial when it did);
* ``TrialCache``'s "repeated hits never re-read files": a second
  ``get`` of the same spec moves neither counter, and a read never
  writes to the entry;
* the config objects behind one manifest's specs: one per table entry
  (schema 3) or per distinct inline payload (schema 1/2), not two per
  row;
* Python frames entered per planned trial over ``run_shard`` x4 +
  ``merge_shards`` + ``assemble_reports``: identical across two runs
  and under a ceiling (296.1 before this budget existed, 90.7 before
  the merge linked on string paths, 40.68 before ``run_shard`` stopped
  building results, 39.6 before entries were parsed by the C decoder
  ``decode_record`` instead of ``json.loads``, 30.1 before keys were
  derived and counted per batch);
* ``pathlib`` parses over the same body: the same number whether the
  plan holds 380 trials or 760 - none is per planned trial;
* bytes per planned trial in ``plan.json`` and in the shard manifests;
* files per cycle: one record log per shard written, none on a warm
  re-run, one link per shard log in the merge (one file, one link per
  planned trial before records were appended to logs);
* the same two counters over one ``WatchdogService.ingest_once``;
* what folding one delivered trial into the store costs (``ingest_entry``
  + ``compact``): one entry parse, no JSON encoder call - the store
  keeps the entry's record log and commits its key - and a ceiling on
  Python frames (45.0 when every trial was re-encoded, 23.0 when the
  entry was parsed by ``json.loads``).
"""

import gc
import json
import os
import random
import sys

from repro import units
from repro.config import ExperimentConfig, NetworkConfig
from repro.core import cache as cache_module
from repro.core.cache import TrialCache
from repro.core.experiment import ExperimentResult
from repro.fleet import assemble_reports, merge_shards, plan_cycle, run_shard
from repro.fleet.plan import ROW_COLUMNS, trial_rows
from repro.obs.metrics import get_registry, reset_registry
from repro.service import WatchdogService
from repro.services.catalog import default_catalog

from tests.test_ingest_linearity import synthetic_result

NETWORKS = [
    NetworkConfig(bandwidth_bps=units.mbps(8)),
    NetworkConfig(bandwidth_bps=units.mbps(50)),
]
CONFIG = ExperimentConfig().scaled(3)
SHARDS = 4

#: Ceiling on Python frames per planned trial (run_shard x4 + merge +
#: assemble): 20.2 today, under the ~10% margin set at 19.2 (the
#: trial-record check became one call per entry parse, +2, and the
#: directory scan matches key names in C, -1; 30.1 when every key
#: lookup was a ``trial_cache_key`` call and every derivation bumped its counter on
#: its own, a table index went through a ``repr`` probe and the merge
#: linked each entry through two helpers; 33.6 when the ceiling was
#: last set, at 37; 39.6 when each of the two entry parses went through ``json.loads``'
#: three Python frames; 40.68 when ``run_shard`` built a result per
#: hit; 61.2 when each spec was one ``get`` with its own counter bumps,
#: and assembly checked every entry for existence before replaying).
FRAMES_PER_TRIAL_BUDGET = 21

#: Ceiling on Python frames per delivered trial over ``ingest_entry`` +
#: ``compact``, measured as the slope between two delivery sizes: 10.0
#: today (1 627 -> 2 727 frames for 110 -> 220 trials), plus half a
#: frame, so one more Python call per folded trial fails it (11.0).
#: 12.0 (ceiling 12.5) while the store journalled each trial and checked
#: its record on write, 9.0 before that check (the ceiling was 22 until
#: then, over twice the cost).  Earlier: 23.0 when the entry parse was
#: ``json.loads``; 33.0 when the ingest joined payloads and kept entry
#: bytes by key, 45.0 before the journal adopted entry bytes.
FRAMES_PER_INGESTED_TRIAL_BUDGET = 10.5

#: Ceiling on bytes per planned trial, in ``plan.json`` and across the
#: shard manifests (110 and 111 today; 440 and 431 when every row
#: repeated its configs).
BYTES_PER_TRIAL_BUDGET = 160


def plan(trials_per_pair=2):
    return plan_cycle(
        default_catalog().ids(), NETWORKS, CONFIG,
        trials_per_pair=trials_per_pair, num_shards=SHARDS, base_seed=7,
    )


def fill(cache_dir, trials, rng):
    cache = TrialCache(cache_dir)
    for planned in trials:
        cache.put(planned.spec, synthetic_result(planned.spec, rng))


def counters():
    registry = get_registry()
    return (
        registry.counter("cache.keys_derived").value,
        registry.counter("cache.entries_parsed").value,
    )


def warm_cycle(root, rep, trials_per_pair=2):
    """Plan and write one warm cycle; return the closure that runs it
    (``run_shard`` x4 + ``merge_shards`` + ``assemble_reports``)."""
    fresh = plan(trials_per_pair)
    paths = fresh.write(rep / "plan")
    shard_dirs = [root / f"shard-{s}" for s in range(SHARDS)]

    def run():
        for manifest, shard_dir in zip(paths[1:], shard_dirs):
            receipt = run_shard(manifest, shard_dir, backend_kind="inline")
            assert receipt.stats.trials_run == 0
        merge_shards(fresh, shard_dirs, rep / "merged")
        reports = assemble_reports(fresh, TrialCache(rep / "merged"))
        assert reports[0].runner_stats.cache_hits == len(fresh.trials)

    return run


def filled_shards(root, trials_per_pair=2):
    first = plan(trials_per_pair)
    rng = random.Random(7)
    for shard in range(SHARDS):
        fill(root / f"shard-{shard}", first.shard_trials(shard), rng)
    return len(first.trials)


def count_frames(fn):
    """``(Python frames entered, pathlib path parses, JSON encoder
    calls)`` over ``fn()``."""
    frames = [0, 0, 0]

    def profiler(frame, event, _arg):
        if event == "call":
            frames[0] += 1
            code = frame.f_code
            if code.co_name in ("_parse_args", "_parse_path") and (
                code.co_filename.endswith("pathlib.py")
            ):
                frames[1] += 1
            elif code.co_name in ("encode", "iterencode") and (
                code.co_filename.endswith("encoder.py")
            ):
                frames[2] += 1

    # A collection landing inside ``fn`` runs whatever finalizers earlier
    # tests left behind, as Python frames: collect first, then hold off.
    gc.collect()
    gc.disable()
    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
        gc.enable()
    return tuple(frames)


def test_two_derivations_two_parses_per_trial(tmp_path):
    trials = filled_shards(tmp_path)
    keys_before, parsed_before = counters()
    warm_cycle(tmp_path, tmp_path / "rep")()
    keys, parsed = counters()
    # Plan + worker skew check; the two lookups per trial hit the memo.
    assert keys - keys_before == 2 * trials
    # Once per shard cache, once in the merged cache.
    assert parsed - parsed_before == 2 * trials


def test_one_result_built_per_planned_trial(tmp_path, monkeypatch):
    """Assembly builds each trial's result; the shard workers record
    theirs without building one."""
    trials = filled_shards(tmp_path)
    run = warm_cycle(tmp_path, tmp_path / "rep")
    built = []
    init = ExperimentResult.__init__

    def counting_init(result, *args, **kwargs):
        built.append(result)
        init(result, *args, **kwargs)

    monkeypatch.setattr(ExperimentResult, "__init__", counting_init)
    run()
    assert len(built) == trials


def test_repeated_hits_never_reread_files(tmp_path):
    trials = plan().shard_trials(0)[:50]
    fill(tmp_path, trials, random.Random(3))
    cache = TrialCache(tmp_path)
    for planned in trials:
        assert cache.get(planned.spec) is not None  # disk hits
    (entry,) = tmp_path.glob("records-*.log")
    before = counters()
    for _ in range(3):
        os.utime(entry, (1, 1))
        for planned in trials:
            assert cache.get(planned.spec) is not None  # memory hits
        assert entry.stat().st_mtime == 1  # a read never writes
    assert counters() == before
    assert (cache.hits, cache.misses) == (4 * len(trials), 0)


def test_specs_of_one_manifest_share_their_config_objects(tmp_path):
    fresh = plan()
    manifest = json.loads(fresh.write(tmp_path)[1].read_text())
    assert len(manifest["networks"]) == len(NETWORKS)
    assert len(manifest["configs"]) == 1
    # The same rows as schemas 1 and 2 laid them out: named fields,
    # configs inline.
    inline = []
    for row in manifest["trials"]:
        fields = dict(zip(ROW_COLUMNS, row))
        fields["network"] = manifest["networks"][fields["network"]]
        fields["config"] = manifest["configs"][fields["config"]]
        inline.append(fields)
    for payload in (manifest, {"trials": inline}):
        specs = [s for s, _row in trial_rows(payload, with_shard=False)]
        assert len(specs) > 100
        distinct = {(s.network, s.config) for s in specs}
        assert len({id(s.network) for s in specs}) == len(NETWORKS)
        assert len({id(s.config) for s in specs}) == 1
        assert len(distinct) == len(NETWORKS)
        # Rebuilt rows carry no memo: the worker derives its own keys.
        assert all(s._cache_key is None for s in specs)


def test_frames_per_planned_trial_repeat_and_stay_under_budget(tmp_path):
    # Receipts embed the registry's delta, encoded instrument by
    # instrument: start from an empty registry so the count does not
    # depend on what earlier tests registered.
    reset_registry()
    # The id-keyed key memos start over at their cap: begin empty, so no
    # rep pays for a refill the other does not (how full earlier tests
    # left them is up to hypothesis).
    cache_module._CONFIG_BY_ID.clear()
    cache_module._PREFIX_BY_IDS.clear()
    trials = filled_shards(tmp_path)
    warm_cycle(tmp_path, tmp_path / "rep0")()  # imports, lazy set-up
    counts = [
        count_frames(warm_cycle(tmp_path, tmp_path / f"rep{index}"))[0]
        for index in (1, 2)
    ]
    assert counts[0] == counts[1]
    assert counts[0] / trials <= FRAMES_PER_TRIAL_BUDGET


def test_no_pathlib_parse_per_planned_trial(tmp_path):
    """A warm body builds ``Path`` objects per shard and per file it
    writes, never per trial: twice the trials, the same parses."""
    parses = []
    for trials_per_pair in (1, 2):
        root = tmp_path / str(trials_per_pair)
        filled_shards(root, trials_per_pair)
        warm_cycle(root, root / "rep0", trials_per_pair)()
        parses.append(
            count_frames(warm_cycle(root, root / "rep1", trials_per_pair))[1]
        )
    assert 0 < parses[0] == parses[1]


def test_a_cycle_creates_one_record_log_per_shard(tmp_path, monkeypatch):
    """Files per cycle, exactly: a cold cycle over S shards creates S
    record logs (beside S receipts), not one file per trial; a warm
    re-run creates none; the merge makes one link per shard log."""
    cold = plan_cycle(
        ["iperf_cubic", "iperf_reno"], NETWORKS[:1],
        ExperimentConfig().scaled(2), trials_per_pair=2, num_shards=2,
        base_seed=7,
    )
    paths = cold.write(tmp_path / "plan")
    shard_dirs = [tmp_path / f"shard-{s}" for s in range(2)]

    def listing():
        return {d.name: sorted(os.listdir(d)) for d in shard_dirs}

    for run in ("cold", "warm"):
        for shard, manifest in enumerate(paths[1:]):
            shard_dir = shard_dirs[shard]
            receipt = run_shard(manifest, shard_dir, backend_kind="inline")
            assert receipt.stats.trials_run == (
                len(cold.shard_trials(shard)) if run == "cold" else 0
            )
        if run == "cold":
            after_cold = listing()
    assert len(cold.trials) == 6
    assert listing() == after_cold
    logs = []
    for names in after_cold.values():
        assert len(names) == 2 and "shard-receipt.json" in names
        (log,) = [n for n in names if n != "shard-receipt.json"]
        assert log.startswith("records-") and log.endswith(".log")
        logs.append(log)

    links = []
    link = os.link

    def counting_link(source, target, **kwargs):
        links.append(os.path.basename(target))
        return link(source, target, **kwargs)

    monkeypatch.setattr(os, "link", counting_link)
    report = merge_shards(cold, shard_dirs, tmp_path / "merged")
    assert report.entries_merged == len(cold.trials)
    assert sorted(links) == sorted(logs)
    assert sorted(os.listdir(tmp_path / "merged")) == sorted(logs)
    for shard_dir, log in zip(shard_dirs, logs):
        assert os.path.samefile(shard_dir / log, tmp_path / "merged" / log)


def test_plan_and_manifest_bytes_per_planned_trial(tmp_path):
    fresh = plan()
    paths = fresh.write(tmp_path)
    plan_bytes = os.path.getsize(paths[0])
    manifest_bytes = sum(os.path.getsize(path) for path in paths[1:])
    assert plan_bytes / len(fresh.trials) <= BYTES_PER_TRIAL_BUDGET
    assert manifest_bytes / len(fresh.trials) <= BYTES_PER_TRIAL_BUDGET


def test_ingest_derives_at_most_one_key_per_folded_and_planned_trial(
    tmp_path,
):
    service = WatchdogService(
        tmp_path / "spool", tmp_path / "out",
        networks=NETWORKS, plan_config=CONFIG, plan_trials=1,
    )
    delivered = plan_cycle(
        default_catalog().heatmap_ids(), NETWORKS, CONFIG,
        trials_per_pair=2, num_shards=1, base_seed=11,
    )
    entry = tmp_path / "spool" / "incoming" / "cycle-00"
    delivered.write(entry)
    fill(entry / "cache", delivered.trials, random.Random(11))
    keys_before, parsed_before = counters()
    summary = service.ingest_once()
    keys, parsed = counters()
    folded = summary["ingested"][0]["trials"]
    assert folded == len(delivered.trials)
    next_plan = json.loads(
        (tmp_path / "out" / "next-plan" / "plan.json").read_text()
    )
    assert keys - keys_before <= folded + len(next_plan["trials"])
    assert parsed - parsed_before == folded


def test_folding_a_delivered_trial_parses_once_and_encodes_nothing(tmp_path):
    """Twice the delivered trials: the same encoder calls (the commit
    line - per cycle, never per trial), one more parse and a bounded
    number of frames per added trial."""
    measured = []
    for trials_per_pair in (1, 1, 2):  # the first run pays the imports
        root = tmp_path / str(len(measured))
        service = WatchdogService(
            root / "spool", root / "out",
            networks=NETWORKS, plan_config=CONFIG, plan_trials=1,
        )
        delivered = plan_cycle(
            default_catalog().heatmap_ids(), NETWORKS, CONFIG,
            trials_per_pair=trials_per_pair, num_shards=1, base_seed=11,
        )
        entry = root / "spool" / "incoming" / "cycle-00"
        delivered.write(entry)
        fill(entry / "cache", delivered.trials, random.Random(11))

        def fold():
            report = service.ingest_entry(entry)
            assert report.trials == len(delivered.trials)
            service.store.compact()

        parsed_before = counters()[1]
        frames, _pathlib, encoder_calls = count_frames(fold)
        measured.append(
            (
                len(delivered.trials), frames, encoder_calls,
                counters()[1] - parsed_before,
            )
        )
        # The store keeps the entry's log itself, and commits the keys.
        (adopted,) = (root / "out" / "store").glob("cycle-*/records-*.log")
        done = root / "spool" / "done" / "cycle-00" / "cache"
        (log,) = done.glob("records-*.log")
        assert adopted.stat().st_ino == log.stat().st_ino
        (commit,) = service.store.journal_path.read_bytes().splitlines()
        assert json.loads(commit)["keys"] == [
            planned.cache_key for planned in delivered.trials
        ]
    # Rows of (trials, frames, encoder calls, entries parsed).
    _warm_up, small, large = measured
    assert large[0] == 2 * small[0]
    assert small[2] == large[2] > 0  # encoder calls: O(1) per cycle
    assert (small[3], large[3]) == (small[0], large[0])  # one parse each
    per_trial = (large[1] - small[1]) / (large[0] - small[0])
    assert per_trial <= FRAMES_PER_INGESTED_TRIAL_BUDGET
