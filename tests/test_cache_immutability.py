"""Cache records live in append-only logs: link merges, one writer per log.

``fleet merge`` hard-links shard record logs into the merged cache
(copying only where the OS refuses the link), which is sound because a
log has one writer that only appends, and a record's sidecars are lines
of the same write.  These tests pin the link/copy equivalence, the
isolation between linked directories, the sidecars travelling with
their records, the invisibility of leftover ``*.tmp`` files, and the
log's own hostile cases: a damaged middle line, a torn tail or group, a
short write, racing writers, a directory of the per-file layout.
"""

import errno
import json
import os
import sys
import threading

import pytest

from repro.atomicio import atomic_write
from repro.config import ExperimentConfig, highly_constrained
from repro.core.cache import (
    CacheEntryError,
    TrialCache,
    encode_record,
    trial_cache_key,
)
from repro.core.experiment import ExperimentResult
from repro.core.runner import TrialSpec, build_backend, replay
from repro.fleet import (
    FleetError,
    fleet_status,
    merge_shards,
    plan_cycle,
    run_shard,
)
from repro.fleet.worker import ShardReceipt
from repro.obs.metrics import get_registry

from tests import cache_logs

NET = highly_constrained()
FAST = ExperimentConfig().scaled(10)
IDS = ["iperf_cubic", "iperf_reno", "iperf_bbr"]


def synthetic_result(spec, truncated_at=None):
    """A plausible result for ``spec`` without simulating anything."""
    a, b = spec.service_ids[0], spec.service_ids[-1]
    result = ExperimentResult(
        contender_id=a,
        incumbent_id=b,
        bandwidth_bps=spec.network.bandwidth_bps,
        buffer_packets=spec.network.queue_packets,
        seed=spec.seed,
        duration_usec=truncated_at or spec.config.duration_usec,
        throughput_bps={a: 3e6, b: 5e6},
        mmf_share={a: 0.75, b: 1.25},
        utilization=0.97,
    )
    if truncated_at is not None:
        result.earlystop = {"truncated": True, "model_id": "m"}
    return result


def plan_and_shards(root, shards=2, overlap=False):
    """A plan plus receipt-carrying shard caches of synthetic results.

    With ``overlap`` every shard holds every trial (identical bytes).
    """
    plan = plan_cycle(
        IDS, [NET], FAST, trials_per_pair=2, num_shards=shards, base_seed=3
    )
    dirs = []
    for shard in range(shards):
        directory = root / f"shard{shard}"
        cache = TrialCache(directory)
        owned = plan.trials if overlap else plan.shard_trials(shard)
        for trial in owned:
            cache.put(trial.spec, synthetic_result(trial.spec))
        ShardReceipt(
            plan_id=plan.plan_id,
            shard_index=shard,
            num_shards=shards,
            cache_schema=plan.cache_schema,
        ).write(directory)
        dirs.append(directory)
    return plan, dirs


def tree_bytes(directory):
    return {
        path.name: path.read_bytes() for path in sorted(directory.iterdir())
    }


def refuse_links(monkeypatch):
    def exdev(_src, _dst, **_kwargs):
        raise OSError(errno.EXDEV, "Invalid cross-device link")

    monkeypatch.setattr(os, "link", exdev)


class TestLinkMerge:
    def test_merged_entries_share_inodes_with_shards(self, tmp_path):
        plan, dirs = plan_and_shards(tmp_path)
        report = merge_shards(plan, dirs, tmp_path / "merged")
        assert report.entries_merged == len(plan.trials)
        merged = tmp_path / "merged"
        for shard, directory in enumerate(dirs):
            owned = plan.shard_trials(shard)
            assert owned, "partition left a shard empty; widen the plan"
            (log,) = cache_logs.logs(directory)
            assert os.path.samefile(log, merged / log.name)
        assert len(cache_logs.logs(merged)) == len(dirs)
        assert sorted(TrialCache(merged).keys()) == sorted(
            plan.expected_keys()
        )

    def test_copy_fallback_is_byte_and_report_identical(
        self, tmp_path, monkeypatch
    ):
        plan, dirs = plan_and_shards(tmp_path, overlap=True)
        linked = merge_shards(plan, dirs, tmp_path / "linked")
        refuse_links(monkeypatch)
        copied = merge_shards(plan, dirs, tmp_path / "copied")
        assert json.dumps(copied.to_json()) == json.dumps(linked.to_json())
        assert copied.duplicates == len(plan.trials)
        assert tree_bytes(tmp_path / "copied") == tree_bytes(
            tmp_path / "linked"
        )
        (log,) = cache_logs.logs(dirs[0])
        assert os.path.samefile(log, tmp_path / "linked" / log.name)
        assert not os.path.samefile(log, tmp_path / "copied" / log.name)

    @pytest.mark.parametrize("links", [True, False])
    def test_divergent_duplicates_still_fatal(
        self, tmp_path, monkeypatch, links
    ):
        plan, dirs = plan_and_shards(tmp_path, overlap=True)

        def diverge(record):
            payload = json.loads(record)
            payload["utilization"] = -1.0
            return json.dumps(payload).encode()

        victim, line = cache_logs.rewrite(
            dirs[1], plan.trials[0].cache_key, diverge
        )
        if not links:
            refuse_links(monkeypatch)
        with pytest.raises(FleetError, match="divergent duplicate") as caught:
            merge_shards(plan, dirs, tmp_path / "merged")
        assert f"{victim}: line {line}" in str(caught.value)
        # Every key is judged before a shard's logs are linked: nothing
        # of the divergent shard reached the destination.
        assert [log.name for log in cache_logs.logs(tmp_path / "merged")] == [
            log.name for log in cache_logs.logs(dirs[0])
        ]

    @pytest.mark.parametrize("links", [True, False])
    @pytest.mark.parametrize("truncated_first", [True, False])
    def test_truncated_vs_full_resolves_and_loser_is_untouched(
        self, tmp_path, monkeypatch, links, truncated_first
    ):
        plan, dirs = plan_and_shards(tmp_path, overlap=True)
        trial = plan.trials[0]
        key = trial.cache_key
        loser_dir = dirs[0] if truncated_first else dirs[1]
        winner_dir = dirs[1] if truncated_first else dirs[0]
        cache_logs.drop(loser_dir, key)
        TrialCache(loser_dir).put(
            trial.spec, synthetic_result(trial.spec, truncated_at=4_000_000)
        )
        loser_bytes = cache_logs.record(loser_dir, key)
        full_bytes = cache_logs.record(winner_dir, key)
        assert loser_bytes != full_bytes
        if not links:
            refuse_links(monkeypatch)
        report = merge_shards(plan, dirs, tmp_path / "merged")
        assert report.superseded_entries == 1
        assert report.duplicates == len(plan.trials) - 1
        # Both lines are in the merged cache; it reads the full one.
        (merged,) = TrialCache(tmp_path / "merged").read([trial.spec])
        assert merged.raw == full_bytes
        assert cache_logs.record(loser_dir, key) == loser_bytes
        assert cache_logs.record(winner_dir, key) == full_bytes

    def test_prepopulated_dest_counts_duplicates_and_closes_gaps(
        self, tmp_path
    ):
        plan, dirs = plan_and_shards(tmp_path)
        merged = tmp_path / "merged"
        first = merge_shards(plan, dirs[:1], merged, allow_gaps=True)
        assert sorted(first.gaps) == sorted(
            t.cache_key for t in plan.shard_trials(1)
        )
        second = merge_shards(plan, dirs, merged)
        assert second.duplicates == len(plan.shard_trials(0))
        assert second.entries_merged == len(plan.shard_trials(1))
        assert second.gaps == []
        # A later merge of nothing new still sees the whole plan covered.
        third = merge_shards(plan, dirs[1:], merged)
        assert third.entries_merged == 0 and third.gaps == []


class TestLinkIsolation:
    def merged_pair(self, tmp_path):
        plan = plan_cycle(
            IDS[:2], [NET], FAST, 1, num_shards=1, include_self_pairs=False
        )
        trial = plan.trials[0]
        shard = tmp_path / "shard"
        TrialCache(shard).put(
            trial.spec, synthetic_result(trial.spec, truncated_at=4_000_000)
        )
        ShardReceipt(plan.plan_id, 0, 1, plan.cache_schema).write(shard)
        merged = tmp_path / "merged"
        merge_shards(plan, [shard], merged)
        (log,) = cache_logs.logs(shard)
        assert os.path.samefile(log, merged / log.name)
        return trial, log, merged / log.name

    @pytest.mark.parametrize("write_into", ["merged", "shard"])
    def test_supersede_on_one_side_never_reaches_the_other(
        self, tmp_path, write_into
    ):
        """The superseding record is appended to the writer's own log,
        which only its directory has; the linked log is never written."""
        trial, shard_log, merged_log = self.merged_pair(tmp_path)
        truncated_bytes = shard_log.read_bytes()
        written, other = (
            (merged_log, shard_log)
            if write_into == "merged"
            else (shard_log, merged_log)
        )
        cache = TrialCache(written.parent)
        cache.put(trial.spec, synthetic_result(trial.spec))
        assert not cache.get(trial.spec).truncated
        assert not TrialCache(written.parent).get(trial.spec).truncated
        assert TrialCache(other.parent).get(
            trial.spec, allow_truncated=True
        ).truncated
        assert cache_logs.logs(other.parent) == [other]
        assert len(cache_logs.logs(written.parent)) == 2
        assert shard_log.read_bytes() == truncated_bytes
        assert os.path.samefile(shard_log, merged_log)

    def test_a_superseding_recording_is_a_new_line(self, tmp_path):
        """A recording is never rewritten either: the full-length run's
        lands with its record in the writer's own log, and a link to the
        truncated run's log keeps its bytes."""
        spec = TrialSpec.pair("iperf_cubic", "iperf_reno", NET, FAST, seed=1)
        key = trial_cache_key(spec)
        TrialCache(tmp_path / "a").put(
            spec,
            synthetic_result(spec, truncated_at=4_000_000),
            sidecars={"flight": {"v": 1}},
        )
        (source,) = cache_logs.logs(tmp_path / "a")
        alias = tmp_path / "alias.log"
        os.link(source, alias)
        before = alias.read_bytes()
        TrialCache(tmp_path / "a").put(
            spec, synthetic_result(spec), sidecars={"flight": {"v": 2}}
        )
        assert alias.read_bytes() == source.read_bytes() == before
        assert len(cache_logs.logs(tmp_path / "a")) == 2
        assert TrialCache(tmp_path / "a").get_sidecar(key, "flight") == {
            "v": 2
        }


class TestConcurrentWriters:
    def test_racing_writers_of_one_key_converge_on_an_intact_entry(
        self, tmp_path
    ):
        """More writers than cores, preempted mid-write: every line is
        one whole record, each writer appends to its own log, and the
        cache reads exactly the one record."""

        spec = TrialSpec(("a", "b"), NET, FAST, seed=1)
        result = synthetic_result(spec)
        expected = encode_record(result.to_json())
        errors = []

        def writer():
            try:
                cache = TrialCache(tmp_path)
                for _ in range(50):
                    cache.put(spec, result)
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        (record,) = TrialCache(tmp_path).read([spec])
        assert record.raw == expected
        line = trial_cache_key(spec).encode() + b" " + expected + b"\n"
        logs = cache_logs.logs(tmp_path)
        assert sorted(tmp_path.iterdir()) == logs
        # One writer per log, and a writer that already holds the record
        # appends nothing: at most one line per writer.
        assert 1 <= len(logs) <= len(threads)
        for log in logs:
            assert log.read_bytes() == line


class TestRecordLogs:
    """What only an append-only log can have wrong, and the layout it
    replaced."""

    SPECS = [
        TrialSpec.pair("iperf_cubic", "iperf_reno", NET, FAST, seed=seed)
        for seed in range(3)
    ]

    def written(self, directory):
        writer = TrialCache(directory)
        for spec in self.SPECS:
            writer.put(spec, synthetic_result(spec))
        (log,) = cache_logs.logs(directory)
        return log

    def test_a_flipped_byte_in_a_middle_line_is_named_by_log_and_line(
        self, tmp_path
    ):
        log = self.written(tmp_path)
        first, middle, last = self.SPECS
        key = trial_cache_key(middle)
        data = bytearray(log.read_bytes())
        data[data.index(b"\n") + 1 + 65 + 9] |= 0x80
        log.write_bytes(bytes(data))
        cache = TrialCache(tmp_path)
        assert cache.get(first) is not None and cache.get(last) is not None
        with pytest.raises(
            CacheEntryError,
            match=f"{log}: line 2, key {key}: not valid JSON",
        ):
            cache.get(middle)
        # A flip in the key itself leaves no key to name: the line is.
        data[data.index(b"\n") + 1] = ord("X")
        log.write_bytes(bytes(data))
        with pytest.raises(
            CacheEntryError, match=f"{log}: line 2: not '<key> <record>'"
        ):
            TrialCache(tmp_path).get(first)

    def test_a_torn_final_line_is_a_miss_not_an_error(self, tmp_path):
        log = self.written(tmp_path)
        whole = log.read_bytes()
        log.write_bytes(whole[:-50])
        cache = TrialCache(tmp_path)
        first, middle, last = self.SPECS
        assert cache.get(last) is None
        assert cache.get(first) is not None and cache.get(middle) is not None
        assert len(cache) == 2
        # A tail still being written: once it is whole, the same reader
        # finds it (a miss re-reads the grown tail).
        with open(log, "ab") as handle:
            handle.write(whole[-50:])
        assert cache.get(last) == synthetic_result(last)
        assert (cache.hits, cache.misses) == (3, 1)

    def test_a_group_without_its_record_line_serves_no_sidecar(
        self, tmp_path
    ):
        """Sidecar lines belong to the record line of their key that
        follows them: a log whose final group lost its record line (a
        write that landed short) or a foreign log whose sidecar line
        another key's record follows serves no sidecar."""
        first, middle, last = self.SPECS
        key = trial_cache_key(last)
        writer = TrialCache(tmp_path)
        writer.put(first, synthetic_result(first))
        writer.put(last, synthetic_result(last), sidecars={"flight": {"v": 1}})
        (log,) = cache_logs.logs(tmp_path)
        whole = log.read_bytes()
        record_line = whole[whole.rindex(b"\n", 0, len(whole) - 1) + 1 :]
        log.write_bytes(whole[: -len(record_line)])
        assert cache_logs.sidecars(tmp_path) == {f"{key}.flight": b'{"v":1}'}
        cache = TrialCache(tmp_path)
        assert cache.get(last) is None
        assert cache.get_sidecar(key, "flight") is None
        assert cache.sidecar_keys("flight") == []
        # The record line lands: the same reader serves the whole group.
        with open(log, "ab") as handle:
            handle.write(record_line)
        assert cache.get(last) == synthetic_result(last)
        assert cache.get_sidecar(key, "flight") == {"v": 1}
        first_key = trial_cache_key(first)
        cache_logs.append(tmp_path, {
            f"{first_key}.flight": b'{"v": 2}',
            trial_cache_key(middle): encode_record(
                synthetic_result(middle).to_json()
            ),
        })
        reader = TrialCache(tmp_path)
        assert reader.get(middle) == synthetic_result(middle)
        assert reader.get_sidecar(first_key, "flight") is None
        assert reader.sidecar_keys("flight") == [key]

    def test_after_a_short_write_the_writer_never_appends_to_that_log_again(
        self, tmp_path, monkeypatch
    ):
        first, middle, last = self.SPECS
        write = os.write
        short = []

        def write_half_once(fd, data):
            if short:
                return write(fd, data)
            short.append(fd)
            return write(fd, data[: len(data) // 2])

        monkeypatch.setattr(os, "write", write_half_once)
        writer = TrialCache(tmp_path)
        with pytest.raises(OSError, match="short write"):
            writer.put(first, synthetic_result(first))
        (torn,) = cache_logs.logs(tmp_path)
        torn_bytes = torn.read_bytes()
        assert b"\n" not in torn_bytes
        for spec in (middle, last, first):
            writer.put(spec, synthetic_result(spec))
        assert torn.read_bytes() == torn_bytes
        (fresh,) = [log for log in cache_logs.logs(tmp_path) if log != torn]
        assert fresh.read_bytes().count(b"\n") == 3
        assert writer.stores == 3
        reader = TrialCache(tmp_path)
        assert [r.result for r in reader.read(self.SPECS)] == [
            synthetic_result(spec) for spec in self.SPECS
        ]

    def test_equal_lines_read_as_the_smallest_whatever_the_log_order(
        self, tmp_path
    ):
        """Two lines of one key at equal completeness (never from a
        deterministic simulator): the smaller bytes win, whichever log
        sorts first; the more complete line beats both."""
        spec = self.SPECS[0]
        key = trial_cache_key(spec)
        low = synthetic_result(spec)
        high = synthetic_result(spec)
        high.utilization = 0.99
        lines = sorted(
            [encode_record(low.to_json()), encode_record(high.to_json())]
        )
        for names in (("a", "b"), ("b", "a")):
            directory = tmp_path / "".join(names)
            directory.mkdir()
            cache_logs.append(directory, {key: lines[0]}, names[0])
            cache_logs.append(directory, {key: lines[1]}, names[1])
            (record,) = TrialCache(directory).read([spec])
            assert record.raw == lines[0]
            TrialCache(directory).put(
                spec, synthetic_result(spec, truncated_at=4_000_000)
            )
            assert len(cache_logs.logs(directory)) == 2  # not appended
        truncated = synthetic_result(spec, truncated_at=4_000_000)
        cache_logs.append(
            tmp_path / "ab", {key: encode_record(truncated.to_json())}, "0"
        )
        (record,) = TrialCache(tmp_path / "ab").read([spec])
        assert record.raw == lines[0]

    def test_a_per_file_directory_is_refused_by_name(self, tmp_path):
        spec = self.SPECS[0]
        key = trial_cache_key(spec)
        old = tmp_path / "old"
        old.mkdir()
        (old / f"{key}.json").write_bytes(
            encode_record(synthetic_result(spec).to_json())
        )
        refusal = f"{old / key}.json: a per-file cache entry"
        cache = TrialCache(old)
        for read in (
            lambda: cache.get(spec),
            lambda: list(cache.keys()),
            lambda: cache.contains_key("f" * 64),
            lambda: cache.put(spec, synthetic_result(spec)),
        ):
            with pytest.raises(CacheEntryError, match=refusal):
                read()
        plan = plan_cycle(IDS, [NET], FAST, 1, num_shards=1, base_seed=3)
        ShardReceipt(plan.plan_id, 0, 1, plan.cache_schema).write(old)
        with pytest.raises(CacheEntryError, match=refusal):
            merge_shards(plan, [old], tmp_path / "merged")
        # Sidecars were files of this layout too: one alone is refused.
        new = tmp_path / "new"
        TrialCache(new).put(spec, synthetic_result(spec))
        (new / f"{key}.flight.json").write_bytes(b'{"v": 1}')
        refusal = f"{new / key}.flight.json: a per-file cache sidecar"
        cache = TrialCache(new)
        for read in (
            lambda: len(cache),
            lambda: cache.get_sidecar(key, "flight"),
            lambda: cache.sidecar_keys("flight"),
            lambda: cache.clear(),
        ):
            with pytest.raises(CacheEntryError, match=refusal):
                read()


class TestStaleTemporaries:
    def test_stale_tmp_is_invisible_and_inert(self, tmp_path):
        """A killed ``atomic_write`` leaves a ``*.tmp``: no reader sees
        it and ``clear``, which drops records and recordings, leaves it
        be."""
        plan, dirs = plan_and_shards(tmp_path, shards=1)
        shard = dirs[0]
        key = plan.trials[0].cache_key
        strays = [
            shard / f"{key}.json.4242.deadbeef.tmp",
            shard / f"{key}.flight.json.4242.deadbeef.tmp",
            shard / f"{'f' * 64}.json.4242.deadbeef.tmp",
            shard / "records-1-cafe.log.4242.deadbeef.tmp",
        ]
        for stray in strays:
            stray.write_text('{"torn": ')
        cache = TrialCache(shard)
        assert len(cache) == len(plan.trials)
        assert sorted(cache.keys()) == sorted(plan.expected_keys())
        assert cache.sidecar_keys("flight") == []

        plan, dirs = plan_and_shards(tmp_path / "again", shards=1)
        shard = dirs[0]
        stray = shard / f"{'f' * 64}.json.4242.deadbeef.tmp"
        stray.write_text('{"torn": ')
        status = fleet_status(plan, [shard])
        assert status.shards[0].completed == len(plan.trials)
        assert status.foreign_dirs == []
        report = merge_shards(plan, [shard], tmp_path / "merged")
        assert report.entries_merged == len(plan.trials)
        assert report.extras == 0
        assert not list((tmp_path / "merged").glob("*.tmp"))

        TrialCache(shard).clear()
        assert sorted(p.name for p in shard.iterdir()) == sorted(
            ["shard-receipt.json", stray.name]
        )

    def test_failed_write_leaves_no_temporary(self, tmp_path):
        target = tmp_path / "entry.json"
        atomic_write(target, "old")
        with pytest.raises(TypeError):
            atomic_write(target, 12345)
        assert target.read_text() == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["entry.json"]


class TestSidecarsTravelWithEntries:
    def test_two_shard_record_flight_cycle_publishes_diagnoses(
        self, tmp_path
    ):
        """fleet merge once dropped the recordings, so a merged
        multi-shard ``--record-flight`` cycle published no diagnosis;
        they are lines of the linked logs now."""
        from repro.service.coordinator import WatchdogService

        config = ExperimentConfig().scaled(3)
        plan = plan_cycle(
            ["iperf_cubic", "iperf_bbr"],
            [NET],
            config,
            trials_per_pair=2,
            num_shards=2,
            include_self_pairs=True,
        )
        plan.write(tmp_path / "plan")
        shard_dirs = []
        for shard in range(2):
            assert plan.shard_trials(shard)
            shard_dir = tmp_path / f"shard{shard}"
            run_shard(
                tmp_path / "plan" / f"shard-{shard}.json",
                shard_dir,
                record_flight=True,
            )
            shard_dirs.append(shard_dir)
        entry = tmp_path / "spool" / "incoming" / "cycle-a"
        entry.mkdir(parents=True)
        (entry / "plan.json").write_text(
            (tmp_path / "plan" / "plan.json").read_text()
        )
        merge_shards(plan, shard_dirs, entry / "cache")
        merged = TrialCache(entry / "cache")
        assert merged.sidecar_keys("flight") == sorted(plan.expected_keys())
        for shard_dir in shard_dirs:
            (log,) = cache_logs.logs(shard_dir)
            assert os.path.samefile(log, entry / "cache" / log.name)

        service = WatchdogService(
            tmp_path / "spool",
            tmp_path / "out",
            networks=[NET],
            plan_config=config,
            plan_shards=1,
        )
        report = service.ingest_once()["ingested"][0]
        assert report["diagnosed"] > 0
        assert "### Why is this unfair?" in service.site.index_path.read_text()

    def test_superseding_entry_brings_its_own_sidecars(self, tmp_path):
        """Each shard writes a recording with its record, as the runner
        does; the merged cache serves the full-length run's recording,
        never the truncated run's."""
        plan, dirs = plan_and_shards(tmp_path, overlap=True)

        def rewrite(directory, trial, recording, truncated_at=None):
            cache_logs.drop(directory, trial.cache_key)
            TrialCache(directory).put(
                trial.spec,
                synthetic_result(trial.spec, truncated_at=truncated_at),
                sidecars=None if recording is None else {"flight": recording},
            )

        trial, other, bare = plan.trials[:3]
        rewrite(dirs[0], trial, {"run": "truncated"}, 4_000_000)
        rewrite(dirs[1], trial, {"run": "full"})
        rewrite(dirs[1], other, {"run": "late"})
        rewrite(dirs[0], bare, {"run": "truncated"}, 4_000_000)
        rewrite(dirs[1], bare, None)

        merge_shards(plan, dirs, tmp_path / "merged")
        merged = TrialCache(tmp_path / "merged")
        assert merged.get_sidecar(trial.cache_key, "flight") == {"run": "full"}
        # An identical duplicate still contributes sidecars dest lacks.
        assert merged.get_sidecar(other.cache_key, "flight") == {"run": "late"}
        # A truncated run never lends its recording to the full one.
        assert merged.get_sidecar(bare.cache_key, "flight") is None
        assert merged.sidecar_keys("flight") == sorted(
            [trial.cache_key, other.cache_key]
        )
        assert TrialCache(dirs[0]).get_sidecar(trial.cache_key, "flight") == {
            "run": "truncated"
        }


#: Ways a record (a log line's bytes after its key) or a sidecar file
#: arrives damaged: name -> (bytes -> bytes, the defect its reader
#: names).  Shared with the assembly and spool-ingest tests.
ENTRY_DAMAGE = {
    "truncated": (lambda data: data[:100], "not valid JSON"),
    "bit-flipped": (
        lambda data: data[:9] + bytes([data[9] | 0x80]) + data[10:],
        "not valid JSON",
    ),
    "empty": (lambda data: b"", "not valid JSON"),
    "list": (lambda data: b"[]", "expected a JSON object, found list"),
    "utf-16": (lambda data: data.decode().encode("utf-16"), "not valid JSON"),
}

#: ``ENTRY_DAMAGE`` plus what only a cache record can get wrong: a JSON
#: object that is not a trial record (any object is a sidecar or a
#: state file, so this kind is a record's alone).  Shared with the
#: worker, assembly and spool-ingest tests.
def _reshared(shares):
    """Damage that replaces a trial record's ``mmf_share`` with
    ``shares(contender_id, incumbent_id)``."""

    def damage(data):
        payload = json.loads(data)
        payload["mmf_share"] = shares(
            payload["contender_id"], payload["incumbent_id"]
        )
        return json.dumps(payload).encode()

    return damage


TRIAL_DAMAGE = {
    **ENTRY_DAMAGE,
    "not-a-trial": (
        lambda data: b'{"schema": 1}',
        "not a trial record (missing bandwidth_bps, buffer_packets, "
        "contender_id, duration_usec, incumbent_id, seed)",
    ),
    # A record whose services have no share would read as unmeasured
    # (or raise IndexError on a self pair) deep inside a grid.
    "no-shares": (
        _reshared(lambda contender, incumbent: {}),
        "not a trial record (mmf_share lacks a number for contender_id",
    ),
    "bool-share": (
        _reshared(lambda contender, incumbent: {
            contender: True, incumbent: 0.5,
        }),
        "not a trial record (mmf_share lacks a number for contender_id",
    ),
}


class TestDamagedFiles:
    """A record or sidecar that is not a UTF-8 JSON object, or a record
    that is not a trial record, is a named ``CacheEntryError`` from
    every reader - never a raw decode or type error, never a silent
    miss, never a folded result.  A record's error names its log, the
    line and the key; a sidecar's, its name too."""

    @pytest.fixture(params=sorted(TRIAL_DAMAGE))
    def damaged(self, request, tmp_path):
        """(spec, key, log path, log path of a damaged sidecar, defect
        named) with the record (line 2) damaged, and its sidecar (line
        1) too where the damage is one a sidecar can have (``None``
        otherwise)."""
        spec = TrialSpec.pair("iperf_cubic", "iperf_reno", NET, FAST, seed=1)
        TrialCache(tmp_path).put(
            spec,
            synthetic_result(spec),
            sidecars={"flight": {"schema": 1, "rows": list(range(40))}},
        )
        key = trial_cache_key(spec)
        damage, complaint = TRIAL_DAMAGE[request.param]
        entry, line = cache_logs.rewrite(tmp_path, key, damage)
        assert line == 2
        sidecar = None
        if request.param in ENTRY_DAMAGE:
            sidecar, line = cache_logs.rewrite(
                tmp_path, f"{key}.flight", damage
            )
            assert line == 1
        return spec, key, entry, sidecar, complaint

    def test_every_reader_names_the_file(self, damaged, tmp_path):
        spec, key, entry, sidecar, complaint = damaged
        before, after = (
            TrialSpec.pair("iperf_cubic", "iperf_reno", NET, FAST, seed=seed)
            for seed in (0, 2)
        )
        writer = TrialCache(tmp_path)
        for intact in (before, after):
            writer.put(intact, synthetic_result(intact))
        # Reader -> hits (and parses) it counts before the damaged entry.
        readers = {
            "get": (lambda c: c.get(spec), 0),
            "get-truncated-ok": (
                lambda c: c.get(spec, allow_truncated=True), 0
            ),
            "put": (lambda c: c.put(spec, synthetic_result(spec)), 0),
            "payload_for": (lambda c: c.payload_for(key), 0),
            "read": (lambda c: c.read([before, spec, after]), 1),
            "complete": (
                lambda c: build_backend(cache=c).complete(
                    [before, spec, after]
                ),
                1,
            ),
        }
        parsed = get_registry().counter("cache.entries_parsed")
        for name, (read, hits) in readers.items():
            cache = TrialCache(tmp_path)
            parsed_before = parsed.value
            with pytest.raises(CacheEntryError) as caught:
                read(cache)
            assert f"{entry}: line 2, key {key}: " in str(caught.value), name
            assert complaint in str(caught.value), name
            assert (cache.hits, cache.misses, cache.stores) == (hits, 0, 0), name
            assert parsed.value - parsed_before == hits, name
        if sidecar is not None:
            with pytest.raises(CacheEntryError) as caught:
                TrialCache(tmp_path).get_sidecar(key, "flight")
            assert (
                f"{sidecar}: line 1, key {key}, sidecar flight: {complaint}"
                in str(caught.value)
            )
            # The damaged bytes are still there for an operator.
            assert sidecar.exists()
        assert entry.exists()

    def test_a_cache_only_backend_refuses_rather_than_misses(self, damaged, tmp_path):
        """``replay`` (what the cache-only backend became) names the
        damaged entry; it is not one of its ``CacheMissError`` misses."""
        spec, _key, entry, _sidecar, _complaint = damaged
        cache = TrialCache(tmp_path)
        with pytest.raises(CacheEntryError, match=entry.name):
            replay(cache, [spec], False)
        assert cache.hits == cache.misses == 0

    def test_a_truncated_result_is_still_a_miss_not_an_error(self, tmp_path):
        """Early-terminated is a property of an intact entry; it keeps
        its rule (a miss for an unarmed reader, a hit for an armed one)."""
        spec = TrialSpec.pair("iperf_cubic", "iperf_reno", NET, FAST, seed=1)
        TrialCache(tmp_path).put(spec, synthetic_result(spec, truncated_at=4_000_000))
        cache = TrialCache(tmp_path)
        assert cache.get(spec) is None
        assert cache.get(spec, allow_truncated=True).truncated
        assert (cache.hits, cache.misses) == (1, 1)
