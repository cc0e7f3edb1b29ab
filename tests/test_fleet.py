"""repro.fleet: sharded planning, workers, cache merge, report assembly."""

import dataclasses
import hashlib
import json
import os
import shutil
import time
from pathlib import Path

import pytest

from repro import units
from repro.config import (
    ExperimentConfig,
    NetworkConfig,
    TrialPolicyConfig,
    highly_constrained,
)
from repro.core.cache import (
    CACHE_SCHEMA_VERSION,
    CacheEntryError,
    TrialCache,
    decode_record,
    encode_record,
    scan_cache_dir,
)
from repro.core.experiment import ExperimentResult
from repro.core.runner import (
    InlineBackend,
    build_backend,
)
from repro.core.watchdog import Prudentia
from repro.fleet import (
    FleetError,
    FleetPlan,
    ShardReceipt,
    fleet_status,
    assemble_reports,
    assemble_sweep,
    load_plan,
    merge_shards,
    plan_cycle,
    plan_sweep,
    run_shard,
    shard_for_key,
)
from repro.fleet.adaptive import AdaptiveCycleState
from repro.fleet.plan import MANIFEST_SCHEMA_VERSION, ROW_COLUMNS
from repro.fleet.worker import RECEIPT_FILENAME
from repro.services.catalog import default_catalog

from tests import cache_logs
from tests.test_cache_immutability import TRIAL_DAMAGE, synthetic_result

CATALOG = default_catalog()
FAST = ExperimentConfig().scaled(10)
NET = highly_constrained()
IDS = ["iperf_cubic", "iperf_reno"]
KEY = ROW_COLUMNS.index("cache_key")


def small_plan(num_shards=2, trials=2, include_self_pairs=False, ids=None):
    return plan_cycle(
        ids or IDS,
        [NET],
        FAST,
        trials_per_pair=trials,
        num_shards=num_shards,
        base_seed=7,
        include_self_pairs=include_self_pairs,
    )


def single_host_watchdog(trials=2):
    return Prudentia(
        networks=[NET],
        experiment_config=FAST,
        policy_overrides={NET.bandwidth_bps: TrialPolicyConfig.fixed(trials)},
        base_seed=7,
    )


class TestShardPlanning:
    def test_plan_is_deterministic(self):
        """Planning twice yields the same id, keys, and order."""
        a, b = small_plan(), small_plan()
        assert a.plan_id == b.plan_id
        assert a.expected_keys() == b.expected_keys()
        assert [t.spec for t in a.trials] == [t.spec for t in b.trials]

    def test_same_matrix_regardless_of_shard_count(self):
        """The planned work is identical however wide the fleet is -
        only the partition changes."""
        two, three = small_plan(num_shards=2), small_plan(num_shards=3)
        assert two.plan_id == three.plan_id
        assert two.expected_keys() == three.expected_keys()

    def test_partition_stable_under_replanning(self):
        """Growing the service set must not move existing keys between
        shards (hash partitioning by content key)."""
        before = small_plan(num_shards=4)
        after = small_plan(
            num_shards=4, ids=IDS + ["iperf_bbr"]
        )
        shard_of = {t.cache_key: t.shard for t in after.trials}
        for trial in before.trials:
            assert shard_of[trial.cache_key] == trial.shard

    def test_manifests_partition_the_plan(self):
        """Shard manifests are disjoint and cover the plan exactly."""
        plan = small_plan(num_shards=3, include_self_pairs=True)
        seen = []
        for shard in range(3):
            manifest = plan.manifest_for(shard)
            for row in manifest["trials"]:
                assert shard_for_key(row[KEY], 3) == shard
                seen.append(row[KEY])
        assert sorted(seen) == sorted(plan.expected_keys())
        assert len(set(seen)) == len(seen)

    def test_plan_round_trips_and_ignores_unknown_keys(self):
        plan = small_plan()
        payload = json.loads(json.dumps(plan.to_json()))
        payload["added_in_a_future_schema"] = True
        restored = FleetPlan.from_json(payload)
        assert restored.plan_id == plan.plan_id
        assert [t.spec for t in restored.trials] == [
            t.spec for t in plan.trials
        ]

    def test_plan_rejects_schema_skew(self):
        payload = small_plan().to_json()
        payload["schema"] = 999
        with pytest.raises(FleetError, match="schema"):
            FleetPlan.from_json(payload)

    def test_plan_rejects_edited_trials(self):
        """A plan whose trial list no longer matches its stated id is
        refused (tampering or version skew)."""
        payload = small_plan().to_json()
        payload["trials"] = payload["trials"][:-1]
        with pytest.raises(FleetError, match="plan_id mismatch"):
            FleetPlan.from_json(payload)

    def test_cycle_plan_matches_single_host_trial_list(self):
        """The planner emits, in order, exactly the specs
        ``Prudentia.run_cycle`` hands its backend under the same fixed
        policy - over two settings, so network-major order counts."""
        from tests.test_cycle_loop import RecordingBackend

        networks = [NET, NetworkConfig(units.mbps(50))]
        plan = plan_cycle(
            IDS, networks, FAST, trials_per_pair=2, num_shards=2, base_seed=7
        )
        backend = RecordingBackend()
        Prudentia(
            networks=networks,
            experiment_config=FAST,
            policy_overrides={
                network.bandwidth_bps: TrialPolicyConfig.fixed(2)
                for network in networks
            },
            base_seed=7,
        ).run_cycle(service_ids=IDS, backend=backend)
        assert backend.rounds == [[t.spec for t in plan.trials]]


#: How ``json`` spelled a one-line entry before the one encoder.
JSON_SPELLED_LINE = {"sort_keys": True, "separators": (",", ":")}


class TestShardExecutionMergeAssembly:
    @pytest.fixture(scope="class")
    def pipeline(self, tmp_path_factory):
        """Run the full 2-shard pipeline once for this class."""
        root = tmp_path_factory.mktemp("fleet")
        plan = small_plan(num_shards=2, include_self_pairs=True)
        plan.write(root / "plan")
        shard_dirs = []
        receipts = []
        for shard in range(2):
            cache_dir = root / f"shard{shard}"
            receipts.append(
                run_shard(root / "plan" / f"shard-{shard}.json", cache_dir)
            )
            shard_dirs.append(cache_dir)
        merged = root / "merged"
        merge_report = merge_shards(
            load_plan(root / "plan" / "plan.json"), shard_dirs, merged
        )
        return plan, shard_dirs, merged, receipts, merge_report

    def test_receipts_record_completion(self, pipeline):
        plan, shard_dirs, _merged, receipts, _report = pipeline
        for shard, receipt in enumerate(receipts):
            assert receipt.plan_id == plan.plan_id
            # The manifest is the receipt's key list: it names none.
            assert "completed_keys" not in receipt.to_json()
            assert receipt.stats.trials_run == len(plan.shard_trials(shard))
            assert receipt.stats.trials_total == len(plan.shard_trials(shard))
            reloaded = ShardReceipt.load(shard_dirs[shard])
            assert reloaded.to_json() == receipt.to_json()

    def test_merge_covers_plan(self, pipeline):
        plan, _dirs, _merged, _receipts, report = pipeline
        assert report.entries_merged == len(plan.trials)
        assert report.gaps == []
        assert report.duplicates == 0
        assert report.stats.trials_run == len(plan.trials)

    def test_assembled_report_bit_identical_to_single_host(self, pipeline):
        """Acceptance: 2-shard run + merge == unsharded run, with zero
        re-simulation during assembly."""
        plan, _dirs, merged, _receipts, _report = pipeline
        fleet_report = assemble_reports(plan, TrialCache(merged))[0]
        assert fleet_report.runner_stats.trials_run == 0
        assert fleet_report.runner_stats.cache_hits == len(plan.trials)

        watchdog = single_host_watchdog()
        watchdog.run_cycle(service_ids=IDS)
        single = watchdog.report(NET, service_ids=IDS)

        assert fleet_report.render_heatmap() == single.render_heatmap()
        assert fleet_report.heatmap() == single.heatmap()
        assert (
            fleet_report.losing_service_stats()
            == single.losing_service_stats()
        )
        # Bit-identical all the way down: the reassembled store holds the
        # same trials, in the same order, serialising to the same bytes.
        assert [r.to_json() for r in fleet_report.store.all_results()] == [
            r.to_json() for r in single.store.all_results()
        ]
        fleet_json = fleet_report.to_json()
        single_json = single.to_json()
        fleet_json.pop("runner_stats")
        single_json.pop("runner_stats")
        assert fleet_json == single_json

    def test_merge_rejects_cache_schema_mismatch(self, pipeline, tmp_path):
        plan, shard_dirs, _merged, _receipts, _report = pipeline
        receipt_path = shard_dirs[0] / RECEIPT_FILENAME
        original = receipt_path.read_text()
        payload = json.loads(original)
        payload["cache_schema"] = CACHE_SCHEMA_VERSION + 1
        receipt_path.write_text(json.dumps(payload))
        try:
            with pytest.raises(FleetError, match="cache schema"):
                merge_shards(plan, shard_dirs, tmp_path / "m")
        finally:
            receipt_path.write_text(original)

    def test_merge_rejects_foreign_plan_receipt(self, pipeline, tmp_path):
        plan, shard_dirs, _merged, _receipts, _report = pipeline
        receipt_path = shard_dirs[0] / RECEIPT_FILENAME
        original = receipt_path.read_text()
        payload = json.loads(original)
        payload["plan_id"] = "0" * 64
        receipt_path.write_text(json.dumps(payload))
        try:
            with pytest.raises(FleetError, match="belongs to plan"):
                merge_shards(plan, shard_dirs, tmp_path / "m")
        finally:
            receipt_path.write_text(original)

    def test_merge_detects_gaps(self, pipeline, tmp_path):
        plan, shard_dirs, _merged, _receipts, _report = pipeline
        partial = [d for d in shard_dirs[:1]]
        with pytest.raises(FleetError, match="uncovered"):
            merge_shards(plan, partial, tmp_path / "m1")
        report = merge_shards(
            plan, partial, tmp_path / "m2", allow_gaps=True
        )
        assert sorted(report.gaps) == sorted(
            t.cache_key for t in plan.shard_trials(1)
        )

    @pytest.mark.parametrize(
        "forge",
        [
            lambda payload: json.dumps({**payload, "utilization": -1.0}),
            lambda payload: "[1]",
            lambda payload: '"str"',
            lambda payload: '{"earlystop":5}',
            lambda payload: json.dumps({**payload, "earlystop": 5}),
            lambda payload: json.dumps(
                {
                    **payload,
                    "earlystop": {"truncated": True},
                    "duration_usec": "x",
                }
            ),
            lambda payload: json.dumps({**payload, "seed": 2**64}),
        ],
        ids=[
            "other-value", "list", "string", "earlystop-only",
            "earlystop-not-an-object", "truncated-bad-duration",
            "seed-beyond-64-bits",
        ],
    )
    def test_merge_rejects_divergent_duplicates(
        self, pipeline, tmp_path, forge
    ):
        """Deterministic trials can never legitimately differ, so a key
        present twice with different bytes aborts the merge - with the
        named error also when one side is JSON but no trial record."""
        plan, shard_dirs, _merged, _receipts, _report = pipeline
        key = plan.shard_trials(0)[0].cache_key
        evil = tmp_path / "evil"
        evil.mkdir()
        payload = json.loads(cache_logs.record(shard_dirs[0], key))
        cache_logs.append(evil, {key: forge(payload).encode()})
        ShardReceipt(plan.plan_id, 0, 2, CACHE_SCHEMA_VERSION).write(evil)
        with pytest.raises(FleetError, match="divergent duplicate"):
            merge_shards(plan, list(shard_dirs) + [evil], tmp_path / "m")

    def test_identical_duplicates_are_deduplicated(self, pipeline, tmp_path):
        plan, shard_dirs, _merged, _receipts, _report = pipeline
        report = merge_shards(
            plan, list(shard_dirs) + [shard_dirs[0]], tmp_path / "m"
        )
        assert report.duplicates == len(plan.shard_trials(0))
        assert report.gaps == []

    @pytest.mark.parametrize(
        "layout",
        [
            {"separators": (", ", ":")},
            {},
            {"ensure_ascii": False, "separators": (",", ": ")},
            JSON_SPELLED_LINE,
        ],
    )
    def test_mixed_generation_duplicates_are_format_skew_not_divergence(
        self, pipeline, tmp_path, layout
    ):
        """An older writer's record - spaced, or the one line ``json``
        spelled before the one encoder (``1e-05`` where it writes
        ``0.00001``) - and today's record of one trial differ in bytes,
        not in what they record - as does any other spelling of the
        same JSON value."""
        plan, shard_dirs, _merged, _receipts, _report = pipeline
        key = plan.shard_trials(0)[0].cache_key
        today, older = tmp_path / "today", tmp_path / "older"
        shutil.copytree(shard_dirs[0], today)
        # One record holds a float ``json`` spells with an exponent.
        cache_logs.rewrite(
            today, key,
            lambda record: encode_record(
                {**decode_record(record), "utilization": 1e-05}
            ),
        )
        older.mkdir()
        shutil.copy(today / RECEIPT_FILENAME, older)
        ours = cache_logs.records(today)
        theirs = {
            k: json.dumps(json.loads(line), **layout).encode()
            for k, line in ours.items()
        }
        cache_logs.append(older, theirs)
        for k in ours:
            if layout is not JSON_SPELLED_LINE or k == key:
                assert theirs[k] != ours[k]
        assert b"1e-05" in theirs[key]
        rest = list(shard_dirs[1:])
        read = []
        for order in ([older, today, *rest], [today, *rest, older]):
            dest = tmp_path / f"m-{order[0].name}"
            report = merge_shards(plan, order, dest)
            assert report.duplicates == len(plan.shard_trials(0))
            assert report.superseded_entries == 0 and report.gaps == []
            # Both lines are linked, neither rewritten; the cache reads
            # one of them, whatever the merge order.
            assert cache_logs.records(older) == theirs
            read.append(
                TrialCache(dest).read([plan.shard_trials(0)[0].spec])[0].raw
            )
            reports = assemble_reports(plan, TrialCache(dest))
            assert reports[0].runner_stats.trials_run == 0
        assert read[0] == read[1] and read[0] in (ours[key], theirs[key])
        # The same layout with one value of another *type*: divergent.
        typed = json.loads(theirs[key])
        typed["seed"] = float(typed["seed"])
        cache_logs.rewrite(
            older, key, lambda _record: json.dumps(typed, **layout).encode()
        )
        with pytest.raises(FleetError, match="divergent duplicate"):
            merge_shards(plan, [older, today, *rest], tmp_path / "m-typed")

    def test_assemble_refuses_incomplete_cache(self, pipeline):
        plan, shard_dirs, _merged, _receipts, _report = pipeline
        with pytest.raises(FleetError, match="missing"):
            assemble_reports(plan, TrialCache(shard_dirs[0]))

    def test_worker_rejects_key_skew(self, pipeline, tmp_path):
        """A manifest whose expected keys this library cannot reproduce
        (planner/worker version skew) is refused before any simulation."""
        plan, _dirs, _merged, _receipts, _report = pipeline
        manifest = plan.manifest_for(0)
        manifest["trials"][0][KEY] = "f" * 64
        with pytest.raises(FleetError, match="version skew"):
            run_shard(manifest, tmp_path / "c")

    def test_worker_rejects_cache_schema_skew(self, pipeline, tmp_path):
        plan, _dirs, _merged, _receipts, _report = pipeline
        manifest = plan.manifest_for(0)
        manifest["cache_schema"] = CACHE_SCHEMA_VERSION + 1
        with pytest.raises(FleetError, match="re-plan"):
            run_shard(manifest, tmp_path / "c")

    def test_worker_refuses_unknown_services_before_simulating(self, tmp_path):
        """A plan naming a service this host's catalog lacks (a
        submission, ``ext_example_org``) is a named error with nothing on
        disk - not a raw ``KeyError`` after the known trials ran."""
        plan = small_plan(
            num_shards=1, include_self_pairs=True,
            ids=["iperf_cubic", "ext_example_org"],
        )
        plan.write(tmp_path / "plan")
        manifest = tmp_path / "plan" / "shard-0.json"
        with pytest.raises(FleetError) as raised:
            run_shard(manifest, tmp_path / "s0")
        assert "ext_example_org" in str(raised.value)
        assert str(manifest) in str(raised.value)
        assert scan_cache_dir(tmp_path / "s0")[0] == []
        assert not (tmp_path / "s0" / RECEIPT_FILENAME).exists()

    def test_rerun_shard_is_all_cache_hits(self, pipeline):
        plan, shard_dirs, _merged, _receipts, _report = pipeline
        manifest = plan.manifest_for(0)
        receipt = run_shard(manifest, shard_dirs[0])
        assert receipt.stats.trials_run == 0
        assert receipt.stats.cache_hits == len(manifest["trials"])


class TestSweepPlans:
    def test_sharded_sweep_matches_local_sweep(self, tmp_path):
        from repro.core.sweep import run_sweep

        for id_a, id_b in (("iperf_cubic", "iperf_bbr"),
                           ("iperf_reno", "iperf_reno")):
            root = tmp_path / f"{id_a}-{id_b}"
            plan = plan_sweep(
                "bandwidth",
                id_a,
                id_b,
                [4.0, 8.0],
                FAST,
                num_shards=2,
                trials=1,
                base_seed=3,
            )
            plan.write(root / "plan")
            dirs = []
            for shard in range(2):
                cache_dir = root / f"s{shard}"
                run_shard(root / "plan" / f"shard-{shard}.json", cache_dir)
                dirs.append(cache_dir)
            merged = root / "merged"
            merge_shards(plan, dirs, merged)
            points = assemble_sweep(plan, TrialCache(merged))

            local = run_sweep(
                "bandwidth", id_a, id_b, [4.0, 8.0], FAST, trials=1,
                base_seed=3,
            )
            assert points == local
            # Two instances of one service do not split the link evenly
            # to the bit: a curve with equal sides read one instance twice.
            assert all(p.share_a != p.share_b for p in points)

    def test_report_json_is_the_local_sweep_json(self, tmp_path, capsys):
        """``fleet report --json`` on a sweep plan prints what ``repro
        sweep --json`` prints for the same arguments (also the trials:
        both honour ``--buffer-bdp``)."""
        from repro.cli import main

        sweep = ["bandwidth", "iperf_cubic", "iperf_reno", "--values", "4,8",
                 "--buffer-bdp", "8", "--trials", "1", "--duration", "5"]
        plan_dir = tmp_path / "plan"
        assert main(["fleet", "plan", "sweep", *sweep, "--shards", "2",
                     "--out-dir", str(plan_dir)]) == 0
        for shard in range(2):
            assert main(["fleet", "run-shard",
                         str(plan_dir / f"shard-{shard}.json"),
                         "--cache-dir", str(tmp_path / f"c{shard}")]) == 0
        assert main(["fleet", "merge", "--plan", str(plan_dir / "plan.json"),
                     "--into", str(tmp_path / "merged"),
                     str(tmp_path / "c0"), str(tmp_path / "c1")]) == 0
        capsys.readouterr()
        assert main(["fleet", "report", "--plan", str(plan_dir / "plan.json"),
                     "--cache-dir", str(tmp_path / "merged"), "--json"]) == 0
        fleet = capsys.readouterr().out
        assert main(["sweep", *sweep, "--json",
                     "--cache-dir", str(tmp_path / "merged")]) == 0
        assert capsys.readouterr().out == fleet
        assert [p["parameter"] for p in json.loads(fleet)] == [4.0, 8.0]

    def test_plan_params_naming_another_pair_is_a_fleet_error(
        self, tmp_path, capsys
    ):
        """Params are outside the plan id: an edited pair is refused, not
        printed over the trials of another."""
        from repro.cli import main

        plan = plan_sweep("rtt", "iperf_cubic", "iperf_bbr", [20.0], FAST,
                          num_shards=1, trials=1)
        plan.write(tmp_path / "plan")
        run_shard(tmp_path / "plan" / "shard-0.json", tmp_path / "c")
        path = tmp_path / "plan" / "plan.json"
        payload = json.loads(path.read_text())
        payload["params"]["service_id_b"] = "iperf_reno"
        path.write_text(json.dumps(payload))
        assert main(["fleet", "report", "--plan", str(path),
                     "--cache-dir", str(tmp_path / "c")]) == 1
        assert capsys.readouterr().err == (
            "fleet error: plan params do not match its trials: a "
            "iperf_cubic vs iperf_bbr trial in a sweep of iperf_cubic vs "
            "iperf_reno\n"
        )


class TestCacheEviction:
    def _fill(self, cache, seeds):
        backend = InlineBackend(catalog=CATALOG, cache=cache)
        from repro.core.runner import TrialSpec

        specs = [
            TrialSpec.pair("iperf_cubic", "iperf_reno", NET, FAST, seed=s)
            for s in seeds
        ]
        backend.run(specs)
        return specs

    def test_receipt_not_treated_as_entry(self, tmp_path):
        """Non-key files (receipts, notes) in a cache dir are ignored by
        iteration, len and clear()."""
        cache = TrialCache(tmp_path)
        self._fill(cache, seeds=[5])
        (tmp_path / RECEIPT_FILENAME).write_text("{}")
        fresh = TrialCache(tmp_path)
        assert len(fresh) == 1
        assert len(list(fresh.keys())) == 1
        fresh.clear()
        assert (tmp_path / RECEIPT_FILENAME).exists()


class TestAsyncioBackend:
    """The asyncio substrate is gone (GIL-bound ``to_thread``, no
    committed number showed a win): the kind is rejected like any other
    unknown one, with the valid choices."""

    def test_build_backend_kinds(self):
        from repro.core.runner import (
            BACKEND_KINDS,
            InlineBackend as IB,
            ProcessPoolBackend as PB,
        )

        assert BACKEND_KINDS == ("inline", "process")
        assert isinstance(build_backend(), IB)
        assert isinstance(build_backend(workers=2), PB)
        assert isinstance(build_backend("inline", workers=2), IB)
        for kind in ("async", "quantum"):
            with pytest.raises(ValueError, match="inline.*process"):
                build_backend(kind)


class TestReportStats:
    def test_watchdog_report_carries_runner_stats(self):
        watchdog = single_host_watchdog()
        watchdog.run_cycle(service_ids=IDS, include_self_pairs=False)
        report = watchdog.report(NET, service_ids=IDS)
        assert report.runner_stats is watchdog.last_cycle_stats
        payload = report.to_json()
        assert payload["runner_stats"]["trials_run"] == 2
        assert payload["heatmap"]["iperf_cubic|iperf_reno"] is not None

    def test_runner_stats_round_trip(self):
        from repro.core.runner import RunnerStats

        stats = RunnerStats(trials_run=3, cache_hits=2, wall_clock_sec=1.5)
        payload = stats.to_json()
        payload["future_counter"] = 9
        assert RunnerStats.from_json(payload) == stats


class TestFleetCLI:
    def test_end_to_end_via_cli(self, tmp_path, capsys):
        from repro.cli import main

        plan_dir = tmp_path / "plan"
        args = [
            "fleet", "plan", "cycle",
            "--services", "iperf_cubic", "iperf_reno",
            "--no-self-pairs",
            "--trials", "1", "--duration", "8",
            "--shards", "2", "--out-dir", str(plan_dir),
        ]
        assert main(args) == 0
        for shard in range(2):
            assert main([
                "fleet", "run-shard", str(plan_dir / f"shard-{shard}.json"),
                "--cache-dir", str(tmp_path / f"c{shard}"),
            ]) == 0
        assert main([
            "fleet", "merge", "--plan", str(plan_dir / "plan.json"),
            "--into", str(tmp_path / "merged"),
            str(tmp_path / "c0"), str(tmp_path / "c1"),
        ]) == 0
        capsys.readouterr()
        assert main([
            "fleet", "report", "--plan", str(plan_dir / "plan.json"),
            "--cache-dir", str(tmp_path / "merged"), "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["runner_stats"]["trials_run"] == 0
        assert payload["runner_stats"]["cache_hits"] == 1

    def test_cli_merge_error_is_exit_code_1(self, tmp_path, capsys):
        from repro.cli import main

        plan_dir = tmp_path / "plan"
        main([
            "fleet", "plan", "cycle",
            "--services", "iperf_cubic", "iperf_reno",
            "--no-self-pairs", "--trials", "1", "--duration", "8",
            "--shards", "2", "--out-dir", str(plan_dir),
        ])
        (tmp_path / "empty").mkdir()
        code = main([
            "fleet", "merge", "--plan", str(plan_dir / "plan.json"),
            "--into", str(tmp_path / "merged"), str(tmp_path / "empty"),
        ])
        assert code == 1
        assert "fleet error" in capsys.readouterr().err


class TestFleetStatus:
    """Mid-run coverage diffing: done / running / stalled / missing."""

    # Deterministic 2-shard plan whose trials split across both shards.
    IDS3 = ["iperf_cubic", "iperf_reno", "iperf_bbr"]

    def _plan(self):
        plan = small_plan(num_shards=2, trials=2, ids=self.IDS3)
        assert all(plan.shard_trials(i) for i in range(2))
        return plan

    def test_partial_receipts_are_done_plus_missing(self, tmp_path):
        plan = self._plan()
        plan.write(tmp_path / "plan")
        run_shard(tmp_path / "plan" / "shard-0.json", tmp_path / "s0")
        status = fleet_status(plan, [tmp_path / "s0", tmp_path / "s1"])
        by_index = {s.shard_index: s for s in status.shards}
        assert by_index[0].state == "done"
        assert by_index[0].completed == by_index[0].planned
        assert by_index[1].state == "missing"
        assert status.counts() == {
            "done": 1, "running": 0, "stalled": 0, "missing": 1,
        }
        assert not status.complete
        assert status.trials_completed == len(plan.shard_trials(0))

    def test_all_receipts_means_complete(self, tmp_path):
        plan = self._plan()
        plan.write(tmp_path / "plan")
        for shard in range(2):
            run_shard(
                tmp_path / "plan" / f"shard-{shard}.json",
                tmp_path / f"s{shard}",
            )
        # Parent-directory expansion finds both shard caches.
        status = fleet_status(plan, [tmp_path])
        assert status.complete
        assert status.trials_completed == len(plan.trials)

    def test_receiptless_dir_is_running_then_stalled(self, tmp_path):
        import time as _time

        plan = self._plan()
        plan.write(tmp_path / "plan")
        run_shard(tmp_path / "plan" / "shard-0.json", tmp_path / "s0")
        (tmp_path / "s0" / RECEIPT_FILENAME).unlink()  # worker mid-shard
        running = fleet_status(plan, [tmp_path / "s0"], stall_sec=3600)
        assert running.shards[0].state == "running"
        assert 0 < running.shards[0].completed <= running.shards[0].planned
        stalled = fleet_status(
            plan, [tmp_path / "s0"], stall_sec=60,
            now=_time.time() + 3600,
        )
        assert stalled.shards[0].state == "stalled"
        assert stalled.shards[0].age_sec > 60

    def test_a_record_appended_within_stall_sec_is_activity(self, tmp_path):
        """A live worker appends to the log it already has: the log's
        mtime moves, the directory's does not.  That append alone keeps
        the shard running."""
        plan = self._plan()
        shard = tmp_path / "s0"
        first, second = plan.shard_trials(0)[:2]
        writer = TrialCache(shard)
        writer.put(first.spec, synthetic_result(first.spec))
        hour_ago = time.time() - 3600
        for path in [*shard.iterdir(), shard]:
            os.utime(path, (hour_ago, hour_ago))
        before = fleet_status(plan, [shard], stall_sec=60).shards[0]
        assert (before.state, before.completed) == ("stalled", 1)
        writer.put(second.spec, synthetic_result(second.spec))
        assert shard.stat().st_mtime == hour_ago
        after = fleet_status(plan, [shard], stall_sec=60).shards[0]
        assert (after.state, after.completed) == ("running", 2)
        assert after.age_sec < 60

    def test_foreign_receipt_is_ignored_not_fatal(self, tmp_path):
        plan = self._plan()
        other = small_plan(num_shards=2, trials=1)
        other.write(tmp_path / "other-plan")
        run_shard(tmp_path / "other-plan" / "shard-1.json", tmp_path / "x")
        status = fleet_status(plan, [tmp_path / "x"])
        assert status.foreign_dirs == [str(tmp_path / "x")]
        assert all(s.state == "missing" for s in status.shards)

    def test_status_json_round_trips(self, tmp_path):
        plan = self._plan()
        plan.write(tmp_path / "plan")
        run_shard(tmp_path / "plan" / "shard-0.json", tmp_path / "s0")
        payload = fleet_status(
            plan, [tmp_path / "s0", tmp_path / "missing"]
        ).to_json()
        payload = json.loads(json.dumps(payload))  # pure JSON
        assert payload["plan_id"] == plan.plan_id
        assert payload["counts"]["done"] == 1
        assert payload["complete"] is False
        assert len(payload["shards"]) == 2

    def test_cli_status_exit_code_tracks_completion(self, tmp_path, capsys):
        from repro.cli import main

        plan_dir = tmp_path / "plan"
        self._plan().write(plan_dir)
        assert main([
            "fleet", "run-shard", str(plan_dir / "shard-0.json"),
            "--cache-dir", str(tmp_path / "s0"),
        ]) == 0
        capsys.readouterr()
        code = main([
            "fleet", "status", str(plan_dir / "plan.json"),
            str(tmp_path / "s0"), "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1  # shard 1 still missing
        assert payload["counts"]["missing"] == 1
        assert main([
            "fleet", "run-shard", str(plan_dir / "shard-1.json"),
            "--cache-dir", str(tmp_path / "s1"),
        ]) == 0
        capsys.readouterr()
        assert main([
            "fleet", "status", str(plan_dir / "plan.json"),
            str(tmp_path / "s0"), str(tmp_path / "s1"),
        ]) == 0
        assert "2 done" in capsys.readouterr().out


class TestInterruptedShard:
    """A drain puts each trial on disk as it finishes, on either
    substrate: a shard interrupted at its third of four trials leaves
    two entries, ``fleet status`` sees it running, and a re-run
    simulates only the other two."""

    def _interrupted(self, tmp_path, monkeypatch, exc, **backend):
        from repro.core import runner

        plan = plan_cycle(
            IDS, [NET], ExperimentConfig().scaled(3), trials_per_pair=4,
            num_shards=1, base_seed=7, include_self_pairs=False,
        )
        plan.write(tmp_path / "plan")
        doomed = plan.shard_trials(0)[2].spec
        simulate = runner._simulate

        def failing(spec, *args, **kwargs):
            if spec == doomed:
                raise exc
            return simulate(spec, *args, **kwargs)

        # Pool workers are forked after the patch, so they raise too.
        monkeypatch.setattr(runner, "_simulate", failing)
        with pytest.raises(type(exc)):
            run_shard(tmp_path / "plan" / "shard-0.json", tmp_path / "s0",
                      **backend)
        monkeypatch.undo()
        assert not (tmp_path / "s0" / RECEIPT_FILENAME).exists()
        return plan

    def _rerun(self, tmp_path, plan):
        keys = [t.cache_key for t in plan.shard_trials(0)]
        assert set(scan_cache_dir(tmp_path / "s0")[0]) == set(keys[:2])
        receipt = run_shard(tmp_path / "plan" / "shard-0.json",
                            tmp_path / "s0")
        assert (receipt.stats.trials_run, receipt.stats.cache_hits) == (2, 2)
        assert receipt.stats.trials_total == len(keys) == 4

    def test_inline_rerun_resumes(self, tmp_path, monkeypatch):
        plan = self._interrupted(
            tmp_path, monkeypatch, KeyboardInterrupt(), backend_kind="inline"
        )
        self._rerun(tmp_path, plan)

    def test_pool_rerun_resumes(self, tmp_path, monkeypatch):
        plan = self._interrupted(
            tmp_path, monkeypatch, RuntimeError("trial 3 of 4 fails"),
            backend_kind="process", workers=2,
        )
        self._rerun(tmp_path, plan)

    def test_status_sees_the_interrupted_shard(self, tmp_path, monkeypatch):
        plan = self._interrupted(tmp_path, monkeypatch, KeyboardInterrupt())
        row = fleet_status(plan, [tmp_path / "s0"]).shards[0]
        assert (row.state, row.completed, row.planned) == ("running", 2, 4)
        row = fleet_status(plan, [tmp_path / "s0"], stall_sec=0).shards[0]
        assert (row.state, row.completed) == ("stalled", 2)


class TestReceiptTelemetry:
    """Satellite: per-shard RunnerStats + obs metrics survive the merge."""

    @pytest.mark.parametrize("backend_kind", ["inline", "process"])
    def test_receipt_carries_metrics_snapshot(self, tmp_path, backend_kind):
        """Simulator metrics reach the receipt from either substrate: a
        pool worker's registry is not the parent's, so each trial's
        metrics come back with its outcome."""
        plan = small_plan(num_shards=1, trials=2)
        plan.write(tmp_path / "plan")
        receipt = run_shard(
            tmp_path / "plan" / "shard-0.json", tmp_path / "s0",
            backend_kind=backend_kind, workers=2,
        )
        metrics = receipt.metrics["metrics"]
        assert metrics["sim.trials"]["value"] == len(plan.trials)
        assert metrics["sim.packets"]["value"] > 0
        assert metrics["sim.wall_sec"]["count"] == len(plan.trials)
        assert metrics["sim.pkts_per_sec"]["count"] == len(plan.trials)
        # The receipt on disk round-trips the snapshot.
        reloaded = ShardReceipt.load(tmp_path / "s0")
        assert reloaded.metrics == receipt.metrics
        if backend_kind == "process":
            inline = run_shard(
                tmp_path / "plan" / "shard-0.json", tmp_path / "inline",
                backend_kind="inline",
            ).metrics["metrics"]
            for name in ("sim.trials", "sim.packets", "sim.events",
                         "sim.queue_drops"):
                assert metrics[name] == inline[name], name

    def test_merge_aggregates_per_shard_stats_and_metrics(self, tmp_path):
        plan = small_plan(
            num_shards=2, trials=2,
            ids=["iperf_cubic", "iperf_reno", "iperf_bbr"],
        )
        plan.write(tmp_path / "plan")
        dirs = []
        for shard in range(2):
            run_shard(
                tmp_path / "plan" / f"shard-{shard}.json",
                tmp_path / f"s{shard}",
            )
            dirs.append(tmp_path / f"s{shard}")
        report = merge_shards(plan, dirs, tmp_path / "merged")
        assert sorted(report.per_shard_stats) == [0, 1]
        assert sum(
            s.trials_run for s in report.per_shard_stats.values()
        ) == report.stats.trials_run == len(plan.trials)
        assert report.metrics["metrics"]["sim.trials"]["value"] \
            == len(plan.trials)
        payload = json.loads(json.dumps(report.to_json()))
        assert payload["per_shard_stats"]["0"]["trials_run"] \
            == report.per_shard_stats[0].trials_run


def _edited(**changes):
    """A damage function: re-serialise the JSON object with ``changes``
    applied (``None`` drops the key)."""

    def damage(text):
        payload = json.loads(text)
        for name, value in changes.items():
            if value is None:
                del payload[name]
            else:
                payload[name] = value
        return json.dumps(payload)

    return damage


_HOSTILE = [
    (lambda text: text[: len(text) // 2], "not valid JSON"),
    (lambda text: text.replace('"schema":', '"schema"?', 1), "not valid JSON"),
    (lambda text: f"[{text}]", "expected a JSON object, found list"),
    (_edited(schema=999), "schema 999"),
]
_HOSTILE_IDS = ["truncated", "bit-flipped", "top-level-list", "future-schema"]


class TestHostileManifestsAndReceipts:
    """The two fleet artifacts a worker and the merger read from another
    host: damaged, they raise ``FleetError`` naming the file and the
    defect - never a raw JSONDecodeError / AttributeError / KeyError."""

    @pytest.mark.parametrize(
        "damage, complaint",
        _HOSTILE + [
            (_edited(trials=None), "manifest lacks trials"),
            (_edited(plan_id=None, num_shards=None),
             "manifest lacks num_shards, plan_id"),
            (_edited(kind="fleet-plan"), "not a shard manifest"),
        ],
        ids=_HOSTILE_IDS + ["no-trials", "two-fields-missing", "wrong-kind"],
    )
    def test_hostile_shard_manifest_is_a_named_fleet_error(
        self, tmp_path, damage, complaint
    ):
        path = small_plan(num_shards=1).write(tmp_path / "plan")[1]
        path.write_text(damage(path.read_text()))
        with pytest.raises(FleetError) as caught:
            run_shard(path, tmp_path / "cache")
        assert str(path) in str(caught.value)
        assert complaint in str(caught.value)
        # Refused before anything ran: no cache directory, no receipt.
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize(
        "damage, complaint",
        _HOSTILE + [
            (_edited(plan_id=None),
             "malformed shard receipt (KeyError: 'plan_id')"),
            (_edited(stats=[1, 2]), "malformed shard receipt"),
        ],
        ids=_HOSTILE_IDS + ["no-plan-id", "stats-not-an-object"],
    )
    def test_hostile_receipt_is_a_named_fleet_error(
        self, tmp_path, damage, complaint
    ):
        plan = small_plan(num_shards=1)
        shard = tmp_path / "s0"
        shard.mkdir()
        ShardReceipt(plan.plan_id, 0, 1, CACHE_SCHEMA_VERSION).write(shard)
        path = shard / RECEIPT_FILENAME
        path.write_text(damage(path.read_text()))
        for load in (
            lambda: ShardReceipt.load(shard),
            lambda: merge_shards(plan, [shard], tmp_path / "merged"),
        ):
            with pytest.raises(FleetError) as caught:
                load()
            assert str(path) in str(caught.value)
            assert complaint in str(caught.value)

    def test_fleet_status_still_treats_a_torn_receipt_as_absent(
        self, tmp_path
    ):
        plan = small_plan(num_shards=1)
        shard = tmp_path / "s0"
        shard.mkdir()
        (shard / RECEIPT_FILENAME).write_text('{"schema": 2, "kind": "sh')
        status = fleet_status(plan, [shard])
        assert not status.complete


class TestDamagedEntryAtAssembly:
    """A damaged record in a merged cache aborts assembly naming its
    log, line and key; no report is built from the records around it."""

    @pytest.mark.parametrize("kind", sorted(TRIAL_DAMAGE))
    def test_assembly_names_the_damaged_file(self, tmp_path, kind):
        damage, complaint = TRIAL_DAMAGE[kind]
        plan = small_plan(num_shards=1, trials=1)
        run_shard(plan.manifest_for(0), tmp_path / "s0")
        merge_shards(plan, [tmp_path / "s0"], tmp_path / "merged")
        key = plan.trials[-1].cache_key
        # A new inode: the merge hard-linked the log, damage only this copy.
        victim, line = cache_logs.rewrite(tmp_path / "merged", key, damage)
        with pytest.raises(FleetError) as caught:
            assemble_reports(plan, TrialCache(tmp_path / "merged"))
        assert f"{victim}: line {line}, key {key}: " in str(caught.value)
        assert complaint in str(caught.value)
        assert TrialCache(tmp_path / "s0").get(plan.trials[-1].spec)


class TestRunShardKeepsItsChecks:
    """``run_shard`` records its trials without building their results;
    what it reads is checked all the same."""

    @staticmethod
    def filled(root, truncated=()):
        """A one-shard plan and its cache of synthetic results in
        ``root``; the trials at the ``truncated`` indexes were
        early-terminated."""
        plan = small_plan(num_shards=1, trials=1)
        cache = TrialCache(root)
        for index, trial in enumerate(plan.trials):
            cut = 4_000_000 if index in truncated else None
            cache.put(trial.spec, synthetic_result(trial.spec, cut))
        return plan

    def test_an_unarmed_shard_resimulates_a_truncated_entry(self, tmp_path):
        plan = self.filled(tmp_path, truncated=(0,))
        receipt = run_shard(plan.manifest_for(0), tmp_path)
        assert receipt.stats.trials_run == 1
        assert receipt.stats.cache_hits == len(plan.trials) - 1
        # The full-length run is appended to a log of its own; a reader
        # reads it over the truncated line.
        assert len(cache_logs.logs(tmp_path)) == 2
        rewritten = TrialCache(tmp_path).get(plan.trials[0].spec)
        assert not rewritten.truncated and rewritten.earlystop is None

    @pytest.mark.parametrize("kind", sorted(TRIAL_DAMAGE))
    def test_a_damaged_entry_stops_the_shard_by_name(self, tmp_path, kind):
        damage, complaint = TRIAL_DAMAGE[kind]
        plan = self.filled(tmp_path)
        key = plan.trials[-1].cache_key
        victim, line = cache_logs.rewrite(tmp_path, key, damage)
        with pytest.raises(CacheEntryError) as caught:
            run_shard(plan.manifest_for(0), tmp_path)
        assert f"{victim}: line {line}, key {key}: " in str(caught.value)
        assert complaint in str(caught.value)
        assert not (tmp_path / RECEIPT_FILENAME).exists()

    def test_a_warm_shard_builds_no_result(self, tmp_path, monkeypatch):
        plan = self.filled(tmp_path)
        built = []
        init = ExperimentResult.__init__

        def counting_init(result, *args, **kwargs):
            built.append(result)
            init(result, *args, **kwargs)

        monkeypatch.setattr(ExperimentResult, "__init__", counting_init)
        receipt = run_shard(plan.manifest_for(0), tmp_path)
        assert receipt.stats.trials_run == 0
        assert receipt.stats.cache_hits == len(plan.trials)
        assert built == []


class TestAssemblyMisses:
    """A replay miss aborts assembly with the message that says why: an
    absent entry asks for the shards, an entry the plan may not admit
    (truncated, under an unarmed plan) says so."""

    @staticmethod
    def filled(root, truncated):
        """A one-shard plan and its cache of synthetic results in
        ``root``; the trials at the ``truncated`` indexes were
        early-terminated."""
        plan = small_plan(num_shards=1, trials=1)
        cache = TrialCache(root)
        for index, trial in enumerate(plan.trials):
            cut = 4_000_000 if index in truncated else None
            cache.put(trial.spec, synthetic_result(trial.spec, cut))
        return plan

    def test_an_absent_entry_asks_to_merge_all_shards(self, tmp_path):
        plan = self.filled(tmp_path, truncated=(0,))
        gone = plan.trials[-1].cache_key
        cache_logs.drop(tmp_path, gone)
        with pytest.raises(FleetError) as caught:
            assemble_reports(plan, TrialCache(tmp_path))
        assert str(caught.value) == (
            f"cache is missing 1 of {len(plan.trials)} planned trials "
            f"({gone[:12]}...) - merge all shards before assembling"
        )

    def test_a_truncated_entry_under_an_unarmed_plan(self, tmp_path):
        plan = self.filled(tmp_path, truncated=(0,))
        with pytest.raises(FleetError) as caught:
            assemble_reports(plan, TrialCache(tmp_path))
        assert str(caught.value).startswith(
            "assembly would have to simulate 1 trial(s) - entries are "
            "truncated (early-terminated)"
        )


# ----------------------------------------------------------------------
# Manifest schema 3: config tables + index rows (DESIGN section 2.1)
# ----------------------------------------------------------------------


def _typed_configs_cycle():
    """``==``-equal configs of different types: each is its own trial
    identity, so each must stay its own table entry."""
    return plan_cycle(
        IDS,
        [
            NetworkConfig(bandwidth_bps=8e6),
            NetworkConfig(bandwidth_bps=8000000),
            NetworkConfig(bandwidth_bps=8e6, power_of_two_queue=1),
            NetworkConfig(bandwidth_bps=8e6, external_loss_rate=-0.0),
        ],
        ExperimentConfig(
            duration_usec=10_000_000.0, warmup_usec=2_000_000,
            cooldown_usec=2_000_000, seed=False,
        ),
        trials_per_pair=2, num_shards=3, base_seed=5,
    )


def _adaptive_round():
    policy = TrialPolicyConfig(
        min_trials=2, max_trials=4, batch_size=2,
        ci_halfwidth_bps=units.mbps(0.5),
    )
    state = AdaptiveCycleState(
        IDS + ["iperf_bbr"], [NetworkConfig(units.mbps(8))], FAST,
        policies=[policy], base_seed=7,
    )
    return state.plan_round(num_shards=2)


#: name -> (builder, sha256 over every trial's ids / configs / seed / key
#: / shard in plan order, plan_id) - the last two as the commit before
#: schema 3 computed them (under schema 2).
PLAN_SHAPES = {
    "default-catalog-cycle": (
        lambda: plan_cycle(
            CATALOG.ids(),
            [NetworkConfig(units.mbps(8)), NetworkConfig(units.mbps(50))],
            ExperimentConfig().scaled(3),
            trials_per_pair=2, num_shards=4, base_seed=7,
        ),
        "4fadda313f248db3c795cc9af3fec2a74d43e75c42a5d15d6e5ea01bbbd974f1",
        "1016fc125487",
    ),
    "typed-configs-cycle": (
        _typed_configs_cycle,
        "b93e5899613f60edd16290bdcacb9ff23c877fd1224c13c96a8d6a19deb31757",
        "d1bea5d7a832",
    ),
    "sweep": (
        lambda: plan_sweep(
            "bandwidth", "iperf_cubic", "iperf_reno", [8, 30, 50], FAST,
            num_shards=2, trials=3, base_seed=1,
        ),
        "e41dd9001dce466474eb78a48257ac05ffd90fb92524ec6c161828842058bcc7",
        "be39d15af69a",
    ),
    "adaptive-round": (
        _adaptive_round,
        "274a21c5601ab72176d4412212180922b63a70d2ff48dad6cb82edd2f9d0e38c",
        "56139541ed7a",
    ),
}


def _trials_digest(plan):
    rows = [
        [list(t.spec.service_ids), repr(t.spec.network), repr(t.spec.config),
         t.spec.seed, t.cache_key, t.shard]
        for t in plan.trials
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def _distinct(configs):
    return list({id(config): config for config in configs}.values())


class TestNormalizedLayout:
    @pytest.fixture(params=sorted(PLAN_SHAPES))
    def shape(self, request):
        build, digest, schema2_id = PLAN_SHAPES[request.param]
        return build(), digest, schema2_id

    def test_planned_work_equals_the_pre_change_values(self, shape):
        """Keys, seeds, spec order and shard assignment are what they
        were; a new plan's id moves only through the schema number it
        has always hashed."""
        plan, digest, schema2_id = shape
        assert _trials_digest(plan) == digest
        assert plan.schema == MANIFEST_SCHEMA_VERSION == 3
        as_schema2 = FleetPlan(
            plan.kind, plan.num_shards, plan.trials, plan.params,
            cycle_id=plan.cycle_id, round_index=plan.round_index, schema=2,
        )
        assert as_schema2.plan_id.startswith(schema2_id)
        assert plan.plan_id != as_schema2.plan_id

    def test_write_load_reserialise_is_byte_stable(self, shape, tmp_path):
        plan, digest, _schema2_id = shape
        paths = plan.write(tmp_path / "first")
        loaded = load_plan(paths[0])
        assert loaded.plan_id == plan.plan_id
        assert _trials_digest(loaded) == digest
        assert loaded.expected_keys() == plan.expected_keys()
        again = loaded.write(tmp_path / "second")
        assert [p.read_bytes() for p in again] == [
            p.read_bytes() for p in paths
        ]

    def test_tables_hold_each_distinct_config_object_once(self, shape):
        plan, _digest, _schema2_id = shape
        payloads = [(plan.to_json(), plan.trials)] + [
            (plan.manifest_for(shard), plan.shard_trials(shard))
            for shard in range(plan.num_shards)
        ]
        for payload, trials in payloads:
            networks = _distinct(t.spec.network for t in trials)
            configs = _distinct(t.spec.config for t in trials)
            assert payload["networks"] == [
                dataclasses.asdict(n) for n in networks
            ]
            assert payload["configs"] == [
                dataclasses.asdict(c) for c in configs
            ]
            assert len(payload["trials"]) == len(trials)
            for row, trial in zip(payload["trials"], trials):
                assert networks[row[1]] is trial.spec.network
                assert configs[row[2]] is trial.spec.config

    def test_equal_values_of_different_types_never_share_an_entry(self):
        plan = _typed_configs_cycle()
        tables = json.loads(json.dumps(plan.to_json()))["networks"]
        assert len(tables) == 4
        assert [json.dumps(t) for t in tables] == [
            json.dumps(dataclasses.asdict(n))
            for n in _distinct(t.spec.network for t in plan.trials)
        ]
        # 8e6 / 8000000, True / 1 and 0.0 / -0.0 compare equal ...
        assert all(a == b for a in tables for b in tables)
        # ... and survive a write and a load as four identities.
        loaded = FleetPlan.from_json(json.loads(json.dumps(plan.to_json())))
        assert len({id(t.spec.network) for t in loaded.trials}) == 4
        assert [repr(t.spec) for t in loaded.trials] == [
            repr(t.spec) for t in plan.trials
        ]


V2_FIXTURE = Path(__file__).parent / "data" / "fleet_plan_v2"
V2_PLAN_ID = "1f8011affbb79e934d40045e1dc594d4194d1188e55fca36cb19d7b7c7dd1e3c"


def _v2_replanned():
    """What ``fleet plan cycle --services iperf_cubic iperf_reno --trials
    2 --duration 10 --shards 2`` plans today: the fixture's command."""
    return plan_cycle(
        IDS, [NetworkConfig(bandwidth_bps=units.mbps(8))],
        ExperimentConfig().scaled(10),
        trials_per_pair=2, num_shards=2, base_seed=1,
    )


class TestSchema2FilesKeepWorking:
    """``tests/data/fleet_plan_v2/`` was written by the commit before
    schema 3 (every row repeating its configs inline).  Such files sit
    in spools and round directories; they load through the same reader,
    keep the plan id they were written with, and assemble to the report
    a plan written today does."""

    def test_fixture_loads_with_its_recorded_plan_id(self):
        payload = json.loads((V2_FIXTURE / "plan.json").read_text())
        assert payload["schema"] == 2 and "networks" not in payload
        assert isinstance(payload["trials"][0]["network"], dict)
        plan = load_plan(V2_FIXTURE / "plan.json")
        assert plan.schema == 2 and plan.plan_id == V2_PLAN_ID
        today = _v2_replanned()
        assert plan.expected_keys() == today.expected_keys()
        assert [t.spec for t in plan.trials] == [t.spec for t in today.trials]
        assert [t.shard for t in plan.trials] == [t.shard for t in today.trials]
        assert plan.plan_id != today.plan_id
        # One config object per distinct inline payload, not per row.
        assert len({id(t.spec.network) for t in plan.trials}) == 1
        assert len({id(t.spec.config) for t in plan.trials}) == 1

    def test_fixture_runs_merges_and_assembles_like_todays_plan(
        self, tmp_path
    ):
        old = load_plan(V2_FIXTURE / "plan.json")
        shard_dirs = [tmp_path / "s0", tmp_path / "s1"]
        for index, shard_dir in enumerate(shard_dirs):
            receipt = run_shard(V2_FIXTURE / f"shard-{index}.json", shard_dir)
            assert receipt.plan_id == V2_PLAN_ID
            assert receipt.stats.trials_total == len(old.shard_trials(index))
        merge = merge_shards(old, shard_dirs, tmp_path / "merged-old")
        assert (merge.entries_merged, merge.gaps) == (len(old.trials), [])
        (old_report,) = assemble_reports(
            old, TrialCache(tmp_path / "merged-old")
        )

        new = _v2_replanned()
        for manifest, shard_dir in zip(new.write(tmp_path / "new")[1:], shard_dirs):
            assert run_shard(manifest, shard_dir).stats.trials_run == 0
        merge_shards(new, shard_dirs, tmp_path / "merged-new")
        (new_report,) = assemble_reports(
            new, TrialCache(tmp_path / "merged-new")
        )
        old_json, new_json = old_report.to_json(), new_report.to_json()
        assert old_json.pop("runner_stats") == new_json.pop("runner_stats")
        assert old_json == new_json

    def test_manifests_with_fingerprint_fields_still_run(self, tmp_path):
        """Manifests once carried ``network_fingerprints`` and
        ``config_fingerprints`` (nothing read them; the worker re-derives
        every row's key).  Today's manifests drop them, and a file
        written with them still runs."""
        old = json.loads((V2_FIXTURE / "shard-0.json").read_text())
        fields = ("network_fingerprints", "config_fingerprints")
        manifest = _v2_replanned().manifest_for(0)
        assert not set(fields) & set(manifest)
        manifest.update({name: old[name] for name in fields})
        path = tmp_path / "shard-0.json"
        path.write_text(json.dumps(manifest))
        receipt = run_shard(path, tmp_path / "s0")
        assert receipt.stats.trials_total == len(old["trials"])
        assert set(scan_cache_dir(tmp_path / "s0")[0]) == {
            row["cache_key"] for row in old["trials"]
        }

    def test_fixture_ingests_to_the_site_todays_plan_ingests_to(
        self, tmp_path
    ):
        from repro.service import WatchdogService

        cache = tmp_path / "cache"
        for index in range(2):
            run_shard(V2_FIXTURE / f"shard-{index}.json", cache)
        sites = []
        for name in ("old", "new"):
            entry = tmp_path / name / "spool" / "incoming" / "cycle-0"
            if name == "old":
                shutil.copytree(V2_FIXTURE, entry)
            else:
                _v2_replanned().write(entry)
            shutil.copytree(cache, entry / "cache")
            service = WatchdogService(
                tmp_path / name / "spool", tmp_path / name / "out",
                networks=[NetworkConfig(bandwidth_bps=units.mbps(8))],
                plan_config=FAST, plan_trials=1,
            )
            summary = service.ingest_once()
            assert summary["ingested"][0]["trials"] == 6
            assert (summary["ingested"][0]["cycle_id"] == V2_PLAN_ID) == (
                name == "old"
            )
            site = tmp_path / name / "out" / "site"
            sites.append({
                str(path.relative_to(site)): path.read_bytes()
                for path in sorted(site.rglob("*")) if path.is_file()
            })
            # What the coordinator publishes is always today's layout.
            published = json.loads(
                (tmp_path / name / "out" / "next-plan" / "plan.json").read_text()
            )
            assert published["schema"] == MANIFEST_SCHEMA_VERSION
        assert sites[0] == sites[1] and "index.md" in sites[0]


def _edit_plan_row(column, value):
    def damage(payload):
        payload["trials"][0][ROW_COLUMNS.index(column)] = value

    return damage


#: Defects only a schema-3 file can have: name -> (edit of the parsed
#: plan or manifest, what the error must say).
HOSTILE_V3 = {
    "index-out-of-range": (
        _edit_plan_row("network", 7),
        "no NetworkConfig object or table entry 7",
    ),
    "negative-index": (
        _edit_plan_row("config", -1),
        "no ExperimentConfig object or table entry -1",
    ),
    "true-as-index": (
        _edit_plan_row("network", True),
        "no NetworkConfig object or table entry True",
    ),
    "table-missing": (
        lambda payload: payload.pop("networks"),
        "no NetworkConfig object or table entry 0",
    ),
    "table-entry-not-an-object": (
        lambda payload: payload["configs"].__setitem__(0, [1, 2]),
        "no ExperimentConfig object or table entry [1, 2]",
    ),
    "row-too-short": (
        lambda payload: payload["trials"].__setitem__(0, [["a", "b"], 0]),
        "IndexError",
    ),
}


def damage_v3(path, kind):
    """Apply one :data:`HOSTILE_V3` defect to the JSON file at ``path``;
    returns what the error must say."""
    edit, complaint = HOSTILE_V3[kind]
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    return complaint


class TestHostileSchema3Files:
    @pytest.mark.parametrize("kind", sorted(HOSTILE_V3))
    def test_load_plan_and_run_shard_name_file_and_defect(
        self, tmp_path, kind
    ):
        paths = small_plan(num_shards=1).write(tmp_path / "plan")
        for path, load in (
            (paths[0], load_plan),
            (paths[1], lambda p: run_shard(p, tmp_path / "cache")),
        ):
            complaint = damage_v3(path, kind)
            with pytest.raises(FleetError) as caught:
                load(path)
            assert str(path) in str(caught.value)
            assert complaint in str(caught.value)
        # Refused before anything ran: no cache directory, no receipt.
        assert not (tmp_path / "cache").exists()
