"""Adaptive multi-round fleet cycles: plan -> run -> merge -> re-plan.

Covers the convergence-driven fleet driver end to end: round-scoped
plans, cumulative folding, receipt recovery (retry + supersede), state
serialisation, and the two acceptance invariants - a converged adaptive
cycle (a) runs measurably fewer trials than the fixed max-trial plan on
a mixed stable/noisy catalog, and (b) assembles into reports
bit-identical to the single-host adaptive path, with zero simulation on
a warm cache.
"""

import json

import pytest

from repro import units
from repro.config import (
    ExperimentConfig,
    TrialPolicyConfig,
    highly_constrained,
    moderately_constrained,
)
from repro.core import stats
from repro.core.cache import TrialCache
from repro.core.runner import CacheMissError, InlineBackend, replay
from repro.core.watchdog import Prudentia
from repro.fleet import (
    ASSEMBLY_PLAN_FILENAME,
    MANIFEST_SCHEMA_VERSION,
    STATE_FILENAME,
    AdaptiveCycleState,
    FleetError,
    FleetPlan,
    ShardReceipt,
    assemble_reports,
    fleet_status,
    load_plan,
    merge_shards,
    plan_cycle,
    retry_manifests,
    run_adaptive_cycle,
    run_shard,
)
from repro.fleet.worker import RECEIPT_FILENAME

FAST = ExperimentConfig().scaled(10)
NET = highly_constrained()
IDS = ["iperf_cubic", "iperf_reno"]
#: Mixed catalog: iperf bulk flows pair stably, the ABR video services
#: inject enough trial-to-trial variance that some pairs hit the cap.
MIXED_IDS = [
    "iperf_cubic", "iperf_reno", "iperf_bbr", "youtube", "netflix", "vimeo",
]


def make_policy(min_trials=2, max_trials=6, batch=2, ci_mbps=1.0):
    return TrialPolicyConfig(
        min_trials=min_trials,
        max_trials=max_trials,
        batch_size=batch,
        ci_halfwidth_bps=units.mbps(ci_mbps),
    )


def make_state(ids=None, policy=None, base_seed=7):
    return AdaptiveCycleState(
        ids or IDS,
        [NET],
        FAST,
        policies=[policy or make_policy()],
        base_seed=base_seed,
    )


class TestRoundScopedPlans:
    def test_round_plan_carries_cycle_identity(self):
        state = make_state()
        plan = state.plan_round(num_shards=2)
        assert plan.schema == MANIFEST_SCHEMA_VERSION
        assert plan.cycle_id == state.cycle_id
        assert plan.round_index == 0
        manifest = plan.manifest_for(0)
        assert manifest["cycle"] == {"id": state.cycle_id, "round": 0}
        assert manifest["attempt"] == 0

    def test_round_zero_covers_min_trials_only(self):
        state = make_state(policy=make_policy(min_trials=2, max_trials=6))
        plan = state.plan_round(num_shards=1)
        assert len(plan.trials) == 2 * len(state.trackers[0].pairs())

    def test_plan_is_deterministic_under_replanning(self):
        a = make_state().plan_round(num_shards=2)
        b = make_state().plan_round(num_shards=2)
        assert a.plan_id == b.plan_id
        assert a.to_json() == b.to_json()

    def test_same_inputs_same_cycle_id(self):
        assert make_state().cycle_id == make_state().cycle_id
        assert make_state().cycle_id != make_state(base_seed=8).cycle_id

    def test_seeds_match_fixed_plan_for_shared_prefix(self):
        """Adaptive round-0 keys are a subset of the fixed plan's keys:
        re-planning on a warm cache is free."""
        state = make_state(policy=make_policy(min_trials=2, max_trials=6))
        adaptive = state.plan_round(num_shards=2)
        fixed = plan_cycle(
            IDS, [NET], FAST, trials_per_pair=6, num_shards=2, base_seed=7
        )
        fixed_keys = {t.cache_key for t in fixed.trials}
        assert {t.cache_key for t in adaptive.trials} <= fixed_keys


class TestFoldRound:
    def run_round(self, state, plan, cache_dir):
        plan_dir = cache_dir / f"plan-{plan.round_index}"
        plan.write(plan_dir)
        for shard in range(plan.num_shards):
            run_shard(
                plan_dir / f"shard-{shard}.json",
                cache_dir / f"shard-{plan.round_index}-{shard}",
            )
        merge_shards(
            plan,
            [
                cache_dir / f"shard-{plan.round_index}-{shard}"
                for shard in range(plan.num_shards)
            ],
            cache_dir / "merged",
        )

    def test_fold_advances_round_and_retires_pairs(self, tmp_path):
        state = make_state()
        rounds = 0
        while True:
            plan = state.plan_round(num_shards=2)
            if plan is None:
                break
            self.run_round(state, plan, tmp_path)
            entry = state.fold_round(plan, TrialCache(tmp_path / "merged"))
            assert entry["round"] == rounds
            rounds += 1
            assert state.round_index == rounds
        assert state.done
        assert rounds == len(state.history)
        counts = state.trackers[0].counts()
        assert counts["open"] == 0

    def test_fold_rejects_foreign_cycle(self, tmp_path):
        state = make_state()
        foreign = make_state(base_seed=99).plan_round(num_shards=2)
        with pytest.raises(FleetError, match="not this cycle"):
            state.fold_round(foreign, TrialCache(tmp_path / "c"))

    def test_fold_rejects_out_of_order_round(self, tmp_path):
        state = make_state()
        plan = state.plan_round(num_shards=2)
        self.run_round(state, plan, tmp_path)
        state.fold_round(plan, TrialCache(tmp_path / "merged"))
        with pytest.raises(FleetError, match="fold rounds in order"):
            state.fold_round(plan, TrialCache(tmp_path / "merged"))

    def test_fold_never_simulates(self, tmp_path):
        """Folding against an empty cache raises instead of silently
        re-running the round's simulations."""
        state = make_state()
        plan = state.plan_round(num_shards=2)
        (tmp_path / "empty").mkdir()
        with pytest.raises(CacheMissError):
            state.fold_round(plan, TrialCache(tmp_path / "empty"))


def _without_trackers(text):
    payload = json.loads(text)
    del payload["trackers"]
    return json.dumps(payload)


def _with_future_tracker(text):
    payload = json.loads(text)
    payload["trackers"][0]["schema"] = 99
    return json.dumps(payload)


class TestCycleStateSerialisation:
    def test_state_round_trips_mid_cycle(self, tmp_path):
        state = make_state()
        plan = state.plan_round(num_shards=2)
        folder = TestFoldRound()
        folder.run_round(state, plan, tmp_path)
        state.fold_round(plan, TrialCache(tmp_path / "merged"))

        restored = AdaptiveCycleState.from_json(
            json.loads(json.dumps(state.to_json()))
        )
        assert restored.cycle_id == state.cycle_id
        assert restored.round_index == state.round_index
        assert restored.history == state.history
        # The restored state plans the identical next round.
        ours = state.plan_round(num_shards=2)
        theirs = restored.plan_round(num_shards=2)
        if ours is None:
            assert theirs is None
        else:
            assert ours.plan_id == theirs.plan_id

    def test_resumed_cycle_ends_where_an_uninterrupted_one_does(
        self, tmp_path
    ):
        """Saved and re-loaded between every round - each round planned
        and folded by a fresh object, as after a restart on another host
        - the cycle ends with the ``cycle-state.json`` and the assembly
        plan of one driven straight through."""
        folder = TestFoldRound()

        def drive(directory, resume):
            state = make_state(policy=make_policy(ci_mbps=0.0))  # 3 rounds
            while (plan := state.plan_round(num_shards=2)) is not None:
                folder.run_round(state, plan, directory)
                state.fold_round(plan, TrialCache(directory / "merged"))
                state.save(directory)
                if resume:
                    state = AdaptiveCycleState.load(directory)
            assert state.round_index > 1
            return (
                (directory / STATE_FILENAME).read_bytes(),
                state.assembly_plan(num_shards=2).to_json(),
            )

        straight = drive(tmp_path / "straight", resume=False)
        assert drive(tmp_path / "resumed", resume=True) == straight

    def test_state_rejects_schema_skew(self):
        payload = make_state().to_json()
        payload["schema"] = 999
        with pytest.raises(FleetError, match="schema"):
            AdaptiveCycleState.from_json(payload)

    def test_state_rejects_tampered_inputs(self):
        payload = make_state().to_json()
        payload["base_seed"] = 12345  # no longer matches cycle_id
        with pytest.raises(FleetError, match="cycle_id mismatch"):
            AdaptiveCycleState.from_json(payload)

    def test_load_requires_state_file(self, tmp_path):
        with pytest.raises(FleetError, match=STATE_FILENAME):
            AdaptiveCycleState.load(tmp_path)

    @pytest.mark.parametrize(
        "damage, complaint",
        [
            (lambda text: text[: len(text) // 2], "not valid JSON"),
            (lambda text: text.replace('"schema":', '"schema"?', 1), "not valid JSON"),
            (lambda text: f"[{text}]", "expected a JSON object, found list"),
            (_without_trackers, "malformed cycle state (KeyError: 'trackers')"),
            (_with_future_tracker, "convergence tracker schema 99"),
        ],
        ids=["truncated", "bit-flipped", "top-level-list", "no-trackers",
             "future-tracker-schema"],
    )
    def test_hostile_state_file_is_a_named_fleet_error(
        self, tmp_path, damage, complaint
    ):
        """A damaged ``cycle-state.json`` never escapes as a raw
        JSONDecodeError / KeyError / AttributeError: ``fleet status``
        prints one line naming the file and the defect, and exits 1."""
        make_state().save(tmp_path)
        path = tmp_path / STATE_FILENAME
        path.write_text(damage(path.read_text()))
        with pytest.raises(FleetError) as caught:
            AdaptiveCycleState.load(tmp_path)
        assert str(path) in str(caught.value)
        assert complaint in str(caught.value)

    def test_fleet_status_reports_a_hostile_state_cleanly(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        make_state().save(tmp_path)
        path = tmp_path / STATE_FILENAME
        path.write_text(path.read_text()[:100])
        assert main(["fleet", "status", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("fleet error: ")
        assert STATE_FILENAME in err and "not valid JSON" in err

    def test_kill_mid_save_keeps_the_previous_state(self, tmp_path, request):
        """cycle-state.json is the resume point (and what the service
        ingests): a kill between temp-write and rename must leave the
        previous round's state loadable, not a truncated file."""
        state = make_state()
        state.save(tmp_path)
        before = (tmp_path / STATE_FILENAME).read_bytes()
        plan = state.plan_round(num_shards=1)
        TestFoldRound().run_round(state, plan, tmp_path)
        state.fold_round(plan, TrialCache(tmp_path / "merged"))
        killer = request.getfixturevalue("kill_before_rename")
        with pytest.raises(KeyboardInterrupt):
            state.save(tmp_path)
        killer.undo()
        assert (tmp_path / STATE_FILENAME).read_bytes() == before
        assert AdaptiveCycleState.load(tmp_path).round_index == 0
        assert list(tmp_path.glob("*.tmp")) == []
        state.save(tmp_path)
        assert AdaptiveCycleState.load(tmp_path).round_index == 1


class TestReceiptRecovery:
    def test_retry_manifests_bump_attempts(self, tmp_path):
        plan = make_state().plan_round(num_shards=2)
        plan_dir = tmp_path / "plan"
        plan.write(plan_dir)
        # Run only shard 1; shard 0 is missing.
        run_shard(plan_dir / "shard-1.json", tmp_path / "s1")
        status = fleet_status(plan, [tmp_path / "s1"])
        retries = retry_manifests(plan, status)
        assert [m["shard_index"] for m in retries] == [0]
        assert retries[0]["attempt"] == 1
        assert retries[0]["plan_id"] == plan.plan_id

    def test_merge_supersedes_duplicate_receipts(self, tmp_path):
        """Two receipts for one shard (original + retry): the higher
        attempt wins the per-shard slot, totals keep both."""
        plan = make_state().plan_round(num_shards=2)
        dirs = []
        for attempt in (0, 1):
            shard_dir = tmp_path / f"attempt{attempt}"
            run_shard(plan.manifest_for(0, attempt=attempt), shard_dir)
            dirs.append(shard_dir)
        run_shard(plan.manifest_for(1), tmp_path / "s1")
        dirs.append(tmp_path / "s1")
        report = merge_shards(plan, dirs, tmp_path / "merged")
        assert report.superseded_receipts == 1
        assert report.gaps == []
        winner = ShardReceipt.load(tmp_path / "attempt1")
        assert report.per_shard_stats[0].to_json() == winner.stats.to_json()

    def test_status_prefers_later_attempt(self, tmp_path):
        plan = make_state().plan_round(num_shards=2)
        for attempt in (0, 1):
            run_shard(
                plan.manifest_for(0, attempt=attempt),
                tmp_path / f"attempt{attempt}",
            )
        status = fleet_status(
            plan, [tmp_path / "attempt0", tmp_path / "attempt1"]
        )
        row = next(r for r in status.shards if r.shard_index == 0)
        assert row.attempt == 1
        assert row.directory == str(tmp_path / "attempt1")

    def test_cycle_recovers_lost_receipt(self, tmp_path):
        """A shard whose first dispatch never lands a receipt is re-run
        via an attempt-bumped manifest and the cycle still converges."""
        dropped = []

        def flaky(manifest, shard_cache):
            if manifest["shard_index"] == 0 and manifest["attempt"] == 0:
                dropped.append(manifest["cycle"]["round"])
                return  # worker lost: no receipt, no entries
            run_shard(manifest, shard_cache)

        state = run_adaptive_cycle(
            tmp_path / "cycle",
            IDS,
            [NET],
            FAST,
            policies=[make_policy()],
            num_shards=2,
            base_seed=7,
            dispatch=flaky,
        )
        assert state.done
        assert dropped  # the fault actually fired, every round
        # Retry artifacts are on disk next to the originals.
        retried = sorted(
            (tmp_path / "cycle").glob("round-*/shard-0-attempt1.json")
        )
        assert len(retried) == len(dropped)

    def test_cycle_fails_after_retries_exhausted(self, tmp_path):
        def dead_shard(manifest, shard_cache):
            if manifest["shard_index"] == 0:
                return
            run_shard(manifest, shard_cache)

        with pytest.raises(FleetError, match="still have no receipt"):
            run_adaptive_cycle(
                tmp_path / "cycle",
                IDS,
                [NET],
                FAST,
                policies=[make_policy()],
                num_shards=2,
                base_seed=7,
                dispatch=dead_shard,
                max_retries=1,
            )

    def test_a_negative_retry_budget_dispatches_nothing(self, tmp_path):
        """``max_retries=-1`` used to skip every dispatch loop and fail
        with "no receipt after -1 retries"; it is refused up front."""
        dispatched = []
        with pytest.raises(ValueError, match="max_retries"):
            run_adaptive_cycle(
                tmp_path / "cycle", IDS, [NET], FAST,
                policies=[make_policy()], num_shards=2, base_seed=7,
                dispatch=lambda manifest, cache: dispatched.append(manifest),
                max_retries=-1,
            )
        assert dispatched == []
        assert not (tmp_path / "cycle").exists()


    def test_clean_round_asks_for_status_once(self, tmp_path, monkeypatch):
        """The first dispatch is attempt 0 of the retry loop: a round
        whose receipts all land reads them once, one with a lost shard
        once more per retry."""
        from repro.fleet import adaptive

        calls = []

        def counted(plan, dirs, **kwargs):
            calls.append(plan.round_index)
            return fleet_status(plan, dirs, **kwargs)

        monkeypatch.setattr(adaptive, "fleet_status", counted)
        state = run_adaptive_cycle(
            tmp_path / "clean", IDS, [NET], FAST, policies=[make_policy()],
            num_shards=2, base_seed=7,
        )
        assert calls == list(range(state.round_index))

        def flaky(manifest, shard_cache):
            if manifest["shard_index"] == 0 and manifest["attempt"] == 0:
                return
            run_shard(manifest, shard_cache)

        del calls[:]
        run_adaptive_cycle(
            tmp_path / "flaky", IDS, [NET], FAST, policies=[make_policy()],
            num_shards=2, base_seed=7, dispatch=flaky,
        )
        assert calls == sorted(2 * list(range(state.round_index)))

    def test_max_rounds_bounds_the_cycle(self, tmp_path):
        kwargs = dict(
            policies=[make_policy(ci_mbps=0.0)], num_shards=2, base_seed=7
        )
        with pytest.raises(FleetError, match="within 2 rounds"):
            run_adaptive_cycle(
                tmp_path / "short", IDS, [NET], FAST, max_rounds=2, **kwargs
            )
        state = run_adaptive_cycle(
            tmp_path / "enough", IDS, [NET], FAST, max_rounds=3, **kwargs
        )
        assert state.done and state.round_index == 3


class TestAdaptiveCycleAcceptance:
    @pytest.fixture(scope="class")
    def converged(self, tmp_path_factory):
        """One 2-shard adaptive cycle over the mixed catalog."""
        out = tmp_path_factory.mktemp("adaptive") / "cycle"
        state = run_adaptive_cycle(
            out,
            MIXED_IDS,
            [NET],
            FAST,
            policies=[make_policy()],
            num_shards=2,
            base_seed=7,
        )
        return out, state

    def test_converges_with_fewer_trials_than_fixed_plan(self, converged):
        """Acceptance: on a mixed stable/noisy catalog the adaptive
        cycle converges with measurably fewer trials than the fixed
        max-trial plan."""
        _out, state = converged
        fixed = plan_cycle(
            MIXED_IDS, [NET], FAST, trials_per_pair=6, num_shards=2,
            base_seed=7,
        )
        assert state.done
        assert state.trials_done_total() < len(fixed.trials)
        assert state.trials_saved() > 0
        counts = state.trackers[0].counts()
        assert counts["converged"] > 0  # stable pairs stopped early
        assert counts["unstable"] > 0  # noisy pairs hit the cap
        # Every adaptive trial is one the fixed plan would also run, so
        # the adaptive cycle warms exactly a subset of the fixed cache.
        fixed_keys = {t.cache_key for t in fixed.trials}
        executed = {
            t.cache_key
            for round_plan in self._round_plans(converged)
            for t in round_plan.trials
        }
        assert executed <= fixed_keys

    @staticmethod
    def _round_plans(converged):
        out, state = converged
        return [
            load_plan(out / f"round-{index:03d}" / "plan.json")
            for index in range(state.round_index)
        ]

    def test_report_bit_identical_to_single_host_adaptive(self, converged):
        """Acceptance: converged fleet rounds assemble into reports
        bit-identical to a local adaptive ``run_cycle``."""
        out, state = converged
        plan = load_plan(out / ASSEMBLY_PLAN_FILENAME)
        fleet_report = assemble_reports(plan, TrialCache(out / "cache"))[0]
        assert fleet_report.runner_stats.trials_run == 0

        watchdog = Prudentia(
            networks=[NET],
            experiment_config=FAST,
            policy_overrides={NET.bandwidth_bps: make_policy()},
            base_seed=7,
        )
        watchdog.run_cycle(service_ids=MIXED_IDS)
        # The adaptive state sorts its service ids, so the assembly
        # plan's report params are sorted; order the local report the
        # same way (the id list only affects row/column order).
        single = watchdog.report(NET, service_ids=sorted(MIXED_IDS))

        assert fleet_report.render_heatmap() == single.render_heatmap()
        assert [r.to_json() for r in fleet_report.store.all_results()] == [
            r.to_json() for r in single.store.all_results()
        ]
        fleet_json = fleet_report.to_json()
        single_json = single.to_json()
        fleet_json.pop("runner_stats")
        single_json.pop("runner_stats")
        assert fleet_json == single_json

    def test_warm_cache_one_shot_runs_zero_simulations(self, converged):
        """Acceptance: re-running the cycle single-host against the
        fleet's cumulative cache simulates nothing."""
        out, _state = converged
        watchdog = Prudentia(
            networks=[NET],
            experiment_config=FAST,
            policy_overrides={NET.bandwidth_bps: make_policy()},
            base_seed=7,
            cache=TrialCache(out / "cache"),
        )
        watchdog.run_cycle(service_ids=MIXED_IDS)
        assert watchdog.last_cycle_stats.trials_run == 0
        assert watchdog.last_cycle_stats.cache_hits > 0

    def test_two_network_report_bit_identical_to_single_host_adaptive(
        self, tmp_path
    ):
        """Acceptance over two settings with different policies, where
        the fleet's rounds span both settings (round-major) and assembly
        is network-major: the local driver, re-running the cycle from
        the fleet's cache, simulates nothing, fills its store in the
        assembled order and publishes the same two reports."""
        ids = ["iperf_cubic", "iperf_bbr", "netflix"]
        networks = [NET, moderately_constrained()]
        policies = [
            make_policy(min_trials=2, max_trials=6, batch=2, ci_mbps=1.0),
            make_policy(min_trials=2, max_trials=5, batch=3, ci_mbps=1.5),
        ]
        out = tmp_path / "cycle"
        state = run_adaptive_cycle(
            out, ids, networks, FAST, policies=policies, num_shards=2,
            base_seed=7,
        )
        assert state.round_index == 3
        for tracker in state.trackers:  # both settings ran several rounds
            counts = tracker.counts()
            assert counts["converged"] and counts["unstable"]
        fleet_reports = assemble_reports(
            load_plan(out / ASSEMBLY_PLAN_FILENAME), TrialCache(out / "cache")
        )

        watchdog = Prudentia(
            networks=networks,
            experiment_config=FAST,
            policy_overrides={
                network.bandwidth_bps: policy
                for network, policy in zip(networks, policies)
            },
            base_seed=7,
            cache=TrialCache(out / "cache"),
        )
        watchdog.run_cycle(service_ids=ids)
        assert watchdog.last_cycle_stats.trials_run == 0
        assert watchdog.last_cycle_stats.cache_hits == state.trials_done_total()
        assert [r.to_json() for r in watchdog.store.all_results()] == [
            r.to_json() for r in fleet_reports[0].store.all_results()
        ]
        for network, fleet_report in zip(networks, fleet_reports):
            single = watchdog.report(network, service_ids=sorted(ids))
            assert fleet_report.render_heatmap() == single.render_heatmap()
            fleet_json, single_json = fleet_report.to_json(), single.to_json()
            fleet_json.pop("runner_stats")
            single_json.pop("runner_stats")
            assert fleet_json == single_json

    def test_assembly_replay_recomputes_no_summary(
        self, tmp_path, summaries_since
    ):
        """Assembly asks for no summary at all: the executed trial list
        is cut from the recorded trial counts, not re-derived through
        the stopping rule - in this process or a later one - and it is
        the plan the cycle wrote."""
        state = run_adaptive_cycle(
            tmp_path / "cycle", IDS, [NET], FAST,
            policies=[make_policy(ci_mbps=0.0)], num_shards=2, base_seed=7,
        )
        # 3 pairs x 2 series x 3 rounds, each computed once, by its fold
        # (run_adaptive_cycle's own assembly included).
        assert summaries_since() == (18, 0)
        here = state.assembly_plan(num_shards=2)
        stats._SUMMARY_MEMO.clear()
        later = AdaptiveCycleState.load(tmp_path / "cycle").assembly_plan(2)
        assert summaries_since() == (18, 0)
        written = load_plan(tmp_path / "cycle" / ASSEMBLY_PLAN_FILENAME)
        assert here.to_json() == later.to_json() == written.to_json()

    def test_state_file_tracks_progress(self, converged):
        out, state = converged
        loaded = AdaptiveCycleState.load(out)
        assert loaded.done
        assert loaded.cycle_id == state.cycle_id
        assert loaded.trials_done_total() == state.trials_done_total()
        progress = loaded.render_progress()
        assert "converged" in progress
        assert f"{state.round_index} round(s)" in progress

    def test_progress_json_is_machine_readable(self, converged):
        """``fleet status --json`` payload: per-network convergence and
        per-round history, JSON-round-trippable, no tracker internals."""
        out, state = converged
        payload = json.loads(
            json.dumps(AdaptiveCycleState.load(out).progress_json())
        )
        assert payload["cycle_id"] == state.cycle_id
        assert payload["done"] is True
        assert payload["pairs_open"] == 0
        assert payload["trials_done"] == state.trials_done_total()
        assert "trackers" not in payload
        assert len(payload["networks"]) == 1
        network = payload["networks"][0]
        assert network["bandwidth_bps"] == NET.bandwidth_bps
        assert network["open"] == 0
        assert (
            network["converged"] + network["unstable"] == network["pairs"]
        )
        assert len(payload["rounds"]) == state.round_index
        for entry in payload["rounds"]:
            assert {"round", "trials"} <= set(entry)


class TestManifestMigration:
    def test_v1_plan_still_loads_with_stable_id(self):
        """A schema-1 plan (pre-adaptive) round-trips: its stored
        plan_id was computed without the cycle block and must survive."""
        v2 = plan_cycle(IDS, [NET], FAST, trials_per_pair=2, num_shards=2,
                        base_seed=7)
        v1 = FleetPlan(
            v2.kind, v2.num_shards, list(v2.trials), params=v2.params,
            schema=1,
        )
        payload = v1.to_json()
        assert payload["schema"] == 1
        assert "cycle" not in payload
        reloaded = FleetPlan.from_json(json.loads(json.dumps(payload)))
        assert reloaded.plan_id == v1.plan_id
        assert reloaded.cycle_id is None
        # Identity differs from the v2 plan over the same trials: the
        # schema is part of the content hash.
        assert v1.plan_id != v2.plan_id

    def test_round_scoped_ids_differ_by_round(self):
        state = make_state()
        round0 = state.plan_round(num_shards=2)
        clone = FleetPlan(
            round0.kind, round0.num_shards, list(round0.trials),
            params=round0.params, cycle_id=round0.cycle_id, round_index=1,
        )
        assert clone.plan_id != round0.plan_id

    def test_half_scoped_plan_rejected(self):
        plan = plan_cycle(IDS, [NET], FAST, trials_per_pair=2, num_shards=2)
        with pytest.raises(ValueError, match="both cycle_id and round"):
            FleetPlan(
                plan.kind, plan.num_shards, list(plan.trials),
                params=plan.params, cycle_id="abc",
            )

    def test_worker_receipt_carries_round_provenance(self, tmp_path):
        plan = make_state().plan_round(num_shards=1)
        receipt = run_shard(plan.manifest_for(0, attempt=3), tmp_path / "s")
        assert receipt.attempt == 3
        assert receipt.round_index == 0
        reloaded = ShardReceipt.load(tmp_path / "s")
        assert reloaded.attempt == 3
        assert reloaded.round_index == 0


class TestCacheOnlyBackend:
    """Replay used to be ``InlineBackend(cache_only=True)``; it is
    :func:`repro.core.runner.replay` now."""

    def test_cache_only_requires_cache(self):
        """No backend can be switched into a mode that needs a cache it
        was not given: the mode is gone, ``replay`` is handed the cache."""
        with pytest.raises(TypeError):
            InlineBackend(cache_only=True)

    def test_cache_only_raises_on_miss(self, tmp_path):
        plan = make_state().plan_round(num_shards=1)
        spec = plan.trials[0].spec
        with pytest.raises(CacheMissError) as exc:
            replay(TrialCache(tmp_path), [spec], False)
        assert exc.value.misses == [spec]
