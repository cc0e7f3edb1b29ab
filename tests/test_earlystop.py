"""Trial-level early termination (repro.core.earlystop).

Covers the PR's guarantees:

- byte-identity: the golden artifact set is unchanged with the feature
  disabled AND with the monitor armed but never triggering (the default
  model's minimum horizon exceeds the golden scenario's window);
- purity: the stop rule is a pure function of its checkpoint prefix -
  incremental (monitor-style) evaluation equals batch evaluation, and
  appending rows never rewrites an earlier decision;
- serve == replay: the live monitor and a replay of the trial's flight
  sidecar read the same rows through ``QueueChannel.window_rows`` and so
  agree on the stop instant, and truncation points are pinned;
- cache supersede: full-length results always replace truncated ones,
  never the reverse, and truncated entries are misses unless opted in;
- audit determinism: the audit draw is a pure function of the trial's
  cache key, stable across re-plans;
- accounting: runner stats, receipts and fleet status report trials
  truncated, sim-seconds saved, and the audited mispredict rate;
- payoff: an armed cycle simulates >= 1.3x fewer sim-seconds at
  unchanged per-pair verdicts.
"""

import dataclasses
import json

import pytest

from repro.config import (
    ExperimentConfig,
    TrialPolicyConfig,
    highly_constrained,
    moderately_constrained,
)
from repro.core.cache import TrialCache
from repro.core.earlystop import (
    EarlyStopConfig,
    EarlyStopModel,
    EarlyStopModelError,
    EarlyStopMonitor,
    audit_decision,
    fit_model,
    stop_index,
)
from repro.core.experiment import run_trial_artifacts
from repro.core.runner import RunnerStats, TrialSpec, trial_cache_key
from repro.core.watchdog import Prudentia
from repro.obs.flight import FlightRecorder, QueueChannel
from repro.services.catalog import default_catalog

from tests import test_golden_identity as golden
from tests.test_cache_immutability import ENTRY_DAMAGE

PAIR = ["iperf_cubic", "iperf_bbr"]


def _pair_spec(duration_sec: float = 10.0, seed: int = 1) -> TrialSpec:
    return TrialSpec.pair(
        PAIR[0],
        PAIR[1],
        highly_constrained(),
        ExperimentConfig().scaled(duration_sec),
        seed=seed,
    )


def _run_pair(duration_sec: float = 10.0, seed: int = 1, monitor=None):
    catalog = default_catalog()
    specs = [catalog.get(sid) for sid in PAIR]
    result, _testbed = run_trial_artifacts(
        specs,
        highly_constrained(),
        ExperimentConfig().scaled(duration_sec),
        seed=seed,
        earlystop=monitor,
    )
    return result


class TestModelArtifact:
    def test_round_trip_and_model_id_stability(self, tmp_path):
        model = EarlyStopModel(epsilon_share=0.03, consecutive=3)
        path = tmp_path / "model.json"
        model.save(path)
        loaded = EarlyStopModel.load(path)
        assert loaded == model
        assert loaded.model_id == model.model_id
        # model_id is a pure content hash: any decision knob changes it.
        assert (
            dataclasses.replace(model, consecutive=4).model_id
            != model.model_id
        )

    def test_save_is_atomic(self, tmp_path, request):
        """A kill between temp-write and rename leaves the previous
        model loadable (and no half-written file under its name)."""
        path = tmp_path / "model.json"
        old = EarlyStopModel(consecutive=3)
        old.save(path)
        request.getfixturevalue("kill_before_rename")
        with pytest.raises(KeyboardInterrupt):
            EarlyStopModel(consecutive=5).save(path)
        assert EarlyStopModel.load(path) == old

    def test_schema_skew_rejected(self):
        payload = EarlyStopModel().to_json()
        payload["schema"] = 999
        with pytest.raises(ValueError):
            EarlyStopModel.from_json(payload)


def _rewritten(edit):
    """A damage function: re-serialise the model JSON after ``edit``."""

    def damage(data):
        payload = json.loads(data)
        edit(payload)
        return json.dumps(payload).encode()

    return damage


MODEL_DAMAGE = {
    **ENTRY_DAMAGE,
    "missing-field": (
        _rewritten(lambda p: p.pop("grid_usec")),
        "malformed earlystop model (KeyError: 'grid_usec')",
    ),
    "wrong-type": (
        _rewritten(lambda p: p.update(consecutive=[3])),
        "malformed earlystop model (TypeError",
    ),
    "other-schema": (
        _rewritten(lambda p: p.update(schema=999)),
        "unsupported earlystop schema 999",
    ),
}


class TestDamagedModelFile:
    """A model file that is not a model raises one named error carrying
    the path and the defect - never a bare JSONDecodeError / KeyError -
    and the fleet CLI reports it as a ``fleet error:``."""

    @pytest.fixture(params=sorted(MODEL_DAMAGE))
    def damaged(self, request, tmp_path):
        damage, complaint = MODEL_DAMAGE[request.param]
        path = tmp_path / "model.json"
        EarlyStopModel(consecutive=3).save(path)
        path.write_bytes(damage(path.read_bytes()))
        return path, complaint

    def test_load_names_file_and_defect(self, damaged):
        path, complaint = damaged
        with pytest.raises(EarlyStopModelError) as caught:
            EarlyStopModel.load(path)
        assert str(path) in str(caught.value)
        assert complaint in str(caught.value)

    def test_fleet_cli_exits_1_with_a_fleet_error(
        self, damaged, tmp_path, capsys
    ):
        from repro.cli import main

        path, complaint = damaged
        code = main([
            "fleet", "plan", "cycle", "--services", *PAIR, "--trials", "1",
            "--duration", "10", "--shards", "1", "--earlystop", str(path),
            "--out-dir", str(tmp_path / "plan"),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("fleet error:")
        assert str(path) in err and complaint in err
        assert not (tmp_path / "plan").exists()

    def test_a_missing_model_file_stays_an_oserror(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            EarlyStopModel.load(tmp_path / "absent.json")


class TestGoldenByteIdentity:
    def test_disabled_matches_fixture(self):
        assert (
            golden.serialize(golden.compute_payload())
            == golden.FIXTURE.read_bytes()
        )

    def test_armed_but_never_triggering_matches_fixture(self):
        """The default model's 2 s minimum horizon exceeds the golden
        scenario's 1.8 s window, so the armed monitor never fires and
        the artifact set stays byte-identical."""
        catalog = default_catalog()
        specs = [catalog.get(sid) for sid in golden.SCENARIO["services"]]
        config = ExperimentConfig().scaled(golden.SCENARIO["duration_sec"])
        monitor = EarlyStopMonitor(EarlyStopModel())
        result, testbed = run_trial_artifacts(
            specs,
            highly_constrained(),
            config,
            seed=golden.SCENARIO["seed"],
            trace_packets=True,
            earlystop=monitor,
        )
        payload = {
            "scenario": golden.SCENARIO,
            "report": result.to_json(),
            "trace": testbed.bell.trace.to_json(),
            "queue_log": testbed.bell.queue_log.to_json(),
        }
        assert not monitor.triggered
        assert result.earlystop is None
        assert golden.serialize(payload) == golden.FIXTURE.read_bytes()


class TestStopRulePurity:
    def test_incremental_equals_batch(self):
        model = EarlyStopModel(
            grid_usec=100_000, min_horizon_usec=300_000, consecutive=2
        )
        rows = [
            (i * 100_000, {"a": 1000 * (i + 1), "b": 1000 * (i + 1)}, 0, 0.5)
            for i in range(10)
        ]
        batch = stop_index(model, 0, rows)
        incremental = None
        for i in range(len(rows)):
            got = stop_index(model, 0, rows[: i + 1])
            if got is not None:
                incremental = got
                break
        assert batch == incremental

    def test_hypothesis_prefix_stability(self):
        hypothesis = pytest.importorskip("hypothesis")
        given, settings = hypothesis.given, hypothesis.settings
        st = pytest.importorskip("hypothesis.strategies")

        model = EarlyStopModel(
            grid_usec=100_000,
            min_horizon_usec=200_000,
            consecutive=2,
            epsilon_share=0.05,
            max_drop_burst=5,
            queue_epsilon=0.3,
        )

        increments = st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5_000),  # a bytes
                st.integers(min_value=0, max_value=5_000),  # b bytes
                st.integers(min_value=0, max_value=10),  # drops
                st.floats(min_value=0.0, max_value=1.0),  # occupancy
            ),
            min_size=2,
            max_size=25,
        )

        def build_rows(deltas):
            rows, a, b, drops = [], 0, 0, 0
            for i, (da, db, dd, occ) in enumerate(deltas):
                a, b, drops = a + da, b + db, drops + dd
                rows.append((i * model.grid_usec, {"a": a, "b": b}, drops, occ))
            return rows

        @settings(max_examples=200, deadline=None)
        @given(deltas=increments)
        def check(deltas):
            rows = build_rows(deltas)
            full = stop_index(model, 0, rows)
            # Purity: same inputs, same answer.
            assert stop_index(model, 0, rows) == full
            # Prefix stability: the first prefix that fires pins the
            # decision - appending checkpoints never moves it earlier
            # or later, which is what makes checkpoint-by-checkpoint
            # (monitor) evaluation equal batch evaluation.
            first = None
            for i in range(len(rows)):
                got = stop_index(model, 0, rows[: i + 1])
                if got is not None:
                    first = got
                    break
            assert first == full
            if full is not None:
                for j in range(full + 1, len(rows) + 1):
                    assert stop_index(model, 0, rows[:j]) == full

        check()


class TestServeEqualsReplay:
    """The model is served on the rows it is trained on: one sampler
    (``QueueChannel.sample``), one accessor (``window_rows``)."""

    PAIRS = [
        ("iperf_cubic", "iperf_bbr"),
        ("iperf_cubic", "iperf_reno"),
        ("netflix", "iperf_bbr"),
        ("mega", "iperf_cubic"),
        ("meet", "iperf_reno"),
    ]

    def test_replaying_a_sidecar_lands_on_the_monitors_stop(self):
        """20 flight-recorded audit trials, both bandwidths: replaying
        the sidecar through the pure rule reproduces the live monitor's
        would-stop instant on every one.  (Before the single seam, fit
        measured the horizon from the first post-reset sample and serving
        from the true window open; 6 of these 20 disagreed.)"""
        catalog = default_catalog()
        model = EarlyStopModel()
        stops = set()
        for a, b in self.PAIRS:
            for network in (highly_constrained(), moderately_constrained()):
                for seed in (1, 2):
                    recorder = FlightRecorder()
                    monitor = EarlyStopMonitor(model, audit=True)
                    run_trial_artifacts(
                        [catalog.get(a), catalog.get(b)],
                        network,
                        ExperimentConfig().scaled(10.0),
                        seed=seed,
                        flight=recorder,
                        earlystop=monitor,
                    )
                    sidecar = json.loads(json.dumps(recorder.to_json()))
                    opened, rows = QueueChannel.from_json(
                        sidecar["queue"]
                    ).window_rows()
                    index = stop_index(model, opened, rows)
                    replayed = None if index is None else rows[index][0]
                    assert replayed == monitor.would_stop_usec, (a, b, seed)
                    stops.add(replayed)
        assert len(stops) > 10  # the rule really fired, at varied instants

    #: (contender, incumbent, network, seed) -> (horizon_sim_sec,
    #: checkpoints) as truncated by the commit before the probe seam.
    PINNED_MODEL = {
        "schema": 1, "grid_usec": 100000, "min_horizon_usec": 2000000,
        "epsilon_share": 0.01, "consecutive": 5, "max_drop_burst": 4,
        "queue_epsilon": 0.1, "share_tolerance": 0.05, "trained_on": 0,
    }
    PINNED = [
        ("iperf_cubic", "iperf_reno", moderately_constrained, 2, 4.600236, 47),
        ("netflix", "iperf_bbr", highly_constrained, 3, 2.801435, 29),
        ("mega", "iperf_cubic", moderately_constrained, 4, 2.200078, 23),
    ]

    @pytest.mark.parametrize("a,b,network,seed,horizon,checkpoints", PINNED)
    def test_truncation_points_are_pinned(
        self, a, b, network, seed, horizon, checkpoints
    ):
        catalog = default_catalog()
        monitor = EarlyStopMonitor(EarlyStopModel.from_json(self.PINNED_MODEL))
        result, _testbed = run_trial_artifacts(
            [catalog.get(a), catalog.get(b)],
            network(),
            ExperimentConfig().scaled(12.0),
            seed=seed,
            earlystop=monitor,
        )
        assert result.earlystop["horizon_sim_sec"] == horizon
        assert result.earlystop["checkpoints"] == checkpoints


class TestTrialTruncation:
    def test_truncated_result_metadata(self):
        monitor = EarlyStopMonitor(EarlyStopModel())
        result = _run_pair(duration_sec=10.0, monitor=monitor)
        assert monitor.triggered
        meta = result.earlystop
        assert meta is not None and meta["truncated"]
        assert meta["model_id"] == EarlyStopModel().model_id
        assert meta["horizon_sim_sec"] < meta["planned_sim_sec"]
        assert meta["sim_sec_saved"] == pytest.approx(
            meta["planned_sim_sec"] - meta["horizon_sim_sec"]
        )
        assert result.truncated
        # Windowed-rate estimate: shares still near the full-length run.
        full = _run_pair(duration_sec=10.0)
        for sid in full.mmf_share:
            assert abs(result.mmf_share[sid] - full.mmf_share[sid]) < 0.10

    def test_audit_mode_runs_full_length(self):
        monitor = EarlyStopMonitor(EarlyStopModel(), audit=True)
        result = _run_pair(duration_sec=10.0, monitor=monitor)
        full = _run_pair(duration_sec=10.0)
        assert not monitor.triggered
        assert result.duration_usec == full.duration_usec
        meta = result.earlystop
        assert meta is not None and meta["audit"] and not meta["truncated"]
        assert "mispredict" in meta and "share_error" in meta
        # Audit trials are full-length, so everything but the earlystop
        # block is byte-identical to the unarmed run.
        unarmed = full.to_json()
        audited = result.to_json()
        audited.pop("earlystop")
        assert audited == unarmed


class TestCacheSupersede:
    def test_truncated_is_miss_unless_opted_in(self, tmp_path):
        cache = TrialCache(tmp_path)
        spec = _pair_spec()
        monitor = EarlyStopMonitor(EarlyStopModel())
        truncated = _run_pair(monitor=monitor)
        cache.put(spec, truncated)
        assert cache.get(spec) is None
        hit = cache.get(spec, allow_truncated=True)
        assert hit is not None and hit.truncated

    def test_full_supersedes_truncated_round_trip(self, tmp_path):
        cache = TrialCache(tmp_path)
        spec = _pair_spec()
        monitor = EarlyStopMonitor(EarlyStopModel())
        truncated = _run_pair(monitor=monitor)
        full = _run_pair()
        cache.put(spec, truncated)
        cache.put(spec, full)  # full-length replaces truncated
        hit = cache.get(spec)
        assert hit is not None and not hit.truncated
        # ... and a later truncated put never downgrades the entry.
        cache.put(spec, truncated)
        again = cache.get(spec, allow_truncated=True)
        assert again is not None and not again.truncated
        # The supersede survives a fresh handle over the same directory.
        reopened = TrialCache(tmp_path)
        assert not reopened.get(spec).truncated


class TestAuditDeterminism:
    def test_draw_is_pure_function_of_cache_key(self):
        key = trial_cache_key(_pair_spec())
        draws = {audit_decision(key, 0.3) for _ in range(10)}
        assert len(draws) == 1
        assert audit_decision(key, 0.0) is False
        assert audit_decision(key, 1.0) is True

    def test_stable_under_replanning(self):
        """Re-planning the same cycle produces the same cache keys and
        therefore the same audit set - shard boundaries are irrelevant."""
        from repro.fleet.plan import plan_cycle

        earlystop = EarlyStopConfig(audit_fraction=0.4).to_json()

        def audit_set(num_shards):
            plan = plan_cycle(
                PAIR,
                [highly_constrained()],
                ExperimentConfig().scaled(10.0),
                trials_per_pair=3,
                num_shards=num_shards,
                include_self_pairs=False,
                earlystop=earlystop,
            )
            return {
                t.cache_key
                for t in plan.trials
                if audit_decision(t.cache_key, 0.4)
            }

        assert audit_set(1) == audit_set(3)


class TestRunnerAccounting:
    def test_stats_fold_and_merge(self):
        stats = RunnerStats()
        stats.record_earlystop(
            {"truncated": True, "sim_sec_saved": 4.0}
        )
        assert stats.audit_mispredict_rate is None  # nothing audited yet
        assert stats.earlystop_rollup()["audit_mispredict_rate"] is None
        stats.record_earlystop(
            {"truncated": False, "audit": True, "mispredict": True}
        )
        stats.record_earlystop(None)  # armed-but-never-fired: no-op
        assert stats.trials_truncated == 1
        assert stats.sim_sec_saved == pytest.approx(4.0)
        assert stats.trials_audited == 1
        assert stats.audit_mispredicts == 1
        assert stats.audit_mispredict_rate == pytest.approx(1.0)
        merged = stats.merged_with(stats)
        assert merged.trials_truncated == 2
        assert merged.sim_sec_saved == pytest.approx(8.0)

    def test_stats_json_back_compat(self):
        """Earlystop counters appear in stats JSON only when nonzero, so
        receipts and reports from unarmed runs are byte-unchanged."""
        assert "trials_truncated" not in RunnerStats().to_json()
        stats = RunnerStats()
        stats.record_earlystop({"truncated": True, "sim_sec_saved": 1.0})
        payload = stats.to_json()
        assert payload["trials_truncated"] == 1
        assert RunnerStats.from_json(payload).trials_truncated == 1


class TestFitOffline:
    def _corpus(self):
        from repro.obs.flight import FlightRecorder

        catalog = default_catalog()
        specs = [catalog.get(sid) for sid in PAIR]
        corpus = []
        for seed in (1, 2, 3):
            recorder = FlightRecorder()
            result, _ = run_trial_artifacts(
                specs,
                highly_constrained(),
                ExperimentConfig().scaled(10.0),
                seed=seed,
                flight=recorder,
            )
            corpus.append((recorder.to_json(), result.throughput_bps))
        return corpus

    def test_fit_is_deterministic_and_versioned(self):
        corpus = self._corpus()
        model_a = fit_model(corpus, grid_usec=100_000, window_usec=6_000_000)
        model_b = fit_model(corpus, grid_usec=100_000, window_usec=6_000_000)
        assert model_a == model_b
        assert model_a.model_id == model_b.model_id
        assert model_a.trained_on == len(corpus)

    def test_fit_rejects_a_corpus_on_another_grid(self):
        corpus = self._corpus()[:1]
        with pytest.raises(ValueError, match="mixes sampling grids"):
            fit_model(corpus, grid_usec=50_000, window_usec=6_000_000)

    def test_cli_fit_takes_the_recorded_grid(self, tmp_path, capsys):
        """`repro earlystop fit` names the grid the corpus was recorded
        on (it used to infer ~52 ms from the first two sample times),
        skips pre-window-open sidecars with a count, and refuses a corpus
        that mixes grids."""
        from repro.cli import main
        from repro.core.runner import build_backend
        from repro.obs.flight import FlightRecorder

        cache = TrialCache(tmp_path / "cache")
        backend = build_backend(cache=cache, record_flight=True)
        specs = [_pair_spec(seed=seed) for seed in (1, 2)]
        backend.run(specs)
        # One sidecar as an older commit wrote it: no recorded window.
        old_key = trial_cache_key(specs[1])
        old = cache.get_sidecar(old_key, "flight")
        del old["queue"]["window_open_usec"], old["queue"]["window_row"]
        cache.put_sidecar(old_key, "flight", old)
        out = tmp_path / "model.json"
        argv = ["earlystop", "fit", "--cache-dir", str(tmp_path / "cache"),
                "--out", str(out), "--json"]
        assert main(argv) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["grid_usec"] == 100_000
        assert summary["trained_on"] == 1
        assert summary["skipped_no_window"] == 1
        assert EarlyStopModel.load(out).grid_usec == 100_000
        # A second recording on another grid: refuse, specifically.
        other, recorder = _pair_spec(seed=3), FlightRecorder(50_000)
        result, _testbed = run_trial_artifacts(
            [default_catalog().get(sid) for sid in other.service_ids],
            other.network, other.config, seed=other.seed, flight=recorder,
        )
        cache.put(other, result)
        cache.put_sidecar(trial_cache_key(other), "flight", recorder.to_json())
        out.unlink()
        assert main(argv) == 1
        assert "mixes sampling grids" in capsys.readouterr().err
        assert not out.exists()

    def test_fit_empty_corpus_falls_back_to_base(self):
        model = fit_model([], grid_usec=100_000, window_usec=6_000_000)
        assert model.trained_on == 0


class TestCycleEquivalence:
    # CUBIC vs Reno converges decisively well before the window ends, so
    # a 4 s horizon preserves the verdict; CUBIC vs BBR sits right at the
    # fair-share boundary and would make the verdict check flaky.
    CYCLE_PAIR = ["iperf_cubic", "iperf_reno"]
    MODEL = EarlyStopModel(min_horizon_usec=4_000_000)

    def _cycle(self, earlystop=None):
        watchdog = Prudentia(
            networks=[highly_constrained()],
            experiment_config=ExperimentConfig().scaled(10.0),
            policy_overrides={
                highly_constrained().bandwidth_bps: TrialPolicyConfig(
                    min_trials=2,
                    max_trials=2,
                    batch_size=2,
                    ci_halfwidth_bps=float("inf"),
                )
            },
            earlystop=earlystop,
        )
        watchdog.run_cycle(
            service_ids=self.CYCLE_PAIR, include_self_pairs=False
        )
        return watchdog

    def test_armed_cycle_saves_sim_seconds_at_same_verdicts(self):
        baseline = self._cycle()
        armed = self._cycle(
            earlystop=EarlyStopConfig(model=self.MODEL, audit_fraction=0.0)
        )
        stats = armed.last_cycle_stats
        assert stats.trials_truncated == stats.trials_run > 0
        planned_sim_sec = stats.trials_run * (
            ExperimentConfig().scaled(10.0).measure_duration_usec / 1e6
        )
        executed = planned_sim_sec - stats.sim_sec_saved
        assert planned_sim_sec / executed >= 1.3
        # Same per-pair verdict: the windowed-rate estimate lands within
        # the model's share tolerance of the full-length shares, so the
        # fairness report's winner per pair is unchanged.
        base = baseline.report(
            highly_constrained(), service_ids=self.CYCLE_PAIR
        ).heatmap()
        trunc = armed.report(
            highly_constrained(), service_ids=self.CYCLE_PAIR
        ).heatmap()
        measured = {k for k, v in base.items() if v is not None}
        assert measured == {k for k, v in trunc.items() if v is not None}
        assert measured
        for cell in measured:
            # Same verdict (who wins the cell) and shares within the
            # model's share tolerance of the full-length run.
            assert (base[cell] >= 0.5) == (trunc[cell] >= 0.5)
            assert abs(base[cell] - trunc[cell]) <= 0.05

    def test_convergence_tracker_counts_truncated_samples(self):
        armed = self._cycle(
            earlystop=EarlyStopConfig(model=self.MODEL, audit_fraction=0.0)
        )
        assert armed.last_cycle_stats.trials_truncated > 0

    def test_cli_reports_no_mispredict_rate_without_an_audit(
        self, tmp_path, capsys
    ):
        """``--earlystop-audit 0`` audits nothing: the summary line says
        so and carries no rate (it used to read "0.00%")."""
        from repro.cli import main

        self.MODEL.save(tmp_path / "model.json")
        assert main([
            "cycle", "--services", *self.CYCLE_PAIR, "--trials", "1",
            "--duration", "10", "--earlystop", str(tmp_path / "model.json"),
            "--earlystop-audit", "0", "--json",
        ]) == 0
        line = capsys.readouterr().err.strip().splitlines()[-1]
        assert line.startswith("earlystop: ")
        assert line.endswith("0 audited full-length")
        assert "mispredict" not in line


class TestFleetPlumbing:
    def test_merge_resolves_truncated_vs_full(self):
        from repro.fleet.merge import _resolve_divergent

        monitor = EarlyStopMonitor(EarlyStopModel())
        truncated = json.dumps(
            _run_pair(monitor=monitor).to_json()
        ).encode()
        full = json.dumps(_run_pair().to_json()).encode()
        assert _resolve_divergent(full, truncated) == "replace"
        assert _resolve_divergent(truncated, full) == "keep"
        # Genuine divergence (neither side earlystopped) stays fatal.
        other = json.dumps(_run_pair(seed=2).to_json()).encode()
        assert _resolve_divergent(full, other) is None

    def test_status_telemetry_reports_mispredict_rate(self):
        from repro.fleet.status import FleetStatus, ShardStatus
        from repro.fleet.worker import ShardReceipt

        stats = RunnerStats()
        stats.record_earlystop({"truncated": True, "sim_sec_saved": 4.0})
        stats.record_earlystop(
            {"truncated": False, "audit": True, "mispredict": False}
        )
        stats.record_earlystop(
            {"truncated": False, "audit": True, "mispredict": True}
        )
        receipt = ShardReceipt(
            plan_id="p" * 64,
            shard_index=0,
            num_shards=1,
            cache_schema=1,
            stats=stats,
        )
        status = FleetStatus(plan_id="p" * 64, num_shards=1)
        status.shards.append(
            ShardStatus(
                shard_index=0,
                state="done",
                planned=3,
                completed=3,
                age_sec=1.0,
                receipt=receipt,
            )
        )
        telemetry = status.telemetry()
        assert telemetry["trials_truncated"] == 1
        assert telemetry["sim_sec_saved"] == pytest.approx(4.0)
        assert telemetry["trials_audited"] == 2
        assert telemetry["audit_mispredicts"] == 1
        assert telemetry["audit_mispredict_rate"] == pytest.approx(0.5)
        assert "earlystop:" in status.render()

    def test_manifest_carries_earlystop_without_changing_plan_id(self):
        from repro.fleet.plan import plan_cycle

        kwargs = dict(
            service_ids=PAIR,
            networks=[highly_constrained()],
            config=ExperimentConfig().scaled(10.0),
            trials_per_pair=2,
            num_shards=1,
            include_self_pairs=False,
        )
        plain = plan_cycle(**kwargs)
        armed = plan_cycle(
            **kwargs, earlystop=EarlyStopConfig().to_json()
        )
        assert plain.plan_id == armed.plan_id
        assert "earlystop" not in plain.manifest_for(0)
        manifest = armed.manifest_for(0)
        assert (
            manifest["earlystop"]["model"]["model_id"]
            == EarlyStopModel().model_id
        )


class TestSidecarByteCap:
    def test_size_and_evict_charge_sidecars_to_entries(self, tmp_path):
        cache = TrialCache(tmp_path)
        spec_old = _pair_spec(seed=1)
        spec_new = _pair_spec(seed=2)
        result_old = _run_pair(duration_sec=3.0, seed=1)
        result_new = _run_pair(duration_sec=3.0, seed=2)
        cache.put(spec_old, result_old)
        key_old = trial_cache_key(spec_old)
        cache.put_sidecar(key_old, "flight", {"bulk": "x" * 4096})
        base_size = cache.size_bytes()
        sidecar_path = tmp_path / f"{key_old}.flight.json"
        assert sidecar_path.exists()
        # size_bytes() must include the sidecar, not just entries.
        assert base_size > sidecar_path.stat().st_size

        import os
        import time

        past = time.time() - 100
        for path in tmp_path.glob("*.json"):
            os.utime(path, (past, past))
        cache.put(spec_new, result_new)
        total_before = cache.size_bytes()
        capped = TrialCache(tmp_path, max_bytes=total_before - 1)
        evicted = capped.evict()
        # LRU: the old entry goes first, and its sidecar goes with it.
        assert key_old in evicted
        assert not sidecar_path.exists()
        assert not (tmp_path / f"{key_old}.json").exists()
        assert capped.size_bytes() <= total_before - 1
