"""The flight recorder: telemetry capture, diagnosis, and publication.

The heart of the suite is the zero-new-events invariant: running the
golden scenario with the recorder *enabled* must produce byte-identical
artifacts to the committed fixture (the recorder only reads).  Around
it: schema round-trips, the sidecar plumbing through TrialCache and the
recording backend, the synthetic-series diagnosis units, the fleet
receipt prefix, and the service's "Why is this unfair?" publication.
"""

import json

import pytest

from repro import units
from repro.config import ExperimentConfig, NetworkConfig, highly_constrained
from repro.core.cache import TrialCache, trial_cache_key
from repro.core.experiment import run_trial_artifacts
from repro.core.runner import TrialSpec, build_backend
from repro.core.testbed import Testbed
from repro.netsim.trace import Probe
from repro.obs.flight import (
    DIAGNOSIS_SCHEMA_VERSION,
    FLIGHT_SCHEMA_VERSION,
    FlightRecorder,
    QueueChannel,
    diagnose,
    dwell_times,
    explain_unfairness,
    queue_share_series,
    render_summary,
    render_timeline,
    retransmit_bursts,
    standing_queue_intervals,
    throughput_share_series,
    to_chrome_counters,
)
from repro.services.catalog import default_catalog

from tests import cache_logs
from tests import test_golden_identity as golden
from tests.test_cache_immutability import synthetic_result

CATALOG = default_catalog()
FAST = ExperimentConfig().scaled(3)
NET = highly_constrained()


def record_pair(seed=1, duration=3.0, grid_usec=100_000):
    """One recorded cubic-vs-bbr trial; returns (payload, result)."""
    specs = [CATALOG.get(s) for s in ("iperf_cubic", "iperf_bbr")]
    recorder = FlightRecorder(grid_usec=grid_usec)
    result, _testbed = run_trial_artifacts(
        specs,
        NET,
        ExperimentConfig().scaled(duration),
        seed=seed,
        recorders=[recorder],
    )
    return recorder.to_json(), result


class TestZeroNewEvents:
    def test_golden_byte_identical_with_recorder_enabled(self):
        """The tentpole invariant: recording changes nothing."""
        recorder = FlightRecorder()
        payload = golden.compute_payload(recorders=[recorder])
        assert golden.serialize(payload) == golden.FIXTURE.read_bytes()
        # ... and the recorder actually recorded.
        assert len(recorder.connections) == 2
        assert all(len(ch) > 10 for ch in recorder.connections.values())
        assert len(recorder.queue) > 10

    def test_result_identical_recorder_on_vs_off(self):
        _payload, recorded = record_pair(seed=7)
        specs = [CATALOG.get(s) for s in ("iperf_cubic", "iperf_bbr")]
        plain, _testbed = run_trial_artifacts(specs, NET, FAST, seed=7)
        assert recorded.to_json() == plain.to_json()

    def test_disabled_path_uses_sentinel(self):
        """Nothing subscribed: the link's one gate holds the idle
        sentinel, and flows carry no gate of their own at all."""
        from repro.cca.reno import NewReno
        from repro.netsim.link import BottleneckLink
        from repro.netsim.queue import DropTailQueue
        from repro.services.iperf import IperfService

        bare = BottleneckLink(None, NET.bandwidth_bps, DropTailQueue(4))
        assert bare._probe_next == Probe.IDLE
        assert bare.probe.fire(0, bare) == Probe.IDLE
        # A testbed without recorders subscribes nothing either.
        bed = Testbed(NET)
        assert bed.bell.link.probe._subscribers == []
        assert bed.bell.link._probe_next == Probe.IDLE
        service = bed.add_service(
            IperfService("x", cca_factory=lambda i: NewReno())
        )
        service.start()
        conn = service.connections[0]
        assert not hasattr(conn, "_flight")
        assert not hasattr(conn, "_flight_next")

    def test_attached_recorder_arms_connections(self):
        """Attaching subscribes once, in the order the recorders are
        given and due at once; flows register on the probe at
        construction and are sampled by the recorder in the link's
        firing."""
        from repro.cca.reno import NewReno
        from repro.services.iperf import IperfService

        fine, recorder = FlightRecorder(grid_usec=10_000), FlightRecorder()
        bed = Testbed(NET, recorders=[fine, recorder])
        link = bed.bell.link
        assert [sub[1:] for sub in link.probe._subscribers] == [
            [fine.grid_usec, fine.sample],
            [recorder.grid_usec, recorder.sample],
        ]
        assert link._probe_next == 0
        service = bed.add_service(
            IperfService("x", cca_factory=lambda i: NewReno())
        )
        service.start()
        conn = service.connections[0]
        assert link.probe.connections == [conn]
        bed.bell.run(units.seconds(1))
        channel = recorder.connections[conn.flow_id]
        assert len(channel) > 3
        # Flow rows are taken in the same firing as queue rows.
        assert set(channel.times_usec) <= set(recorder.queue.times_usec)

    def test_idle_flows_stop_growing_the_recording(self):
        """A flow gets a row only for grid cells it was ACKed in, so a
        finished flow does not accumulate rows (or dwell time)."""
        from repro.cca.reno import NewReno
        from repro.services.iperf import IperfService

        recorder = FlightRecorder()
        bed = Testbed(NET, recorders=[recorder])
        done = bed.add_service(
            IperfService("done", cca_factory=lambda i: NewReno())
        )
        busy = bed.add_service(
            IperfService("busy", cca_factory=lambda i: NewReno())
        )
        busy.start()
        conn = done.connections[0]
        conn.request(20 * conn.mss_bytes)
        bed.bell.run(units.seconds(3))
        finished = recorder.connections[conn.flow_id]
        assert 0 < len(finished) < 10
        assert len(recorder.connections[busy.connections[0].flow_id]) > 20

    def test_armed_monitor_and_recorder_together_change_nothing(self):
        """Golden artifacts with the recorder AND an armed, never-firing
        stop monitor subscribed (10 ms flight -> flight -> stop rule)."""
        from repro.core.earlystop import EarlyStopModel, EarlyStopMonitor

        recorder = FlightRecorder()
        monitor = EarlyStopMonitor(EarlyStopModel())
        payload = golden.compute_payload(recorders=[recorder], earlystop=monitor)
        assert golden.serialize(payload) == golden.FIXTURE.read_bytes()
        assert not monitor.triggered and len(monitor.channel) > 10
        # Same grid, same firing: the monitor's rows ARE the recorder's
        # window rows.
        assert monitor.channel.window_rows() == recorder.queue.window_rows()

    def test_rejects_nonpositive_grid(self):
        with pytest.raises(ValueError):
            FlightRecorder(grid_usec=0)


class TestRecordingSchema:
    def test_round_trip_identical(self):
        payload, _ = record_pair()
        assert payload["schema"] == FLIGHT_SCHEMA_VERSION
        again = FlightRecorder.from_json(payload).to_json()
        assert again == payload

    def test_json_encodable_without_infinities(self):
        payload, _ = record_pair()
        encoded = json.dumps(payload, allow_nan=False)
        assert json.loads(encoded) == payload

    def test_one_sample_per_grid_cell(self):
        grid = 250_000
        payload, _ = record_pair(grid_usec=grid)
        for conn in payload["connections"].values():
            # A sample lands at the first bottleneck send at/after each
            # grid boundary, so times are not *on* the grid - but no two
            # samples ever share a grid cell.
            cells = [t // grid for t in conn["times_usec"]]
            assert cells == sorted(set(cells))
            assert len(cells) > 5

    def test_from_json_rejects_wrong_schema(self):
        payload, _ = record_pair()
        payload["schema"] = 999
        with pytest.raises(ValueError):
            FlightRecorder.from_json(payload)

    def test_window_open_is_recorded_not_inferred(self):
        payload, result = record_pair()
        queue = payload["queue"]
        config = ExperimentConfig().scaled(3.0)
        assert queue["window_open_usec"] == config.measure_start_usec
        row = queue["window_row"]
        assert queue["times_usec"][row - 1] < queue["window_open_usec"]
        assert queue["times_usec"][row] >= queue["window_open_usec"]
        opened, rows = QueueChannel.from_json(queue).window_rows()
        assert opened == config.measure_start_usec
        assert [r[0] for r in rows] == queue["times_usec"][row:]
        # The final row's windowed counters are the result's throughput.
        assert set(rows[-1][1]) == set(result.throughput_bps)

    def test_meta_carries_trial_identity(self):
        payload, _ = record_pair()
        meta = payload["meta"]
        assert meta["service_ids"] == ["iperf_cubic", "iperf_bbr"]
        assert meta["bandwidth_bps"] == NET.bandwidth_bps
        assert meta["seed"] == 1


class TestOldSidecars:
    """A sidecar written by PR 14 - before the window-open instant was
    recorded - still loads, diagnoses and renders exactly as it did;
    only the stop-rule fit declines to guess its window."""

    FIXTURE = json.loads(
        (golden.FIXTURE.parent / "flight_sidecar_pr14.json").read_text()
    )

    def test_loads_and_round_trips_unchanged(self):
        sidecar = self.FIXTURE["sidecar"]
        assert "window_open_usec" not in sidecar["queue"]
        assert FlightRecorder.from_json(sidecar).to_json() == sidecar

    def test_diagnosis_and_rendering_unchanged(self):
        sidecar = self.FIXTURE["sidecar"]
        diagnosis = diagnose(sidecar)
        # Through JSON: the fixture stores tuples as lists.
        assert json.loads(json.dumps(diagnosis)) == self.FIXTURE["diagnosis"]
        assert render_summary(diagnosis) == self.FIXTURE["summary"]
        assert render_timeline(sidecar, width=40) == self.FIXTURE["timeline"]

    def test_window_is_not_guessed(self):
        from repro.core.earlystop import fit_model

        sidecar = self.FIXTURE["sidecar"]
        assert QueueChannel.from_json(sidecar["queue"]).window_rows() is None
        model = fit_model(
            [(sidecar, self.FIXTURE["throughput_bps"])],
            grid_usec=sidecar["grid_usec"],
            window_usec=2_400_000,
        )
        assert model.trained_on == 0


def synthetic_recording():
    """Hand-built 7-sample payload with known dwell/queue/burst structure."""
    grid = 100_000
    times = [i * grid for i in range(7)]
    return {
        "schema": FLIGHT_SCHEMA_VERSION,
        "grid_usec": grid,
        "meta": {},
        "connections": {
            "a-0": {
                "service_id": "a",
                "cca": "cubic",
                "times_usec": list(times),
                "cwnd_packets": [10.0 * (i + 1) for i in range(7)],
                "pacing_rate_bps": [-1.0] * 7,
                "inflight_bytes": [0] * 7,
                "srtt_usec": [-1.0] * 7,
                "min_rtt_usec": [-1] * 7,
                "packets_lost": [0, 0, 5, 5, 5, 5, 5],
                "rto_count": [0] * 7,
                "phases": ["slow_start", "cubic_growth"],
                "phase_codes": [0, 0, 1, 1, 1, 1, 1],
                "aux1": [0.0] * 7,
                "aux2": [0.0] * 7,
            },
        },
        "queue": {
            "capacity_packets": 100,
            "times_usec": list(times),
            "occupancy": [0, 80, 90, 90, 90, 90, 10],
            "queued_packets": {
                "a": [0, 60, 45, 45, 45, 45, 5],
                "b": [0, 20, 45, 45, 45, 45, 5],
            },
            "drops": {"a": [0, 0, 2, 2, 2, 2, 2], "b": [0] * 7},
            "delivered_bytes": {
                # service a's counter resets after 2000 (window open).
                "a": [1000, 2000, 500, 1500, 2500, 3500, 4500],
                "b": [1000, 2000, 3000, 4000, 5000, 6000, 7000],
            },
        },
    }


class TestDiagnosisUnits:
    def test_dwell_attribution_and_final_grid_credit(self):
        dwell = dwell_times(synthetic_recording())
        # Samples 0-1 are slow_start: [0,100k) + [100k,200k); samples
        # 2-6 are cubic_growth: four inter-sample intervals plus one
        # grid credit for the final sample.
        assert dwell["a-0"] == {
            "slow_start": 200_000,
            "cubic_growth": 500_000,
        }

    def test_standing_queue_detects_crossing(self):
        intervals = standing_queue_intervals(
            synthetic_recording(), threshold_fraction=0.5,
            min_duration_usec=100_000,
        )
        # occupancy >= 50 from t=100k through t=500k; the interval
        # extends one grid past the last qualifying sample.
        assert intervals == [(100_000, 600_000)]

    def test_standing_queue_respects_min_duration(self):
        assert standing_queue_intervals(
            synthetic_recording(), threshold_fraction=0.5,
            min_duration_usec=10_000_000,
        ) == []

    def test_queue_share_skips_empty_samples(self):
        times, shares = queue_share_series(synthetic_recording())
        assert times == [i * 100_000 for i in range(1, 7)]  # t=0 empty
        assert shares["a"] == [0.75, 0.5, 0.5, 0.5, 0.5, 0.5]

    def test_throughput_share_handles_counter_reset(self):
        times, shares = throughput_share_series(synthetic_recording())
        # At t=200k service a's counter fell 2000 -> 500: treated as a
        # reset, so the interval delta is 500 against b's 1000.
        assert times == [i * 100_000 for i in range(7)]
        assert shares["a"][2] == pytest.approx(500 / 1500)

    def test_retransmit_bursts_from_cumulative_series(self):
        bursts = retransmit_bursts(synthetic_recording(), min_packets=3)
        assert bursts == {"a-0": [(100_000, 200_000, 5)]}

    def test_diagnose_schema_and_fractions(self):
        diagnosis = diagnose(synthetic_recording())
        assert diagnosis["schema"] == DIAGNOSIS_SCHEMA_VERSION
        assert diagnosis["duration_usec"] == 700_000
        # Standing interval (100k, 600k) over the 700k trial.
        assert diagnosis["standing_queue"]["fraction"] == pytest.approx(
            5 / 7, abs=1e-4
        )
        assert diagnosis["dwell"]["a-0"]["slow_start"][
            "fraction"
        ] == pytest.approx(2 / 7, abs=1e-4)

    def test_explain_unfairness_sentences(self):
        lines = explain_unfairness(diagnose(synthetic_recording()))
        text = "\n".join(lines)
        assert "captured" in text
        assert "standing queue" in text
        assert "retransmitted packets" in text

    def test_explain_unfairness_fallback(self):
        empty = {
            "schema": FLIGHT_SCHEMA_VERSION,
            "grid_usec": 100_000,
            "meta": {},
            "connections": {},
            "queue": None,
        }
        lines = explain_unfairness(diagnose(empty))
        assert lines == [
            "no dominant-flow signature detected in this trial."
        ]


class TestRendering:
    def test_timeline_has_phase_strips_and_legend(self):
        payload, _ = record_pair()
        text = render_timeline(payload, width=40)
        assert "flight timeline" in text
        assert "queue" in text
        assert "phases:" in text

    def test_summary_prints_dwell_and_queue_share(self):
        payload, _ = record_pair()
        text = render_summary(diagnose(payload))
        assert "per-connection CCA state dwell times:" in text
        assert "queue share" in text

    def test_chrome_counters_cover_every_sample(self):
        payload = synthetic_recording()
        events = to_chrome_counters(payload)
        assert all(e["ph"] == "C" for e in events)
        # 2 counters per conn sample + 1 per queue sample.
        assert len(events) == 2 * 7 + 7


class TestSidecars:
    def spec(self, seed=1):
        return TrialSpec.pair("iperf_cubic", "iperf_bbr", NET, FAST,
                              seed=seed)

    def put(self, cache, seed=1, **sidecars):
        spec = self.spec(seed)
        cache.put(spec, synthetic_result(spec), sidecars=sidecars)
        return trial_cache_key(spec)

    def test_round_trip_and_key_validation(self, tmp_path):
        cache = TrialCache(tmp_path)
        key = self.put(cache, flight={"x": 1})
        assert cache.get_sidecar(key, "flight") == {"x": 1}
        assert TrialCache(tmp_path).get_sidecar(key, "flight") == {"x": 1}
        assert cache.get_sidecar(key, "other") is None
        assert cache.sidecar_keys("flight") == [key]
        with pytest.raises(ValueError):
            cache.put(
                self.spec(2), synthetic_result(self.spec(2)),
                sidecars={"not a name": {}},
            )

    def test_sidecars_invisible_to_entry_scan(self, tmp_path):
        """A sidecar line is no record: one put is one key."""
        cache = TrialCache(tmp_path)
        key = self.put(cache, flight={"x": 1})
        assert len(TrialCache(tmp_path)) == 1
        assert list(TrialCache(tmp_path).keys()) == [key]
        assert list(cache_logs.records(tmp_path)) == [key]

    def test_clear_drops_sidecars(self, tmp_path):
        cache = TrialCache(tmp_path)
        key = self.put(cache, flight={"x": 1})
        cache.clear()
        assert cache.get_sidecar(key, "flight") is None
        assert TrialCache(tmp_path).sidecar_keys("flight") == []
        assert list(tmp_path.iterdir()) == []

    def test_recording_backend_writes_sidecars(self, tmp_path):
        cache = TrialCache(tmp_path)
        backend = build_backend(cache=cache, record_flight=True)
        spec = self.spec()
        backend.run([spec])
        key = trial_cache_key(spec)
        sidecar = cache.get_sidecar(key, "flight")
        assert sidecar is not None
        assert sidecar["schema"] == FLIGHT_SCHEMA_VERSION
        assert backend.recordings[key] == sidecar

    def test_cache_hits_keep_existing_sidecar(self, tmp_path):
        """Merge across cache hits is loss-free: a re-run over a warm
        cache simulates nothing and the original sidecar survives."""
        spec = self.spec()
        key = trial_cache_key(spec)
        first = build_backend(cache=TrialCache(tmp_path), record_flight=True)
        first.run([spec])
        original = TrialCache(tmp_path).get_sidecar(key, "flight")
        second = build_backend(cache=TrialCache(tmp_path), record_flight=True)
        second.run([spec])
        assert second.stats.trials_run == 0
        assert second.stats.cache_hits == 1
        assert key not in second.recordings
        assert TrialCache(tmp_path).get_sidecar(key, "flight") == original


def small_plan(tmp_path, trials=1, duration=3.0):
    from repro.fleet.plan import plan_cycle

    plan = plan_cycle(
        ["iperf_cubic", "iperf_bbr"],
        [NET],
        ExperimentConfig().scaled(duration),
        trials_per_pair=trials,
        num_shards=1,
        include_self_pairs=False,
    )
    plan.write(tmp_path)
    return plan


class TestFleetFlight:
    def test_a_receipt_carrying_a_flight_prefix_still_loads(self, tmp_path):
        """Receipts once embedded truncated recordings as
        ``flight_prefix`` and listed their manifest's keys as
        ``completed_keys``; one written that way loads like any other,
        and neither field is written again."""
        from repro.fleet.worker import RECEIPT_FILENAME, ShardReceipt

        receipt = ShardReceipt(
            plan_id="p", shard_index=0, num_shards=1, cache_schema=1,
        )
        payload = receipt.to_json()
        payload["flight_prefix"] = {"k" * 64: {"points": 4}}
        payload["completed_keys"] = ["k" * 64]
        (tmp_path / RECEIPT_FILENAME).write_text(json.dumps(payload))
        loaded = ShardReceipt.load(tmp_path)
        assert loaded == receipt
        assert "flight_prefix" not in loaded.to_json()
        assert "completed_keys" not in loaded.to_json()

    def test_run_shard_records_sidecars(self, tmp_path):
        from repro.fleet.worker import RECEIPT_FILENAME, run_shard

        plan = small_plan(tmp_path / "plan")
        cache_dir = tmp_path / "cache0"
        receipt = run_shard(
            tmp_path / "plan" / "shard-0.json",
            cache_dir,
            record_flight=True,
        )
        keys = sorted(t.cache_key for t in plan.trials)
        assert receipt.stats.trials_total == len(keys)
        assert TrialCache(cache_dir).sidecar_keys("flight") == keys
        assert sorted(cache_logs.sidecars(cache_dir)) == [
            f"{key}.flight" for key in keys
        ]
        assert [p.name for p in cache_dir.glob("*.json")] == [RECEIPT_FILENAME]
        # The recordings travel as sidecars only, not in the receipt.
        on_disk = json.loads((cache_dir / RECEIPT_FILENAME).read_text())
        assert "flight_prefix" not in on_disk

    def test_pool_records_like_inline(self, tmp_path):
        """``record_flight`` under a two-worker pool: the workers record
        and the parent writes what inline writes - records and sidecars,
        byte for byte, into one log."""
        from repro.fleet.worker import RECEIPT_FILENAME, run_shard

        plan = small_plan(tmp_path / "plan", trials=2)
        written = []
        for kind, workers in (("inline", None), ("process", 2)):
            cache_dir = tmp_path / kind
            run_shard(
                tmp_path / "plan" / "shard-0.json",
                cache_dir,
                backend_kind=kind,
                workers=workers,
                record_flight=True,
            )
            assert len(cache_logs.logs(cache_dir)) == 1
            assert [p.name for p in cache_dir.glob("*.json")] == [
                RECEIPT_FILENAME
            ]
            written.append({
                **cache_logs.records(cache_dir),
                **cache_logs.sidecars(cache_dir),
            })
        inline_files, pool_files = written
        keys = sorted(t.cache_key for t in plan.trials)
        assert sorted(inline_files) == sorted(
            keys + [f"{key}.flight" for key in keys]
        )
        assert pool_files == inline_files

    def test_fleet_status_telemetry_totals(self, tmp_path):
        from repro.fleet.status import fleet_status
        from repro.fleet.worker import run_shard

        plan = small_plan(tmp_path / "plan")
        run_shard(
            tmp_path / "plan" / "shard-0.json",
            tmp_path / "cache0",
            record_flight=True,
        )
        status = fleet_status(plan, [tmp_path / "cache0"])
        telemetry = status.to_json()["telemetry"]
        assert telemetry["receipts"] == 1
        assert telemetry["trials_folded"] == len(plan.trials)
        assert telemetry["trials_simulated"] == len(plan.trials)
        assert telemetry["flight_recorded"] == len(plan.trials)
        assert telemetry["newest_receipt_age_sec"] is not None
        assert "metrics" in telemetry
        assert "trials folded" in status.render()

    def test_fleet_status_telemetry_absent_without_receipts(self, tmp_path):
        from repro.fleet.status import fleet_status

        plan = small_plan(tmp_path / "plan")
        status = fleet_status(plan, [])
        assert status.to_json()["telemetry"] is None
        assert "telemetry:" not in status.render()


class TestSiteWhySections:
    def make_store(self):
        from repro.core.results import ResultStore
        from repro.core.experiment import ExperimentResult

        bw = units.mbps(8)
        store = ResultStore()
        for seed in range(3):
            ids = ["bully", "meek"]
            store.add(ExperimentResult(
                contender_id="bully",
                incumbent_id="meek",
                bandwidth_bps=bw,
                buffer_packets=128,
                seed=seed,
                duration_usec=units.seconds(60),
                throughput_bps={"bully": 0.9 * bw, "meek": 0.1 * bw},
                mmf_allocation_bps={sid: bw / 2 for sid in ids},
                mmf_share={"bully": 1.8, "meek": 0.2},
                loss_rate={sid: 0.0 for sid in ids},
                queueing_delay_usec={sid: 0.0 for sid in ids},
                utilization=1.0,
            ))
        return store, bw

    def test_section_identical_without_diagnoses(self):
        from repro.analysis.site import render_bandwidth_section

        store, bw = self.make_store()
        plain = render_bandwidth_section(store, ["bully", "meek"], bw)
        with_none = render_bandwidth_section(
            store, ["bully", "meek"], bw, diagnoses=None
        )
        with_empty = render_bandwidth_section(
            store, ["bully", "meek"], bw, diagnoses={}
        )
        assert plain == with_none == with_empty
        assert "Why is this unfair?" not in plain

    def test_diagnosed_worst_cell_gets_why_section(self):
        from repro.analysis.site import render_bandwidth_section

        store, bw = self.make_store()
        diagnosis = diagnose(synthetic_recording())
        section = render_bandwidth_section(
            store, ["bully", "meek"], bw,
            diagnoses={("bully", "meek"): diagnosis},
        )
        assert "### Why is this unfair?" in section
        assert "**meek vs bully**" in section
        for sentence in explain_unfairness(diagnosis):
            assert sentence in section

    def test_reversed_pair_key_matches(self):
        from repro.analysis.site import render_bandwidth_section

        store, bw = self.make_store()
        section = render_bandwidth_section(
            store, ["bully", "meek"], bw,
            diagnoses={("meek", "bully"): diagnose(synthetic_recording())},
        )
        assert "### Why is this unfair?" in section


class TestServiceFlightPublication:
    def run_service(self, tmp_path, record_flight=True):
        from repro.fleet.worker import run_shard
        from repro.service.coordinator import WatchdogService

        plan_dir = tmp_path / "plan"
        small_plan(plan_dir)
        entry = tmp_path / "spool" / "incoming" / "cycle-a"
        entry.mkdir(parents=True)
        (entry / "plan.json").write_text(
            (plan_dir / "plan.json").read_text()
        )
        run_shard(
            plan_dir / "shard-0.json", entry, record_flight=record_flight
        )
        return WatchdogService(
            tmp_path / "spool",
            tmp_path / "out",
            networks=[NET],
            plan_config=FAST,
            plan_shards=1,
        )

    def test_ingest_publishes_diagnoses_and_why_section(self, tmp_path):
        service = self.run_service(tmp_path)
        summary = service.ingest_once()
        report = summary["ingested"][0]
        assert report["diagnosed"] > 0
        diagnoses = service.load_diagnoses()
        assert NET.bandwidth_bps in diagnoses
        pair_map = diagnoses[NET.bandwidth_bps]
        assert {frozenset(pair) for pair in pair_map} == {
            frozenset(("iperf_cubic", "iperf_bbr"))
        }
        page = service.site.index_path.read_text()
        assert "### Why is this unfair?" in page

    def test_a_damaged_diagnosis_file_is_treated_as_absent(self, tmp_path):
        """A published diagnosis that is JSON but no diagnosis is
        skipped with a warning naming it, like one that does not parse,
        and the site renders as without it.  That holds for a file
        beside the real one and for the real one - whose pair the site
        explains as a worst cell - with its body damaged.  (Unchecked,
        such a file raised an ``AttributeError``, ``KeyError``,
        ``TypeError`` or ``ValueError`` from every site refresh.)"""
        import logging

        service = self.run_service(tmp_path)
        service.ingest_once()
        healthy = service.site.index_path.read_bytes()
        assert b"### Why is this unfair?" in healthy
        diagnoses = service.load_diagnoses()
        (published,) = (tmp_path / "out" / "diagnoses").glob("*/*.json")
        original = json.loads(published.read_text())
        logged = []
        handler = logging.Handler()
        handler.emit = lambda record: logged.append(
            (record.getMessage(), record.repro_fields["path"])
        )

        def check(damaged, payload, page, loaded):
            damaged.write_text(json.dumps(payload))
            logged.clear()
            service.ingest_once(full_site_refresh=True)
            assert logged == [
                ("service.diagnosis_discarded", str(damaged))
            ], payload
            assert service.site.index_path.read_bytes() == page, payload
            assert service.load_diagnoses() == loaded, payload

        logger = logging.getLogger("repro.service")
        logger.addHandler(handler)
        try:
            for payload in (
                [1],
                {"meta": [1]},
                {"meta": {"service_ids": ["zz", "yy"],
                          "bandwidth_bps": "fast"}},
            ):
                check(published.parent / "zz__yy.json", payload, healthy,
                      diagnoses)
            (published.parent / "zz__yy.json").unlink()
            published.unlink()
            service.ingest_once(full_site_refresh=True)
            bare = service.site.index_path.read_bytes()
            assert b"### Why is this unfair?" not in bare
            for body in (
                {"throughput_share": [1]},
                {"throughput_share": {"mean": {"a": "x", "b": 1}}},
                {"dwell": {"f": {"x": 1}}},
                {"retransmit_bursts": {"f": {"bursts": 1}}},
            ):
                check(published, {**original, **body}, bare, {})
        finally:
            logger.removeHandler(handler)

    def test_a_recording_naming_no_trial_of_the_entry_is_skipped(
        self, tmp_path
    ):
        """The diagnosis file is named from the recording's service ids:
        ids that are no trial of the entry (``../../../escaped``) are
        logged and skipped, and nothing lands outside ``out/``.  (They
        were written to ``<tmp>/escaped__x.json`` and counted.)"""
        service = self.run_service(tmp_path)
        entry = tmp_path / "spool" / "incoming" / "cycle-a"
        keys = TrialCache(entry).sidecar_keys("flight")
        assert keys

        def escape(sidecar):
            payload = json.loads(sidecar)
            payload["meta"]["service_ids"] = ["../../../escaped", "x"]
            return json.dumps(payload).encode()

        for key in keys:
            cache_logs.rewrite(entry, f"{key}.flight", escape)
        report = service.ingest_once()["ingested"][0]
        assert report["diagnosed"] == 0
        assert not list(tmp_path.rglob("escaped__x.json"))
        assert service.load_diagnoses() == {}

    def test_status_reports_observability(self, tmp_path):
        service = self.run_service(tmp_path)
        before = service.status()["observability"]
        assert before["last_ingest_age_sec"] is None
        assert before["totals"]["trials_folded"] == 0
        service.ingest_once()
        after = service.status()["observability"]
        assert after["last_ingest_age_sec"] is not None
        assert after["totals"]["trials_folded"] > 0
        assert after["totals"]["flight_diagnosed"] > 0
        assert after["diagnoses_published"] > 0
        assert after["heartbeat_age_sec"] is not None

    def test_site_unchanged_without_recordings(self, tmp_path):
        service = self.run_service(tmp_path, record_flight=False)
        summary = service.ingest_once()
        assert summary["ingested"][0]["diagnosed"] == 0
        page = service.site.index_path.read_text()
        assert "Why is this unfair?" not in page


class TestFlightCli:
    def test_record_summarize_render(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "flight.json"
        assert main([
            "obs", "flight", "record", "iperf_cubic", "iperf_bbr",
            "--duration", "3", "--out", str(out),
        ]) == 0
        assert out.exists()
        assert main(["obs", "flight", "summarize", str(out)]) == 0
        text = capsys.readouterr().out
        assert "dwell times" in text
        assert "why is this unfair:" in text
        chrome = tmp_path / "chrome.json"
        assert main([
            "obs", "flight", "render", str(out), "--chrome", str(chrome),
        ]) == 0
        assert "flight timeline" in capsys.readouterr().out
        events = json.loads(chrome.read_text())["traceEvents"]
        assert events and all(e["ph"] == "C" for e in events)

    def test_summarize_json_is_diagnosis(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "flight.json"
        main([
            "obs", "flight", "record", "iperf_cubic", "iperf_bbr",
            "--duration", "3", "--out", str(out),
        ])
        capsys.readouterr()
        assert main(["obs", "flight", "summarize", str(out), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == DIAGNOSIS_SCHEMA_VERSION
        assert payload["dwell"]

    def test_summarize_rejects_wrong_schema(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": 999}))
        assert main(["obs", "flight", "summarize", str(bad)]) == 1

    @pytest.mark.parametrize("payload", ["[1]", '{"schema": 1}'])
    @pytest.mark.parametrize("command", ["summarize", "render"])
    def test_damaged_recording_is_named(
        self, tmp_path, capsys, command, payload
    ):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text(payload)
        assert main(["obs", "flight", command, str(bad)]) == 1
        assert capsys.readouterr().err.startswith(f"obs error: {bad}: ")

    def test_fleet_run_shard_flag(self, tmp_path, capsys):
        from repro.cli import main

        plan_dir = tmp_path / "plan"
        small_plan(plan_dir)
        assert main([
            "fleet", "run-shard", str(plan_dir / "shard-0.json"),
            "--cache-dir", str(tmp_path / "cache0"), "--record-flight",
        ]) == 0
        out = capsys.readouterr().out
        recorded = TrialCache(tmp_path / "cache0").sidecar_keys("flight")
        assert recorded
        assert f"flight recordings: {len(recorded)} trial(s)" in out
