"""repro.obs: metrics registry, span tracing, heartbeat, logging.

Includes the layer's central invariant: enabling every observability
hook must not perturb simulation results (the golden-identity fixture
stays byte-identical with tracing and metrics turned on).
"""

import io
import json
import sys
import threading

import pytest

from repro.obs import tracing
from repro.obs.heartbeat import (
    HEARTBEAT_SCHEMA_VERSION,
    Heartbeat,
    HeartbeatWriter,
    describe,
)
from repro.obs.log import configure as configure_logging, get_logger
from repro.obs.metrics import (
    MetricsRegistry,
    diff_snapshots,
    get_registry,
    merge_snapshots,
    reset_registry,
)

from .test_golden_identity import FIXTURE, compute_payload, serialize


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Every test starts and ends with tracing off and a fresh registry."""
    tracing.disable()
    reset_registry()
    yield
    tracing.disable()
    reset_registry()


class TestMetricsRegistry:
    def test_counter_gauge_histogram_basics(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(4)
        reg.gauge("g").set(2.5)
        reg.gauge("g").add(0.5)
        hist = reg.histogram("h", edges=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            hist.observe(value)
        assert reg.counter("c").value == 5
        assert reg.gauge("g").value == 3.0
        assert hist.count == 3
        assert hist.counts == [1, 1, 1]  # one per bucket incl. overflow

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("c").inc(-1)

    def test_name_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")

    def test_snapshot_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("trials").inc(7)
        reg.gauge("depth").set(1.5)
        reg.histogram("lat", edges=(0.1, 1.0)).observe(0.4)
        snap = reg.snapshot()
        # The snapshot is pure JSON.
        snap = json.loads(json.dumps(snap))
        clone = MetricsRegistry.from_snapshot(snap)
        assert clone.snapshot() == snap

    def test_merge_sums_counters_and_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for reg, n in ((a, 2), (b, 3)):
            reg.counter("trials").inc(n)
            hist = reg.histogram("lat", edges=(1.0,))
            hist.observe(0.5)
            hist.observe(2.0)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        metrics = merged["metrics"]
        assert metrics["trials"]["value"] == 5
        assert metrics["lat"]["count"] == 4
        assert metrics["lat"]["counts"] == [2, 2]
        assert metrics["lat"]["sum"] == pytest.approx(5.0)

    def test_merge_rejects_mismatched_edges(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("lat", edges=(1.0,)).observe(0.5)
        b.histogram("lat", edges=(2.0,)).observe(0.5)
        with pytest.raises(ValueError):
            merge_snapshots([a.snapshot(), b.snapshot()])

    def test_diff_isolates_a_window(self):
        reg = MetricsRegistry()
        reg.counter("trials").inc(10)
        before = reg.snapshot()
        reg.counter("trials").inc(3)
        reg.histogram("lat", edges=(1.0,)).observe(0.2)
        delta = diff_snapshots(before, reg.snapshot())
        assert delta["metrics"]["trials"]["value"] == 3
        assert delta["metrics"]["lat"]["count"] == 1

    def test_process_registry_is_shared_and_resettable(self):
        get_registry().counter("k").inc()
        assert get_registry().counter("k").value == 1
        reset_registry()
        assert "k" not in get_registry().names()


    def test_threads_racing_to_create_one_counter_share_it(self):
        """An existing instrument is returned without the registry lock;
        creation still takes it, so racing first callers get one object
        and no increment lands on a lost twin."""
        threads, rounds = 16, 200
        start = threading.Barrier(threads)
        seen = [[] for _ in range(threads)]
        reg = MetricsRegistry()

        def work(mine):
            start.wait(timeout=30)
            for index in range(rounds):
                counter = reg.counter(f"c{index}")
                counter.inc()
                mine.append(counter)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=work, args=(mine,)) for mine in seen
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        for index in range(rounds):
            assert len({id(mine[index]) for mine in seen}) == 1
            assert reg.counter(f"c{index}").value == threads
        # Found without the lock, the type check still holds.
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("c0")

    def test_a_read_after_reset_creates_a_fresh_instrument(self):
        stale = get_registry().counter("c")
        stale.inc(3)
        reset_registry()
        fresh = get_registry().counter("c")
        assert fresh is not stale and fresh.value == 0
        assert get_registry().counter("c") is fresh
        assert get_registry().snapshot()["metrics"]["c"]["value"] == 0


class TestTracing:
    def test_nested_spans_record_parent_linkage(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracing.configure(path)
        with tracing.span("outer", label="a"):
            with tracing.span("inner") as inner:
                inner.set(items=3)
        tracing.disable()
        spans = {s["kind"]: s for s in tracing.read_spans(path)}
        assert spans["inner"]["parent"] == spans["outer"]["id"]
        assert "parent" not in spans["outer"]
        assert spans["inner"]["attrs"] == {"items": 3}
        assert spans["outer"]["attrs"] == {"label": "a"}
        assert spans["outer"]["dur_us"] >= spans["inner"]["dur_us"]

    def test_span_is_noop_without_tracer(self):
        with tracing.span("anything", x=1) as handle:
            handle.set(y=2)  # must not raise
        assert tracing.get_tracer() is None

    def test_exception_recorded_and_propagated(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracing.configure(path)
        with pytest.raises(RuntimeError):
            with tracing.span("boom"):
                raise RuntimeError("x")
        tracing.disable()
        (span,) = tracing.read_spans(path)
        assert span["attrs"]["error"] == "RuntimeError"

    def test_threads_get_independent_parent_stacks(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracing.configure(path)

        def worker():
            with tracing.span("thread.child"):
                pass

        with tracing.span("main.parent"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        tracing.disable()
        spans = {s["kind"]: s for s in tracing.read_spans(path)}
        assert "parent" not in spans["thread.child"]

    def test_read_spans_skips_truncated_tail(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracing.configure(path)
        with tracing.span("ok"):
            pass
        tracing.disable()
        with open(path, "a") as fh:
            fh.write('{"kind": "torn", "ts_us": 12')  # killed mid-write
        spans = tracing.read_spans(path)
        assert [s["kind"] for s in spans] == ["ok"]

    def test_chrome_export_shape(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracing.configure(path)
        with tracing.span("outer"):
            with tracing.span("inner"):
                pass
        tracing.disable()
        payload = tracing.to_chrome_trace(tracing.read_spans(path))
        events = payload["traceEvents"]
        assert len(events) == 2
        assert {e["ph"] for e in events} == {"X"}
        assert min(e["ts"] for e in events) == 0  # rebased
        json.dumps(payload)  # serialisable as-is

    def test_summarize_percentiles_exact(self):
        spans = [
            {"kind": "t", "dur_us": d} for d in (1_000_000, 2_000_000,
                                                 3_000_000, 4_000_000)
        ]
        row = tracing.summarize(spans)["t"]
        assert row["count"] == 4
        assert row["total_sec"] == pytest.approx(10.0)
        assert row["p50_sec"] == pytest.approx(2.5)
        assert row["max_sec"] == pytest.approx(4.0)
        assert "(no spans)" == tracing.render_summary({})


class TestHeartbeat:
    def test_lifecycle_schema_and_progress(self, tmp_path):
        path = tmp_path / "heartbeat.json"
        writer = HeartbeatWriter(path)
        writer.starting()
        beat = Heartbeat.load(path)
        assert beat.phase == "starting"
        payload = json.loads(path.read_text())
        assert payload["schema"] == HEARTBEAT_SCHEMA_VERSION

        writer.batch_done(trials=6)
        beat = Heartbeat.load(path)
        assert (beat.phase, beat.trials_completed, beat.batches_completed) \
            == ("cycle", 6, 1)

        writer.cycle_done()
        beat = Heartbeat.load(path)
        assert beat.phase == "idle"
        assert beat.cycle == 1

        writer.batch_done(trials=6)
        writer.cycle_done()
        writer.finished()
        beat = Heartbeat.load(path)
        assert (beat.phase, beat.cycle, beat.trials_completed) \
            == ("done", 2, 12)
        assert "phase=done" in describe(beat)

    def test_no_tmp_file_left_behind(self, tmp_path):
        writer = HeartbeatWriter(tmp_path / "hb.json")
        writer.starting()
        assert [p.name for p in tmp_path.iterdir()] == ["hb.json"]

    def test_from_json_ignores_unknown_keys(self):
        beat = Heartbeat(pid=1, phase="cycle", started_unix=0.0,
                         updated_unix=5.0)
        payload = beat.to_json()
        payload["future_field"] = "whatever"
        clone = Heartbeat.from_json(payload)
        assert clone.phase == "cycle"
        assert clone.age_sec(now=7.0) == pytest.approx(2.0)


class TestStructuredLogging:
    def test_text_and_json_modes(self):
        stream = io.StringIO()
        configure_logging(level="info", json_mode=False, stream=stream)
        get_logger("runner").info("trial.done", seed=3, wall_sec=1.25)
        get_logger("runner").debug("hidden", x=1)  # below level
        text = stream.getvalue()
        assert "trial.done" in text and "seed=3" in text
        assert "hidden" not in text

        stream = io.StringIO()
        configure_logging(level="debug", json_mode=True, stream=stream)
        get_logger("fleet").debug("shard.start", shard=2)
        record = json.loads(stream.getvalue())
        assert record["event"] == "shard.start"
        assert record["shard"] == 2
        assert record["logger"] == "repro.fleet"
        assert record["level"] == "debug"

    def test_reconfigure_does_not_stack_handlers(self):
        stream = io.StringIO()
        configure_logging(stream=io.StringIO())
        configure_logging(stream=stream)
        get_logger("x").info("once")
        assert stream.getvalue().count("once") == 1

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            configure_logging(level="loud")


class TestNoPerturbation:
    def test_golden_identity_with_observability_enabled(self, tmp_path):
        """The load-bearing invariant: hooks on, bytes unchanged."""
        tracing.configure(tmp_path / "trace.jsonl")
        payload = serialize(compute_payload())
        tracing.disable()
        assert payload == FIXTURE.read_bytes()
        # ... and the run actually exercised the hooks.
        spans = tracing.read_spans(tmp_path / "trace.jsonl")
        assert {s["kind"] for s in spans} == {"sim.run"}
        snap = get_registry().snapshot()["metrics"]
        assert snap["sim.trials"]["value"] == 1
        assert snap["sim.packets"]["value"] > 0
        assert snap["sim.events"]["value"] > 0


class TestObsCLI:
    def test_traced_pair_then_summarize(self, tmp_path, capsys):
        """Acceptance path: a traced trial yields >= 4 distinct span kinds."""
        from repro.cli import main

        trace = tmp_path / "trace.jsonl"
        assert main([
            "--trace-file", str(trace),
            "pair", "iperf_cubic", "iperf_bbr",
            "--duration", "2", "--cache-dir", str(tmp_path / "cache"),
        ]) == 0
        capsys.readouterr()
        assert main(["obs", "summarize", str(trace)]) == 0
        out = capsys.readouterr().out
        for kind in ("cli.command", "backend.dispatch", "trial.run",
                     "sim.run", "cache.lookup"):
            assert kind in out
        kinds = {s["kind"] for s in tracing.read_spans(trace)}
        assert len(kinds) >= 4

    def test_summarize_empty_trace_exits_1(self, tmp_path, capsys):
        from repro.cli import main

        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["obs", "summarize", str(empty)]) == 1
        assert "(no spans)" in capsys.readouterr().out

    def test_chrome_export_command(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "trace.jsonl"
        tracing.configure(trace)
        with tracing.span("anything"):
            pass
        tracing.disable()
        out_file = tmp_path / "chrome.json"
        assert main([
            "obs", "chrome", str(trace), "-o", str(out_file),
        ]) == 0
        payload = json.loads(out_file.read_text())
        assert payload["traceEvents"][0]["name"] == "anything"

    def test_heartbeat_command_and_staleness(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "hb.json"
        writer = HeartbeatWriter(path)
        writer.starting()
        writer.batch_done(trials=4)
        assert main(["obs", "heartbeat", str(path)]) == 0
        assert "phase=cycle" in capsys.readouterr().out
        assert main([
            "obs", "heartbeat", str(path), "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trials_completed"] == 4
        assert payload["age_sec"] >= 0
        # A fresh heartbeat is not stale; a zero threshold makes it so.
        assert main([
            "obs", "heartbeat", str(path), "--stale-after", "3600",
        ]) == 0
        capsys.readouterr()
        assert main([
            "obs", "heartbeat", str(path), "--stale-after", "0",
        ]) == 1
        assert "stalled" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload",
        [
            "[1]",
            "null",
            '{"pid": 1, "phase": "cycle", "started_unix": 0, '
            '"updated_unix": "x"}',
            '{"pid": 1, "phase": "bogus", "started_unix": 0, '
            '"updated_unix": 0}',
        ],
        ids=["list", "null", "stamp-not-a-number", "unknown-phase"],
    )
    def test_heartbeat_command_names_a_damaged_file(
        self, tmp_path, capsys, payload
    ):
        from repro.cli import main

        path = tmp_path / "hb.json"
        path.write_text(payload)
        assert main(["obs", "heartbeat", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"obs error: {path}: ")

    def test_heartbeat_command_reads_an_older_file(self, tmp_path, capsys):
        """A heartbeat written with the former horizon fields
        (``cycles_total``, ``progress``, ``eta_sec``) still loads."""
        from repro.cli import main

        path = tmp_path / "hb.json"
        path.write_text(json.dumps({
            "batches_completed": 2, "cycle": 1, "cycles_total": 3,
            "eta_sec": 40.0, "phase": "idle", "pid": 4242,
            "progress": 0.333, "schema": 1, "started_unix": 1.0,
            "trials_completed": 8, "updated_unix": 2.0,
        }, indent=1, sort_keys=True))
        assert main(["obs", "heartbeat", str(path)]) == 0
        assert capsys.readouterr().out.startswith(
            "phase=idle cycle=1 trials=8 batches=2 age="
        )

    def test_log_flags_route_diagnostics(self, tmp_path, capsys):
        from repro.cli import main

        assert main([
            "--log-json",
            "pair", "iperf_cubic", "iperf_bbr",
            "--duration", "2", "--cache-dir", str(tmp_path / "cache"),
        ]) == 0
        captured = capsys.readouterr()
        assert "MmF share" in captured.out  # product output untouched
        record = json.loads(captured.err.strip().splitlines()[-1])
        assert record["event"] == "runner.stats"
        assert record["trials_run"] == 1
