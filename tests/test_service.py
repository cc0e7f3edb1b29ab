"""Watchdog-as-a-service: store durability, spool ingestion, crash
recovery, submissions, and the kill-and-restart acceptance invariant.

The acceptance test for this subsystem: SIGKILL the coordinator at the
worst moment (trial records durable, commit record not), restart it, and
the replayed store plus regenerated site must be byte-identical to an
uninterrupted run over the same spool - with zero re-simulation, since
ingestion only ever folds from the entry's cache.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import units
from repro.config import ExperimentConfig, TrialPolicyConfig, highly_constrained
from repro.core.cache import TrialCache
from repro.fleet.adaptive import AdaptiveCycleState, run_adaptive_cycle
from repro.fleet.plan import load_plan, plan_cycle
from repro.fleet.worker import run_shard
from repro.service import (
    CycleRecord,
    RollingResultStore,
    ServiceError,
    WatchdogService,
)
from repro.service.coordinator import FAULT_ENV
from repro.core.submission import DEFAULT_ACCESS_CODES

from tests.test_cache_immutability import ENTRY_DAMAGE
from tests.test_fleet import HOSTILE_V3, damage_v3

FAST = ExperimentConfig().scaled(4)
NET = highly_constrained()
IDS = ["iperf_cubic", "iperf_reno"]
REPO_SRC = Path(__file__).resolve().parent.parent / "src"


def fake_result(seed, bw=units.mbps(8)):
    """A minimal raw ExperimentResult payload for store-only tests."""
    ids = ["a", "b"]
    return {
        "contender_id": "a",
        "incumbent_id": "b",
        "bandwidth_bps": bw,
        "buffer_packets": 64,
        "seed": seed,
        "duration_usec": units.seconds(30),
        "throughput_bps": {sid: bw / 2 for sid in ids},
        "mmf_allocation_bps": {sid: bw / 2 for sid in ids},
        "mmf_share": {sid: 1.0 for sid in ids},
        "loss_rate": {sid: 0.0 for sid in ids},
        "queueing_delay_usec": {sid: 0.0 for sid in ids},
        "utilization": 1.0,
    }


def make_record(cycle_id, trials=2):
    return CycleRecord(
        cycle_id=cycle_id,
        source=f"entry-{cycle_id}",
        kind="fixed",
        results=[fake_result(seed) for seed in range(trials)],
    )


def make_fixed_entry(entry, trials_per_pair=1, base_seed=7, shards=(0, 1)):
    """A merged fixed-plan cycle directory: plan + executed cache."""
    entry.mkdir(parents=True)
    plan = plan_cycle(
        IDS, [NET], FAST,
        trials_per_pair=trials_per_pair, num_shards=2, base_seed=base_seed,
    )
    plan.write(entry)
    for shard in shards:
        run_shard(entry / f"shard-{shard}.json", entry / "cache")
    return plan


def make_service(root, **kwargs):
    kwargs.setdefault("networks", [NET])
    kwargs.setdefault("plan_config", FAST)
    kwargs.setdefault("plan_trials", 1)
    return WatchdogService(root / "spool", root / "out", **kwargs)


class TestRollingResultStore:
    def test_append_and_replay_round_trip(self, tmp_path):
        store = RollingResultStore(tmp_path)
        store.append_cycle(make_record("c1"))
        store.append_cycle(make_record("c2", trials=3))
        reopened = RollingResultStore(tmp_path)
        assert [r.cycle_id for r in reopened.cycles()] == ["c1", "c2"]
        assert len(reopened) == 5

    def test_duplicate_cycle_id_rejected(self, tmp_path):
        store = RollingResultStore(tmp_path)
        store.append_cycle(make_record("c1"))
        with pytest.raises(ValueError, match="already ingested"):
            store.append_cycle(make_record("c1"))

    def test_torn_tail_dropped_on_replay(self, tmp_path):
        store = RollingResultStore(tmp_path)
        store.append_cycle(make_record("c1"))
        with open(store.journal_path, "a") as fh:
            fh.write('{"record": "begin", "cycle_id": "c2", "ki')
        reopened = RollingResultStore(tmp_path)
        assert [r.cycle_id for r in reopened.cycles()] == ["c1"]

    def test_uncommitted_segment_discarded(self, tmp_path):
        """Trials without their commit record never happened."""
        store = RollingResultStore(tmp_path)
        store.append_cycle(make_record("c1"))

        died = RollingResultStore(tmp_path)
        with pytest.raises(RuntimeError):
            died.append_cycle(
                make_record("c2"),
                pre_commit=lambda: (_ for _ in ()).throw(
                    RuntimeError("crash")
                ),
            )
        reopened = RollingResultStore(tmp_path)
        assert [r.cycle_id for r in reopened.cycles()] == ["c1"]
        # The same cycle can then be re-ingested cleanly.
        reopened.append_cycle(make_record("c2"))
        assert [r.cycle_id for r in RollingResultStore(tmp_path).cycles()] \
            == ["c1", "c2"]

    def test_compact_folds_journal_into_snapshot(self, tmp_path):
        store = RollingResultStore(tmp_path)
        store.append_cycle(make_record("c1"))
        store.append_cycle(make_record("c2"))
        store.compact()
        assert store.journal_path.read_text() == ""
        assert store.snapshot_path.exists()
        reopened = RollingResultStore(tmp_path)
        assert [r.cycle_id for r in reopened.cycles()] == ["c1", "c2"]
        assert len(reopened) == 4

    def test_compact_window_drops_old_cycles(self, tmp_path):
        store = RollingResultStore(tmp_path)
        for index in range(4):
            store.append_cycle(make_record(f"c{index}"))
        store.compact(max_cycles=2)
        assert [r.cycle_id for r in store.cycles()] == ["c2", "c3"]
        reopened = RollingResultStore(tmp_path)
        assert [r.cycle_id for r in reopened.cycles()] == ["c2", "c3"]

    def test_store_view_windows(self, tmp_path):
        store = RollingResultStore(tmp_path)
        for index in range(3):
            store.append_cycle(make_record(f"c{index}"))
        assert len(list(store.store_view().all_results())) == 6
        assert len(list(store.store_view(last_cycles=1).all_results())) == 2
        assert len(list(store.store_view(last_cycles=2).all_results())) == 4
        assert len(list(store.store_view(last_cycles=0).all_results())) == 0

    def test_partial_then_full_cycle_supersedes_in_view(self, tmp_path):
        """A fuller re-delivery of the same base cycle replaces the
        earlier partial ingest in windowed views (no double counting)."""
        store = RollingResultStore(tmp_path)
        partial = CycleRecord(
            cycle_id="base+2", source="e", kind="adaptive", partial=True,
            results=[fake_result(seed) for seed in range(2)],
        )
        store.append_cycle(partial)
        full = CycleRecord(
            cycle_id="base", source="e", kind="adaptive",
            results=[fake_result(seed) for seed in range(5)],
        )
        store.append_cycle(full)
        assert len(list(store.store_view().all_results())) == 5


class TestServiceIngest:
    def test_fixed_cycle_end_to_end(self, tmp_path):
        service = make_service(tmp_path)
        make_fixed_entry(tmp_path / "spool" / "incoming" / "cycle-a")
        summary = service.ingest_once()
        assert summary["cycles_total"] == 1
        report = summary["ingested"][0]
        assert report["kind"] == "fixed" and not report["partial"]
        assert report["trials"] == 3  # 2 self pairs + 1 cross pair
        assert not (tmp_path / "spool" / "incoming" / "cycle-a").exists()
        assert (tmp_path / "spool" / "done" / "cycle-a").exists()
        index = (tmp_path / "out" / "site" / "index.md").read_text()
        assert "8 Mbps bottleneck" in index
        assert (tmp_path / "out" / "next-plan" / "plan.json").exists()

    def test_redelivery_is_idempotent(self, tmp_path):
        service = make_service(tmp_path)
        entry = tmp_path / "spool" / "incoming" / "cycle-a"
        make_fixed_entry(entry)
        backup = tmp_path / "copy"
        shutil.copytree(entry, backup)
        service.ingest_once()
        shutil.copytree(backup, tmp_path / "spool" / "incoming" / "cycle-a2")
        summary = service.ingest_once()
        assert summary["ingested"][0]["skipped"]
        assert summary["cycles_total"] == 1
        assert (tmp_path / "spool" / "done" / "cycle-a2").exists()

    def test_partial_fixed_cycle_requeues_missing_shard(self, tmp_path):
        """Shard loss: what converged is ingested, the missing shard is
        re-queued through the attempt-bump retry path."""
        service = make_service(tmp_path)
        entry = tmp_path / "spool" / "incoming" / "cycle-a"
        # 2 trials/pair spreads work across both shards; shard 1 is lost.
        plan = make_fixed_entry(entry, trials_per_pair=2, shards=(0,))
        summary = service.ingest_once()
        report = summary["ingested"][0]
        assert report["partial"]
        assert 0 < report["trials"] < len(plan.trials)
        assert report["requeued"], "missing shard must be re-queued"
        retry = Path(report["requeued"][0])
        assert retry.exists()
        manifest = json.loads(retry.read_text())
        assert manifest["attempt"] == 1
        # The retried shard's results can be delivered later as a fuller
        # re-ingest of the same plan.
        assert report["cycle_id"].startswith(plan.plan_id)
        assert report["cycle_id"] != plan.plan_id

    def test_adaptive_cycle_ingested_from_assembly_plan(self, tmp_path):
        service = make_service(tmp_path)
        entry = tmp_path / "spool" / "incoming" / "cycle-adaptive"
        policy = TrialPolicyConfig(
            min_trials=2, max_trials=2, batch_size=2,
            ci_halfwidth_bps=units.mbps(100),
        )
        run_adaptive_cycle(
            entry, IDS, [NET], FAST, policies=[policy],
            num_shards=2, base_seed=3,
        )
        summary = service.ingest_once()
        report = summary["ingested"][0]
        assert report["kind"] == "adaptive"
        assert not report["partial"]
        assert report["trials"] == 6  # 3 pairs x 2 trials

    def test_partial_adaptive_cycle_ingests_and_requeues(self, tmp_path):
        """A cycle whose fleet died mid-run: folded rounds are ingested,
        open pairs are re-planned into retry manifests."""
        policy = TrialPolicyConfig(
            min_trials=2, max_trials=6, batch_size=2,
            ci_halfwidth_bps=1.0,  # ~never converges in 2 trials
        )
        state = AdaptiveCycleState(
            IDS, [NET], FAST, policies=[policy], base_seed=3,
        )
        entry = tmp_path / "spool" / "incoming" / "cycle-partial"
        plan = state.plan_round(num_shards=2)
        plan_dir = tmp_path / "round0"
        plan.write(plan_dir)
        for shard in range(2):
            run_shard(plan_dir / f"shard-{shard}.json", entry / "cache")
        state.fold_round(plan, TrialCache(entry / "cache"))
        assert not state.done
        state.save(entry)

        service = make_service(tmp_path)
        summary = service.ingest_once()
        report = summary["ingested"][0]
        assert report["kind"] == "adaptive" and report["partial"]
        assert report["trials"] == state.trials_done_total()
        assert report["requeued"], "open pairs must be re-queued"
        retry_plan = json.loads(
            (Path(report["requeued"][0]).parent / "plan.json").read_text()
        )
        assert retry_plan["cycle"]["id"] == state.cycle_id

    def test_cache_miss_moves_entry_to_failed(self, tmp_path):
        service = make_service(tmp_path)
        entry = tmp_path / "spool" / "incoming" / "cycle-bad"
        entry.mkdir(parents=True)
        plan = plan_cycle(
            IDS, [NET], FAST, trials_per_pair=1, num_shards=2, base_seed=7
        )
        plan.write(entry)
        (entry / "cache").mkdir()  # empty cache but present: claims full
        # An empty cache dir means zero covered trials -> partial path,
        # which never hits the cache-only backend.  Force the full path
        # by pointing at an adaptive state with trials recorded but no
        # cache to back them.
        shutil.rmtree(entry)
        policy = TrialPolicyConfig(
            min_trials=2, max_trials=2, batch_size=2,
            ci_halfwidth_bps=units.mbps(100),
        )
        state = AdaptiveCycleState(
            IDS, [NET], FAST, policies=[policy], base_seed=3,
        )
        round_plan = state.plan_round(num_shards=1)
        cache_dir = tmp_path / "elsewhere"
        run_shard(round_plan.manifest_for(0), cache_dir)
        state.fold_round(round_plan, TrialCache(cache_dir))
        entry.mkdir(parents=True)
        state.save(entry)  # no cache/ rides along
        with pytest.raises(ServiceError, match="missing from its cache"):
            service.ingest_once()
        assert (tmp_path / "spool" / "failed" / "cycle-bad").exists()

    def test_submission_flows_into_next_plan_and_survives_restart(
        self, tmp_path
    ):
        service = make_service(tmp_path)
        line = json.dumps(
            {"url": "https://example.net/app",
             "access_code": DEFAULT_ACCESS_CODES[0]}
        )
        (tmp_path / "spool" / "submissions.jsonl").write_text(line + "\n")
        summary = service.ingest_once()
        accepted = summary["submissions_accepted"]
        assert [s["service_id"] for s in accepted] == ["ext_example_net"]
        plan = load_plan(tmp_path / "out" / "next-plan" / "plan.json")
        planned_ids = {
            sid for t in plan.trials for sid in t.spec.service_ids
        }
        assert "ext_example_net" in planned_ids

        # Restart: the ledger replays into a fresh catalog, and the
        # already-processed line is not re-processed.
        restarted = make_service(tmp_path)
        assert "ext_example_net" in restarted.catalog
        assert restarted.ingest_once()["submissions_accepted"] == []

    def test_bad_submission_recorded_not_fatal(self, tmp_path):
        service = make_service(tmp_path)
        lines = [
            json.dumps({"url": "https://ok.example",
                        "access_code": DEFAULT_ACCESS_CODES[0]}),
            json.dumps({"url": "https://bad.example",
                        "access_code": "wrong-code"}),
            "not json at all",
        ]
        (tmp_path / "spool" / "submissions.jsonl").write_text(
            "\n".join(lines) + "\n"
        )
        summary = service.ingest_once()
        assert len(summary["submissions_accepted"]) == 1
        assert len(service.state["submissions"]["rejected"]) == 2

    def test_second_url_on_a_taken_host_is_a_rejection(self, tmp_path):
        """Two URLs on one host derive one id: the second is filed under
        ``rejected`` naming the first, and the first stays the accepted
        one.  (At the parent: the line was consumed and recorded
        nowhere.)"""
        service = make_service(tmp_path)
        urls = ["https://example.com/", "https://example.com/big.zip"]
        (tmp_path / "spool" / "submissions.jsonl").write_text(
            "".join(
                json.dumps({"url": url, "access_code": DEFAULT_ACCESS_CODES[0]})
                + "\n"
                for url in urls
            )
        )
        summary = service.ingest_once()
        assert [s["url"] for s in summary["submissions_accepted"]] == urls[:1]
        ledger = service.state["submissions"]
        assert [s["url"] for s in ledger["accepted"]] == urls[:1]
        assert len(ledger["rejected"]) == 1
        rejection = ledger["rejected"][0]
        assert "big.zip" in rejection["line"]
        assert "'https://example.com/'" in rejection["error"]
        assert ledger["processed_lines"] == 2

    @pytest.mark.parametrize(
        "poison",
        [
            b"[1, 2]",
            b"3",
            b'"x"',
            b"null",
            b'{"url": 5, "access_code": "%s"}' % DEFAULT_ACCESS_CODES[0].encode(),
            b'{"url": "https://\xff.example"}',
        ],
        ids=["list", "number", "string", "null", "url-not-a-string", "not-utf-8"],
    )
    def test_poisoned_submission_line_is_rejected_and_passed(
        self, tmp_path, poison
    ):
        """A line that is JSON but no object, or no UTF-8 at all, is a
        rejection like any other and the cursor moves past it.  (At the
        parent: an uncaught TypeError / UnicodeDecodeError before the
        cursor advanced, so every later pass died on the same line.)"""
        service = make_service(tmp_path)
        good = json.dumps(
            {"url": "https://example.net/app",
             "access_code": DEFAULT_ACCESS_CODES[0]}
        ).encode()
        (tmp_path / "spool" / "submissions.jsonl").write_bytes(
            poison + b"\n" + good + b"\n"
        )
        summary = service.ingest_once()
        accepted = summary["submissions_accepted"]
        assert [s["service_id"] for s in accepted] == ["ext_example_net"]
        ledger = service.state["submissions"]
        assert len(ledger["rejected"]) == 1 and ledger["processed_lines"] == 2
        plan = load_plan(tmp_path / "out" / "next-plan" / "plan.json")
        assert "ext_example_net" in {
            sid for t in plan.trials for sid in t.spec.service_ids
        }
        # The second pass, and a restarted service's, are clean.
        assert service.ingest_once()["submissions_accepted"] == []
        restarted = make_service(tmp_path)
        assert restarted.ingest_once()["submissions_accepted"] == []
        assert len(restarted.state["submissions"]["rejected"]) == 1

    @pytest.mark.parametrize("kind", sorted(ENTRY_DAMAGE) + ["schema 99"])
    def test_damaged_service_state_is_a_named_error_not_an_empty_ledger(
        self, tmp_path, kind, capsys
    ):
        """``service-state.json`` that is there but unreadable stops the
        start-up with a ``ServiceError`` naming file and defect.  (At the
        parent: a bare JSONDecodeError, and a file of another schema was
        silently replaced by an empty ledger - accepted submissions
        gone.)"""
        from repro.cli import main

        service = make_service(tmp_path)
        (tmp_path / "spool" / "submissions.jsonl").write_text(
            json.dumps({"url": "https://example.net/app",
                        "access_code": DEFAULT_ACCESS_CODES[0]}) + "\n"
        )
        service.ingest_once()
        if kind == "schema 99":
            damage = lambda data: data.replace(b'"schema": 1', b'"schema": 99')
            cause = "schema 99 != supported 1"
        else:
            damage, cause = ENTRY_DAMAGE[kind]
        healthy = service.state_path.read_bytes()
        service.state_path.write_bytes(damage(healthy))
        with pytest.raises(ServiceError) as raised:
            make_service(tmp_path)
        assert str(service.state_path) in str(raised.value)
        assert cause in str(raised.value)
        argv = ["service", "status", "--spool", str(tmp_path / "spool"),
                "--out", str(tmp_path / "out")]
        capsys.readouterr()  # whatever the set-up logged
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("service error: ")
        assert cause in captured.err and captured.out == ""
        # Nothing rewrote the file; absent is a fresh ledger, restored
        # is the old one.
        assert service.state_path.read_bytes() == damage(healthy)
        service.state_path.unlink()
        assert make_service(tmp_path).state["submissions"]["accepted"] == []
        service.state_path.write_bytes(healthy)
        assert "ext_example_net" in make_service(tmp_path).catalog

    def test_status_shape(self, tmp_path):
        service = make_service(tmp_path)
        make_fixed_entry(tmp_path / "spool" / "incoming" / "cycle-a")
        service.ingest_once()
        status = service.status()
        assert status["cycles_ingested"] == 1
        assert status["trials_total"] == 3
        assert status["pending_entries"] == []
        assert status["bandwidths_bps"] == [units.mbps(8)]

    @pytest.mark.parametrize(
        "payload",
        [
            "[1]",
            "null",
            '{"pid": 1, "phase": "cycle", "started_unix": 0, '
            '"updated_unix": "x"}',
        ],
        ids=["list", "null", "stamp-not-a-number"],
    )
    def test_status_survives_a_damaged_heartbeat(
        self, tmp_path, capsys, payload
    ):
        from repro.cli import main

        make_service(tmp_path)
        (tmp_path / "out" / "heartbeat.json").write_text(payload)
        argv = ["service", "status", "--spool", str(tmp_path / "spool"),
                "--out", str(tmp_path / "out")]
        capsys.readouterr()
        assert main(argv) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["observability"]["heartbeat_age_sec"] is None

    def test_run_loop_stops_on_stop_file(self, tmp_path):
        service = make_service(tmp_path, poll_sec=0.1)
        make_fixed_entry(tmp_path / "spool" / "incoming" / "cycle-a")
        service.stop_file.parent.mkdir(parents=True, exist_ok=True)
        service.stop_file.write_text("")
        assert service.run() == 0
        # The startup pass still ran before the stop check.
        assert len(service.store.cycles()) == 1
        heartbeat = json.loads(
            (tmp_path / "out" / "heartbeat.json").read_text()
        )
        assert heartbeat["phase"] == "done"


def _truncate(path):
    text = path.read_text()
    path.write_text(text[: len(text) // 2])


def _wrong_type(path):
    path.write_text("[1, 2, 3]")


def _future_schema(path):
    payload = json.loads(path.read_text())
    payload["schema"] = 999
    path.write_text(json.dumps(payload))


def make_poisoned_entry(entry, filename, corrupt):
    """A spool entry whose ``filename`` has been damaged by ``corrupt``."""
    if filename == "cycle-state.json":
        policy = TrialPolicyConfig(
            min_trials=2, max_trials=2, batch_size=2,
            ci_halfwidth_bps=units.mbps(100),
        )
        entry.mkdir(parents=True)
        AdaptiveCycleState(
            IDS, [NET], FAST, policies=[policy], base_seed=3
        ).save(entry)
    else:
        make_fixed_entry(entry)
    corrupt(entry / filename)


class TestPoisonedEntries:
    """A spool entry whose own files cannot be read is retired to
    ``failed/`` with a named cause; it neither blocks the entries behind
    it nor takes the coordinator down (and so cannot crash-loop it)."""

    @pytest.mark.parametrize(
        "filename", ["cycle-state.json", "plan.json"]
    )
    @pytest.mark.parametrize(
        "corrupt, cause",
        [
            (_truncate, "not valid JSON"),
            (_wrong_type, "expected a JSON object"),
            (_future_schema, "schema 999"),
        ],
        ids=["truncated", "wrong-type", "future-schema"],
    )
    def test_entry_is_retired_and_the_next_one_still_ingests(
        self, tmp_path, filename, corrupt, cause
    ):
        service = make_service(tmp_path)
        incoming = tmp_path / "spool" / "incoming"
        make_poisoned_entry(incoming / "cycle-0-bad", filename, corrupt)
        make_fixed_entry(incoming / "cycle-1-good")
        with pytest.raises(ServiceError) as raised:
            service.ingest_once()
        message = str(raised.value)
        assert "cycle-0-bad" in message and filename in message
        assert cause in message and "moved to failed/" in message
        assert (tmp_path / "spool" / "failed" / "cycle-0-bad").exists()
        # The entry behind it was folded, published and retired normally.
        assert (tmp_path / "spool" / "done" / "cycle-1-good").exists()
        assert [c.source for c in service.store.cycles()] == ["cycle-1-good"]
        assert (tmp_path / "out" / "site" / "index.md").exists()
        assert service.scan_spool() == []

    @pytest.mark.parametrize("kind", sorted(HOSTILE_V3))
    def test_hostile_schema3_plan_retires_the_spool_entry_by_name(
        self, tmp_path, kind
    ):
        """Defects only an index-row plan can have (bad index, missing
        table, ...) are named like any other unreadable plan."""
        service = make_service(tmp_path)
        incoming = tmp_path / "spool" / "incoming"
        make_fixed_entry(incoming / "cycle-0-bad")
        cause = damage_v3(incoming / "cycle-0-bad" / "plan.json", kind)
        make_fixed_entry(incoming / "cycle-1-good")
        with pytest.raises(ServiceError) as raised:
            service.ingest_once()
        message = str(raised.value)
        assert "cycle-0-bad" in message and "plan.json" in message
        assert cause in message and "moved to failed/" in message
        assert (tmp_path / "spool" / "failed" / "cycle-0-bad").exists()
        assert [c.source for c in service.store.cycles()] == ["cycle-1-good"]

    @pytest.mark.parametrize("kind", sorted(ENTRY_DAMAGE))
    def test_damaged_cache_entry_retires_the_spool_entry_by_name(
        self, tmp_path, kind
    ):
        """A cache entry damaged in transit: nothing of its cycle is
        folded, the error names the file, the entry behind it ingests in
        the same pass, and the next pass has nothing left to trip on."""
        damage, cause = ENTRY_DAMAGE[kind]
        service = make_service(tmp_path)
        incoming = tmp_path / "spool" / "incoming"
        plan = make_fixed_entry(incoming / "cycle-0-bad")
        make_fixed_entry(incoming / "cycle-1-good")
        victim = (
            incoming / "cycle-0-bad" / "cache"
            / f"{plan.trials[1].cache_key}.json"
        )
        victim.write_bytes(damage(victim.read_bytes()))
        with pytest.raises(ServiceError) as raised:
            service.ingest_once()
        message = str(raised.value)
        assert "cycle-0-bad" in message and victim.name in message
        assert cause in message and "moved to failed/" in message
        assert (tmp_path / "spool" / "failed" / "cycle-0-bad").exists()
        assert (tmp_path / "spool" / "done" / "cycle-1-good").exists()
        assert [c.source for c in service.store.cycles()] == ["cycle-1-good"]
        assert len(service.store) == len(plan.trials)
        # The second pass is clean.
        again = service.ingest_once()
        assert again["ingested"] == [] and again["cycles_total"] == 1

    def test_service_run_survives_and_does_not_meet_the_entry_again(
        self, tmp_path
    ):
        from repro.cli import main

        incoming = tmp_path / "spool" / "incoming"
        make_poisoned_entry(
            incoming / "cycle-0-bad", "cycle-state.json", _truncate
        )
        make_poisoned_entry(incoming / "cycle-1-bad", "plan.json", _truncate)
        make_fixed_entry(incoming / "cycle-2-good")
        run = [
            "service", "run", "--max-loops", "1",
            "--spool", str(tmp_path / "spool"), "--out", str(tmp_path / "out"),
            "--plan-bandwidths", "8", "--plan-duration", "4",
            "--plan-trials", "1", "--poll-sec", "0.1",
        ]
        assert main(run) == 0
        failed = sorted(p.name for p in (tmp_path / "spool" / "failed").iterdir())
        assert failed == ["cycle-0-bad", "cycle-1-bad"]
        assert list(incoming.iterdir()) == []
        status = make_service(tmp_path).status()
        assert status["cycles_ingested"] == 1
        # A restart finds nothing poisoned left to trip over.
        assert main(run) == 0
        heartbeat = json.loads((tmp_path / "out" / "heartbeat.json").read_text())
        assert heartbeat["phase"] == "done"


def _run_cli(args, env_extra=None, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC)
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=env, capture_output=True, text=True, **kwargs,
    )


class TestKillAndRestart:
    """The subsystem's acceptance criterion, driven over the real CLI."""

    def _spool_with_entry(self, root, template):
        spool = root / "spool"
        (spool / "incoming").mkdir(parents=True)
        shutil.copytree(template, spool / "incoming" / "cycle-a")
        return spool

    def _tree_bytes(self, root):
        return {
            str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*"))
            if path.is_file()
        }

    def test_sigkill_mid_ingest_then_restart_is_byte_identical(
        self, tmp_path
    ):
        template = tmp_path / "template"
        make_fixed_entry(template)
        service_args = lambda root: [  # noqa: E731
            "service", "ingest-once",
            "--spool", str(root / "spool"), "--out", str(root / "out"),
            "--plan-bandwidths", "8", "--plan-duration", "4",
            "--plan-trials", "1",
        ]

        # Control: uninterrupted ingest.
        control = tmp_path / "control"
        self._spool_with_entry(control, template)
        done = _run_cli(service_args(control))
        assert done.returncode == 0, done.stderr

        # Faulted: die by SIGKILL after the trial records are durable
        # but before the commit record - the worst possible moment.
        faulted = tmp_path / "faulted"
        self._spool_with_entry(faulted, template)
        killed = _run_cli(
            service_args(faulted), env_extra={FAULT_ENV: "pre-commit"}
        )
        assert killed.returncode == -signal.SIGKILL
        # The entry was not consumed and nothing was committed.
        assert (faulted / "spool" / "incoming" / "cycle-a").exists()

        # Restart without the fault: replay + re-ingest.
        recovered = _run_cli(service_args(faulted))
        assert recovered.returncode == 0, recovered.stderr
        summary = json.loads(recovered.stdout)
        assert summary["ingested"][0]["trials"] == 3

        # Zero re-simulation: folding is cache-only by construction (a
        # cache miss aborts the ingest; see
        # test_cache_miss_moves_entry_to_failed), so recovery cost is
        # replay + cache folding only.  And the acceptance bar: store
        # and site byte-identical to the uninterrupted run.
        assert self._tree_bytes(faulted / "out" / "store") == \
            self._tree_bytes(control / "out" / "store")
        assert self._tree_bytes(faulted / "out" / "site") == \
            self._tree_bytes(control / "out" / "site")

    def test_sigkill_post_commit_then_restart_skips_refold(self, tmp_path):
        """Dying after the commit but before the entry moves: the restart
        recognises the committed cycle and does not double-ingest."""
        template = tmp_path / "template"
        make_fixed_entry(template)
        root = tmp_path / "run"
        self._spool_with_entry(root, template)
        args = [
            "service", "ingest-once",
            "--spool", str(root / "spool"), "--out", str(root / "out"),
            "--plan-bandwidths", "8", "--plan-duration", "4",
            "--plan-trials", "1",
        ]
        killed = _run_cli(args, env_extra={FAULT_ENV: "post-commit"})
        assert killed.returncode == -signal.SIGKILL
        assert (root / "spool" / "incoming" / "cycle-a").exists()

        recovered = _run_cli(args)
        assert recovered.returncode == 0, recovered.stderr
        summary = json.loads(recovered.stdout)
        assert summary["ingested"][0]["skipped"]
        assert summary["cycles_total"] == 1
        assert (root / "spool" / "done" / "cycle-a").exists()

    def test_service_run_exits_zero_on_sigterm(self, tmp_path):
        (tmp_path / "spool" / "incoming").mkdir(parents=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_SRC)
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "service", "run",
                "--spool", str(tmp_path / "spool"),
                "--out", str(tmp_path / "out"),
                "--poll-sec", "0.2",
                "--plan-bandwidths", "8", "--plan-duration", "4",
                "--plan-trials", "1",
            ],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            deadline = time.time() + 30
            heartbeat = tmp_path / "out" / "heartbeat.json"
            while time.time() < deadline and not heartbeat.exists():
                time.sleep(0.1)
            assert heartbeat.exists(), "service never started"
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert json.loads(heartbeat.read_text())["phase"] == "done"
