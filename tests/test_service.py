"""Watchdog-as-a-service: store durability, spool ingestion, crash
recovery, submissions, and the kill-and-restart acceptance invariant.

The acceptance test for this subsystem: SIGKILL the coordinator at the
worst moment (trial records durable, commit record not), restart it, and
the replayed store plus regenerated site must be byte-identical to an
uninterrupted run over the same spool - with zero re-simulation, since
ingestion only ever folds from the entry's cache.
"""

import errno
import hashlib
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import units
from repro.config import ExperimentConfig, TrialPolicyConfig, highly_constrained
from repro.core import cache as cache_module
from repro.core.cache import TrialCache, encode_record
from repro.fleet.adaptive import AdaptiveCycleState, run_adaptive_cycle
from repro.fleet import plan as plan_module
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
from repro.obs.metrics import get_registry

from tests import cache_logs
from tests.test_cache_immutability import ENTRY_DAMAGE, TRIAL_DAMAGE
from tests.test_fleet import HOSTILE_V3, damage_v3
from tests.test_ingest_linearity import synthetic_result

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


def make_record(root, cycle_id, trials=2, kind="fixed", partial=False):
    """A cycle of ``trials`` fake results, read from a record log of its
    own under ``root/entries`` - written once, so every store a test
    builds adopts the same log."""
    cache = Path(root) / "entries" / f"{cycle_id}-{trials}"
    keys = [f"{seed:064x}" for seed in range(trials)]
    if not cache.exists():
        cache.mkdir(parents=True)
        cache_logs.append(
            cache,
            {
                key: encode_record(fake_result(seed))
                for seed, key in enumerate(keys)
            },
            "entry",
        )
    reads = TrialCache(cache).read_keys(keys)
    return CycleRecord.from_cache_reads(
        cycle_id, f"entry-{cycle_id}", kind, partial, reads, cache
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
        store.append_cycle(make_record(tmp_path, "c1"))
        store.append_cycle(make_record(tmp_path, "c2", trials=3))
        reopened = RollingResultStore(tmp_path)
        assert [r.cycle_id for r in reopened.cycles()] == ["c1", "c2"]
        assert len(reopened) == 5

    def test_duplicate_cycle_id_rejected(self, tmp_path):
        store = RollingResultStore(tmp_path)
        store.append_cycle(make_record(tmp_path, "c1"))
        with pytest.raises(ValueError, match="already ingested"):
            store.append_cycle(make_record(tmp_path, "c1"))

    def test_torn_tail_dropped_on_replay(self, tmp_path):
        store = RollingResultStore(tmp_path)
        store.append_cycle(make_record(tmp_path, "c1"))
        with open(store.journal_path, "a") as fh:
            fh.write('{"record": "begin", "cycle_id": "c2", "ki')
        reopened = RollingResultStore(tmp_path)
        assert [r.cycle_id for r in reopened.cycles()] == ["c1"]

    def test_uncommitted_segment_discarded(self, tmp_path):
        """A cycle directory without its commit line never happened."""
        store = RollingResultStore(tmp_path)
        store.append_cycle(make_record(tmp_path, "c1"))

        died = RollingResultStore(tmp_path)
        with pytest.raises(RuntimeError):
            died.append_cycle(
                make_record(tmp_path, "c2"),
                pre_commit=lambda: (_ for _ in ()).throw(
                    RuntimeError("crash")
                ),
            )
        reopened = RollingResultStore(tmp_path)
        assert [r.cycle_id for r in reopened.cycles()] == ["c1"]
        # The same cycle can then be re-ingested cleanly.
        reopened.append_cycle(make_record(tmp_path, "c2"))
        assert [r.cycle_id for r in RollingResultStore(tmp_path).cycles()] \
            == ["c1", "c2"]

    def test_compact_without_a_window_writes_nothing(self, tmp_path):
        store = RollingResultStore(tmp_path)
        store.append_cycle(make_record(tmp_path, "c1"))
        store.append_cycle(make_record(tmp_path, "c2"))
        journal = store.journal_path
        before = (journal.stat().st_ino, journal.read_bytes())
        written = get_registry().counter("service.store.bytes_written")
        start = written.value
        store.compact()
        assert (journal.stat().st_ino, journal.read_bytes()) == before
        assert written.value == start
        reopened = RollingResultStore(tmp_path)
        assert [r.cycle_id for r in reopened.cycles()] == ["c1", "c2"]
        assert len(reopened) == 4

    def test_compact_window_drops_old_cycles(self, tmp_path):
        store = RollingResultStore(tmp_path)
        for index in range(4):
            store.append_cycle(make_record(tmp_path, f"c{index}"))
        store.compact(max_cycles=2)
        assert [r.cycle_id for r in store.cycles()] == ["c2", "c3"]
        reopened = RollingResultStore(tmp_path)
        assert [r.cycle_id for r in reopened.cycles()] == ["c2", "c3"]

    def test_store_view_windows(self, tmp_path):
        store = RollingResultStore(tmp_path)
        for index in range(3):
            store.append_cycle(make_record(tmp_path, f"c{index}"))
        assert len(list(store.store_view().all_results())) == 6
        assert len(list(store.store_view(last_cycles=1).all_results())) == 2
        assert len(list(store.store_view(last_cycles=2).all_results())) == 4
        with pytest.raises(ValueError, match="at least 1 cycle"):
            store.store_view(last_cycles=0)

    @pytest.mark.parametrize("window", [0, -1])
    def test_a_window_below_one_cycle_is_refused(self, tmp_path, window):
        """``compact(max_cycles=0)`` used to drop every stored cycle."""
        store = RollingResultStore(tmp_path / "store")
        store.append_cycle(make_record(tmp_path, "c1"))
        with pytest.raises(ValueError, match="at least 1 cycle"):
            store.compact(max_cycles=window)
        assert [r.cycle_id for r in store.cycles()] == ["c1"]
        with pytest.raises(ValueError, match="at least 1 cycle"):
            make_service(tmp_path, window_cycles=window)
        assert not (tmp_path / "spool").exists()

    def test_partial_then_full_cycle_supersedes_in_view(self, tmp_path):
        """A fuller re-delivery of the same base cycle replaces the
        earlier partial ingest in windowed views (no double counting)."""
        store = RollingResultStore(tmp_path)
        store.append_cycle(
            make_record(tmp_path, "base+2", 2, kind="adaptive", partial=True)
        )
        store.append_cycle(make_record(tmp_path, "base", 5, kind="adaptive"))
        assert len(list(store.store_view().all_results())) == 5


    def test_a_refused_link_is_a_copy_with_the_same_payloads(
        self, tmp_path, monkeypatch
    ):
        """Across filesystems ``os.link`` raises ``EXDEV``: the store
        copies the log instead, and reads the same trials back."""
        linked = RollingResultStore(tmp_path / "linked")
        linked.append_cycle(make_record(tmp_path, "c1", trials=3))

        def exdev(source, target):
            raise OSError(errno.EXDEV, "Invalid cross-device link")

        monkeypatch.setattr(os, "link", exdev)
        copied = RollingResultStore(tmp_path / "copied")
        copied.append_cycle(make_record(tmp_path, "c1", trials=3))
        monkeypatch.undo()
        (entry_log,) = cache_logs.logs(tmp_path / "entries" / "c1-3")
        (linked_log,) = (tmp_path / "linked").glob("cycle-*/records-*.log")
        (copied_log,) = (tmp_path / "copied").glob("cycle-*/records-*.log")
        assert linked_log.stat().st_ino == entry_log.stat().st_ino
        assert copied_log.stat().st_ino != entry_log.stat().st_ino
        assert copied_log.read_bytes() == entry_log.read_bytes()
        payloads = [
            [r.results for r in RollingResultStore(root).cycles()]
            for root in (tmp_path / "linked", tmp_path / "copied")
        ]
        assert payloads[0] == payloads[1] == [
            [fake_result(seed) for seed in range(3)]
        ]


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

    def test_a_one_cycle_window_keeps_only_the_newer_cycle(self, tmp_path):
        service = make_service(tmp_path, window_cycles=1)
        incoming = tmp_path / "spool" / "incoming"
        make_fixed_entry(incoming / "cycle-a", base_seed=7)
        first = service.ingest_once()
        assert (first["cycles_total"], first["trials_total"]) == (1, 3)
        make_fixed_entry(incoming / "cycle-b", base_seed=8)
        second = service.ingest_once()
        assert (second["cycles_total"], second["trials_total"]) == (1, 3)
        [kept] = service.store.cycles()
        assert kept.source == "cycle-b"
        assert len(list(service.windowed_store().all_results())) == 3

    def test_a_full_window_still_publishes_a_new_plan_per_cycle(
        self, tmp_path
    ):
        """The next plan is seeded by the store's commit ``seq``: a
        window that stopped growing used to publish one plan forever,
        and its next delivery was skipped as already ingested."""
        service = make_service(tmp_path, window_cycles=1)
        plan_ids = []
        for seed in (7, 8, 9):
            make_fixed_entry(
                tmp_path / "spool" / "incoming" / f"cycle-{seed}",
                base_seed=seed,
            )
            service.ingest_once()
            plan_ids.append(
                load_plan(tmp_path / "out" / "next-plan" / "plan.json").plan_id
            )
        assert len(service.store.cycles()) == 1
        assert len(set(plan_ids)) == 3

    def test_an_older_store_is_refused_in_one_line(self, tmp_path):
        """A store of the journal-and-segment layout is not read: the
        CLI names the file and says how to rebuild the store."""
        store = tmp_path / "out" / "store"
        store.mkdir(parents=True)
        (store / "snapshot.json").write_text('{"schema": 2, "segments": []}')
        shown = _run_cli([
            "service", "status",
            "--spool", str(tmp_path / "spool"), "--out", str(tmp_path / "out"),
        ])
        assert shown.returncode == 1
        assert shown.stderr.startswith(
            f"service error: {store / 'snapshot.json'}: "
        )
        assert "re-ingest the spool's done/ entries" in shown.stderr
        assert "Traceback" not in shown.stderr

    def test_a_spool_name_that_is_not_utf8_is_journalled_readably(
        self, tmp_path
    ):
        """``os.listdir`` returns such a name with a lone surrogate; the
        cycle's commit line spells it out, so the store the ingest
        committed still opens (the record decoder, unlike ``json``,
        refuses lone surrogates)."""
        service = make_service(tmp_path)
        incoming = os.fsencode(tmp_path / "spool" / "incoming")
        make_fixed_entry(tmp_path / "built")
        os.makedirs(incoming, exist_ok=True)
        os.rename(tmp_path / "built", os.path.join(incoming, b"cycle-\xff"))
        summary = service.ingest_once()
        assert summary["ingested"][0]["trials"] == 3
        reopened = RollingResultStore(tmp_path / "out" / "store")
        (cycle,) = reopened.cycles()
        assert cycle.source == "cycle-\\udcff"
        assert len(reopened.store_view()) == 3

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

    def test_adaptive_redelivery_is_skipped_before_its_cache_is_read(
        self, tmp_path
    ):
        """An ingested adaptive cycle delivered again is retired to done/
        on its cycle id alone, even if its cache has since lost a trial."""
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
        again = tmp_path / "spool" / "incoming" / "cycle-adaptive-again"
        shutil.copytree(entry, tmp_path / "copy")
        service.ingest_once()
        shutil.copytree(tmp_path / "copy", again)
        cache = again / "cache"
        cache_logs.drop(cache, min(cache_logs.records(cache)))
        summary = service.ingest_once()
        assert summary["ingested"][0]["skipped"]
        assert summary["cycles_total"] == 1
        assert (tmp_path / "spool" / "done" / again.name).exists()
        assert not (tmp_path / "spool" / "failed").exists() or not list(
            (tmp_path / "spool" / "failed").iterdir()
        )

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
        assert status["last_cycles"] == [
            {"cycle_id": service.store.cycles()[0].cycle_id,
             "source": "cycle-a", "kind": "fixed", "partial": False,
             "trials": 3}
        ]
        state = json.loads(service.state_path.read_text())
        assert sorted(state) == [
            "flight_diagnosed", "last_ingest_unix", "schema", "submissions"
        ]

    def test_a_state_listing_cycles_and_totals_still_loads(self, tmp_path):
        """Service states once copied every ingested cycle and the fold
        totals from the store.  Such a file loads: its diagnoses count
        and latest ingest stamp carry over, the copies are dropped at
        the next save, and status counts from the store."""
        service = make_service(tmp_path)
        make_fixed_entry(tmp_path / "spool" / "incoming" / "cycle-a")
        service.ingest_once()
        older = json.loads(service.state_path.read_text())
        del older["flight_diagnosed"], older["last_ingest_unix"]
        stamp = time.time() - 60
        older["cycles"] = [{"cycle_id": "x", "source": "cycle-a",
                            "kind": "fixed", "partial": False, "trials": 9,
                            "ingested_unix": stamp}]
        older["totals"] = {"cache_hits": 9, "trials_folded": 9,
                           "flight_diagnosed": 4}
        service.state_path.write_text(json.dumps(older))
        restarted = make_service(tmp_path)
        status = restarted.status()
        assert status["cycles_ingested"] == len(status["last_cycles"]) == 1
        totals = status["observability"]["totals"]
        assert totals == {"cache_hits": 3, "trials_folded": 3,
                          "flight_diagnosed": 4}
        assert status["observability"]["last_ingest_age_sec"] >= 60
        (tmp_path / "spool" / "submissions.jsonl").write_text("")
        restarted.process_submissions()  # saves the state
        saved = json.loads(service.state_path.read_text())
        assert "cycles" not in saved and "totals" not in saved
        assert saved["flight_diagnosed"] == 4
        assert saved["last_ingest_unix"] == stamp

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

    def test_an_idle_run_loop_beats_once_per_pass(self, tmp_path, monkeypatch):
        """Over an empty spool every poll pass rewrites the heartbeat, so
        ``obs heartbeat --stale-after`` a few poll intervals holds for a
        live, idle service."""
        from repro.obs.heartbeat import HeartbeatWriter

        phases = []
        write = HeartbeatWriter._write

        def recording(writer, phase):
            phases.append(phase)
            write(writer, phase)

        monkeypatch.setattr(HeartbeatWriter, "_write", recording)
        service = make_service(tmp_path, poll_sec=0.05)
        assert service.run(max_loops=3) == 0
        assert phases == ["starting", "idle", "idle", "idle", "done"]


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

    @pytest.mark.parametrize("kind", sorted(TRIAL_DAMAGE))
    def test_damaged_cache_entry_retires_the_spool_entry_by_name(
        self, tmp_path, kind
    ):
        """A cache record damaged in transit: nothing of its cycle is
        folded, the error names the log and the line, the entry behind
        it ingests in
        the same pass, and the next pass has nothing left to trip on.
        (Unchecked, an object that is no trial record raised a bare
        ``TypeError`` on every pass and never left ``incoming/``.)"""
        damage, cause = TRIAL_DAMAGE[kind]
        service = make_service(tmp_path)
        incoming = tmp_path / "spool" / "incoming"
        plan = make_fixed_entry(incoming / "cycle-0-bad")
        make_fixed_entry(incoming / "cycle-1-good")
        key = plan.trials[1].cache_key
        victim, line = cache_logs.rewrite(
            incoming / "cycle-0-bad" / "cache", key, damage
        )
        with pytest.raises(ServiceError) as raised:
            service.ingest_once()
        message = str(raised.value)
        assert "cycle-0-bad" in message
        assert f"{victim.name}: line {line}, key {key}: " in message
        assert cause in message and "moved to failed/" in message
        assert (tmp_path / "spool" / "failed" / "cycle-0-bad").exists()
        assert (tmp_path / "spool" / "done" / "cycle-1-good").exists()
        assert [c.source for c in service.store.cycles()] == ["cycle-1-good"]
        assert len(service.store) == len(plan.trials)
        # The second pass is clean.
        again = service.ingest_once()
        assert again["ingested"] == [] and again["cycles_total"] == 1

    def test_a_plan_keyed_by_another_derivation_is_retired_as_skew(
        self, tmp_path, monkeypatch
    ):
        """Planner/coordinator version skew: plan rows and cache records
        agree with each other, but not with the key this library
        derives.  The ingest names the mismatch and retires the entry -
        rather than reading every trial as missing, requeueing every
        shard and ingesting an empty partial cycle on every pass."""
        service = make_service(tmp_path)
        incoming = tmp_path / "spool" / "incoming"
        real = cache_module.trial_cache_keys

        def skewed(specs, env=None):
            return [
                hashlib.sha256(b"v0:" + key.encode()).hexdigest()
                for key in real(specs, env)
            ]

        with monkeypatch.context() as patch:
            patch.setattr(plan_module, "trial_cache_keys", skewed)
            patch.setattr(cache_module, "trial_cache_keys", skewed)
            plan = plan_cycle(
                IDS, [NET], FAST, trials_per_pair=1, num_shards=2,
                base_seed=7,
            )
            entry = incoming / "cycle-0-skewed"
            plan.write(entry)
            cache = TrialCache(entry / "cache")
            rng = random.Random(7)
            for planned in plan.trials:
                cache.put(planned.spec, synthetic_result(planned.spec, rng))
        assert {t.cache_key for t in plan.trials} == set(
            cache_logs.records(entry / "cache")
        )
        make_fixed_entry(incoming / "cycle-1-good")
        with pytest.raises(ServiceError) as raised:
            service.ingest_once()
        message = str(raised.value)
        assert "cycle-0-skewed" in message and "cache-key mismatch" in message
        assert "version skew" in message and "moved to failed/" in message
        assert (tmp_path / "spool" / "failed" / "cycle-0-skewed").exists()
        assert list((tmp_path / "spool" / "retry").iterdir()) == []
        assert [c.source for c in service.store.cycles()] == ["cycle-1-good"]

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

        # Status reads the cycles from the store, so it agrees with it
        # although the killed process never recorded its ingest.
        shown = _run_cli(["service", "status", *args[2:6]])
        assert shown.returncode == 0, shown.stderr
        status = json.loads(shown.stdout)
        assert len(status["last_cycles"]) == status["cycles_ingested"] == 1
        assert status["last_cycles"][0]["trials"] == status["trials_total"]
        observed = status["observability"]
        assert observed["totals"]["trials_folded"] == status["trials_total"]
        assert observed["last_ingest_age_sec"] is not None

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
