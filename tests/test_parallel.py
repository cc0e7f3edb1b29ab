"""Parallel trial execution (Section 9 scaling)."""

import pytest

from repro import units
from repro.browser.environment import ClientEnvironment
from repro.config import (
    ExperimentConfig,
    highly_constrained,
    moderately_constrained,
)
from repro.core.cache import TrialCache, trial_cache_key
from repro.core.experiment import run_pair_experiment
from repro.core.results import ResultStore, mmf_share
from repro.core.runner import ProcessPoolBackend, TrialSpec, build_backend
from repro.core.submission import DEFAULT_ACCESS_CODES, SubmissionPortal
from repro.fleet import plan_cycle
from repro.services.catalog import default_catalog

from tests import cache_logs

FAST = ExperimentConfig().scaled(15)
NET = highly_constrained()


def make_trial(a="iperf_cubic", b="iperf_reno", seed=1):
    return TrialSpec.pair(a, b, NET, FAST, seed=seed)


def planned_trials(service_ids, trials_per_pair, **kwargs):
    """The trial list a pool is handed: a fixed-count cycle plan's."""
    plan = plan_cycle(
        service_ids, [NET], FAST, trials_per_pair, num_shards=1, **kwargs
    )
    return [planned.spec for planned in plan.trials]


class TestTrialPlanning:
    def test_all_pairs_enumeration(self):
        trials = planned_trials(["a", "b", "c"], 2)
        # 3 cross pairs + 3 self pairs, 2 trials each.
        assert len(trials) == 12
        assert len({(t.pair_key, t.seed) for t in trials}) == 12

    def test_no_self_pairs(self):
        trials = planned_trials(["a", "b"], 1, include_self_pairs=False)
        assert len(trials) == 1
        assert (trials[0].contender_id, trials[0].incumbent_id) == ("a", "b")


class TestParallelExecution:
    def test_empty_is_noop(self):
        assert ProcessPoolBackend(max_workers=2).run([]) == []

    def test_results_match_sequential(self):
        """Parallel execution is a pure wall-clock optimisation: the
        seeded simulations produce bit-identical results."""
        trial = make_trial(seed=9)
        parallel = ProcessPoolBackend(max_workers=2).run([trial, trial])
        catalog = default_catalog()
        sequential = run_pair_experiment(
            catalog.get(trial.contender_id),
            catalog.get(trial.incumbent_id),
            trial.network,
            trial.config,
            seed=trial.seed,
        )
        for result in parallel:
            assert result.throughput_bps == sequential.throughput_bps
            assert result.mmf_share == sequential.mmf_share

    def test_submission_order_preserved(self):
        trials = [make_trial(seed=s) for s in (1, 2, 3)]
        results = ProcessPoolBackend(max_workers=3).run(trials)
        assert [r.seed for r in results] == [1, 2, 3]

    def test_run_into_store(self):
        """Pool results fill a store the way ``run_cycle`` fills its."""
        trials = planned_trials(
            ["iperf_cubic", "iperf_reno"], 2, include_self_pairs=False
        )
        store = ResultStore()
        store.extend(
            ProcessPoolBackend(max_workers=2).run(trials), valid_only=True
        )
        shares = store.pair_samples(NET.bandwidth_bps, mmf_share)[
            ("iperf_reno", "iperf_cubic")
        ]
        assert len(shares) == 2

    def test_unknown_service_raises_before_dispatch(self):
        with pytest.raises(KeyError, match="nope"):
            ProcessPoolBackend(max_workers=1).run([make_trial("nope")])


class TestPoolRunsTheCallersInputs:
    """The pool runs the caller's catalog and client environment, not a
    default it rebuilt in the worker: same result bytes as inline, and
    the same cache key."""

    CONFIG = ExperimentConfig().scaled(4.0)

    def both(self, spec, tmp_path, **kwargs):
        results, entries = [], []
        for kind in ("inline", "process"):
            cache_dir = tmp_path / kind
            backend = build_backend(
                kind, workers=2, cache=TrialCache(cache_dir), **kwargs
            )
            results.append(backend.run([spec])[0].to_json())
            assert len(list(cache_dir.iterdir())) == 1  # one record log
            entries.append(sorted(cache_logs.records(cache_dir)))
        return results, entries

    def test_headless_client_matches_inline(self, tmp_path):
        env = ClientEnvironment.headless_automation()
        spec = TrialSpec.pair(
            "youtube", "iperf_cubic", moderately_constrained(), self.CONFIG,
            seed=3,
        )
        (inline, pooled), (inline_keys, pooled_keys) = self.both(
            spec, tmp_path, env=env
        )
        assert pooled == inline
        # The headless render cap binds (0.768 when workers dropped env).
        assert inline["mmf_share"]["youtube"] == pytest.approx(0.284, abs=1e-3)
        assert pooled_keys == inline_keys == [trial_cache_key(spec, env)]

    def test_submitted_download_matches_inline(self, tmp_path):
        catalog = default_catalog()
        submission = SubmissionPortal(catalog).submit(
            "https://downloads.example.com/dataset.zip",
            DEFAULT_ACCESS_CODES[0],
        )
        spec = TrialSpec.pair(
            submission.service_id, "iperf_cubic", NET, self.CONFIG, seed=2
        )
        (inline, pooled), _keys = self.both(spec, tmp_path, catalog=catalog)
        assert pooled == inline
        assert inline["throughput_bps"][submission.service_id] > 0

    def test_benchmark_figure_variants_match_inline(self, tmp_path):
        """The figure conditions ``benchmarks/harness.py`` registers as
        catalog rows (persistent-pool Mega, buffer-rate YouTube, the Fig 6
        pages) run on a two-worker pool with inline's results and record
        bytes."""
        from benchmarks import harness

        config = ExperimentConfig().scaled(10.0)
        specs = [
            TrialSpec.pair(variant.service_id, "iperf_cubic", NET, config, seed)
            for seed, variant in enumerate(harness.VARIANTS)
        ]
        results, entries = [], []
        for kind in ("inline", "process"):
            cache_dir = tmp_path / kind
            backend = build_backend(
                kind, workers=2, cache=TrialCache(cache_dir),
                catalog=harness.CATALOG,
            )
            results.append([r.to_json() for r in backend.run(specs)])
            assert len(list(cache_dir.iterdir())) == 1  # one record log
            entries.append(cache_logs.records(cache_dir))
        assert results[1] == results[0]
        assert entries[1] == entries[0]
        assert len(entries[0]) == len(specs) == 5


class TestParallelWatchdog:
    def test_parallel_cycle_matches_pair_counts(self):
        from repro import units
        from repro.config import TrialPolicyConfig
        from repro.core.watchdog import Prudentia

        policy = TrialPolicyConfig(
            min_trials=2,
            max_trials=2,
            batch_size=2,
            ci_halfwidth_bps=units.mbps(100),
        )
        dog = Prudentia(
            networks=[NET],
            experiment_config=FAST,
            policy_overrides={NET.bandwidth_bps: policy},
            base_seed=3,
        )
        dog.run_cycle(
            service_ids=["iperf_cubic", "iperf_reno"],
            backend=dog.backend(workers=2),
        )
        shares = dog.store.pair_samples(NET.bandwidth_bps, mmf_share)
        assert len(shares[("iperf_reno", "iperf_cubic")]) == 2
        # Self pairs were also measured.
        assert shares[("iperf_reno", "iperf_reno")]
