"""The unified trial runner: backends, caching, seed derivation."""

import json
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro import units
from repro.config import (
    ExperimentConfig,
    TrialPolicyConfig,
    highly_constrained,
)
from repro.core.cache import TrialCache, trial_cache_key
from repro.core.experiment import (
    ExperimentResult,
    derive_service_seed,
    run_pair_experiment,
    run_solo_experiment,
)
from repro.core.earlystop import EarlyStopConfig
from repro.core.runner import (
    CacheMissError,
    InlineBackend,
    ProcessPoolBackend,
    TrialSpec,
    replay,
)
from repro.core.watchdog import Prudentia
from repro.services.catalog import default_catalog

CATALOG = default_catalog()
FAST = ExperimentConfig().scaled(15)
NET = highly_constrained()

FIXED_POLICY = TrialPolicyConfig(
    min_trials=2, max_trials=2, batch_size=2, ci_halfwidth_bps=units.mbps(100)
)


def pair_spec(a="iperf_cubic", b="iperf_reno", seed=1):
    return TrialSpec.pair(a, b, NET, FAST, seed=seed)


class TestTrialSpec:
    def test_solo_pair_multi_forms(self):
        solo = TrialSpec.solo("iperf_bbr", NET, FAST, seed=3)
        assert solo.service_ids == ("iperf_bbr",)
        assert solo.contender_id == solo.incumbent_id == "iperf_bbr"
        many = TrialSpec(("a", "b", "c"), NET, FAST, seed=1)
        assert many.pair_key == ("a", "c")

    def test_rejects_empty_and_conflicting(self):
        with pytest.raises(ValueError):
            TrialSpec((), NET, FAST)
        with pytest.raises(TypeError):
            TrialSpec(("a",))

    def test_hashable(self):
        assert len({pair_spec(), pair_spec(), pair_spec(seed=2)}) == 2


class TestSeedDerivation:
    def test_solo_uses_trial_seed(self):
        assert derive_service_seed(41, 0, 1) == 41

    def test_pair_matches_historic_formula(self):
        """Pair trials stay bit-compatible with every result recorded
        before the unification (seed*2 + index + 1)."""
        for seed in (0, 1, 7, 1234):
            assert derive_service_seed(seed, 0, 2) == seed * 2 + 1
            assert derive_service_seed(seed, 1, 2) == seed * 2 + 2

    def test_no_collisions_across_spec_counts(self):
        """The old seed*n+index+1 collided across counts (the ISSUE's
        (1,2,1) vs (1,3,0) example); the salted derivation does not."""
        seen = {}
        for n in range(2, 6):
            for seed in range(50):
                for index in range(n):
                    value = derive_service_seed(seed, index, n)
                    assert value not in seen, (seen[value], (seed, index, n))
                    seen[value] = (seed, index, n)

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            derive_service_seed(1, 2, 2)
        with pytest.raises(ValueError):
            derive_service_seed(1, 0, 0)


class TestRunTrial:
    def test_pair_spec_matches_wrapper(self):
        """A backend's trial and the run_pair_experiment wrapper are one
        path."""
        via_spec = InlineBackend(catalog=CATALOG).run([pair_spec(seed=9)])[0]
        direct = run_pair_experiment(
            CATALOG.get("iperf_cubic"),
            CATALOG.get("iperf_reno"),
            NET,
            FAST,
            seed=9,
        )
        assert via_spec.to_json() == direct.to_json()

    def test_solo_spec_matches_wrapper(self):
        via_spec = InlineBackend(catalog=CATALOG).run(
            [TrialSpec.solo("iperf_bbr", NET, FAST, seed=4)]
        )[0]
        direct = run_solo_experiment(
            CATALOG.get("iperf_bbr"), NET, FAST, seed=4
        )
        assert via_spec.to_json() == direct.to_json()


class TestBackendEquivalence:
    def test_inline_and_pool_bit_identical(self):
        """The same TrialSpec list produces bit-identical ExperimentResult
        JSON on both substrates - parallelism is pure wall-clock."""
        trials = [
            pair_spec(seed=5),
            pair_spec("iperf_bbr", "iperf_reno", seed=6),
            TrialSpec.solo("iperf_cubic", NET, FAST, seed=7),
        ]
        inline = InlineBackend(catalog=CATALOG).run(trials)
        pooled = ProcessPoolBackend(max_workers=2).run(trials)
        assert [r.to_json() for r in inline] == [r.to_json() for r in pooled]

    def test_submit_drain_preserves_order(self):
        """``run`` returns results in submission order (it absorbed the
        old two-phase submit/drain)."""
        backend = InlineBackend(catalog=CATALOG)
        results = backend.run([pair_spec(seed=s) for s in (3, 1, 2)])
        assert [r.seed for r in results] == [3, 1, 2]
        assert backend.stats.trials_run == 3
        assert backend.stats.wall_clock_sec > 0

    def test_run_into_store_filters_valid(self):
        """What ``run_cycle`` does with a round's results: the store
        keeps only trials that pass the external-loss discard rule."""
        import dataclasses

        from repro.core.results import ResultStore

        result = InlineBackend(catalog=CATALOG).run([pair_spec(seed=1)])[0]
        noisy = dataclasses.replace(result, external_loss_fraction=0.5)
        assert result.valid and not noisy.valid
        store = ResultStore()
        store.extend([result, noisy], valid_only=True)
        assert len(store) == 1


class TestReplay:
    """``replay`` is the backend's cache lookup with nothing behind it
    that could simulate."""

    @settings(max_examples=60, deadline=None)
    @given(
        fates=st.lists(
            st.sampled_from(["full", "truncated", "absent"]),
            min_size=0,
            max_size=6,
        ),
        allow_truncated=st.booleans(),
    )
    def test_replay_is_the_warm_backend_or_names_its_misses(
        self, fates, allow_truncated
    ):
        """On a warm cache ``replay(cache, specs, t)`` returns what an
        inline backend armed iff ``t`` returns, with equal stats and no
        trial run; with entries absent or (``t`` false) truncated it
        raises ``CacheMissError`` whose ``.misses`` are exactly those
        specs, in order - and nothing is ever simulated."""
        from tests.test_cache_immutability import synthetic_result

        specs = [pair_spec(seed=seed) for seed in range(len(fates))]
        with tempfile.TemporaryDirectory() as directory:
            cache = TrialCache(directory)
            for spec, fate in zip(specs, fates):
                if fate != "absent":
                    cache.put(
                        spec,
                        synthetic_result(
                            spec, 4_000_000 if fate == "truncated" else None
                        ),
                    )
            expected_misses = [
                spec
                for spec, fate in zip(specs, fates)
                if fate == "absent"
                or (fate == "truncated" and not allow_truncated)
            ]
            with mock.patch(
                "repro.core.runner._simulate", side_effect=AssertionError
            ) as simulate:
                if expected_misses:
                    with pytest.raises(CacheMissError) as raised:
                        replay(cache, specs, allow_truncated)
                    assert raised.value.misses == expected_misses
                else:
                    records, stats = replay(cache, specs, allow_truncated)
                    armed = EarlyStopConfig() if allow_truncated else None
                    backend = InlineBackend(cache=cache, earlystop=armed)
                    assert [r.result.to_json() for r in records] == [
                        r.to_json() for r in backend.run(specs)
                    ]
                    assert stats == backend.stats
                    assert stats.trials_run == 0
                    assert stats.cache_hits == len(specs)
                assert not simulate.called
                # The patch bites: a cold backend run goes through it.
                with pytest.raises(AssertionError):
                    InlineBackend(catalog=CATALOG).run([pair_spec(seed=99)])
                assert simulate.called


class TestTrialCache:
    def test_memory_cache_hit_returns_equal_result(self, tmp_path):
        cache = TrialCache(tmp_path)
        backend = InlineBackend(catalog=CATALOG, cache=cache)
        first = backend.run([pair_spec(seed=2)])[0]
        second = backend.run([pair_spec(seed=2)])[0]
        assert backend.stats.trials_run == 1
        assert backend.stats.cache_hits == 1
        assert first.to_json() == second.to_json()

    def test_directory_cache_survives_processes(self, tmp_path):
        cold = InlineBackend(catalog=CATALOG, cache=TrialCache(tmp_path))
        result = cold.run([pair_spec(seed=8)])[0]
        assert len(list(tmp_path.glob("*.json"))) == 1
        warm = InlineBackend(catalog=CATALOG, cache=TrialCache(tmp_path))
        hit = warm.run([pair_spec(seed=8)])[0]
        assert warm.stats.trials_run == 0
        assert warm.stats.cache_hits == 1
        assert hit.to_json() == result.to_json()

    def test_key_sensitivity(self):
        base = pair_spec(seed=1)
        assert trial_cache_key(base) == trial_cache_key(pair_spec(seed=1))
        assert trial_cache_key(base) != trial_cache_key(pair_spec(seed=2))
        other_net = NET.with_bandwidth(units.mbps(50))
        assert trial_cache_key(base) != trial_cache_key(
            TrialSpec.pair("iperf_cubic", "iperf_reno", other_net, FAST, 1)
        )

    def test_clear_and_len(self, tmp_path):
        cache = TrialCache(tmp_path)
        backend = InlineBackend(catalog=CATALOG, cache=cache)
        backend.run([pair_spec(seed=1)])
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0
        assert not list(tmp_path.glob("*.json"))

    def test_a_read_never_writes(self, tmp_path):
        """Every way of reading a warm cache succeeds when entries cannot
        be written (``os.utime`` refused, as for a reader with read-only
        access to another user's spool) and leaves each entry's mtime
        as it was."""
        from tests.test_cache_immutability import synthetic_result

        specs = [pair_spec(seed=seed) for seed in (1, 2)]
        writer = TrialCache(tmp_path)
        for spec in specs:
            writer.put(spec, synthetic_result(spec))
        entries = [tmp_path / f"{trial_cache_key(s)}.json" for s in specs]
        for entry in entries:
            os.utime(entry, ns=(10**9, 10**9))
        cache = TrialCache(tmp_path)
        refused = PermissionError("read-only entry")
        with mock.patch("os.utime", side_effect=refused):
            assert None not in cache.read(specs)  # disk hits
            assert None not in cache.read(specs)  # memory hits
            assert None not in [cache.get(spec) for spec in specs]
            records, stats = replay(TrialCache(tmp_path), specs, False)
            backend = InlineBackend(cache=TrialCache(tmp_path))
            backend.run(specs)
        assert len(records) == stats.cache_hits == len(specs)
        assert backend.stats.cache_hits == len(specs)
        assert backend.stats.trials_run == 0
        assert [e.stat().st_mtime_ns for e in entries] == [10**9] * 2


class TestWatchdogCaching:
    def _watchdog(self, cache):
        return Prudentia(
            networks=[NET],
            experiment_config=FAST,
            policy_overrides={NET.bandwidth_bps: FIXED_POLICY},
            base_seed=11,
            cache=cache,
        )

    def test_repeated_cycle_runs_zero_simulations(self, tmp_path):
        """Acceptance: a repeated all-pairs cycle over the same seeds
        re-runs nothing - cache hits == trial count, simulations == 0."""
        cache = TrialCache(tmp_path)
        ids = ["iperf_cubic", "iperf_reno"]
        first = self._watchdog(cache)
        first.run_cycle(service_ids=ids)
        trials_first = first.last_cycle_stats.trials_run
        assert trials_first > 0
        assert first.last_cycle_stats.cache_hits == 0

        second = self._watchdog(cache)
        second.run_cycle(service_ids=ids)
        stats = second.last_cycle_stats
        assert stats.trials_run == 0
        assert stats.cache_hits == stats.trials_total == trials_first
        # The cached cycle reproduces the measured shares exactly.
        assert second.store.shares(
            "iperf_reno", "iperf_cubic", NET.bandwidth_bps
        ) == first.store.shares(
            "iperf_reno", "iperf_cubic", NET.bandwidth_bps
        )

    def test_cycle_stats_surfaced_without_cache(self):
        dog = self._watchdog(cache=None)
        dog.run_cycle(service_ids=["iperf_cubic", "iperf_reno"])
        assert dog.last_cycle_stats.trials_run > 0
        assert dog.last_cycle_stats.cache_hits == 0

    def test_cache_dir_accepted(self, tmp_path):
        dog = Prudentia(cache=tmp_path)
        assert isinstance(dog.cache, TrialCache)
        assert dog.cache.cache_dir == tmp_path


class TestForwardCompatibleSerialisation:
    def test_from_json_ignores_unknown_keys(self):
        """Old stores must load payloads written by newer schemas."""
        result = run_pair_experiment(
            CATALOG.get("iperf_cubic"),
            CATALOG.get("iperf_reno"),
            NET,
            FAST,
            seed=1,
        )
        payload = result.to_json()
        payload["added_in_a_future_schema"] = {"nested": True}
        restored = ExperimentResult.from_json(payload)
        assert restored.to_json() == result.to_json()

    def test_round_trip_through_json_text(self):
        result = run_solo_experiment(
            CATALOG.get("iperf_bbr"), NET, FAST, seed=2
        )
        payload = json.loads(json.dumps(result.to_json()))
        payload["extra"] = 1
        assert ExperimentResult.from_json(payload).valid == result.valid
