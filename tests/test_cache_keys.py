"""Cache-key derivation: the memoised fast path equals the reference.

``trial_cache_key`` splices memoised per-config JSON fragments into the
canonical string instead of ``asdict``-ing every config per trial.  Keys
address every cache ever written, so the fast path must stay
byte-identical to the original derivation - kept here, verbatim, as the
oracle - for every input, including values that compare ``==`` but
serialise differently (``8e6`` vs ``8000000``, ``True`` vs ``1``).
"""

import dataclasses
import hashlib
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.browser.environment import ClientEnvironment
from repro.config import ExperimentConfig, NetworkConfig
from repro.core import cache as cache_module
from repro.core.cache import (
    CACHE_SCHEMA_VERSION,
    config_canonical_json,
    config_fields,
    trial_cache_key,
)
from repro.core.runner import TrialSpec
from repro.fleet.plan import (
    config_fingerprint,
    network_fingerprint,
    spec_to_json,
)


def reference_trial_cache_key(spec, env=None):
    """The pre-memo derivation: one sorted-key dump of the whole payload."""
    resolved_env = env or ClientEnvironment.faithful_testbed()
    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "service_ids": list(spec.service_ids),
        "network": dataclasses.asdict(spec.network),
        "config": dataclasses.asdict(spec.config),
        "seed": spec.seed,
        "env": dataclasses.asdict(resolved_env),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _reference_fingerprint(config):
    canonical = json.dumps(
        dataclasses.asdict(config), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ``==``-equal values of different types sit next to each other in the
# pools, so one process routinely sees both spellings of one config.
_numbers = st.one_of(
    st.sampled_from([8e6, 8000000, 50e6, 50000000, 1, 1.0, True, 0, 0.0, False]),
    st.integers(min_value=0, max_value=10**9),
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
)
_flags = st.sampled_from([True, False, 1, 0])

_networks = st.builds(
    NetworkConfig,
    bandwidth_bps=_numbers,
    base_rtt_usec=st.sampled_from([50_000, 50_000.0, 20_000]),
    normalize_rtt=_flags,
    buffer_bdp_multiple=st.sampled_from([4.0, 4, 0.5, 1]),
    power_of_two_queue=_flags,
    queue_packets_override=st.sampled_from([None, 64, 64.0]),
    mss_bytes=st.sampled_from([1500, 1448]),
    external_loss_rate=st.sampled_from([0.0, 0, 0.001]),
)
_configs = st.builds(
    ExperimentConfig,
    duration_usec=st.sampled_from([10_000_000, 10_000_000.0, 600_000_000]),
    warmup_usec=st.sampled_from([2_000_000, 2_000_000.0]),
    cooldown_usec=st.sampled_from([2_000_000, 0]),
    seed=st.sampled_from([0, 0.0, False, 3]),
)
_envs = st.one_of(
    st.none(),
    st.builds(
        ClientEnvironment,
        headless=_flags,
        gpu=_flags,
        hardware_vp9_decode=_flags,
        monitor_4k=_flags,
    ),
)
_service_ids = st.lists(
    st.one_of(
        st.sampled_from(["iperf_cubic", "netflix", "vidéo_直播", 'q"uo\\te']),
        st.text(min_size=1, max_size=8),
    ),
    min_size=1,
    max_size=3,
)
_seeds = st.one_of(
    st.integers(min_value=-(2**40), max_value=2**70),
    st.sampled_from([True, False, 2.0]),
)
_specs = st.builds(
    TrialSpec,
    service_ids=_service_ids,
    network=_networks,
    config=_configs,
    seed=_seeds,
)


@settings(max_examples=300, deadline=None)
@given(spec=_specs, env=_envs)
def test_fast_key_equals_reference(spec, env):
    assert trial_cache_key(spec, env) == reference_trial_cache_key(spec, env)


@settings(max_examples=100, deadline=None)
@given(network=_networks, config=_configs)
def test_fingerprints_and_manifest_fields_equal_reference(network, config):
    assert network_fingerprint(network) == _reference_fingerprint(network)
    assert config_fingerprint(config) == _reference_fingerprint(config)
    spec = TrialSpec(("a", "b"), network, config, seed=1)
    payload = spec_to_json(spec, "k")
    for name, source in (("network", network), ("config", config)):
        fields = dataclasses.asdict(source)
        # Same values, same *types*, same field order (manifest bytes
        # depend on all three).
        assert json.dumps(payload[name]) == json.dumps(fields)


def _key(network):
    config = ExperimentConfig().scaled(10)
    return trial_cache_key(TrialSpec(("a", "b"), network, config, seed=1))


def test_equal_but_differently_typed_configs_keep_distinct_keys():
    """The trap a memo keyed on dataclass ``==``/``hash`` falls into."""
    as_float = NetworkConfig(bandwidth_bps=8e6)
    as_int = NetworkConfig(bandwidth_bps=8000000)
    as_flag = NetworkConfig(bandwidth_bps=8e6, power_of_two_queue=1)
    assert as_float == as_int == as_flag
    for first, second in ((as_float, as_int), (as_int, as_float)):
        cache_module._CONFIG_MEMO.clear()
        keys = [_key(first), _key(second), _key(as_flag)]
        assert keys == [
            reference_trial_cache_key(
                TrialSpec(("a", "b"), n, ExperimentConfig().scaled(10), 1)
            )
            for n in (first, second, as_flag)
        ]
        assert len(set(keys)) == 3


def test_memo_is_bounded():
    cache_module._CONFIG_MEMO.clear()
    for bandwidth in range(cache_module._CONFIG_MEMO_MAX * 2 + 5):
        config_canonical_json(NetworkConfig(bandwidth_bps=bandwidth))
    assert len(cache_module._CONFIG_MEMO) <= cache_module._CONFIG_MEMO_MAX


def test_config_fields_hands_out_private_copies():
    network = NetworkConfig(bandwidth_bps=8e6)
    first = config_fields(network)
    first["bandwidth_bps"] = -1
    assert config_fields(network) == dataclasses.asdict(network)
