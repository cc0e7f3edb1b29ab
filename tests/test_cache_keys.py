"""Cache-key derivation: the memoised fast path equals the reference.

``trial_cache_key`` splices memoised per-config JSON fragments into the
canonical string instead of ``asdict``-ing every config per trial.  Keys
address every cache ever written, so the fast path must stay
byte-identical to the original derivation - kept here, verbatim, as the
oracle - for every input, including values that compare ``==`` but
serialise differently (``8e6`` vs ``8000000``, ``True`` vs ``1``).
"""

import copy
import dataclasses
import hashlib
import json
import math
import pickle
import tempfile
import weakref
from pathlib import Path

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
    decode_record,
    encode_record,
    is_cache_key,
    trial_cache_key,
    trial_cache_keys,
)
from repro.core.runner import TrialSpec
from repro.fleet import plan as plan_module
from repro.fleet.plan import (
    FleetError,
    FleetPlan,
    PlannedTrial,
    _planned,
    plan_cycle,
    ROW_COLUMNS,
    trial_rows,
    write_manifest,
)
from repro.fleet.worker import _checked_specs, run_shard
from repro.obs.metrics import get_registry
from repro.services.catalog import default_catalog


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
    spec = TrialSpec(("a", "b"), network, config, seed=1)
    plan = FleetPlan("cycle", 1, [PlannedTrial(spec, "k", 0)], {})
    for payload in (plan.to_json(), plan.manifest_for(0)):
        assert payload["trials"][0][:5] == [["a", "b"], 0, 0, 1, "k"]
        for name, source in (("networks", network), ("configs", config)):
            fields = dataclasses.asdict(source)
            # Same values, same *types*, same field order (manifest
            # bytes depend on all three).
            assert json.dumps(payload[name]) == json.dumps([fields])


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


# ----------------------------------------------------------------------
# The key memo on TrialSpec, the config intern table, is_cache_key
# ----------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(spec=_specs, env=_envs)
def test_memo_never_changes_a_key_and_never_shows(spec, env):
    reference = reference_trial_cache_key(spec)
    before = (repr(spec), hash(spec), dataclasses.asdict(spec))
    twin = TrialSpec(spec.service_ids, spec.network, spec.config, spec.seed)
    assert spec._cache_key is None
    assert trial_cache_key(spec) == reference  # fresh
    assert spec._cache_key == reference
    assert trial_cache_key(spec) == reference  # memo-warm
    # Invisible: not a field, so none of the generated methods see it.
    assert (repr(spec), hash(spec), dataclasses.asdict(spec)) == before
    assert spec == twin and twin._cache_key is None
    assert "_cache_key" not in {f.name for f in dataclasses.fields(spec)}
    # Copies carry fields the memo was derived from, or start without it.
    for clone in (
        pickle.loads(pickle.dumps(spec)),
        copy.copy(spec),
        copy.deepcopy(spec),
        dataclasses.replace(spec),
    ):
        assert clone == spec
        assert trial_cache_key(clone) == reference
    moved = dataclasses.replace(spec, seed=12345)
    assert moved._cache_key is None
    assert trial_cache_key(moved) == reference_trial_cache_key(moved)
    # An explicit environment neither reads the memo nor writes it.
    if env is not None:
        assert trial_cache_key(spec, env) == reference_trial_cache_key(spec, env)
        assert spec._cache_key == reference
        assert trial_cache_key(twin, env) == reference_trial_cache_key(twin, env)
        assert twin._cache_key is None


def test_counter_counts_real_derivations_only():
    derived = get_registry().counter("cache.keys_derived")
    spec = TrialSpec(("a", "b"), NetworkConfig(8e6), ExperimentConfig(), 1)
    start = derived.value
    for _ in range(3):
        trial_cache_key(spec)
    assert derived.value - start == 1
    for _ in range(2):
        trial_cache_key(spec, ClientEnvironment.headless_automation())
    assert derived.value - start == 3


def test_a_batch_counts_exactly_the_keys_it_derives(tmp_path):
    """``cache.keys_derived`` moves once per batch, by the derivations:
    N fresh specs planned +N, the same objects re-planned +0, a worker's
    skew check +rows (its specs are rebuilt from the rows), and a batch
    that fails part-way counts what it derived before the failure."""
    derived = get_registry().counter("cache.keys_derived")
    network, config = NetworkConfig(8e6), ExperimentConfig().scaled(10)
    specs = [TrialSpec(("a", "b"), network, config, seed) for seed in range(7)]
    start = derived.value
    planned = _planned(specs, 3)
    assert derived.value - start == len(specs)
    assert _planned(specs, 3) == planned
    assert derived.value - start == len(specs)
    assert trial_cache_keys(specs + specs[:2]) == [t.cache_key for t in planned] + [
        t.cache_key for t in planned[:2]
    ]
    assert derived.value - start == len(specs)

    manifest = FleetPlan("cycle", 1, planned, {}).manifest_for(0)
    start = derived.value
    _checked_specs(manifest)
    assert derived.value - start == len(manifest["trials"])

    poisoned = [
        TrialSpec(("a",), network, config, 1),
        TrialSpec(("a",), NetworkConfig(math.inf), config, 1),
    ]
    start = derived.value
    with pytest.raises(ValueError):
        trial_cache_keys(poisoned)
    assert derived.value - start == 1


def test_edited_manifest_key_never_seeds_the_memo(tmp_path):
    """The worker recomputes from the row's contents: the row's own
    ``cache_key`` is a claim to check, never a value to trust."""
    plan = plan_cycle(
        ["iperf_cubic", "iperf_reno"], [NetworkConfig(8e6)],
        ExperimentConfig().scaled(10), trials_per_pair=1, num_shards=1,
    )
    manifest = plan.manifest_for(0)
    column = ROW_COLUMNS.index("cache_key")
    honest = manifest["trials"][0][column]
    manifest["trials"][0][column] = "f" * 64
    spec, row = next(trial_rows(manifest, with_shard=False))
    assert row[column] == "f" * 64 and spec._cache_key is None
    assert trial_cache_key(spec) == honest == reference_trial_cache_key(spec)
    with pytest.raises(FleetError, match="version skew"):
        run_shard(manifest, tmp_path / "cache")
    assert not list((tmp_path / "cache").glob("*"))


def _spellings():
    base = dataclasses.asdict(NetworkConfig(bandwidth_bps=8e6))
    return [
        base,
        {**base, "bandwidth_bps": 8000000},
        {**base, "power_of_two_queue": 1},
        {**base, "external_loss_rate": -0.0},
    ]


def _read(payload, rows):
    return [
        spec
        for spec, _row in trial_rows({**payload, "trials": rows}, with_shard=False)
    ]


def test_equal_but_differently_typed_payloads_intern_apart():
    """Schema-1/2 rows state their configs inline: one load interns them
    type-exactly, and the table does not outlive the load."""
    spellings = _spellings()
    row = {"service_ids": ["a", "b"], "seed": 1, "cache_key": "",
           "config": dataclasses.asdict(ExperimentConfig())}
    for order in (spellings, spellings[::-1]):
        rows = [{**row, "network": dict(p)} for p in order]
        both = _read({}, rows + copy.deepcopy(rows))
        specs, again = both[: len(rows)], both[len(rows):]
        assert all(a == b for a in specs for b in specs)  # == conflates them
        assert len({id(s.network) for s in specs}) == len(spellings)
        assert [id(s.network) for s in specs] == [id(s.network) for s in again]
        assert len({id(s.config) for s in both}) == 1
        keys = [trial_cache_key(s) for s in specs]
        assert keys == [reference_trial_cache_key(s) for s in specs]
        assert len(set(keys)) == len(spellings)
        for spec, payload in zip(specs, order):
            assert json.dumps(dataclasses.asdict(spec.network)) == json.dumps(payload)
        (other_load,) = _read({}, rows[:1])
        assert other_load.network is not specs[0].network


def test_table_entries_are_built_once_and_never_conflated():
    """Schema-3 rows index the file's tables: one object per entry, and
    ``==``-equal entries of different types stay different objects."""
    spellings = _spellings()
    tables = {
        "networks": spellings,
        "configs": [dataclasses.asdict(ExperimentConfig())],
    }
    rows = [
        [["a", "b"], index % len(spellings), 0, 1, ""]
        for index in range(3 * len(spellings))
    ]
    specs = _read(tables, rows)
    assert len({id(s.network) for s in specs}) == len(spellings)
    assert len({id(s.config) for s in specs}) == 1
    firsts = specs[: len(spellings)]
    keys = [trial_cache_key(s) for s in firsts]
    assert keys == [reference_trial_cache_key(s) for s in firsts]
    assert len(set(keys)) == len(spellings)
    for spec, fields in zip(firsts, spellings):
        assert json.dumps(dataclasses.asdict(spec.network)) == json.dumps(fields)


def test_unknown_payload_keys_are_still_dropped_when_interning():
    payload = {**dataclasses.asdict(NetworkConfig(8e6)), "from_the_future": 1}
    config = dataclasses.asdict(ExperimentConfig())
    inline = {"service_ids": ["a"], "seed": 1, "cache_key": "",
              "network": payload, "config": config, "from_the_future": 2}
    tabled = [["a"], 0, 0, 1, "", "a-future-column"]
    specs = _read(
        {"networks": [payload], "configs": [config]},
        [tabled, inline, list(tabled), copy.deepcopy(inline)],
    )
    assert {s.network for s in specs} == {NetworkConfig(8e6)}
    assert specs[0].network is specs[2].network
    assert specs[1].network is specs[3].network


@settings(max_examples=100, deadline=None)
@given(
    specs=st.lists(_specs, min_size=1, max_size=6),
    picks=st.lists(st.integers(min_value=0, max_value=5), max_size=12),
    num_shards=st.integers(min_value=1, max_value=3),
)
def test_plan_layout_round_trips_type_exactly(specs, picks, num_shards):
    """Any plan - repeated config objects, ``==``-equal ones of other
    types - writes one table entry per config object, loads back to
    ``repr``-equal specs with reference keys, and re-serialises to the
    same bytes."""
    # Reuse some config objects across trials, as a real plan does.
    specs = specs + [
        TrialSpec(("x",), specs[i % len(specs)].network,
                  specs[(i + 1) % len(specs)].config, seed=i)
        for i in picks
    ]
    plan = FleetPlan(
        "cycle", num_shards,
        [
            PlannedTrial(spec, trial_cache_key(spec), index % num_shards)
            for index, spec in enumerate(specs)
        ],
        {},
    )
    payload = plan.to_json()
    assert len(payload["networks"]) == len({id(s.network) for s in specs})
    assert len(payload["configs"]) == len({id(s.config) for s in specs})
    text = json.dumps(payload, separators=(",", ":"))
    loaded = FleetPlan.from_json(json.loads(text))
    assert [repr(t.spec) for t in loaded.trials] == [repr(s) for s in specs]
    assert [t.shard for t in loaded.trials] == [t.shard for t in plan.trials]
    assert all(t.spec._cache_key is None for t in loaded.trials)
    assert [trial_cache_key(t.spec) for t in loaded.trials] == [
        reference_trial_cache_key(s) for s in specs
    ]
    assert json.dumps(loaded.to_json(), separators=(",", ":")) == text
    for shard in range(num_shards):
        manifest = json.loads(json.dumps(plan.manifest_for(shard)))
        rebuilt = [spec for spec, _row in trial_rows(manifest, with_shard=False)]
        assert [repr(s) for s in rebuilt] == [
            repr(t.spec) for t in plan.shard_trials(shard)
        ]


def test_intern_and_identity_tables_are_bounded():
    # What a load interns lives as long as the load's specs: no
    # module-level table pins it.
    rows = [
        {"service_ids": ["a"], "seed": 1, "cache_key": "",
         "network": dataclasses.asdict(NetworkConfig(bandwidth_bps=bandwidth)),
         "config": dataclasses.asdict(ExperimentConfig())}
        for bandwidth in range(cache_module._CONFIG_MEMO_MAX + 5)
    ]
    specs = _read({}, rows)
    interned = weakref.ref(specs[0].network)
    assert interned() is not None
    del specs
    assert interned() is None
    cache_module._CONFIG_BY_ID.clear()
    for bandwidth in range(cache_module._CONFIG_MEMO_MAX * 2 + 5):
        config_canonical_json(NetworkConfig(bandwidth_bps=bandwidth))
    assert len(cache_module._CONFIG_BY_ID) <= cache_module._CONFIG_MEMO_MAX
    # Every id in the identity table belongs to the object stored with it.
    assert all(
        id(config) == key
        for key, (config, _memo) in cache_module._CONFIG_BY_ID.items()
    )


def _reference_is_cache_key(text):
    """The character loop ``is_cache_key`` used to be."""
    if len(text) != 64:
        return False
    return all(c in "0123456789abcdef" for c in text)


@settings(max_examples=300, deadline=None)
@given(
    text=st.one_of(
        st.text(alphabet="0123456789abcdef", min_size=62, max_size=66),
        st.text(alphabet="0123456789abcdefABCDEFg٠١０ ", min_size=63, max_size=65),
        st.text(max_size=70),
    )
)
def test_is_cache_key_equals_the_character_loop(text):
    assert is_cache_key(text) == _reference_is_cache_key(text)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("a" * 64, True),
        ("0123456789abcdef" * 4, True),
        ("A" * 64, False),
        ("a" * 63, False),
        ("a" * 65, False),
        ("a" * 63 + "١", False),  # ARABIC-INDIC DIGIT ONE: isdigit(), not hex
        ("a" * 63 + "１", False),  # FULLWIDTH DIGIT ONE: int(.., 16) accepts it
        ("a" * 63 + "\n", False),
        ("", False),
    ],
)
def test_is_cache_key_edge_cases(text, expected):
    assert is_cache_key(text) is expected


# ----------------------------------------------------------------------
# Plan and manifest bytes: one encoder, read back type for type
# ----------------------------------------------------------------------


def same_value(a, b):
    """Equal *and* of equal types all the way down (``1`` is not
    ``1.0`` is not ``True``; ``-0.0`` is not ``0.0``)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_value(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same_value, a, b))
    if isinstance(a, float):
        return repr(a) == repr(b)
    return a == b


def _written(plan, out):
    """``{path: bytes}`` of ``plan.write(out)``."""
    return {path: path.read_bytes() for path in plan.write(out)}


def _assert_reads_back(plan, written):
    """Every file is the one encoder's bytes of its payload, and both
    readers (``json``, which loads plans, and the record decoder) get
    the payload back type for type."""
    payloads = [plan.to_json()] + [
        plan.manifest_for(shard) for shard in range(plan.num_shards)
    ]
    assert list(written.values()) == [encode_record(p) for p in payloads]
    for raw, payload in zip(written.values(), payloads):
        assert same_value(json.loads(raw), payload)
        assert same_value(decode_record(raw), payload)


_params = st.dictionaries(
    st.text(max_size=4),
    st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(min_value=-(2**63), max_value=2**63 - 1),
        st.text(max_size=4),
        st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=3),
    ),
    max_size=3,
)


@settings(max_examples=100, deadline=None)
@given(
    specs=st.lists(_specs, min_size=1, max_size=6),
    num_shards=st.integers(min_value=1, max_value=3),
    params=_params,
)
def test_every_plan_and_manifest_file_reads_back_as_its_payload(
    specs, num_shards, params
):
    """Whatever the configs, ids, seeds and params (``5e-324``, ``1e+16``,
    non-ASCII), every file ``FleetPlan.write`` lands decodes to its
    payload type for type; a seed beyond signed 64 bits is refused,
    naming its row, before any file is written."""
    plan = FleetPlan("cycle", num_shards, _planned(specs, num_shards), params)
    with tempfile.TemporaryDirectory() as out:
        if any(
            type(spec.seed) is int and not -(2**63) <= spec.seed < 2**63
            for spec in specs
        ):
            with pytest.raises(FleetError, match=r"trials\[\d+\]\[3\] is "):
                plan.write(out)
            assert list(Path(out).iterdir()) == []
            return
        _assert_reads_back(plan, _written(plan, out))


def test_a_warm_replan_plan_reads_back_as_its_payload(tmp_path, monkeypatch):
    """The benchmark's ``warm-replan`` plan (2 280 trials, four shards)
    is written by the one encoder alone (``json.dumps`` patched to fail
    once ``plan_id``, which hashes ``json``'s spelling, is derived) and
    reads back type for type."""
    plan = plan_cycle(
        default_catalog().ids(),
        [NetworkConfig(bandwidth_bps=8e6), NetworkConfig(bandwidth_bps=50e6)],
        ExperimentConfig().scaled(15),
        trials_per_pair=6, num_shards=4, base_seed=1,
    )

    def no_json(*_args, **_kwargs):
        raise AssertionError("write_manifest encoded with json.dumps")

    assert plan.plan_id
    monkeypatch.setattr(plan_module.json, "dumps", no_json)
    written = _written(plan, tmp_path)
    monkeypatch.undo()
    _assert_reads_back(plan, written)
    assert len(plan.trials) == 2280


def _trial(seed=1, network=None):
    spec = TrialSpec(("a", "b"), network or NetworkConfig(8e6),
                     ExperimentConfig(), seed)
    return PlannedTrial(spec, "k", 0)


def _set(*path_and_value):
    *path, name, value = path_and_value

    def edit(payload):
        """Apply the edit; ``False`` where the payload has no such part
        (a shard manifest carries no ``params``)."""
        if path[0] not in payload:
            return False
        target = payload
        for step in path:
            target = target[step]
        target[name] = value
        return True

    return edit


@pytest.mark.parametrize(
    "edit, field",
    [
        (_set("networks", 0, "bandwidth_bps", math.inf),
         r"networks\[0\]\.bandwidth_bps is inf, not a finite number"),
        (_set("configs", 0, "warmup_usec", math.nan),
         r"configs\[0\]\.warmup_usec is nan, not a finite number"),
        (_set("params", "values", [8.0, -math.inf]),
         r"params\.values\[1\] is -inf, not a finite number"),
        (_set("params", "base_seed", 10**20),
         r"params\.base_seed is 10{20}, not a signed 64-bit integer"),
        (_set("trials", 1, 3, 2**64 + 5),
         r"trials\[1\]\[3\] is 18446744073709551621, not a signed 64-bit"),
        (_set("trials", 0, 3, 2**63),
         r"trials\[0\]\[3\] is 9223372036854775808, not a signed 64-bit"),
        (_set("trials", 0, 3, -(2**63) - 1),
         r"trials\[0\]\[3\] is -9223372036854775809, not a signed 64"),
        (_set("params", 7, "a non-str key"),
         r"\.json not written: Dict key must be str"),
        (_set("trials", 1, 3, math.nan),
         r"trials\[1\]\[3\] is nan, not a finite number"),
        (_set("trials", 0, 3, math.inf),
         r"trials\[0\]\[3\] is inf, not a finite number"),
    ],
    ids=[
        "table-inf", "table-nan", "params-neg-inf", "params-beyond-64-bits",
        "row-beyond-64-bits", "row-beyond-signed-64-bits",
        "row-below-signed-64-bits", "int-params-key", "row-nan-seed",
        "row-inf-seed",
    ],
)
def test_a_plan_no_reader_would_get_back_is_refused_naming_the_field(
    tmp_path, edit, field
):
    """orjson would write ``null`` for the float, an integer up to
    2**64-1 as it is, and raise a bare ``TypeError`` for a wider one or
    a key that is no ``str`` (``json`` wrote ``Infinity``, which is not
    JSON): each is a ``FleetError`` naming the field, and nothing is
    written."""
    plan = FleetPlan("cycle", 1, [_trial(1), _trial(2)], {})
    for name, payload in (
        ("plan.json", plan.to_json()), ("shard-0.json", plan.manifest_for(0))
    ):
        if edit(payload):
            with pytest.raises(FleetError, match=field):
                write_manifest(tmp_path / name, payload)
    assert list(tmp_path.iterdir()) == []


def test_a_plan_with_a_seed_past_64_bits_writes_no_file(tmp_path):
    plan = FleetPlan("cycle", 2, [_trial(1), _trial(10**16 * 2**10)], {})
    with pytest.raises(FleetError, match=r"trials\[1\]\[3\] is 1024"):
        plan.write(tmp_path)
    assert list(tmp_path.iterdir()) == []


def _odd_id(*ids):
    return PlannedTrial(
        TrialSpec(ids, NetworkConfig(8e6), ExperimentConfig(), 3), "k", 0
    )


@pytest.mark.parametrize(
    "trials, params",
    [
        ([_trial(seed=2**63 - 1), _trial(seed=-(2**63))], {}),
        ([_trial(seed=True)], {}),
        ([_trial(seed=1e16)], {}),
        ([_trial(seed=2.0)], {}),
        ([_trial(network=NetworkConfig(1e-05))], {}),
        ([_trial(network=NetworkConfig(5e-324))], {}),
        ([_trial()], {"ratio": 1e-7}),
        ([_trial()], {"rate": 1.5e300}),
        ([_odd_id("vidéo", "a")], {}),
        ([_odd_id("a\x7fb", "a")], {}),
        ([_odd_id(1e16, "a")], {}),
        ([_trial()], {"note": "直播"}),
        ([PlannedTrial(_trial().spec, 1e16, 0)], {}),
        ([_trial(), PlannedTrial(_trial().spec, "k", 1e16)], {}),
    ],
    ids=[
        "seeds-at-the-bounds", "bool-seed", "exponent-seed", "float-seed",
        "exponent-table-float", "subnormal-table-float",
        "exponent-params-float", "huge-params-float",
        "non-ascii-id", "del-in-id", "float-id", "non-ascii-params",
        "float-key",
        "float-shard",
    ],
)
def test_what_json_spelled_otherwise_reads_back_type_for_type(
    tmp_path, trials, params
):
    """One case each: seeds at the signed 64-bit bounds, a bool or float
    seed, a float ``json`` writes with an exponent (also where an edited
    plan file put one in a row's id, key or shard), a non-ASCII or DEL
    character: the one encoder's bytes, read back type for type."""
    plan = FleetPlan("cycle", 1, trials, params)
    _assert_reads_back(plan, _written(plan, tmp_path))
