"""One encoding per trial record, one derivation per cache key.

A trial is persisted once, as a cache record (a record-log line):
``TrialCache.put`` appends ``encode_record`` of the payload (the one
encoder of stored bytes), and the service store keeps that log itself.
Checked here on bytes: across the ways records spread over logs, and
for records this library did not write.  The key half: ``trial_cache_key``
resumes a memoised SHA-256 prefix state and must equal the
whole-string oracle for every input.
The decoder half: ``decode_record`` reads every record back as
``json.loads`` (the oracle, kept here) would, type for type, and what it
would read differently - non-finite floats, integers beyond 64 bits - is
refused when written and named when found.  Bytes ``json`` spelled
before (``1e-05`` where the encoder writes ``0.00001``) still read as
the same records.
"""

import dataclasses
import json
import math
import os
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.browser.environment import ClientEnvironment
from repro.config import ExperimentConfig, NetworkConfig
from repro.core import cache as cache_module
from repro.core.cache import (
    CacheEntryError,
    TrialCache,
    decode_record,
    encode_record,
    trial_cache_key,
)
from repro.core.runner import TrialSpec
from repro.service import WatchdogService
from repro.service.store import CycleRecord, RollingResultStore

from tests import cache_logs
from tests.naive_cache_key import naive_trial_cache_key
from tests.test_cache_keys import (
    _envs,
    _specs,
    reference_trial_cache_key,
    same_value,
)
from tests.test_ingest_linearity import (
    CONFIG,
    NETWORKS,
    deliver_cycle,
    synthetic_result,
)

# ----------------------------------------------------------------------
# Keys by prefix hash
# ----------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(spec=_specs, env=_envs)
def test_prefix_hashed_key_equals_the_whole_string_oracles(spec, env):
    """``_specs`` draws bool / huge / negative / float seeds, non-ASCII
    and quote-bearing ids and ``8e6`` beside ``8000000`` in the configs;
    ``_envs`` an explicit environment or none."""
    key = trial_cache_key(spec, env)
    assert key == naive_trial_cache_key(spec, env)
    assert key == reference_trial_cache_key(spec, env)


def test_equal_ids_and_seeds_of_other_types_keep_distinct_keys():
    """The traps of a memo keyed on ``==``: ``1 == True == 1.0``."""
    network, config = NetworkConfig(8e6), ExperimentConfig()
    specs = [
        TrialSpec(ids, network, config, seed)
        for ids in (("a", "b"), (1, 2), (True, 2), (1.0, 2))
        for seed in (1, True, 1.0, -1, 2**70)
    ]
    for _round in range(2):  # cold tables, then warm ones
        keys = [trial_cache_key(spec, ClientEnvironment()) for spec in specs]
        assert keys == [
            naive_trial_cache_key(spec, ClientEnvironment()) for spec in specs
        ]
        assert len(set(keys)) == len(specs)
    assert all(
        type(sid) is str for ids in cache_module._IDS_TAILS for sid in ids
    )


def test_prefix_and_tail_tables_are_bounded_and_pin_their_objects():
    cache_module._PREFIX_BY_IDS.clear()
    config = ExperimentConfig()
    for bandwidth in range(cache_module._CONFIG_MEMO_MAX * 2 + 5):
        spec = TrialSpec(
            (f"s{bandwidth}", "b"), NetworkConfig(bandwidth), config, 1
        )
        # The network dies with this iteration: an unpinned id would be
        # handed to the next one, with the old prefix still under it.
        assert trial_cache_key(spec) == naive_trial_cache_key(spec)
    assert len(cache_module._PREFIX_BY_IDS) <= cache_module._CONFIG_MEMO_MAX
    assert all(
        ids == tuple(id(obj) for obj in pinned[1:])
        for ids, pinned in cache_module._PREFIX_BY_IDS.items()
    )
    cache_module._IDS_TAILS.clear()
    for index in range(cache_module._IDS_TAILS_MAX + 5):
        cache_module._ids_tail((f"s{index}",))
    assert len(cache_module._IDS_TAILS) <= cache_module._IDS_TAILS_MAX


# ----------------------------------------------------------------------
# Entries
# ----------------------------------------------------------------------

SPEC = TrialSpec(("vidéo", 'q"uo\\te'), NETWORKS[0], CONFIG, seed=3)


def test_an_entry_is_the_canonical_line_and_any_json_object_still_reads(
    tmp_path,
):
    result = synthetic_result(SPEC, random.Random(1))
    cache = TrialCache(tmp_path)
    cache.put(SPEC, result)
    key = trial_cache_key(SPEC)
    (log,) = cache_logs.logs(tmp_path)
    raw = log.read_bytes()
    assert raw == key.encode() + b" " + encode_record(result.to_json()) + b"\n"
    assert "vidéo".encode() in raw
    assert same_value(
        decode_record(cache_logs.record(tmp_path, key)), result.to_json()
    )
    for spelling in (
        {},
        {"ensure_ascii": False},
        {"sort_keys": True, "separators": (",", ":")},
    ):
        line = json.dumps(result.to_json(), **spelling).encode()
        cache_logs.rewrite(tmp_path, key, lambda _record: line)
        (record,) = TrialCache(tmp_path).read([SPEC])
        assert record.result == result and record.raw == line


def test_entry_bytes_come_with_a_disk_read_and_never_go_stale(tmp_path):
    first = dataclasses.replace(
        synthetic_result(SPEC, random.Random(1)),
        earlystop={"truncated": True, "model_id": "m"},
    )
    TrialCache(tmp_path).put(SPEC, first)
    key = trial_cache_key(SPEC)
    stored = cache_logs.record(tmp_path, key)

    cache = TrialCache(tmp_path)
    (record,) = cache.read([SPEC], allow_truncated=True)
    assert record.key == key and record.result == first
    assert record.raw == stored
    assert json.loads(record.raw) == record.payload == cache.payload_for(key)
    # The cache keeps the payload, never the bytes: a memory hit has none.
    (again,) = cache.read([SPEC], allow_truncated=True)
    assert again.raw is None and again.payload is record.payload
    # Written by this process, served from memory: no bytes to adopt,
    # so the bytes the first read brought cannot be served for it.
    second = synthetic_result(SPEC, random.Random(2))
    assert second != first
    cache.put(SPEC, second)
    (fresh,) = cache.read([SPEC])
    assert fresh.raw is None and fresh.result == second
    # A new reader gets the more complete line now on disk, not the
    # first one.
    (reread,) = TrialCache(tmp_path).read([SPEC])
    assert reread.raw == encode_record(second.to_json())
    assert reread.raw != stored


def _entry_of_size(size):
    """An entry payload whose encoded line is exactly ``size`` bytes
    (an unknown field pads it; readers ignore it)."""
    payload = synthetic_result(SPEC, random.Random(1)).to_json()
    payload["padding"] = ""
    payload["padding"] = "x" * (size - len(encode_record(payload)))
    return payload


@pytest.mark.parametrize(
    "size",
    [
        cache_module._READ_SIZE - 1,
        cache_module._READ_SIZE,
        cache_module._READ_SIZE + 1,
        3 * cache_module._READ_SIZE + 17,
    ],
)
def test_an_entry_past_one_read_buffer_reads_whole(tmp_path, size):
    """A record of any size, between two others, reads whole; so do its
    neighbours."""
    payload = _entry_of_size(size)
    line = encode_record(payload)
    assert len(line) == size
    before, after = (
        TrialSpec(SPEC.service_ids, SPEC.network, SPEC.config, seed)
        for seed in (1, 2)
    )
    cache_logs.append(tmp_path, {
        trial_cache_key(before): encode_record(
            synthetic_result(before, random.Random(1)).to_json()
        ),
        trial_cache_key(SPEC): line,
        trial_cache_key(after): encode_record(
            synthetic_result(after, random.Random(1)).to_json()
        ),
    })
    first, record, last = TrialCache(tmp_path).read([before, SPEC, after])
    assert record.raw == line and record.payload == payload
    assert record.result == synthetic_result(SPEC, random.Random(1))
    assert first.result == synthetic_result(before, random.Random(1))
    assert last.result == synthetic_result(after, random.Random(1))


def test_bytes_past_the_first_buffer_are_read_and_judged(tmp_path):
    """A line's bytes past its first object are part of the record:
    whitespace is JSON, anything else is damage."""
    payload = synthetic_result(SPEC, random.Random(1)).to_json()
    line = encode_record(payload)
    padded = line + b" " * (cache_module._READ_SIZE - len(line))
    key = trial_cache_key(SPEC)
    log = cache_logs.append(tmp_path, {key: padded})
    assert TrialCache(tmp_path).get(SPEC) is not None
    cache_logs.rewrite(tmp_path, key, lambda _record: padded + b"garbage")
    with pytest.raises(CacheEntryError, match="not valid JSON") as raised:
        TrialCache(tmp_path).get(SPEC)
    assert f"{log}: line 1, key {key}" in str(raised.value)


def test_a_sidecar_past_one_read_buffer_reads_whole(tmp_path):
    key = trial_cache_key(SPEC)
    recording = {"schema": 1, "samples": list(range(40_000))}
    TrialCache(tmp_path).put(
        SPEC, synthetic_result(SPEC, random.Random(1)),
        sidecars={"flight": recording},
    )
    assert (
        len(cache_logs.sidecars(tmp_path)[f"{key}.flight"])
        > 2 * cache_module._READ_SIZE
    )
    assert TrialCache(tmp_path).get_sidecar(key, "flight") == recording


class _ShortFirstRead:
    """``os`` as :mod:`repro.core.cache` sees it, except that the first
    ``read`` of each descriptor hands back at most ``first`` bytes - as
    a read may - and every ``read`` is counted."""

    def __init__(self, first):
        self.first = first
        self.reads = []

    def __getattr__(self, name):
        return getattr(os, name)

    def read(self, fd, size):
        first = fd not in self.reads
        self.reads.append(fd)
        return os.read(fd, min(size, self.first) if first else size)


def test_a_short_first_read_is_read_on_not_called_damage(
    tmp_path, monkeypatch
):
    """A log read that comes back short is read on to EOF before its
    lines are indexed: a short read is never a torn line or a
    ``CacheEntryError``, and a damaged record still is one."""
    result = synthetic_result(SPEC, random.Random(1))
    TrialCache(tmp_path).put(SPEC, result)
    key = trial_cache_key(SPEC)
    short = _ShortFirstRead(first=100)
    monkeypatch.setattr(cache_module, "os", short)
    (record,) = TrialCache(tmp_path).read([SPEC])
    assert record.result == result
    assert record.raw == cache_logs.record(tmp_path, key)
    assert len(short.reads) == 3  # 100 bytes, the rest, EOF
    # A read that brings what ``fstat`` promised: one per log.
    monkeypatch.setattr(cache_module, "os", _ShortFirstRead(first=1 << 20))
    counting = cache_module.os
    assert TrialCache(tmp_path).get(SPEC) == result
    assert len(counting.reads) == 1
    # Damage is still damage, however the bytes arrive.
    cache_logs.rewrite(tmp_path, key, lambda data: data[:100])
    for first in (10, 1 << 20):
        monkeypatch.setattr(cache_module, "os", _ShortFirstRead(first))
        with pytest.raises(CacheEntryError, match="not valid JSON"):
            TrialCache(tmp_path).get(SPEC)


# ----------------------------------------------------------------------
# One decoder
# ----------------------------------------------------------------------


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
_ints = st.one_of(
    st.integers(min_value=INT64_MIN, max_value=INT64_MAX),
    st.sampled_from(
        [INT64_MIN, INT64_MIN + 1, -1, 0, INT64_MAX - 1, INT64_MAX]
    ),
)
_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308,
         1.7976931348623157e308, 1e16, 0.1, 1 / 3]
    ),
)
_ids = st.text(min_size=1, max_size=12)
_per_service = st.dictionaries(_ids, _floats, max_size=3)
_payloads = st.builds(
    lambda fields, earlystop: {
        **fields, **({} if earlystop is None else {"earlystop": earlystop})
    },
    st.fixed_dictionaries(
        {
            "contender_id": _ids,
            "incumbent_id": _ids,
            "bandwidth_bps": _floats,
            "buffer_packets": _ints,
            "seed": _ints,
            "duration_usec": _ints,
            "throughput_bps": _per_service,
            "mmf_allocation_bps": _per_service,
            "mmf_share": _per_service,
            "loss_rate": _per_service,
            "queueing_delay_usec": _per_service,
            "service_metrics": st.dictionaries(
                _ids,
                st.dictionaries(_ids, st.one_of(_floats, _ints), max_size=3),
                max_size=2,
            ),
            "utilization": _floats,
            "external_loss_fraction": _floats,
        }
    ),
    st.one_of(
        st.none(),
        st.fixed_dictionaries(
            {"truncated": st.booleans(), "horizon_usec": _ints}
        ),
    ),
)


@settings(max_examples=400, deadline=None)
@given(payload=_payloads)
def test_decode_record_reads_canonical_bytes_as_json_loads_does(payload):
    """Subnormals, ``-0.0``, ``1e308``, integers at the signed 64-bit
    bounds, non-ASCII ids: the C decoder and the ``json`` oracle agree
    type for type, and the record reads back as what was encoded."""
    raw = encode_record(payload)
    decoded = decode_record(raw)
    assert same_value(decoded, json.loads(raw))
    assert same_value(decoded, payload)


def test_decode_record_is_the_c_parser_by_name():
    """A parse adds no Python frame: the name is the C function."""
    import orjson

    assert decode_record is orjson.loads


def _result_with(**changes):
    return dataclasses.replace(
        synthetic_result(SPEC, random.Random(1)), **changes
    )


@pytest.mark.parametrize(
    "changes, named",
    [
        ({"utilization": math.nan}, "utilization is nan, not a finite number"),
        (
            {"throughput_bps": {"vidéo": math.inf, "x": 1.0}},
            "throughput_bps.vidéo is inf, not a finite number",
        ),
        (
            {"service_metrics": {"x": {"rtt": -math.inf}}},
            "service_metrics.x.rtt is -inf, not a finite number",
        ),
        (
            {"service_metrics": {"x": {"samples": [1.0, 2.0, math.nan]}}},
            r"service_metrics\.x\.samples\[2\] is nan, not a finite number",
        ),
        ({"seed": 2**64}, "seed is 18446744073709551616, not a signed 64-bit"),
        ({"seed": -(2**63) - 1}, "seed is -9223372036854775809, not a signed"),
        ({"duration_usec": 10**19}, "duration_usec reads as"),
        ({"buffer_packets": 64.0}, "buffer_packets reads as 64.0"),
    ],
    ids=[
        "nan", "inf-nested", "-inf-deeper", "nan-in-a-nested-list",
        "seed-2^64", "seed-below-int64", "duration-20-digits", "float-buffer",
    ],
)
def test_put_refuses_what_the_decoder_would_read_differently(
    tmp_path, changes, named
):
    """The encoder writes ``NaN``/``Infinity`` as ``null`` and refuses
    integers beyond 64 bits; the decoder reads a wider integer as a
    float.  So ``put`` refuses them by name and writes nothing."""
    cache = TrialCache(tmp_path)
    with pytest.raises(CacheEntryError, match=named):
        cache.put(SPEC, _result_with(**changes))
    assert list(tmp_path.iterdir()) == []
    assert cache.read([SPEC]) == [None] and cache.stores == 0


@pytest.mark.parametrize(
    "payload, named",
    [
        ({"schema": 1, "samples": [0.5, 1.0, math.nan]},
         r"samples\[2\] is nan, not a finite number"),
        ({"schema": 1, "conn": {"f0": {"srtt_usec": [math.inf]}}},
         r"conn\.f0\.srtt_usec\[0\] is inf, not a finite number"),
        ({"schema": 1, "aux": [2**64 + 1]},
         r"aux\[0\] is 18446744073709551617, not a signed 64-bit"),
    ],
    ids=["nan", "inf-nested", "beyond-64-bits"],
)
def test_a_sidecar_no_reader_would_get_back_is_refused_naming_the_field(
    tmp_path, payload, named
):
    """The encoder would write ``null`` for the float: the sidecar is
    refused naming the field, and nothing - its record neither - is
    written."""
    key = trial_cache_key(SPEC)
    cache = TrialCache(tmp_path)
    with pytest.raises(CacheEntryError, match=f"{key}.flight .*{named}"):
        cache.put(
            SPEC, synthetic_result(SPEC, random.Random(1)),
            sidecars={"flight": payload},
        )
    assert list(tmp_path.iterdir()) == []
    assert cache.get_sidecar(key, "flight") is None
    assert cache.read([SPEC]) == [None] and cache.stores == 0


@pytest.mark.parametrize(
    "name", ["", "a b", "a\nb", "a/b", "a.b", 1, "Flight", "_x"]
)
def test_a_sidecar_name_that_would_break_the_line_is_refused(tmp_path, name):
    """A sidecar line is ``<key>.<name> <sidecar>``: a name that is not
    ``[a-z][a-z0-9_]*`` is a ``ValueError``, and nothing is written."""
    cache = TrialCache(tmp_path)
    with pytest.raises(ValueError, match="sidecar name"):
        cache.put(
            SPEC, synthetic_result(SPEC, random.Random(1)),
            sidecars={name: {"schema": 1}},
        )
    assert list(tmp_path.iterdir()) == []
    assert cache.read([SPEC]) == [None] and cache.stores == 0


def test_put_accepts_the_signed_64_bit_bounds(tmp_path):
    for seed in (INT64_MIN, INT64_MAX):
        result = _result_with(seed=seed, duration_usec=INT64_MAX)
        TrialCache(tmp_path / str(seed)).put(SPEC, result)
        assert TrialCache(tmp_path / str(seed)).get(SPEC) == result


@pytest.mark.parametrize(
    "field, value, complaint",
    [
        ("utilization", math.nan, "not valid JSON"),
        ("loss_rate", {"a": math.inf}, "not valid JSON"),
        ("seed", 2**64, "seed reads as 1.8446744073709552e\\+19"),
        ("seed", 10**19, "seed reads as 10000000000000000000"),
        ("duration_usec", -(10**19), "duration_usec reads as"),
        ("buffer_packets", True, "buffer_packets reads as True"),
        ("earlystop", [1], "earlystop is list, not an object"),
    ],
    ids=[
        "nan", "infinity", "seed-20-digits-float", "seed-20-digits-int",
        "duration-20-digits", "bool-buffer", "earlystop-list",
    ],
)
def test_a_foreign_entry_the_decoder_reads_differently_is_named(
    tmp_path, field, value, complaint
):
    """A record another writer made with ``json.dumps`` - ``NaN``, a
    20-digit seed - is a ``CacheEntryError`` naming the log and the
    line, never a result with a silently changed value."""
    payload = synthetic_result(SPEC, random.Random(1)).to_json()
    payload[field] = value
    key = trial_cache_key(SPEC)
    path = cache_logs.append(tmp_path, {key: json.dumps(payload).encode()})
    with pytest.raises(CacheEntryError, match=complaint) as raised:
        TrialCache(tmp_path).get(SPEC)
    assert f"{path}: line 1, key {key}" in str(raised.value)


# ----------------------------------------------------------------------
# Store bytes
# ----------------------------------------------------------------------


def ingest_two(root, relayout=None):
    """Two merged fixed cycles through the service; ``relayout``
    rewrites every delivered cache's logs first."""
    service = WatchdogService(
        root / "spool", root / "out",
        networks=NETWORKS, plan_config=CONFIG, plan_trials=1,
    )
    for index in range(2):
        deliver_cycle(root / "spool", index)
        cache = root / "spool" / "incoming" / f"cycle-{index:02d}" / "cache"
        if relayout:
            relayout(cache)
    for _index in range(2):
        service.ingest_once()
    return service


def test_logs_in_either_spelling_replay_to_the_same_trials(tmp_path):
    """``json`` wrote records before (``1e-05``, ``1e+16``); the one
    encoder writes ``0.00001``, ``1e16``.  A store that adopted a log
    in each spelling replays, and compacts, to the same trials, type for
    type."""
    payloads = [
        {**synthetic_result(SPEC, random.Random(seed)).to_json(),
         "utilization": value}
        for seed, value in ((1, 1e-05), (2, 1e16))
    ]
    key = trial_cache_key(SPEC)
    stores = {}
    for spelling, encode in (
        ("ours", encode_record),
        ("json", lambda p: json.dumps(p, sort_keys=True).encode()),
    ):
        store = RollingResultStore(tmp_path / spelling / "store")
        for index, payload in enumerate(payloads):
            cache = tmp_path / spelling / f"entry-{index}"
            cache.mkdir(parents=True)
            cache_logs.append(cache, {key: encode(payload)})
            store.append_cycle(CycleRecord.from_cache_reads(
                f"cycle-{index}", "spool", "fixed", False,
                TrialCache(cache).read_keys([key]), cache,
            ))
        stores[spelling] = store.root
    logs = sorted((tmp_path / "json" / "store").glob("cycle-*/*.log"))
    assert any(b"1e-05" in log.read_bytes() for log in logs)
    expected = [[payload] for payload in payloads]
    for _compacted in range(2):
        for root in stores.values():
            store = RollingResultStore(root)
            assert same_value([r.results for r in store.cycles()], expected)
            store.compact()


def files(root):
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def _relog(cache, lines, logs):
    """Replace ``cache``'s logs by ``lines`` (key -> record) spread over
    ``logs`` logs, in reverse key order."""
    for log in cache_logs.logs(cache):
        log.unlink()
    keys = sorted(lines, reverse=True)
    for index in range(logs):
        cache_logs.append(
            cache, {key: lines[key] for key in keys[index::logs]}, str(index)
        )


def _one_log_per_record(cache):
    lines = cache_logs.records(cache)
    _relog(cache, lines, len(lines))


def _reversed_in_one_log(cache):
    _relog(cache, cache_logs.records(cache), 1)


def _spaced(cache):
    lines = cache_logs.records(cache)
    _relog(
        cache,
        {
            key: json.dumps(decode_record(line)).encode()
            for key, line in lines.items()
        },
        1,
    )


@pytest.mark.parametrize(
    "relayout",
    [_one_log_per_record, _reversed_in_one_log, _spaced],
    ids=["log-per-rec", "reversed", "spaced-one-line"],
)
def test_store_and_site_bytes_do_not_depend_on_the_entry_layout(
    tmp_path, relayout
):
    """How records spread over logs, and in what order, moves no byte of
    the site, nor of the trial payloads a reopened store reads back, in
    order.  The store keeps the entry's logs as they are - a foreign
    record line spaces and all - so its files follow the layout."""
    ingest_two(tmp_path / "one-line")
    ingest_two(tmp_path / "other", relayout)
    ours, theirs = (tmp_path / name / "out" for name in ("one-line", "other"))
    assert files(theirs / "site") == files(ours / "site")
    stored = [
        [
            encode_record(payload)
            for record in RollingResultStore(out / "store").cycles()
            for payload in record.results
        ]
        for out in (ours, theirs)
    ]
    assert stored[0] == stored[1] and len(stored[0]) > 20
