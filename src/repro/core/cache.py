"""Content-addressed trial result caching.

Every trial in this repository is a *deterministic* seeded simulation:
identical ``(service ids, network, experiment config, seed, client
environment)`` inputs produce bit-identical :class:`ExperimentResult`
outputs.  That makes redundant simulation pure waste - TURBOTEST-style
measurement reuse applies exactly - so the execution backends consult a
:class:`TrialCache` before running anything and re-runs of sweeps,
benchmarks, and watchdog cycles skip already-simulated trials entirely.

Keys are stable SHA-256 digests over a canonical JSON encoding of the
trial inputs plus a schema version, so a cache survives process restarts
and is automatically invalidated when the result schema changes.  Values
are ``ExperimentResult.to_json()`` payloads.

Every stored artifact has one encoder, :data:`encode_record` (sorted
keys, no whitespace, one UTF-8 line), and a trial record is encoded
once: :meth:`TrialCache.put` writes it as the entry file, and the
rolling store's journal and segments (:mod:`repro.service.store`) carry
those bytes on unchanged (:meth:`TrialCache.read` hands them over).
``json`` (:func:`canonical_json`) spells only what a key hashes.
Reading is laxer than writing: any file holding one JSON object is an
entry - an older cache's indented or ``json``-spelled one, a foreign
writer's - and only its layout differs, which ``fleet merge`` treats as
a duplicate, not as divergence.

A cache is one directory, and directories are also the unit of
*transport* for fleet operation (:mod:`repro.fleet`): shard workers write
disjoint cache directories that the merger unions back together, so only
``<64-hex-digest>.json`` files are treated as entries - anything else in
the directory (receipts, notes) is ignored.

Every lookup is one batch :meth:`TrialCache.read` (``get`` reads one),
and a hit costs what it must: the key is derived once per spec object
(:func:`trial_cache_keys`, which hashes only the seed and service ids on
top of a memoised SHA-256 state), the entry's path is one string
concatenation, and the file is one ``os.read`` parsed once by
:data:`decode_record`, the C parser (``cache.keys_derived`` /
``cache.entries_parsed`` count both, once per batch).  A
file that is not a UTF-8 JSON object, or an entry without a trial
record's fields, raises :class:`CacheEntryError`: it is never a miss
and never a result.  The
:class:`~repro.core.experiment.ExperimentResult` is built from the
payload only when a caller asks for :attr:`CachedTrial.result` - a
shard worker, which only needs its trials recorded, never does.  On
the ``warm-replan`` entries (1 006 B, one x86-64 core, best of seven
reads of 2 280 entries) a disk hit is ~10.5-10.7 us (~20.5-21.2 when
``json.loads`` parsed it): ~2.7 us open + read + close, ~3.3 us
parse (UTF-8 + ``json.loads`` was ~13), ~4 us the loop around them
(key memo, path, shape check, record, counters); building the result
adds ~3.2 us where it is asked for.

Entry and sidecar files are *immutable*: every write lands as a
temporary sibling renamed over the destination
(:func:`repro.atomicio.atomic_write`), so a file's bytes never change
under its inode.  Concurrent writers of one key converge on one intact
payload, a crash leaves no torn entry, and ``fleet merge`` may hard-link
entries between directories instead of copying them.  Nothing writes
to an entry once it has landed, a read included: a hit touches neither
the file nor its metadata, so it needs only read permission and a hit
in a merged cache leaves the shard directory it was linked from as it
was.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import os
import re
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence

import orjson

from ..atomicio import TMP_SUFFIX, atomic_write
from ..browser.environment import ClientEnvironment
from ..obs.metrics import get_registry
from .experiment import ExperimentResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .runner import TrialSpec

#: Bump whenever ExperimentResult serialisation or trial semantics change
#: in a way that makes previously cached payloads stale.
CACHE_SCHEMA_VERSION = 1

_KEY_HEX_LENGTH = 64  # sha256 hexdigest


def _completeness(payload: Dict) -> "tuple[int, int]":
    """Supersede rank of a cached payload: full > longer > shorter.

    Full-length results (no ``earlystop`` block, or an audit block with
    ``truncated: false``) outrank any truncation; among truncated
    results the longer simulated horizon wins.
    """
    meta = payload.get("earlystop")
    if not meta or not meta.get("truncated"):
        return (1, 0)
    return (0, int(payload.get("duration_usec", 0)))


class CacheEntryError(RuntimeError):
    """An entry or sidecar file is not a UTF-8 JSON object, or an entry
    is one that is not a trial record (:func:`trial_record_defect`).

    Writes are atomic, so a file in this state was damaged after it
    landed (truncated copy, flipped bits, foreign writer).  The message
    names the file and the defect; nothing is ever folded from it.
    :meth:`TrialCache.put` raises it too, naming the field, for a
    result it refuses to write because no reader could read it back
    as it was.
    """


#: The fields no :class:`ExperimentResult` can be built without.
_TRIAL_FIELDS = frozenset(
    f.name
    for f in dataclasses.fields(ExperimentResult)
    if f.default is dataclasses.MISSING
    and f.default_factory is dataclasses.MISSING
)

#: Trial-record fields that must decode as signed 64-bit integers: the
#: decoder reads a wider integer as a float where ``json`` kept it exact.
_INT64_FIELDS = ("seed", "duration_usec", "buffer_packets")
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1

#: What a share decodes as (``bool`` is an ``int`` subclass, not one).
_NUMBER_TYPES = (int, float)

#: The one decoder of stored bytes - cache entries and sidecars, store
#: journal and segment lines, merge adjudication: ``orjson``'s C parser,
#: bound by name so a parse adds no Python frame.  It reads
#: :data:`encode_record`'s output back type for type (``1``, ``1.0``,
#: ``-0.0`` and ``true`` stay apart, floats round-trip exactly), and
#: ``json``'s as ``json.loads`` would, and validates UTF-8 itself, so
#: bytes go in undecoded.  It refuses ``NaN``/``Infinity``, which
#: records therefore never hold, and reads integers beyond 64 bits as
#: floats, which the entry shape check refuses where a record has
#: integers.
decode_record = orjson.loads

#: The one encoder of stored bytes - entries, sidecars, journal lines,
#: the store manifest, plans and shard manifests: orjson with sorted
#: keys, a C partial, so a call adds no Python frame.  No key, plan id
#: or published hash depends on its spelling.  It writes ``NaN`` as
#: ``null`` and integers up to 2**64-1, so writers check what a reader
#: gets back (:func:`_encode_checked`, ``fleet.plan.write_manifest``).
encode_record = functools.partial(orjson.dumps, option=orjson.OPT_SORT_KEYS)


#: One read holds an entry whole (they are a few KiB); a buffer that
#: comes back full may have more behind it.
_READ_SIZE = 1 << 16

#: What ``payload`` is before the bytes were parsed.
_UNPARSED = object()


def _read_on(fd: int, raw: bytes) -> bytes:
    """``raw`` and whatever follows it in ``fd``, read to EOF."""
    chunks = [raw]
    while chunk := os.read(fd, _READ_SIZE):
        chunks.append(chunk)
    return b"".join(chunks)


def trial_record_defect(payload) -> Optional[str]:
    """What keeps a decoded value from being a trial record, or ``None``.

    A record is an object that holds every field an
    :class:`ExperimentResult` is built from, its integer fields within
    signed 64 bits, its ``earlystop`` block, if any, an object and its
    ``mmf_share`` a number for both its ``contender_id`` and its
    ``incumbent_id``.  The cache reader
    (:func:`_read_entry`) and the service store's replay both check
    records here, each naming the file the defect is in.
    """
    if type(payload) is not dict:
        return f"found {type(payload).__name__}, not an object"
    if not _TRIAL_FIELDS <= payload.keys():
        return f"missing {', '.join(sorted(_TRIAL_FIELDS - payload.keys()))}"
    seed = payload["seed"]
    duration = payload["duration_usec"]
    packets = payload["buffer_packets"]
    if not (
        type(seed) is type(duration) is type(packets) is int
        and _INT64_MIN <= seed <= _INT64_MAX
        and _INT64_MIN <= duration <= _INT64_MAX
        and _INT64_MIN <= packets <= _INT64_MAX
    ):
        for name in _INT64_FIELDS:
            value = payload[name]
            if type(value) is not int or not _INT64_MIN <= value <= _INT64_MAX:
                return (
                    f"{name} reads as {value!r}, not a signed 64-bit integer"
                )
    earlystop = payload.get("earlystop")
    if earlystop is not None and type(earlystop) is not dict:
        return f"earlystop is {type(earlystop).__name__}, not an object"
    # Both services' shares, as numbers: a grid cell reads them.
    shares = payload.get("mmf_share")
    try:
        contender = shares[payload["contender_id"]]
        incumbent = shares[payload["incumbent_id"]]
    except (LookupError, TypeError):
        contender = incumbent = None
    if (
        type(contender) not in _NUMBER_TYPES
        or type(incumbent) not in _NUMBER_TYPES
    ):
        return (
            f"mmf_share lacks a number for contender_id "
            f"{payload['contender_id']!r} or incumbent_id "
            f"{payload['incumbent_id']!r}"
        )
    return None


def _read_entry(
    path: str, trial: bool = True, raw: Optional[bytes] = None
) -> "Optional[tuple[Dict, bytes]]":
    """The JSON object at ``path`` and the bytes it was parsed from, or
    ``None`` when no such file (read through a bare descriptor: no
    ``BufferedReader`` built per entry; the caller counts the parse).
    A caller that holds the bytes already (:func:`_encode_checked`'s
    check of what is about to be written) passes them as ``raw``, and
    ``path`` only names them.

    The file is one ``os.read`` where it fits :data:`_READ_SIZE`; a full
    buffer is read on to EOF, and so are bytes that do not parse before
    they are called damaged, so a short read is never mistaken for a
    damaged entry.

    A ``trial`` file (an entry, not a sidecar) must also be a trial
    record (:func:`trial_record_defect`); the result itself is not
    built."""
    payload = _UNPARSED
    if raw is None:
        try:
            fd = os.open(path, os.O_RDONLY)
        except FileNotFoundError:
            return None
        try:
            raw = os.read(fd, _READ_SIZE)
            if len(raw) == _READ_SIZE:
                raw = _read_on(fd, raw)
            try:
                payload = decode_record(raw)
            except ValueError:
                raw = _read_on(fd, raw)
        finally:
            os.close(fd)
    if payload is _UNPARSED:
        try:
            # orjson.JSONDecodeError is a ValueError; bad UTF-8 is one too.
            payload = decode_record(raw)
        except ValueError as exc:
            raise CacheEntryError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise CacheEntryError(
            f"{path}: expected a JSON object, found {type(payload).__name__}"
        )
    if trial:
        defect = trial_record_defect(payload)
        if defect is not None:
            raise CacheEntryError(f"{path}: not a trial record ({defect})")
    return payload, raw


def _read_json(path: str, trial: bool = True) -> Optional[Dict]:
    """The JSON object at ``path`` (see :func:`_read_entry`), or ``None``
    when no such file."""
    entry = _read_entry(path, trial)
    if entry is None:
        return None
    get_registry().counter("cache.entries_parsed").inc()
    return entry[0]


#: The shape of a trial cache key; its C ``fullmatch`` is what a
#: directory scan calls per file name, adding no Python frame.
_KEY_SHAPE = re.compile(f"[0-9a-f]{{{_KEY_HEX_LENGTH}}}")


def is_cache_key(text: str) -> bool:
    """True when ``text`` has the shape of a trial cache key."""
    return _KEY_SHAPE.fullmatch(text) is not None


def scan_cache_dir(
    directory: "str | os.PathLike[str]",
) -> "tuple[List[str], Dict[str, List[str]]]":
    """One listing of a cache directory: entry keys and their sidecars.

    Returns the sorted entry keys (``<64-hex>.json``) and, per key, the
    sorted sidecar file names (``<key>.<name>.json``).  Everything else
    - receipts, notes, ``*.tmp`` leftovers - is not part of the cache.
    """
    keys: List[str] = []
    sidecars: Dict[str, List[str]] = {}
    is_key = _KEY_SHAPE.fullmatch
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        stem = name[: -len(".json")]
        if is_key(stem):
            keys.append(stem)
        elif (
            len(stem) > _KEY_HEX_LENGTH + 1
            and stem[_KEY_HEX_LENGTH] == "."
            and is_cache_key(stem[:_KEY_HEX_LENGTH])
        ):
            sidecars.setdefault(stem[:_KEY_HEX_LENGTH], []).append(name)
    return keys, sidecars


#: Memo behind :func:`config_fields` / :func:`config_canonical_json`, by
#: ``repr`` and, in front of it, by object identity.
_CONFIG_MEMO: Dict[str, "tuple[Dict, str]"] = {}
_CONFIG_BY_ID: Dict[int, "tuple[object, tuple[Dict, str]]"] = {}
_CONFIG_MEMO_MAX = 512

#: What ``env=None`` stands for in a cache key.
_FAITHFUL_ENV = ClientEnvironment.faithful_testbed()

_CANONICAL_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), allow_nan=False
)


def canonical_json(payload) -> str:
    """``json``'s spelling of what a cache key hashes: sorted keys, no
    whitespace, ASCII, one line, through the C encoder.

    Only hashed bytes take it (the config memo, a key's service-id tail
    and a seed that is no ``int``); stored bytes take
    :data:`encode_record`.  Type-exact (``1``, ``1.0`` and ``true`` stay
    apart) and deterministic, so equal inputs give equal keys.  A
    non-finite float raises ``ValueError``.
    """
    return _CANONICAL_ENCODER.encode(payload)


def _unstorable_field(value, path: str = "") -> Optional[str]:
    """What in ``value`` no reader would get back as it is - the first
    non-finite float (:data:`encode_record` writes ``null``) or integer
    beyond signed 64 bits - as ``"<path> is <value>, not ..."``, or
    ``None``.  A key extends ``path`` as ``.key``, an index as ``[i]``."""
    if isinstance(value, float):
        return None if math.isfinite(value) else (
            f"{path} is {value!r}, not a finite number"
        )
    if isinstance(value, int):
        return None if _INT64_MIN <= value <= _INT64_MAX else (
            f"{path} is {value}, not a signed 64-bit integer"
        )
    if isinstance(value, dict):
        items = [(f"{path}.{k}" if path else k, v) for k, v in value.items()]
    elif isinstance(value, (list, tuple)):
        items = [(f"{path}[{i}]", v) for i, v in enumerate(value)]
    else:
        return None
    found = (_unstorable_field(v, at) for at, v in items)
    return next(filter(None, found), None)


def _encode_checked(payload: Dict, path: str, trial: bool) -> bytes:
    """:data:`encode_record` of ``payload``, read back as ``path`` would
    be (:func:`_read_entry`); what would not read back equal is a
    :class:`CacheEntryError` naming the field, and nothing is written."""
    refused = f"{path} (not written)"
    try:
        encoded = encode_record(payload)
    except TypeError as exc:  # beyond 64 bits, a key that is no str, ...
        reason = str(exc)
    else:
        if _read_entry(refused, trial, encoded)[0] == payload:
            return encoded
        reason = "it does not read back as written"
    raise CacheEntryError(f"{refused}: {_unstorable_field(payload) or reason}")


def _config_memo(config) -> "tuple[Dict, str]":
    """``(asdict, canonical JSON)`` of one frozen config dataclass.

    A cycle derives thousands of keys over a handful of distinct
    configs, so both forms are computed once per distinct value.  The
    memo is keyed on ``repr``, not on the dataclass itself: ``==``/
    ``hash`` conflate ``8e6`` with ``8000000`` and ``True`` with ``1``,
    whose JSON - and therefore cache key - differ, while ``repr`` is
    type-exact.  A cycle also passes the *same* few objects thousands of
    times, so an identity table sits in front: it holds each object it
    indexes, so an id in it cannot be reused (and frozen configs do not
    change under their id).  Bounded: at the cap a table starts over.
    """
    pinned = _CONFIG_BY_ID.get(id(config))
    if pinned is not None:
        return pinned[1]
    token = repr(config)
    memo = _CONFIG_MEMO.get(token)
    if memo is None:
        fields = dataclasses.asdict(config)
        memo = (fields, canonical_json(fields))
        if len(_CONFIG_MEMO) >= _CONFIG_MEMO_MAX:
            _CONFIG_MEMO.clear()
        _CONFIG_MEMO[token] = memo
    if len(_CONFIG_BY_ID) >= _CONFIG_MEMO_MAX:
        _CONFIG_BY_ID.clear()
    _CONFIG_BY_ID[id(config)] = (config, memo)
    return memo


def config_fields(config) -> Dict:
    """``dataclasses.asdict`` of a frozen config dataclass, memoised.

    Returns a fresh dict per call (field order preserved), so callers
    may embed and mutate it freely; the config dataclasses hold only
    scalar fields, so the copy is shallow.
    """
    return dict(_config_memo(config)[0])


def config_canonical_json(config) -> str:
    """Sorted-key compact JSON of a frozen config dataclass, memoised."""
    return _config_memo(config)[1]


#: Memos behind :func:`trial_cache_keys`: the SHA-256 state of a key's
#: prefix per ``(config, env, network)`` object triple - each entry holds
#: the three objects, so an id in it cannot be reused - and the encoded
#: tail per service-id tuple.  Bounded like the config memo.
_PREFIX_BY_IDS: Dict["tuple[int, int, int]", tuple] = {}
_IDS_TAILS: Dict["tuple[str, ...]", bytes] = {}
_IDS_TAILS_MAX = 4096


def _key_prefix(config, env: ClientEnvironment, network) -> tuple:
    """``(sha256 of a key's canonical JSON up to its seed, the three
    objects)``, memoised under their ids."""
    prefix = (
        '{"config":'
        + config_canonical_json(config)
        + ',"env":'
        + config_canonical_json(env)
        + ',"network":'
        + config_canonical_json(network)
        + f',"schema":{CACHE_SCHEMA_VERSION},"seed":'
    )
    pinned = (hashlib.sha256(prefix.encode("utf-8")), config, env, network)
    if len(_PREFIX_BY_IDS) >= _CONFIG_MEMO_MAX:
        _PREFIX_BY_IDS.clear()
    _PREFIX_BY_IDS[(id(config), id(env), id(network))] = pinned
    return pinned


def _ids_tail(service_ids: "tuple[str, ...]") -> bytes:
    """``,"service_ids":[...]}`` - what follows the seed in a key's
    canonical JSON.  Only all-``str`` tuples are memoised: nothing but a
    string equals one, so a hit cannot conflate ``1`` with ``True``."""
    tail = (
        ',"service_ids":' + canonical_json(list(service_ids)) + "}"
    ).encode("utf-8")
    if all(type(sid) is str for sid in service_ids):
        if len(_IDS_TAILS) >= _IDS_TAILS_MAX:
            _IDS_TAILS.clear()
        _IDS_TAILS[service_ids] = tail
    return tail


def trial_cache_keys(
    specs: "Sequence[TrialSpec]", env: Optional[ClientEnvironment] = None
) -> List[str]:
    """Stable content hash addressing each deterministic trial, in order.

    A key covers everything that feeds the simulation: service ids (in
    order - order decides per-service seed derivation), the full network
    and experiment configs, the trial seed, the client environment
    (``None`` normalises to the faithful testbed, which is what service
    builders substitute for it), and the cache schema version.

    The digest is over the sorted-key compact JSON of those six fields
    (``tests/naive_cache_key.py`` builds that string whole).  Sorted,
    the three config objects and the schema come first, so their part is
    hashed once per object triple and every key resumes a copy of that
    SHA-256 state with the seed and the service ids
    (``config`` < ``env`` < ``network`` < ``schema`` < ``seed`` <
    ``service_ids``).

    The faithful-environment key is derived once per spec *object* and
    kept on it (:attr:`TrialSpec._cache_key`; the spec is immutable, so
    the memo cannot go stale).  An explicit ``env`` neither reads nor
    writes the memo.  ``cache.keys_derived`` moves once per batch, by
    the keys actually derived (a memo hit is none).
    """
    faithful = env is None
    resolved_env = env or _FAITHFUL_ENV
    keys: List[str] = []
    derived = 0
    try:
        for spec in specs:
            if faithful:
                key = spec._cache_key
                if key is not None:
                    keys.append(key)
                    continue
            config, network = spec.config, spec.network
            pinned = _PREFIX_BY_IDS.get(
                (id(config), id(resolved_env), id(network))
            )
            if pinned is None:
                pinned = _key_prefix(config, resolved_env, network)
            service_ids, seed = spec.service_ids, spec.seed
            tail = _IDS_TAILS.get(service_ids)
            if tail is None:
                tail = _ids_tail(service_ids)
            digest = pinned[0].copy()
            # ``str`` of an ``int`` is its JSON; a bool or float seed is
            # not one.
            seed_json = str(seed) if type(seed) is int else canonical_json(seed)
            digest.update(seed_json.encode("ascii") + tail)
            key = digest.hexdigest()
            derived += 1
            if faithful:
                object.__setattr__(spec, "_cache_key", key)
            keys.append(key)
    finally:
        if derived:
            get_registry().counter("cache.keys_derived").inc(derived)
    return keys


def trial_cache_key(
    spec: "TrialSpec", env: Optional[ClientEnvironment] = None
) -> str:
    """The :func:`trial_cache_keys` key of one spec."""
    return trial_cache_keys((spec,), env)[0]


class CachedTrial:
    """A trial :meth:`TrialCache.read` served: key, payload, the bytes it
    was parsed from (``None`` when served from memory), result object.

    The result object is built from the payload on first use: a reader
    that only needs to know the trial is recorded (``fleet run-shard``)
    never builds one.
    """

    __slots__ = ("key", "payload", "raw", "_result")

    def __init__(
        self,
        key: str,
        payload: Dict,
        raw: Optional[bytes],
        result: Optional[ExperimentResult] = None,
    ) -> None:
        self.key = key
        self.payload = payload
        self.raw = raw
        self._result = result

    @property
    def result(self) -> ExperimentResult:
        """The payload as an :class:`ExperimentResult`, built once."""
        if self._result is None:
            self._result = ExperimentResult.from_json(self.payload)
        return self._result


class TrialCache:
    """Content-addressed store of simulated trial results: one directory
    of immutable entries.

    Every entry is one ``<digest>.json`` file in ``cache_dir``, so
    caches are shareable between processes and survive restarts.  An
    in-memory index of the payloads this instance read or wrote sits in
    front of the directory, so repeated hits never re-read files
    (``test_repeated_hits_never_reread_files`` in
    ``tests/test_control_plane_budget.py``); it holds payloads, never
    the bytes :meth:`read` hands over with them.  Reading never writes:
    a hit needs only read permission on the entry and leaves its
    metadata as it was (``test_a_read_never_writes`` in
    ``tests/test_runner_and_cache.py``).
    """

    def __init__(self, cache_dir: "str | os.PathLike[str]") -> None:
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        #: ``<cache_dir>/``: an entry's path is one concatenation.
        self._prefix = os.path.join(self.cache_dir, "")
        self._memory: Dict[str, Dict] = {}
        self._sidecar_memory: Dict["tuple[str, str]", Dict] = {}
        self.hits = 0
        self.misses = 0
        self.stores = 0

    # ------------------------------------------------------------------
    # Lookup / insert
    # ------------------------------------------------------------------

    def read(
        self,
        specs: "Sequence[TrialSpec]",
        env: Optional[ClientEnvironment] = None,
        allow_truncated: bool = False,
    ) -> List[Optional[CachedTrial]]:
        """The recorded trial for each spec, in order, or ``None`` where
        the cache has nothing admissible: the one loop that reads entries.

        Early-terminated entries (``earlystop.truncated``; see
        :mod:`repro.core.earlystop`) only count as hits when the caller
        opts in with ``allow_truncated`` - a run without the feature
        treats them as misses, re-simulates full-length, and the
        resulting :meth:`put` supersedes the truncated entry.  Every
        entry read is parsed and checked to be a trial record here; a
        hit's :attr:`CachedTrial.result` is built only when asked for.
        Hits, misses and parses are counted once per batch, exactly: a
        :class:`CacheEntryError` leaves them counting the specs before it.
        """
        memory = self._memory
        prefix = self._prefix
        records: List[Optional[CachedTrial]] = []
        parsed = 0
        keys = trial_cache_keys(specs, env)
        try:
            for key in keys:
                payload, raw = memory.get(key), None
                if payload is None:
                    entry = _read_entry(prefix + key + ".json")
                    if entry is not None:
                        payload, raw = entry
                        memory[key] = payload
                        parsed += 1
                if payload is None or (
                    not allow_truncated
                    and (payload.get("earlystop") or {}).get("truncated")
                ):
                    records.append(None)
                    continue
                records.append(CachedTrial(key, payload, raw))
        finally:
            misses = records.count(None)
            self.hits += len(records) - misses
            self.misses += misses
            registry = get_registry()
            registry.counter("cache.hits").inc(len(records) - misses)
            registry.counter("cache.misses").inc(misses)
            registry.counter("cache.entries_parsed").inc(parsed)
        return records

    def get(
        self,
        spec: "TrialSpec",
        env: Optional[ClientEnvironment] = None,
        allow_truncated: bool = False,
    ) -> Optional[ExperimentResult]:
        """The result :meth:`read` serves for ``spec``, or ``None``."""
        record = self.read([spec], env, allow_truncated)[0]
        return None if record is None else record.result

    def put(
        self,
        spec: "TrialSpec",
        result: ExperimentResult,
        env: Optional[ClientEnvironment] = None,
    ) -> None:
        """Record one simulated trial under its content address.

        The entry is the result's :data:`encode_record`: one line, the
        bytes a service journal later adopts as they are.  A result that
        would not read back as written - a non-finite float, an integer
        field beyond signed 64 bits - is refused with a
        :class:`CacheEntryError` naming the field, and nothing is
        written (:func:`_encode_checked`).

        Full-length results always supersede truncated ones: a put never
        replaces an existing entry with a *less* complete result for the
        same key (truncated over full, or a shorter truncation horizon
        over a longer one).  Deterministic re-runs of equal completeness
        rewrite the identical bytes, so last-writer-wins is safe there.
        """
        key = trial_cache_key(spec, env)
        payload = result.to_json()
        path = self._path(key)
        encoded = _encode_checked(payload, path, trial=True)
        existing = self._memory.get(key)
        if existing is None:
            existing = _read_json(path)
        if existing is not None and _completeness(payload) < _completeness(
            existing
        ):
            return
        self._memory[key] = payload
        self.stores += 1
        atomic_write(path, encoded)
        registry = get_registry()
        registry.counter("cache.stores").inc()
        registry.counter("cache.bytes_written").inc(len(encoded))

    # ------------------------------------------------------------------
    # Sidecars: auxiliary artifacts content-addressed to an entry
    # ------------------------------------------------------------------
    #
    # A sidecar lives at ``<key>.<name>.json``; its stem is longer than
    # 64 hex chars, so ``is_cache_key`` rejects it and every entry scan
    # (``scan_cache_dir``'s key list) ignores it by construction.  Flight
    # recordings (repro.obs.flight) are the first sidecar kind; payloads
    # carry their own schema version.

    def put_sidecar(self, key: str, name: str, payload: Dict) -> None:
        """Attach an auxiliary JSON object to a cache entry's key, as
        :data:`encode_record` bytes; what would not read back as written
        is refused naming the field (:func:`_encode_checked`)."""
        if not is_cache_key(key):
            raise ValueError(f"not a cache key: {key!r}")
        path = self._sidecar_path(key, name)
        encoded = _encode_checked(payload, path, trial=False)
        self._sidecar_memory[(key, name)] = payload
        atomic_write(path, encoded)
        get_registry().counter("cache.sidecar_bytes_written").inc(len(encoded))

    def get_sidecar(self, key: str, name: str) -> Optional[Dict]:
        """The sidecar payload for ``key``, or ``None`` if absent."""
        payload = self._sidecar_memory.get((key, name))
        if payload is None:
            payload = _read_json(self._sidecar_path(key, name), trial=False)
            if payload is not None:
                self._sidecar_memory[(key, name)] = payload
        return payload

    def sidecar_keys(self, name: str) -> List[str]:
        """Entry keys that carry a sidecar of this kind, sorted."""
        suffix = f".{name}.json"
        stems = (
            path.name[: -len(suffix)]
            for path in self.cache_dir.glob(f"*{suffix}")
        )
        return sorted(stem for stem in stems if is_cache_key(stem))

    def _sidecar_path(self, key: str, name: str) -> str:
        return f"{self._prefix}{key}.{name}.json"

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def contains_key(self, key: str) -> bool:
        """True when an entry for this precomputed key is present."""
        return key in self._memory or os.path.exists(self._path(key))

    def payload_for(self, key: str) -> Optional[Dict]:
        """The raw cached payload for ``key``, or ``None`` if absent.

        Offline consumers (e.g. ``repro earlystop fit``) read payloads
        by key to pair entries with their sidecars without re-deriving
        trial specs.
        """
        payload = self._memory.get(key)
        return _read_json(self._path(key)) if payload is None else payload

    def keys(self) -> Iterator[str]:
        """Iterate every entry key in the directory, sorted."""
        return iter(scan_cache_dir(self.cache_dir)[0])

    def __len__(self) -> int:
        return len(scan_cache_dir(self.cache_dir)[0])

    def clear(self) -> None:
        """Drop every entry and sidecar (memory and disk) and reset
        counters."""
        keys, sidecars = scan_cache_dir(self.cache_dir)
        for name in [f"{key}.json" for key in keys] + [
            name for names in sidecars.values() for name in names
        ]:
            os.unlink(self._prefix + name)
        # Temporaries a killed writer left behind (repro.atomicio).
        for path in self.cache_dir.glob(f"*{TMP_SUFFIX}"):
            path.unlink()
        self._memory.clear()
        self._sidecar_memory.clear()
        self.hits = self.misses = self.stores = 0

    def _path(self, key: str) -> str:
        return self._prefix + key + ".json"
