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
once: :meth:`TrialCache.put` appends it to a record log, and the
rolling store (:mod:`repro.service.store`) keeps that log itself, a hard
link to it, and reads the record back by key
(:meth:`TrialCache.read_keys`).
``json`` (:func:`canonical_json`) spells only what a key hashes.
Reading is laxer than writing: any line holding one JSON object is a
record - an older writer's ``json``-spelled one, a foreign writer's -
and only its spelling differs, which ``fleet merge`` treats as a
duplicate, not as divergence.

A cache is one directory, and directories are also the unit of
*transport* for fleet operation (:mod:`repro.fleet`): shard workers write
disjoint cache directories that the merger unions back together.  Its
records live in *record logs*, ``records-<pid>-<token>.log``: each
:class:`TrialCache` that writes creates one at its first :meth:`put`
and appends every record to it as one line, ``<key> <record>\\n``, in
one ``os.write``.  A log has one writer, which only ever appends, so a
log's complete lines never change: ``fleet merge`` hard-links whole
logs between directories, and a reader may index a log once and later
read only what grew at its tail.  A final line without its newline is
a write in progress or a torn one (a writer killed mid-write, a short
write - after which that writer opens a new log and never appends to
the torn one again); readers leave it unindexed, so it is a miss, never
damage.  A record's sidecars (a trial's flight recording) are
``<key>.<name> <sidecar>\\n`` lines of the same write, just before it
(:meth:`TrialCache.put`).  Anything else in the directory (receipts,
notes) is ignored, except a ``<64-hex>[.<name>].json`` file of the
per-file layout this cache replaced: a directory holding one is refused
by name (a cache can be re-derived; it is never half read).

Every lookup is one batch :meth:`TrialCache.read` (``get`` reads one).
A reader indexes the directory's logs - key to line, no bytes kept -
the first time a batch misses its index, and again only on a later miss
(new logs, grown tails).  A hit costs what it must: the key is derived
once per spec object (:func:`trial_cache_keys`, which hashes only the
seed and service ids on top of a memoised SHA-256 state), the line's
bytes come from the read that indexed it (or one ``pread``), and are
parsed once by :data:`decode_record`, the C parser
(``cache.keys_derived`` / ``cache.entries_parsed`` count both, once per
batch).  A key with several lines (a truncated result and the
full-length run that superseded it, or the same record in two merged
logs) reads as its most complete one (:func:`_completeness`; among
equals the smallest bytes), served with the sidecars of a line as
complete as it.  A record that is not a UTF-8 JSON object,
or one without a trial record's fields, raises :class:`CacheEntryError`
naming the log, the line and the key: it is never a miss and never a
result.  The :class:`~repro.core.experiment.ExperimentResult` is built
from the payload only when a caller asks for
:attr:`CachedTrial.result` - a shard worker, which only needs its
trials recorded, never does.

Nothing writes to a line once it has landed, a read included: a read
opens logs read-only and touches neither their bytes nor their
metadata, so it needs only read permission, and a hit in a merged cache
leaves the shard directory it was linked from as it was.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import os
import re
import secrets
import weakref
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence

import orjson

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
    """A record or sidecar is not a UTF-8 JSON object, a record is one
    that is not a trial record (:func:`trial_record_defect`), a log line
    is neither ``<key> <record>`` nor ``<key>.<name> <sidecar>``, or a
    directory holds the files of an older, per-file cache layout.

    Lines are appended whole and never rewritten, so a line in this
    state was damaged after it landed (truncated copy, flipped bits,
    foreign writer).  The message names the log, the line and the key
    (a sidecar's, its name too) and the defect; nothing is ever folded
    from it.  :meth:`TrialCache.put` raises it too, naming the
    field, for a result it refuses to write because no reader could
    read it back as it was.
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

#: The one decoder of stored bytes - cache records and sidecars, store
#: commit lines, merge adjudication: ``orjson``'s C parser,
#: bound by name so a parse adds no Python frame.  It reads
#: :data:`encode_record`'s output back type for type (``1``, ``1.0``,
#: ``-0.0`` and ``true`` stay apart, floats round-trip exactly), and
#: ``json``'s as ``json.loads`` would, and validates UTF-8 itself, so
#: bytes go in undecoded.  It refuses ``NaN``/``Infinity``, which
#: records therefore never hold, and reads integers beyond 64 bits as
#: floats, which the entry shape check refuses where a record has
#: integers.
decode_record = orjson.loads

#: The one encoder of stored bytes - entries, sidecars, the store's
#: commit lines, plans and shard manifests: orjson with sorted
#: keys, a C partial, so a call adds no Python frame.  No key, plan id
#: or published hash depends on its spelling.  It writes ``NaN`` as
#: ``null`` and integers up to 2**64-1, so writers check what a reader
#: gets back (:func:`_encode_checked`, ``fleet.plan.write_manifest``).
encode_record = functools.partial(orjson.dumps, option=orjson.OPT_SORT_KEYS)


#: A read that came back short is read on in pieces of this size.
_READ_SIZE = 1 << 16

#: A record log's name is ``records-<pid>-<token>.log``.
LOG_PREFIX = "records-"
LOG_SUFFIX = ".log"

#: Where a log line's record starts: after the key and one space.
_RECORD_START = _KEY_HEX_LENGTH + 1

#: A sidecar's name, and a sidecar line's head, ``<key>.<name> ``.
_SIDECAR_NAME = re.compile("[a-z][a-z0-9_]*")
_SIDECAR_HEAD = re.compile(rb"([0-9a-f]{64})\.([a-z][a-z0-9_]*) ")

#: An entry or sidecar file of the per-file layout, which is refused.
_PER_FILE = re.compile(r"[0-9a-f]{64}(\..+)?\.json")


def _read_to_end(fd: int, offset: int = 0) -> bytes:
    """What ``fd`` holds from ``offset`` on: one read of the size
    ``fstat`` reports; a read that comes back short is read on until
    one comes back empty.  (Bytes appended after the ``fstat`` are left
    for the next read: a log's reader finds them on its next miss.)"""
    size = os.fstat(fd).st_size - offset
    if size <= 0:
        return b""
    if offset:
        os.lseek(fd, offset, os.SEEK_SET)
    data = os.read(fd, size)
    if len(data) == size:
        return data
    chunks = [data]
    while chunk := os.read(fd, _READ_SIZE):
        chunks.append(chunk)
    return b"".join(chunks)


def trial_record_defect(payload) -> Optional[str]:
    """What keeps a decoded value from being a trial record, or ``None``.

    A record is an object that holds every field an
    :class:`ExperimentResult` is built from, its integer fields within
    signed 64 bits, its ``earlystop`` block, if any, an object and its
    ``mmf_share`` a number for both its ``contender_id`` and its
    ``incumbent_id``.  The cache reader (:meth:`TrialCache.read`,
    through :func:`_decode`) and the service store's replay both check
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


def _decode(raw: bytes, trial: bool = True) -> Dict:
    """The JSON object ``raw`` holds, or a :class:`CacheEntryError`
    saying what it is instead; the caller names where ``raw`` came from
    (the caller counts the parse, too).  A ``trial`` record (not a
    sidecar) must also be a trial record (:func:`trial_record_defect`);
    the result itself is not built."""
    try:
        payload = decode_record(raw)
    except ValueError as exc:  # orjson.JSONDecodeError; bad UTF-8 too
        raise CacheEntryError(f"not valid JSON ({exc})") from exc
    if type(payload) is not dict:
        raise CacheEntryError(
            f"expected a JSON object, found {type(payload).__name__}"
        )
    if trial:
        defect = trial_record_defect(payload)
        if defect is not None:
            raise CacheEntryError(f"not a trial record ({defect})")
    return payload


#: The shape of a trial cache key; its C ``fullmatch`` is what a
#: directory scan calls per file name, adding no Python frame.
_KEY_SHAPE = re.compile(f"[0-9a-f]{{{_KEY_HEX_LENGTH}}}")


def is_cache_key(text: str) -> bool:
    """True when ``text`` has the shape of a trial cache key."""
    return _KEY_SHAPE.fullmatch(text) is not None


def _list_cache_dir(directory: str) -> List[str]:
    """The record logs of a cache directory, sorted.  Everything else -
    receipts, notes - is not part of the cache, except a file of the
    per-file layout (``<64-hex>.json``, ``<64-hex>.<name>.json``), which
    is refused: this cache reads record logs only."""
    logs: List[str] = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(LOG_SUFFIX):
            if name.startswith(LOG_PREFIX):
                logs.append(name)
        elif old := _PER_FILE.fullmatch(name):
            raise CacheEntryError(
                f"{os.path.join(directory, name)}: a per-file cache "
                f"{'sidecar' if old[1] else 'entry'} - this cache reads "
                f"record logs ({LOG_PREFIX}*{LOG_SUFFIX}) only; re-derive "
                "the cache into a fresh directory"
            )
    return logs


class _LogIndex:
    """Where each key's lines are in one cache directory's record logs.

    ``spans`` maps a key to ``(log name, start, end)`` of the first
    record line found for it (its record is ``log[start:end]``),
    ``extra`` a key with more record lines to the rest, ``sidecars`` a
    key with sidecars to ``(record span, name, sidecar span)`` of each
    sidecar line its record line follows, and ``sizes`` each log seen
    to the bytes indexed so far: through its last record line, so a
    torn or in-flight tail is left for a later :meth:`scan`.  Offsets
    only: the bytes a scan read are handed to its caller and not kept.
    """

    __slots__ = (
        "directory", "prefix", "listed", "sizes", "spans", "extra", "sidecars"
    )

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.prefix = os.path.join(directory, "")
        self.listed = False
        self.sizes: Dict[str, int] = {}
        self.spans: Dict[str, "tuple[str, int, int]"] = {}
        self.extra: Dict[str, List["tuple[str, int, int]"]] = {}
        self.sidecars: Dict[str, List[tuple]] = {}

    def scan(self) -> Dict[str, bytes]:
        """Index what landed since the last scan - new logs, grown
        tails - and return the records it read, by key (the last line
        read for a key).  Sidecar lines no record line of their key
        follows (a torn group, a foreign log) are never served."""
        logs = _list_cache_dir(self.directory)
        self.listed = True
        sizes, spans, extra = self.sizes, self.spans, self.extra
        fresh: Dict[str, bytes] = {}
        is_key = _KEY_SHAPE.fullmatch
        sidecar_head = _SIDECAR_HEAD.match
        for name in logs:
            base = sizes.get(name, 0)
            fd = os.open(self.prefix + name, os.O_RDONLY)
            try:
                data = _read_to_end(fd, base)
            finally:
                os.close(fd)
            end = data.rfind(b"\n") + 1
            indexed = 0
            pending: List[tuple] = []
            pos = 0
            while pos < end:
                stop = data.index(b"\n", pos)
                key = data[pos : pos + _KEY_HEX_LENGTH].decode("latin-1")
                if (
                    data[pos + _KEY_HEX_LENGTH : pos + _RECORD_START] != b" "
                    or not is_key(key)
                ):
                    head = sidecar_head(data, pos, stop)
                    if head is None:
                        raise CacheEntryError(
                            f"{self.at((name, base + pos, base + stop))}: "
                            "not '<key> <record>' or '<key>.<name> "
                            "<sidecar>' (no cache key at its start)"
                        )
                    at = (name, base + head.end(), base + stop)
                    pending.append((key, head[2].decode("ascii"), at))
                    pos = stop + 1
                    continue
                span = (name, base + pos + _RECORD_START, base + stop)
                if key in spans:
                    extra.setdefault(key, []).append(span)
                else:
                    spans[key] = span
                if pending:
                    self.sidecars.setdefault(key, []).extend(
                        (span, side, at) for owner, side, at in pending
                        if owner == key
                    )
                    pending = []
                fresh[key] = data[pos + _RECORD_START : stop]
                pos = indexed = stop + 1
            sizes[name] = base + indexed
        return fresh

    def line(self, span: "tuple[str, int, int]") -> bytes:
        """The record or sidecar at ``span``, read from its log."""
        name, start, end = span
        fd = os.open(self.prefix + name, os.O_RDONLY)
        try:
            return os.pread(fd, end - start, start)
        finally:
            os.close(fd)

    def at(self, span: "tuple[str, int, int]") -> str:
        """``<log path>: line <n>``: where ``span`` is, for an error."""
        path = self.prefix + span[0]
        return f"{path}: line {_line_number(path, span[1])}"

    def damaged(
        self, key: str, span: "tuple[str, int, int]", exc: CacheEntryError
    ) -> CacheEntryError:
        """``exc`` as raised by :func:`_decode`, naming where it is."""
        return CacheEntryError(f"{self.at(span)}, key {key}: {exc}")

    def record(self, key: str) -> "tuple[Dict, bytes, int]":
        """``(payload, bytes, lines parsed)`` of ``key``'s most complete
        line (:func:`_completeness`; among equals the smallest bytes;
        equal lines are parsed once)."""
        seen: Dict[bytes, Dict] = {}
        for span in (self.spans[key], *self.extra.get(key, ())):
            raw = self.line(span)
            if raw not in seen:
                try:
                    seen[raw] = _decode(raw)
                except CacheEntryError as exc:
                    raise self.damaged(key, span, exc) from exc
        raw, payload = max(
            sorted(seen.items()), key=lambda item: _completeness(item[1])
        )
        return payload, raw, len(seen)

    def sidecar_spans(self, key: str) -> Dict[str, tuple]:
        """``{name: span}`` of the sidecars served with ``key``'s
        :meth:`record`: those of lines as complete as it (a truncated
        run never lends its recording), the first in log order per name."""
        attached = self.sidecars.get(key, ())
        if attached and key in self.extra:
            payload, _raw, parsed = self.record(key)
            ranked = [
                (_completeness(_decode(self.line(item[0]))), item)
                for item in attached
            ]
            get_registry().counter("cache.entries_parsed").inc(
                parsed + len(ranked)
            )
            best = _completeness(payload)
            attached = [item for rank, item in ranked if rank == best]
        found: Dict[str, tuple] = {}
        for _span, name, at in sorted(attached):
            found.setdefault(name, at)
        return found

    def bytes_of(
        self, key: str, fresh: Optional[Dict[str, bytes]] = None
    ) -> bytes:
        """The bytes of the line :meth:`record` reads for ``key``; a key
        with one line is not parsed."""
        if key in self.extra:
            return self.record(key)[1]
        raw = fresh.get(key) if fresh else None
        return self.line(self.spans[key]) if raw is None else raw


def _line_number(path: str, offset: int) -> int:
    """The 1-based number of the line of ``path`` holding ``offset``
    (for naming a damaged line; never on a hit's path)."""
    with open(path, "rb") as handle:
        return handle.read(offset).count(b"\n") + 1


def scan_cache_dir(
    directory: "str | os.PathLike[str]",
) -> "tuple[List[str], Dict[str, List[str]]]":
    """One reading of a cache directory: the keys its record logs hold,
    sorted, and per key the sorted names of its served sidecars."""
    index = _LogIndex(os.fspath(directory))
    index.scan()
    return sorted(index.spans), {
        key: sorted(index.sidecar_spans(key)) for key in index.sidecars
    }


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
    """:data:`encode_record` of ``payload``, read back as a reader would
    (:func:`_decode`); what would not read back equal is a
    :class:`CacheEntryError` naming ``path`` and the field, and nothing
    is written."""
    refused = f"{path} (not written)"
    try:
        encoded = encode_record(payload)
    except TypeError as exc:  # beyond 64 bits, a key that is no str, ...
        reason = str(exc)
    else:
        try:
            if _decode(encoded, trial) == payload:
                return encoded
        except CacheEntryError as exc:
            raise CacheEntryError(f"{refused}: {exc}") from exc
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
    of append-only record logs.

    Every record is one line of a ``records-<pid>-<token>.log`` in
    ``cache_dir``, so caches are shareable between processes and survive
    restarts; this instance appends to a log of its own, created at its
    first :meth:`put`, which also writes a record's sidecars.  An
    in-memory table of the payloads this instance read or wrote sits in
    front of the logs, so repeated hits never
    re-read them (``test_repeated_hits_never_reread_files`` in
    ``tests/test_control_plane_budget.py``); it holds payloads, never
    the bytes :meth:`read` hands over with them.  Reading never writes:
    a hit needs only read permission on the logs and leaves their
    metadata as it was (``test_a_read_never_writes`` in
    ``tests/test_runner_and_cache.py``).
    """

    def __init__(self, cache_dir: "str | os.PathLike[str]") -> None:
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        #: ``<cache_dir>/``: a path in a message is one concatenation.
        self._prefix = os.path.join(self.cache_dir, "")
        self._index = _LogIndex(os.fspath(self.cache_dir))
        #: ``(fd, pid, closer)`` of this instance's log, once it has one.
        self._log: Optional[tuple] = None
        self._memory: Dict[str, Dict] = {}
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
        the cache has nothing admissible: :meth:`read_keys` of the specs'
        keys (:func:`trial_cache_keys`).
        """
        return self.read_keys(trial_cache_keys(specs, env), allow_truncated)

    def read_keys(
        self, keys: Sequence[str], allow_truncated: bool = False
    ) -> List[Optional[CachedTrial]]:
        """The recorded trial for each key, in order, or ``None`` where
        the cache has nothing admissible: the one loop that reads records.

        Early-terminated records (``earlystop.truncated``; see
        :mod:`repro.core.earlystop`) only count as hits when the caller
        opts in with ``allow_truncated`` - a run without the feature
        treats them as misses, re-simulates full-length, and the
        resulting :meth:`put` supersedes the truncated record.  The
        first key of a batch the index lacks re-indexes the logs (new
        ones, grown tails), once.  Every record read is parsed and
        checked to be a trial record here; a hit's
        :attr:`CachedTrial.result` is built only when asked for.  Hits,
        misses and parses are counted once per batch, exactly: a
        :class:`CacheEntryError` leaves them counting the keys before it.
        """
        memory = self._memory
        index = self._index
        spans, extra = index.spans, index.extra
        records: List[Optional[CachedTrial]] = []
        parsed = 0
        fresh: Optional[Dict[str, bytes]] = None
        try:
            for key in keys:
                payload, raw = memory.get(key), None
                if payload is None:
                    if fresh is None and key not in spans:
                        fresh = index.scan()
                    span = spans.get(key)
                    if span is not None:
                        if key in extra:
                            payload, raw, count = index.record(key)
                            parsed += count
                        else:
                            # index.record, inline: this runs per hit.
                            raw = fresh.get(key) if fresh else None
                            if raw is None:
                                raw = index.line(span)
                            try:
                                payload = _decode(raw)
                            except CacheEntryError as exc:
                                raise index.damaged(key, span, exc) from exc
                            parsed += 1
                        memory[key] = payload
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
        sidecars: Optional[Dict[str, Dict]] = None,
    ) -> None:
        """Record one simulated trial under its content address, with
        its ``sidecars`` (name -> JSON object, e.g. a flight recording).

        The record is the result's :data:`encode_record`: one line, in
        the log a service store later adopts as it is, appended to
        this instance's log in one ``os.write`` after a ``<key>.<name>
        <sidecar>`` line per sidecar.  A sidecar name that is not
        ``[a-z][a-z0-9_]*`` is a ``ValueError``; a result or sidecar that
        would not read back as written - a non-finite float, an integer
        field beyond signed 64 bits - a :class:`CacheEntryError` naming
        the field (:func:`_encode_checked`).  Either way nothing is
        written.

        Only what is more complete than the record the cache holds for
        the key is appended (full-length over truncated, a longer
        truncation horizon over a shorter one): a deterministic re-run
        writes nothing, its sidecars included, so a cache hit keeps the
        recording it was written with.  What the cache holds is this
        instance's memory, else the logs as its index saw them (indexed
        at the first put if no read did it first, and not re-indexed per
        put: a line another writer appended since is not seen, and
        readers read the more complete of the two lines either way).  A
        write that lands short leaves a torn final line, which readers
        treat as absent; the log takes no more lines and the ``OSError``
        propagates.
        """
        key = trial_cache_key(spec, env)
        where = f"{self._prefix}{key}"
        payload = result.to_json()
        encoded = _encode_checked(payload, where, trial=True)
        head = key.encode("ascii")
        lines = []
        for name, sidecar in (sidecars or {}).items():
            if type(name) is not str or not _SIDECAR_NAME.fullmatch(name):
                raise ValueError(
                    f"{where}: sidecar name {name!r} is not [a-z][a-z0-9_]*"
                )
            lines.append(b"%b.%b %b\n" % (
                head,
                name.encode("ascii"),
                _encode_checked(sidecar, f"{where}.{name}", trial=False),
            ))
        existing = self._memory.get(key)
        if existing is None:
            index = self._index
            if not index.listed:
                index.scan()
            if key in index.spans:
                existing = self._load(key)
        if existing is not None and _completeness(payload) <= _completeness(
            existing
        ):
            return
        lines.append(b"%b %b\n" % (head, encoded))
        data = b"".join(lines)
        log = self._log
        if log is None or log[1] != os.getpid():
            log = self._open_log()
        written = os.write(log[0], data)
        if written != len(data):
            log[2]()  # close: a torn line ends this log
            self._log = None
            raise OSError(
                f"{where}: short write to a record log ({written} of "
                f"{len(data)} bytes); the record is not stored"
            )
        self._memory[key] = payload
        self.stores += 1
        registry = get_registry()
        registry.counter("cache.stores").inc()
        registry.counter("cache.bytes_written").inc(len(data))

    def _open_log(self) -> tuple:
        """Create this instance's record log (a new one after a fork)."""
        pid = os.getpid()
        path = (
            f"{self._prefix}{LOG_PREFIX}{pid}-{secrets.token_hex(4)}"
            f"{LOG_SUFFIX}"
        )
        fd = os.open(
            path, os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_APPEND, 0o644
        )
        self._log = (fd, pid, weakref.finalize(self, os.close, fd))
        return self._log

    def _load(self, key: str) -> Dict:
        """The indexed record of ``key``, parsed, counted and held."""
        payload, _raw, parsed = self._index.record(key)
        get_registry().counter("cache.entries_parsed").inc(parsed)
        self._memory[key] = payload
        return payload

    # ------------------------------------------------------------------
    # Sidecars: auxiliary objects written with a record (``put``)
    # ------------------------------------------------------------------

    def get_sidecar(self, key: str, name: str) -> Optional[Dict]:
        """The ``name`` sidecar served with ``key``'s record as the logs
        hold it now, or ``None``; a damaged one is a
        :class:`CacheEntryError` naming its log, line, key and name."""
        index = self._index
        index.scan()
        span = index.sidecar_spans(key).get(name)
        if span is None:
            return None
        try:
            payload = _decode(index.line(span), trial=False)
        except CacheEntryError as exc:
            raise index.damaged(f"{key}, sidecar {name}", span, exc) from exc
        get_registry().counter("cache.entries_parsed").inc()
        return payload

    def sidecar_keys(self, name: str) -> List[str]:
        """Keys whose record is served with a ``name`` sidecar, sorted."""
        index = self._index
        index.scan()
        return sorted(
            key for key in index.sidecars if name in index.sidecar_spans(key)
        )

    # ------------------------------------------------------------------
    # Introspection: through the same index, re-read on a miss
    # ------------------------------------------------------------------

    def contains_key(self, key: str) -> bool:
        """True when a record for this precomputed key is present."""
        if key in self._memory or key in self._index.spans:
            return True
        self._index.scan()
        return key in self._index.spans

    def payload_for(self, key: str) -> Optional[Dict]:
        """The cached payload for ``key``, or ``None`` if absent.

        Offline consumers (e.g. ``repro earlystop fit``) read payloads
        by key to pair records with their sidecars without re-deriving
        trial specs.
        """
        payload = self._memory.get(key)
        if payload is None and self.contains_key(key):
            payload = self._load(key)
        return payload

    def keys(self) -> Iterator[str]:
        """Iterate every record key in the directory, sorted."""
        self._index.scan()
        return iter(sorted(self._index.spans))

    def __len__(self) -> int:
        self._index.scan()
        return len(self._index.spans)

    def clear(self) -> None:
        """Drop every record and sidecar (memory and disk) and reset
        counters."""
        if self._log is not None:
            self._log[2]()
            self._log = None
        for name in _list_cache_dir(os.fspath(self.cache_dir)):
            os.unlink(self._prefix + name)
        self._index = _LogIndex(os.fspath(self.cache_dir))
        self._memory.clear()
        self.hits = self.misses = self.stores = 0
