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
(when given a directory) and is automatically invalidated when the result
schema changes.  Values are ``ExperimentResult.to_json()`` payloads - the
same serialisation :class:`~repro.core.results.ResultStore` persists, so
cached trials round-trip through the store unchanged.

A trial record has one encoding, :func:`canonical_json` (sorted keys, no
whitespace, one ASCII line), and it is produced once:
:meth:`TrialCache.put` writes it as the entry file, and the rolling
store's journal and segments (:mod:`repro.service.store`) carry those
bytes on unchanged (:meth:`TrialCache.keep_entry_bytes` hands them
over).  Reading is laxer than writing: any file holding one JSON object
is an entry - the indented entries of caches written before this
format, a foreign writer's - and only its layout differs, which
``fleet merge`` treats as a duplicate, not as divergence.

Directory caches are also the unit of *transport* for fleet operation
(:mod:`repro.fleet`): shard workers write disjoint cache directories that
the merger unions back together, so only ``<64-hex-digest>.json`` files
are treated as entries - anything else in the directory (receipts,
notes) is ignored.  An optional byte-size cap turns the directory into an
LRU: reads touch the entry's mtime and :meth:`evict` drops the
least-recently-used entries until the cache fits.

A hit costs what it must: the key is derived once per spec object
(:func:`trial_cache_key`, which hashes only the seed and service ids on
top of a memoised SHA-256 state), the entry's path is one string
concatenation, and the file is read as bytes and decoded once
(``cache.keys_derived`` / ``cache.entries_parsed`` count both).  A file
that is not a UTF-8 JSON object raises :class:`CacheEntryError` - it is
never a miss and never a result.

Entry and sidecar files are *immutable*: every write lands as a
temporary sibling renamed over the destination
(:func:`repro.atomicio.atomic_write`), so a file's bytes never change
under its inode.  Concurrent writers of one key converge on one intact
payload, a crash leaves no torn entry, and ``fleet merge`` may hard-link
entries between directories instead of copying them.  The one thing
links do share is the inode's mtime, so a hit in a merged cache also
refreshes the LRU recency of the shard directory it was linked from.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional

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
    """An entry or sidecar file is not a UTF-8 JSON object.

    Writes are atomic, so a file in this state was damaged after it
    landed (truncated copy, flipped bits, foreign writer).  The message
    names the file and the defect; nothing is ever folded from it.
    """


def _read_entry(path: str) -> "Optional[tuple[Dict, bytes]]":
    """The JSON object at ``path`` and the bytes it was parsed from, or
    ``None`` when no such file (read through a bare descriptor: no
    ``BufferedReader`` built per entry)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except FileNotFoundError:
        return None
    try:
        chunks = []
        # Entries are a few KiB: one read, and one more that finds EOF.
        while chunk := os.read(fd, 1 << 16):
            chunks.append(chunk)
    finally:
        os.close(fd)
    raw = b"".join(chunks)
    try:
        # JSONDecodeError and UnicodeDecodeError are ValueErrors.
        payload = json.loads(raw.decode("utf-8"))
    except ValueError as exc:
        raise CacheEntryError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise CacheEntryError(
            f"{path}: expected a JSON object, found {type(payload).__name__}"
        )
    get_registry().counter("cache.entries_parsed").inc()
    return payload, raw


def _read_json(path: str) -> Optional[Dict]:
    """The JSON object at ``path``, or ``None`` when no such file."""
    entry = _read_entry(path)
    return None if entry is None else entry[0]


_KEY_ALPHABET = frozenset("0123456789abcdef")


def is_cache_key(text: str) -> bool:
    """True when ``text`` has the shape of a trial cache key."""
    return len(text) == _KEY_HEX_LENGTH and _KEY_ALPHABET.issuperset(text)


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
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        stem = name[: -len(".json")]
        if is_cache_key(stem):
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

_CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(payload) -> str:
    """The one encoding of a trial record: sorted keys, no whitespace,
    ASCII, one line, through the C encoder.

    A cache entry, the ``result`` of its journal ``trial`` line and that
    line again in a store segment are these same bytes
    (:meth:`TrialCache.put`, :mod:`repro.service.store`); key derivation
    hashes the same form.  Type-exact (``1``, ``1.0`` and ``true`` stay apart) and
    deterministic, so equal payloads give equal bytes.
    """
    return _CANONICAL_ENCODER.encode(payload)


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


#: Memos behind :func:`trial_cache_key`: the SHA-256 state of a key's
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


def trial_cache_key(
    spec: "TrialSpec", env: Optional[ClientEnvironment] = None
) -> str:
    """Stable content hash addressing one deterministic trial.

    The key covers everything that feeds the simulation: service ids (in
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
    writes the memo.
    """
    if env is None:
        key = spec._cache_key
        if key is not None:
            return key
    resolved_env = env or _FAITHFUL_ENV
    config, network = spec.config, spec.network
    pinned = _PREFIX_BY_IDS.get((id(config), id(resolved_env), id(network)))
    if pinned is None:
        pinned = _key_prefix(config, resolved_env, network)
    service_ids, seed = spec.service_ids, spec.seed
    tail = _IDS_TAILS.get(service_ids)
    if tail is None:
        tail = _ids_tail(service_ids)
    digest = pinned[0].copy()
    # ``str`` of an ``int`` is its JSON; a bool or float seed is not one.
    seed_json = str(seed) if type(seed) is int else canonical_json(seed)
    digest.update(seed_json.encode("ascii") + tail)
    key = digest.hexdigest()
    get_registry().counter("cache.keys_derived").inc()
    if env is None:
        object.__setattr__(spec, "_cache_key", key)
    return key


class TrialCache:
    """Content-addressed store of simulated trial results.

    With a ``cache_dir`` every entry is one ``<digest>.json`` file, so
    caches are shareable between processes and survive restarts; without
    one the cache is a per-process dictionary (useful for tests and for
    deduplicating within a single sweep).  An in-memory index is kept in
    front of the directory either way, so repeated hits never re-read
    files (``test_repeated_hits_never_reread_files`` in
    ``tests/test_control_plane_budget.py``).

    ``max_bytes`` caps the on-disk footprint: every :meth:`put` evicts
    least-recently-used entries (mtime order; :meth:`get` touches the
    entry file) until the directory fits.  The cap applies only to
    directory caches - a memory-only cache ignores it.
    """

    def __init__(
        self,
        cache_dir: Optional[Path] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            #: ``<cache_dir>/``: an entry's path is one concatenation.
            self._prefix = os.path.join(self.cache_dir, "")
        self.max_bytes = max_bytes
        self._memory: Dict[str, Dict] = {}
        #: key -> the bytes ``_memory[key]`` was parsed from; ``None``
        #: until a caller asks (:meth:`keep_entry_bytes`).
        self._entry_bytes: Optional[Dict[str, bytes]] = None
        self._sidecar_memory: Dict["tuple[str, str]", Dict] = {}
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    # Lookup / insert
    # ------------------------------------------------------------------

    def get(
        self,
        spec: "TrialSpec",
        env: Optional[ClientEnvironment] = None,
        allow_truncated: bool = False,
    ) -> Optional[ExperimentResult]:
        """The cached result for this trial, or ``None`` on a miss.

        Early-terminated entries (``earlystop.truncated``; see
        :mod:`repro.core.earlystop`) only count as hits when the caller
        opts in with ``allow_truncated`` - a run without the feature
        treats them as misses, re-simulates full-length, and the
        resulting :meth:`put` supersedes the truncated entry.
        """
        key = trial_cache_key(spec, env)
        payload = self._memory.get(key)
        path = self._path(key) if self.cache_dir is not None else None
        if payload is None and path is not None:
            entry = _read_entry(path)
            if entry is not None:
                payload = self._memory[key] = entry[0]
                if self._entry_bytes is not None:
                    self._entry_bytes[key] = entry[1]
        if payload is not None and not allow_truncated:
            meta = payload.get("earlystop")
            if meta and meta.get("truncated"):
                payload = None
        if payload is None:
            self.misses += 1
            get_registry().counter("cache.misses").inc()
            return None
        if path is not None:
            try:
                os.utime(path)  # touch: LRU recency for evict()
            except FileNotFoundError:  # memory hit, file evicted since
                pass
        self.hits += 1
        get_registry().counter("cache.hits").inc()
        return ExperimentResult.from_json(payload)

    def put(
        self,
        spec: "TrialSpec",
        result: ExperimentResult,
        env: Optional[ClientEnvironment] = None,
    ) -> None:
        """Record one simulated trial under its content address.

        The entry is the result's :func:`canonical_json`: one line, the
        bytes a service journal later adopts as they are.

        Full-length results always supersede truncated ones: a put never
        replaces an existing entry with a *less* complete result for the
        same key (truncated over full, or a shorter truncation horizon
        over a longer one).  Deterministic re-runs of equal completeness
        rewrite the identical bytes, so last-writer-wins is safe there.
        """
        key = trial_cache_key(spec, env)
        payload = result.to_json()
        existing = self._memory.get(key)
        path = self._path(key) if self.cache_dir is not None else None
        if existing is None and path is not None:
            existing = _read_json(path)
        if existing is not None and _completeness(payload) < _completeness(
            existing
        ):
            return
        self._memory[key] = payload
        if self._entry_bytes:
            self._entry_bytes.pop(key, None)
        self.stores += 1
        registry = get_registry()
        registry.counter("cache.stores").inc()
        if path is not None:
            encoded = canonical_json(payload)
            atomic_write(path, encoded)
            registry.counter("cache.bytes_written").inc(len(encoded))
            if self.max_bytes is not None:
                self.evict()

    # ------------------------------------------------------------------
    # Sidecars: auxiliary artifacts content-addressed to an entry
    # ------------------------------------------------------------------
    #
    # A sidecar lives at ``<key>.<name>.json``; its stem is longer than
    # 64 hex chars, so ``is_cache_key`` rejects it and every entry scan
    # (``scan_cache_dir``'s key list) ignores it by construction.  Flight recordings (repro.obs.flight) are the first
    # sidecar kind; payloads carry their own schema version.

    def put_sidecar(self, key: str, name: str, payload: Dict) -> None:
        """Attach an auxiliary JSON artifact to a cache entry's key."""
        if not is_cache_key(key):
            raise ValueError(f"not a cache key: {key!r}")
        self._sidecar_memory[(key, name)] = payload
        if self.cache_dir is not None:
            encoded = json.dumps(payload, indent=1, sort_keys=True)
            atomic_write(self._sidecar_path(key, name), encoded)
            get_registry().counter("cache.sidecar_bytes_written").inc(
                len(encoded)
            )
            if self.max_bytes is not None:
                self.evict()

    def get_sidecar(self, key: str, name: str) -> Optional[Dict]:
        """The sidecar payload for ``key``, or ``None`` if absent."""
        payload = self._sidecar_memory.get((key, name))
        if payload is None and self.cache_dir is not None:
            payload = _read_json(self._sidecar_path(key, name))
            if payload is not None:
                self._sidecar_memory[(key, name)] = payload
        return payload

    def sidecar_keys(self, name: str) -> List[str]:
        """Entry keys that carry a sidecar of this kind, sorted."""
        keys = {k for k, n in self._sidecar_memory if n == name}
        if self.cache_dir is not None:
            suffix = f".{name}.json"
            for path in self.cache_dir.glob(f"*{suffix}"):
                stem = path.name[: -len(suffix)]
                if is_cache_key(stem):
                    keys.add(stem)
        return sorted(keys)

    def _sidecar_path(self, key: str, name: str) -> str:
        assert self.cache_dir is not None
        return f"{self._prefix}{key}.{name}.json"

    def _drop_sidecars(self, key: str) -> None:
        for pair in [p for p in self._sidecar_memory if p[0] == key]:
            del self._sidecar_memory[pair]
        if self.cache_dir is not None:
            for path in self.cache_dir.glob(f"{key}.*.json"):
                path.unlink()

    # ------------------------------------------------------------------
    # Eviction (ROADMAP: size cap + LRU over the on-disk JSON entries)
    # ------------------------------------------------------------------

    def size_bytes(self) -> int:
        """Total on-disk footprint: entries *plus* their sidecars.

        Sidecar files live in the same directory and count toward the
        ``max_bytes`` cap - a flight recording can dwarf its entry, so
        excluding them would let the directory exceed the cap unboundedly.
        (Memory-only caches report 0.)
        """
        if self.cache_dir is None:
            return 0
        return sum(
            path.stat().st_size
            for path in self._entry_paths() + self._sidecar_paths()
        )

    def evict(self, max_bytes: Optional[int] = None) -> List[str]:
        """Drop least-recently-used disk entries until the cache fits.

        ``max_bytes`` overrides the instance cap for this call.  Returns
        the evicted keys, oldest first.  Memory-only caches (and caches
        without a cap) evict nothing.

        Sidecar bytes are charged to their owning entry: evicting an
        entry drops its sidecars too, and both are credited against the
        cap (and to ``cache.bytes_evicted``).  A backend's ``run`` writes
        a trial's sidecar just before its entry, so a sidecar has no
        entry only between those two writes or after a kill between
        them; such orphans form their own evictable group keyed by the
        newest sidecar's mtime.
        """
        cap = self.max_bytes if max_bytes is None else max_bytes
        if cap is None or self.cache_dir is None:
            return []
        keys, sidecar_names = scan_cache_dir(self.cache_dir)
        sidecars = {
            key: [self.cache_dir / name for name in names]
            for key, names in sidecar_names.items()
        }
        entries = []
        for key in keys:
            stat = os.stat(self._path(key))
            extra = sum(p.stat().st_size for p in sidecars.pop(key, []))
            entries.append(
                (stat.st_mtime_ns, f"{key}.json", key, stat.st_size + extra)
            )
        for key, orphaned in sidecars.items():
            stats = [p.stat() for p in orphaned]
            entries.append(
                (
                    max(s.st_mtime_ns for s in stats),
                    key,
                    key,
                    sum(s.st_size for s in stats),
                )
            )
        total = sum(size for _m, _n, _k, size in entries)
        evicted: List[str] = []
        evicted_bytes = 0
        for _mtime, _name, key, size in sorted(entries):
            if total <= cap:
                break
            entry_path = self._path(key)
            if os.path.exists(entry_path):
                os.unlink(entry_path)
            self._memory.pop(key, None)
            if self._entry_bytes:
                self._entry_bytes.pop(key, None)
            self._drop_sidecars(key)
            total -= size
            evicted_bytes += size
            evicted.append(key)
        self.evictions += len(evicted)
        if evicted:
            registry = get_registry()
            registry.counter("cache.evictions").inc(len(evicted))
            registry.counter("cache.bytes_evicted").inc(evicted_bytes)
        return evicted

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def contains_key(self, key: str) -> bool:
        """True when an entry for this precomputed key is present."""
        if key in self._memory:
            return True
        return self.cache_dir is not None and os.path.exists(self._path(key))

    def keep_entry_bytes(self) -> Dict[str, bytes]:
        """From here on keep, beside each payload read from disk, the
        bytes it was parsed from; returns that live ``key -> bytes``
        table.

        For a caller that persists the records it reads
        (:meth:`repro.service.coordinator.WatchdogService.ingest_entry`):
        with :meth:`payload_for` it has the parsed payload and its
        encoding from one read.  A payload served from memory alone
        (this process ``put`` it) has no bytes here.
        """
        if self._entry_bytes is None:
            self._entry_bytes = {}
        return self._entry_bytes

    def payload_for(self, key: str) -> Optional[Dict]:
        """The raw cached payload for ``key``, or ``None`` if absent.

        Offline consumers (e.g. ``repro earlystop fit``) read payloads
        by key to pair entries with their sidecars without re-deriving
        trial specs.
        """
        if key in self._memory:
            return self._memory[key]
        if self.cache_dir is not None:
            return _read_json(self._path(key))
        return None

    def keys(self) -> Iterator[str]:
        """Iterate every entry key (disk entries included)."""
        seen = set(self._memory)
        yield from seen
        for path in self._entry_paths():
            if path.stem not in seen:
                yield path.stem

    def results(self) -> Iterator[ExperimentResult]:
        """Iterate every cached result (disk entries included)."""
        seen = set(self._memory)
        for payload in self._memory.values():
            yield ExperimentResult.from_json(payload)
        for path in self._entry_paths():
            if path.stem in seen:
                continue
            payload = _read_json(str(path))
            if payload is not None:  # else evicted since the listing
                yield ExperimentResult.from_json(payload)

    def __len__(self) -> int:
        entries = set(self._memory)
        entries.update(path.stem for path in self._entry_paths())
        return len(entries)

    def clear(self) -> None:
        """Drop every entry (memory and disk) and reset counters."""
        for path in self._entry_paths():
            self._drop_sidecars(path.stem)
            path.unlink()
        for key in {k for k, _n in self._sidecar_memory}:
            self._drop_sidecars(key)
        if self.cache_dir is not None:
            # Temporaries a killed writer left behind (repro.atomicio).
            for path in self.cache_dir.glob(f"*{TMP_SUFFIX}"):
                path.unlink()
        self._memory.clear()
        if self._entry_bytes:
            self._entry_bytes.clear()
        self.hits = self.misses = self.stores = self.evictions = 0

    def _entry_paths(self) -> List[Path]:
        """The on-disk entry files (receipts and strays excluded)."""
        if self.cache_dir is None:
            return []
        keys, _sidecars = scan_cache_dir(self.cache_dir)
        return [self.cache_dir / f"{key}.json" for key in keys]

    def _sidecar_paths(self) -> List[Path]:
        """The on-disk sidecar files (``<key>.<name>.json``)."""
        if self.cache_dir is None:
            return []
        _keys, sidecars = scan_cache_dir(self.cache_dir)
        return [
            self.cache_dir / name
            for names in sidecars.values()
            for name in names
        ]

    def _path(self, key: str) -> str:
        assert self.cache_dir is not None
        return self._prefix + key + ".json"
