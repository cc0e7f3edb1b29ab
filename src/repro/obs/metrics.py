"""Process-local metrics: counters, gauges, and fixed-bucket histograms.

The watchdog is a long-running deployment (the paper's ran for years);
its operators need to know how many trials ran, how long they took, and
how the cache is behaving - without attaching a metrics stack the
container does not have.  This module is the zero-dependency answer: a
:class:`MetricsRegistry` of named instruments that any layer can bump,
snapshotted to plain JSON.

Snapshots are designed to *travel and merge*: a fleet shard embeds its
snapshot in its :class:`~repro.fleet.worker.ShardReceipt`, and
:func:`merge_snapshots` unions any number of them into fleet-wide
totals (counters and histogram buckets sum; gauges sum too, since every
gauge here measures a per-process quantity - bytes, entries - that adds
across a fleet).  :func:`diff_snapshots` subtracts a "before" snapshot
so one operation's contribution can be isolated from a shared registry.

Nothing in here runs inside the simulated clock or on the per-packet
path: instruments are bumped per *trial* (or per batch), so the golden
bit-identity test and the tracked benchmark stay within noise.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

#: Snapshot payload schema; bump on incompatible layout changes.
METRICS_SCHEMA_VERSION = 1

#: Default histogram bucket upper bounds (seconds-flavoured: trial and
#: batch durations span milliseconds to minutes).
DEFAULT_BUCKET_EDGES: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
    60.0, 300.0, 1800.0,
)

Number = Union[int, float]


class Counter:
    """A monotonically-increasing count (trials run, cache hits, bytes)."""

    kind = "counter"
    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0
        self._lock = threading.Lock()

    def inc(self, amount: Number = 1) -> None:
        """Add ``amount`` (must be >= 0) to the count."""
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        with self._lock:
            self.value += amount

    def to_json(self) -> Dict:
        """Snapshot entry: ``{"type": "counter", "value": n}``."""
        return {"type": self.kind, "value": self.value}


class Gauge:
    """A point-in-time value that may go up or down (cache entries)."""

    kind = "gauge"
    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0
        self._lock = threading.Lock()

    def set(self, value: Number) -> None:
        """Replace the gauge's value."""
        with self._lock:
            self.value = value

    def add(self, amount: Number) -> None:
        """Shift the gauge by ``amount`` (may be negative)."""
        with self._lock:
            self.value += amount

    def to_json(self) -> Dict:
        """Snapshot entry: ``{"type": "gauge", "value": n}``."""
        return {"type": self.kind, "value": self.value}


class Histogram:
    """Fixed-bucket distribution of observations (durations, rates).

    ``edges`` are ascending bucket *upper bounds*; an observation lands
    in the first bucket whose edge is >= the value, or in the implicit
    overflow bucket past the last edge (``counts`` has ``len(edges)+1``
    entries).  Fixed edges are what make histograms mergeable across
    processes and hosts without resampling.
    """

    kind = "histogram"
    __slots__ = ("name", "edges", "counts", "sum", "count", "min", "max",
                 "_lock")

    def __init__(
        self, name: str, edges: Optional[Sequence[float]] = None
    ) -> None:
        chosen = tuple(edges) if edges is not None else DEFAULT_BUCKET_EDGES
        if not chosen or list(chosen) != sorted(chosen):
            raise ValueError("histogram edges must be ascending, non-empty")
        self.name = name
        self.edges = chosen
        self.counts: List[int] = [0] * (len(chosen) + 1)
        self.sum: float = 0.0
        self.count: int = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._lock = threading.Lock()

    def observe(self, value: Number) -> None:
        """Record one observation."""
        with self._lock:
            self.counts[bisect_left(self.edges, value)] += 1
            self.sum += value
            self.count += 1
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    def quantile(self, q: float) -> Optional[float]:
        """Estimated ``q``-quantile from the buckets (None when empty).

        Linear interpolation within the winning bucket, clamped to the
        observed min/max so single-observation histograms report the
        observation itself rather than a bucket edge.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return None
        target = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= target and bucket_count > 0:
                lo = self.edges[index - 1] if index > 0 else (self.min or 0.0)
                hi = (
                    self.edges[index]
                    if index < len(self.edges)
                    else (self.max if self.max is not None else lo)
                )
                fraction = (target - (cumulative - bucket_count)) / bucket_count
                estimate = lo + (hi - lo) * max(0.0, min(1.0, fraction))
                if self.min is not None:
                    estimate = max(estimate, self.min)
                if self.max is not None:
                    estimate = min(estimate, self.max)
                return estimate
        return self.max

    def to_json(self) -> Dict:
        """Snapshot entry: edges, bucket counts, sum/count/min/max."""
        return {
            "type": self.kind,
            "edges": list(self.edges),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
            "min": self.min,
            "max": self.max,
        }


Instrument = Union[Counter, Gauge, Histogram]


def quantile_of_sorted(ordered: Sequence[float], q: float) -> float:
    """Exact linear-interpolated ``q``-quantile (0 <= q <= 1) of an
    already-sorted, non-empty sequence (stats and span summaries)."""
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    weight = position - low
    return ordered[low] * (1 - weight) + ordered[high] * weight


class MetricsRegistry:
    """Named instruments, created on first use, snapshotted to JSON.

    Accessors are get-or-create: ``registry.counter("cache.hits")``
    returns the same :class:`Counter` every time, so instrumented code
    never checks for existence.  Requesting an existing name as a
    different instrument type is a programming error and raises.

    An instrument that exists is found without the lock (one atomic
    ``dict.get``: instruments are only ever added or, by :meth:`clear`,
    all dropped) - this runs on every cache lookup.  Creation, the type
    conflict, :meth:`clear` and :meth:`snapshot` take it.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, Instrument] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, cls, *args) -> Instrument:
        existing = self._instruments.get(name)
        if isinstance(existing, cls):
            return existing
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, requested {cls.kind}"
                    )
                return existing
            created = cls(name, *args)
            self._instruments[name] = created
            return created

    def counter(self, name: str) -> Counter:
        """Get or create the :class:`Counter` called ``name``."""
        return self._get(name, Counter)  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        """Get or create the :class:`Gauge` called ``name``."""
        return self._get(name, Gauge)  # type: ignore[return-value]

    def histogram(
        self, name: str, edges: Optional[Sequence[float]] = None
    ) -> Histogram:
        """Get or create the :class:`Histogram` called ``name``.

        ``edges`` applies on first creation only; later callers get the
        existing instrument whatever edges they pass.
        """
        return self._get(name, Histogram, edges)  # type: ignore[return-value]

    def names(self) -> List[str]:
        """Sorted names of every registered instrument."""
        with self._lock:
            return sorted(self._instruments)

    def clear(self) -> None:
        """Drop every instrument (tests; fresh shard deltas)."""
        with self._lock:
            self._instruments.clear()

    # -- snapshot / restore --------------------------------------------

    def snapshot(self) -> Dict:
        """The registry as a plain-JSON payload (receipts, dumps)."""
        with self._lock:
            return {
                "schema": METRICS_SCHEMA_VERSION,
                "metrics": {
                    name: instrument.to_json()
                    for name, instrument in sorted(self._instruments.items())
                },
            }

    @classmethod
    def from_snapshot(cls, payload: Dict) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`snapshot` output."""
        registry = cls()
        registry.fold(payload)
        return registry

    def fold(self, payload: Dict) -> None:
        """Add :meth:`snapshot` output into this registry's instruments
        (a pool worker's per-trial metrics into its parent's): counters
        and gauges add, histograms add bucket-wise (edges must match)."""
        for name, entry in payload.get("metrics", {}).items():
            kind = entry.get("type")
            if kind == "counter":
                self.counter(name).inc(entry["value"])
            elif kind == "gauge":
                self.gauge(name).add(entry["value"])
            elif kind == "histogram":
                hist = self.histogram(name, entry["edges"])
                with hist._lock:
                    merged = _merge_histogram(hist.to_json(), entry)
                    for field in ("counts", "sum", "count", "min", "max"):
                        setattr(hist, field, merged[field])
            # unknown instrument types are skipped (forward compatibility)


def _merge_histogram(base: Dict, extra: Dict) -> Dict:
    if base["edges"] != extra["edges"]:
        raise ValueError(
            "cannot merge histograms with different bucket edges"
        )
    mins = [m for m in (base.get("min"), extra.get("min")) if m is not None]
    maxes = [m for m in (base.get("max"), extra.get("max")) if m is not None]
    return {
        "type": "histogram",
        "edges": list(base["edges"]),
        "counts": [a + b for a, b in zip(base["counts"], extra["counts"])],
        "sum": base["sum"] + extra["sum"],
        "count": base["count"] + extra["count"],
        "min": min(mins) if mins else None,
        "max": max(maxes) if maxes else None,
    }


def merge_snapshots(snapshots: Iterable[Dict]) -> Dict:
    """Union snapshot payloads into one (fleet-wide totals).

    Counters and gauges sum; histograms sum bucket-wise (edges must
    match).  The result is itself a valid snapshot payload.
    """
    merged: Dict[str, Dict] = {}
    for snapshot in snapshots:
        for name, entry in snapshot.get("metrics", {}).items():
            existing = merged.get(name)
            if existing is None:
                merged[name] = json_copy = dict(entry)
                if entry.get("type") == "histogram":
                    json_copy["edges"] = list(entry["edges"])
                    json_copy["counts"] = list(entry["counts"])
                continue
            if existing.get("type") != entry.get("type"):
                raise ValueError(
                    f"metric {name!r} has conflicting types across "
                    "snapshots"
                )
            if entry.get("type") == "histogram":
                merged[name] = _merge_histogram(existing, entry)
            else:
                existing["value"] = existing["value"] + entry["value"]
    return {
        "schema": METRICS_SCHEMA_VERSION,
        "metrics": {name: merged[name] for name in sorted(merged)},
    }


def diff_snapshots(before: Dict, after: Dict) -> Dict:
    """``after - before``: isolate one operation's contribution.

    Counters and gauges subtract; histograms subtract bucket-wise.
    Metrics absent from ``before`` pass through unchanged; metrics that
    went *down* (a cleared registry) pass through at their ``after``
    value rather than going negative.
    """
    base = before.get("metrics", {})
    out: Dict[str, Dict] = {}
    for name, entry in after.get("metrics", {}).items():
        prior = base.get(name)
        if prior is None or prior.get("type") != entry.get("type"):
            out[name] = entry
            continue
        if entry.get("type") == "histogram":
            if prior["edges"] != entry["edges"] or any(
                a < b for a, b in zip(entry["counts"], prior["counts"])
            ):
                out[name] = entry
                continue
            mins = entry.get("min")
            out[name] = {
                "type": "histogram",
                "edges": list(entry["edges"]),
                "counts": [
                    a - b for a, b in zip(entry["counts"], prior["counts"])
                ],
                "sum": entry["sum"] - prior["sum"],
                "count": entry["count"] - prior["count"],
                "min": mins,
                "max": entry.get("max"),
            }
        else:
            delta = entry["value"] - prior["value"]
            if delta < 0:
                delta = entry["value"]
            out[name] = {"type": entry["type"], "value": delta}
    return {"schema": METRICS_SCHEMA_VERSION, "metrics": out}


#: The process-wide default registry instrumented code writes into.
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _REGISTRY


def reset_registry() -> MetricsRegistry:
    """Clear the default registry (tests, fresh shard runs); returns it."""
    _REGISTRY.clear()
    return _REGISTRY
