"""Wall-clock span tracing: JSONL spans, Perfetto export, summaries.

A *span* is one timed region of real (wall-clock) time - a trial run, a
cache lookup, a backend dispatch, a shard run, report assembly.  Spans
are recorded to a JSONL file (one JSON object per line, appended and
flushed as each span closes, so a crashed run still leaves a readable
trace) and can be exported in Chrome ``trace_event`` format for viewing
in Perfetto / ``chrome://tracing``.

Two clocks per span: ``ts_us`` is epoch wall time (so traces from
different processes and hosts align on one axis) and ``dur_us`` comes
from ``perf_counter`` (so durations are monotonic and precise).  Parent
linkage is per-thread: nested ``span()`` blocks on the same thread
record their enclosing span's id.

The module-level :func:`span` helper is the instrumentation surface the
rest of the codebase uses.  With no tracer configured it returns a
shared no-op context manager - a dict lookup and two no-op calls per
*trial*, nothing per packet and nothing inside the simulated clock, so
enabling the instrumentation hooks costs the golden-identity test and
the tracked benchmark nothing.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

#: Span-record schema; bump on incompatible layout changes.
TRACE_SCHEMA_VERSION = 1

#: Percentiles `summarize` reports for each span kind.
SUMMARY_PERCENTILES = (0.5, 0.9, 0.95, 0.99)


class _SpanHandle:
    """The object a ``with span(...)`` block binds: mutable attrs."""

    __slots__ = ("kind", "attrs", "_tracer", "_span_id", "_parent_id",
                 "_t0", "_wall0")

    def __init__(self, tracer: "Tracer", kind: str, attrs: Dict) -> None:
        self.kind = kind
        self.attrs = attrs
        self._tracer = tracer
        self._span_id = 0
        self._parent_id: Optional[int] = None
        self._t0 = 0.0
        self._wall0 = 0.0

    def set(self, **attrs) -> None:
        """Attach attributes discovered mid-span (hit counts, sizes)."""
        self.attrs.update(attrs)

    def __enter__(self) -> "_SpanHandle":
        tracer = self._tracer
        self._span_id = tracer._next_id()
        stack = tracer._stack()
        self._parent_id = stack[-1] if stack else None
        stack.append(self._span_id)
        self._wall0 = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        dur_us = int((time.perf_counter() - self._t0) * 1e6)
        stack = self._tracer._stack()
        if stack and stack[-1] == self._span_id:
            stack.pop()
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._write(
            kind=self.kind,
            span_id=self._span_id,
            parent_id=self._parent_id,
            ts_us=int(self._wall0 * 1e6),
            dur_us=dur_us,
            attrs=self.attrs,
        )
        return False


class _NullSpan:
    """Shared no-op span used whenever no tracer is configured."""

    __slots__ = ()

    def set(self, **attrs) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Tracer:
    """Appends closed spans to a JSONL file, thread-safely."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        if self.path.parent != Path(""):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")
        self._lock = threading.Lock()
        self._local = threading.local()
        self._id = 0
        self.pid = os.getpid()
        self.spans_written = 0

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _next_id(self) -> int:
        with self._lock:
            self._id += 1
            return self._id

    def span(self, kind: str, **attrs) -> _SpanHandle:
        """A context manager timing one region under this tracer."""
        return _SpanHandle(self, kind, attrs)

    def _write(
        self,
        kind: str,
        span_id: int,
        parent_id: Optional[int],
        ts_us: int,
        dur_us: int,
        attrs: Dict,
    ) -> None:
        record: Dict = {
            "schema": TRACE_SCHEMA_VERSION,
            "kind": kind,
            "id": span_id,
            "ts_us": ts_us,
            "dur_us": dur_us,
            "pid": self.pid,
            "tid": threading.get_ident() & 0xFFFF,
        }
        if parent_id is not None:
            record["parent"] = parent_id
        if attrs:
            record["attrs"] = attrs
        line = json.dumps(record, sort_keys=True, default=str)
        with self._lock:
            self._fh.write(line + "\n")
            self._fh.flush()
            self.spans_written += 1

    def close(self) -> None:
        """Close the JSONL file; further spans would raise."""
        with self._lock:
            if not self._fh.closed:
                self._fh.close()


#: The process-wide tracer instrumented code records into (None = off).
_TRACER: Optional[Tracer] = None


def configure(path: Union[str, Path]) -> Tracer:
    """Install a process-wide tracer writing to ``path``; returns it."""
    global _TRACER
    if _TRACER is not None:
        _TRACER.close()
    _TRACER = Tracer(path)
    return _TRACER


def disable() -> None:
    """Close and remove the process-wide tracer (spans become no-ops)."""
    global _TRACER
    if _TRACER is not None:
        _TRACER.close()
    _TRACER = None


def get_tracer() -> Optional[Tracer]:
    """The process-wide tracer, or None when tracing is off."""
    return _TRACER


def span(kind: str, **attrs) -> Union[_SpanHandle, _NullSpan]:
    """Time one region against the process-wide tracer (no-op when off)."""
    tracer = _TRACER
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(kind, **attrs)


# ----------------------------------------------------------------------
# Reading, exporting, summarising
# ----------------------------------------------------------------------


def read_spans(path: Union[str, Path]) -> List[Dict]:
    """Load every span record from a JSONL trace file.

    Blank and truncated trailing lines (a run killed mid-write) are
    skipped rather than fatal: a partial trace is still evidence.
    """
    spans: List[Dict] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict) and "kind" in record:
                spans.append(record)
    return spans


def to_chrome_trace(spans: Iterable[Dict]) -> Dict:
    """Spans as a Chrome ``trace_event`` payload (open in Perfetto).

    Complete events (``ph: "X"``) with microsecond timestamps; span
    attributes ride along as ``args``.  Timestamps are rebased to the
    earliest span so the viewer does not render decades of empty axis.
    """
    records = list(spans)
    base = min((r["ts_us"] for r in records), default=0)
    events = []
    for record in records:
        events.append(
            {
                "name": record["kind"],
                "cat": "repro",
                "ph": "X",
                "ts": record["ts_us"] - base,
                "dur": record.get("dur_us", 0),
                "pid": record.get("pid", 0),
                "tid": record.get("tid", 0),
                "args": record.get("attrs", {}),
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-percentile of pre-sorted values."""
    if not sorted_values:
        raise ValueError("no values")
    if len(sorted_values) == 1:
        return sorted_values[0]
    position = q * (len(sorted_values) - 1)
    lower = int(position)
    upper = min(lower + 1, len(sorted_values) - 1)
    fraction = position - lower
    return (
        sorted_values[lower] * (1 - fraction)
        + sorted_values[upper] * fraction
    )


def summarize(spans: Iterable[Dict]) -> Dict[str, Dict]:
    """Per-span-kind duration statistics (exact, from raw durations).

    Returns ``{kind: {count, total_sec, p50_sec, p90_sec, p95_sec,
    p99_sec, max_sec}}`` sorted by descending total time.
    """
    by_kind: Dict[str, List[float]] = {}
    for record in spans:
        by_kind.setdefault(record["kind"], []).append(
            record.get("dur_us", 0) / 1e6
        )
    out: Dict[str, Dict] = {}
    for kind, durations in by_kind.items():
        durations.sort()
        row = {
            "count": len(durations),
            "total_sec": sum(durations),
            "max_sec": durations[-1],
        }
        for q in SUMMARY_PERCENTILES:
            row[f"p{int(q * 100)}_sec"] = percentile(durations, q)
        out[kind] = row
    return dict(
        sorted(out.items(), key=lambda kv: -kv[1]["total_sec"])
    )


def render_summary(summary: Dict[str, Dict]) -> str:
    """The ``repro obs summarize`` table."""
    if not summary:
        return "(no spans)"
    header = (
        f"{'span kind':<20} {'count':>7} {'total s':>9} {'p50 s':>9} "
        f"{'p90 s':>9} {'p95 s':>9} {'p99 s':>9} {'max s':>9}"
    )
    lines = [header]
    for kind, row in summary.items():
        lines.append(
            f"{kind:<20} {row['count']:>7} {row['total_sec']:>9.3f} "
            f"{row['p50_sec']:>9.4f} {row['p90_sec']:>9.4f} "
            f"{row['p95_sec']:>9.4f} {row['p99_sec']:>9.4f} "
            f"{row['max_sec']:>9.4f}"
        )
    return "\n".join(lines)
