"""Benchmark-owned in-memory spans and the self-time arithmetic.

The traced run wraps every public call a workload makes in a span held in
memory (``name, start, end, parent``, one ``trace`` id per body) and
writes them out only after the run.  The program's own ``repro.obs``
spans are read back from its JSONL file and folded into the same tree by
time containment - both sources stamp ``time.time()`` at entry and take
durations from ``perf_counter``, and the benchmark is single-threaded and
closed-loop, so an interval lies inside exactly one chain of enclosing
intervals.  Self time is a span's duration minus what its children cover.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional


class _NullSpan:
    """Shared no-op span: what untraced bodies get."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullSpans:
    """The recorder end-to-end passes run with: records nothing."""

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def wrap(self, obj: Any, attr: str, name: str) -> None:
        pass


class _Span:
    __slots__ = ("_owner", "_record", "_t0")

    def __init__(self, owner: "Spans", name: str) -> None:
        self._owner = owner
        self._record = {"name": name, "source": "bench"}
        self._t0 = 0.0

    def __enter__(self) -> "_Span":
        owner = self._owner
        record = self._record
        record["id"] = len(owner.records) + 1
        record["parent"] = owner._stack[-1] if owner._stack else None
        record["trace"] = owner.trace
        owner.records.append(record)
        owner._stack.append(record["id"])
        record["start_us"] = int(time.time() * 1e6)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        dur = time.perf_counter() - self._t0
        self._record["dur_us"] = int(dur * 1e6)
        self._owner._stack.pop()
        return False


class Spans:
    """In-memory span recorder for one traced run."""

    def __init__(self, trace: int) -> None:
        self.records: List[Dict] = []
        self.trace = trace
        self._stack: List[int] = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def wrap(self, obj: Any, attr: str, name: str) -> None:
        """Time one bound method from outside: an instance attribute
        shadows the class's method, so the program's own internal calls
        (``self.ingest_entry(...)``) go through the wrapper too and no
        source file is edited."""
        inner = getattr(obj, attr)

        def timed(*args, **kwargs):
            with self.span(name):
                return inner(*args, **kwargs)

        setattr(obj, attr, timed)


def program_records(spans: List[Dict]) -> List[Dict]:
    """``repro.obs.tracing`` JSONL records in this module's shape."""
    return [
        {
            "name": record["kind"],
            "source": "program",
            "start_us": record["ts_us"],
            "dur_us": record.get("dur_us", 0),
        }
        for record in spans
    ]


def build_tree(records: List[Dict]) -> List[Dict]:
    """Resolve every record's parent by containment; add ``self_us``.

    Returns new dicts sorted by start with ``index``, ``parent_index``
    (``None`` for roots) and ``self_us``.  A child that overhangs its
    parent by clock truncation is clamped to the parent's end.
    """
    nodes = [
        dict(record)
        for record in sorted(
            records, key=lambda r: (r["start_us"], -r["dur_us"])
        )
    ]
    stack: List[int] = []
    for index, node in enumerate(nodes):
        node["index"] = index
        node["children_us"] = 0
        while stack:
            top = nodes[stack[-1]]
            if node["start_us"] < top["start_us"] + top["dur_us"]:
                break
            stack.pop()
        node["parent_index"] = stack[-1] if stack else None
        if stack:
            top = nodes[stack[-1]]
            room = top["start_us"] + top["dur_us"] - node["start_us"]
            node["dur_us"] = min(node["dur_us"], max(room, 0))
            top["children_us"] += node["dur_us"]
        stack.append(index)
    for node in nodes:
        node["self_us"] = max(node["dur_us"] - node.pop("children_us"), 0)
    return nodes


def by_name(nodes: List[Dict]) -> Dict[str, Dict[str, float]]:
    """``{span name: {count, total_s, self_s}}`` over a tree."""
    out: Dict[str, Dict[str, float]] = {}
    for node in nodes:
        row = out.setdefault(
            node["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0}
        )
        row["count"] += 1
        row["total_s"] += node["dur_us"] / 1e6
        row["self_s"] += node["self_us"] / 1e6
    return out


def children_of(nodes: List[Dict], parent_index: Optional[int]) -> List[Dict]:
    return [n for n in nodes if n["parent_index"] == parent_index]


def render_table(nodes: List[Dict], root: Dict) -> str:
    """The per-layer table of one traced body.

    Top-level rows are the root's direct children and sum (with the
    ``(unattributed)`` row) to the body wall; the second block lists
    every span name in the subtree with its self time.
    """
    wall = root["dur_us"] / 1e6 or 1e-9
    lines = [f"{'top-level span':<44} {'count':>6} {'total s':>9} {'share':>7}"]
    top: Dict[str, List[float]] = {}
    for child in children_of(nodes, root["index"]):
        row = top.setdefault(child["name"], [0, 0.0])
        row[0] += 1
        row[1] += child["dur_us"] / 1e6
    for name, (count, total) in top.items():
        lines.append(f"{name:<44} {count:>6} {total:>9.4f} {total / wall:>7.1%}")
    rest = root["self_us"] / 1e6
    lines.append(f"{'(unattributed)':<44} {'':>6} {rest:>9.4f} {rest / wall:>7.1%}")
    lines.append(f"{'body wall':<44} {'':>6} {wall:>9.4f} {1:>7.1%}")
    lines.append("")
    lines.append(f"{'span (self time = span minus children)':<44} {'count':>6} {'self s':>9} {'share':>7}")
    inside = _subtree(nodes, root)
    for name, row in sorted(
        by_name(inside).items(), key=lambda kv: -kv[1]["self_s"]
    ):
        lines.append(
            f"{name:<44} {row['count']:>6} {row['self_s']:>9.4f} "
            f"{row['self_s'] / wall:>7.1%}"
        )
    return "\n".join(lines)


def _subtree(nodes: List[Dict], root: Dict) -> List[Dict]:
    keep = {root["index"]}
    out = []
    for node in nodes:  # sorted by start: parents precede children
        if node["parent_index"] in keep:
            keep.add(node["index"])
            out.append(node)
    return out
