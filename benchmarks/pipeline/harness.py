"""The measurement loop: set-ups, timed bodies, checks, metric values.

Single process, single thread, closed loop: each body starts when the
previous one has returned and been cleaned up.  Bodies are short,
repeated, and every timing is the median over the repeats.

Host noise on the sizing box (a 2-vCPU microVM) is a slowdown shared by
everything on the vCPU, in bursts of seconds and episodes of tens of
seconds: identical bodies took 2.05..5.66 s, medians of 20 s runs spread
40%, and a pure-Python reference loop timed beside them slowed by the
same factor (body/reference spread: 6% per body against 20% raw).
:class:`HostNoise` therefore times that reference loop *while* a region
runs - a ~1.9 ms slice every 50 ms from an interval timer, in the same
thread - and every reported time is the raw time, minus the slices,
divided by the slowdown the slices saw.  Raw times are reported beside
the corrected ones.
"""

from __future__ import annotations

import gc
import heapq
import resource
import shutil
import signal
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.runner import CacheMissError
from repro.fleet import FleetError
from repro.obs.metrics import get_registry
from repro.service.coordinator import ServiceError

from . import spec
from .spans import NullSpans
from .workloads import WORKLOADS, Workload, report_sha256

#: Registry counters read around every body (deltas are exact counts).
COUNTERS = (
    "sim.packets",
    "sim.events",
    "sim.queue_drops",
    "cache.hits",
    "cache.misses",
    "cache.bytes_written",
)

#: Body outcomes that must repeat exactly across the bodies of one run.
EXACT_KEYS = (
    "report_sha256",
    "trials",
    "trials_simulated",
    "sim_sec_simulated",
    "verdicts",
)


class _Cell:
    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def bump(self) -> int:
        self.count += 1
        return self.count


class HostNoise:
    """Measures the host's slowdown over a timed region, from inside it.

    An interval timer interrupts the main thread every ``INTERVAL_S`` and
    the handler times one fixed slice of reference work, which a quiet
    sizing box runs in ``NOMINAL_SLICE_S``.  A slice is also taken on
    entry and on exit, so even a region shorter than the interval has
    two samples.  Work done in raw time ``W`` at slowdown ``s(t)`` takes
    ``W * mean(1/s)`` on the quiet box, hence the harmonic form of
    :meth:`quiet`.

    The slice is shaped like the program, not like a spin loop: method
    calls on slotted objects reached through a dict whose working set
    (~10 MB) exceeds the cache, plus heap pushes and pops.  Beside 50 Mbps
    pair trials a pure-arithmetic slice under-read the slowdown (trial
    time rose 1.20x as fast as that slice's, 1.11x as fast as this
    one's), and medians of 8-body windows spread 6.4% corrected by it
    against 3.4% by this one (18.6% raw).
    """

    INTERVAL_S = 0.05
    SLICE_STEPS = 2_000
    NOMINAL_SLICE_S = 0.0019
    _CELLS = 60_000
    _table: Dict[int, _Cell] = {}
    _order: List[int] = []

    def __init__(self) -> None:
        if not HostNoise._table:
            HostNoise._table = {i: _Cell() for i in range(self._CELLS)}
            HostNoise._order = [
                i * 7919 % self._CELLS for i in range(self._CELLS)
            ]
        self.slices: List[float] = []
        self._cursor = 0

    def _slice(self, _signum=None, _frame=None) -> None:
        start = time.perf_counter()
        table, order, cells = self._table, self._order, self._CELLS
        cursor = self._cursor
        heap: List = []
        for step in range(self.SLICE_STEPS):
            cell = table[order[(cursor + step) % cells]]
            heapq.heappush(heap, (cell.bump(), step))
            if step & 1:
                heapq.heappop(heap)
        self._cursor = (cursor + self.SLICE_STEPS) % cells
        self.slices.append(time.perf_counter() - start)

    def __enter__(self) -> "HostNoise":
        self._slice()
        self._previous = signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._slice()
        return False

    @property
    def speed(self) -> float:
        """Share of quiet-box speed the host ran at (1.0 = quiet)."""
        return self.NOMINAL_SLICE_S * statistics.fmean(
            1.0 / spent for spent in self.slices
        )

    def quiet(self, raw_seconds: float) -> float:
        """``raw_seconds`` measured around the ``with`` block (so with
        every slice inside them) as quiet-box seconds."""
        return max(raw_seconds - sum(self.slices), 0.0) * self.speed


def timed(fn) -> Dict[str, float]:
    """Run ``fn`` under the noise sampler; raw and corrected times."""
    noise = HostNoise()
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    with noise:
        fn()
    raw_wall = time.perf_counter() - wall0
    raw_cpu = time.process_time() - cpu0
    return {
        "wall_s": noise.quiet(raw_wall),
        "cpu_s": noise.quiet(raw_cpu),
        "raw_wall_s": raw_wall,
        "raw_cpu_s": raw_cpu,
        "host_speed": noise.speed,
    }


def _counters() -> Dict[str, float]:
    registry = get_registry()
    return {name: registry.counter(name).value for name in COUNTERS}


def run_setups(workload: Workload, workdir: Path) -> List[float]:
    """Set the workload up SETUP_ROUNDS times; keep the last one."""
    walls = []
    for index in range(spec.SETUP_ROUNDS):
        root = workdir / f"setup-{index}"
        walls.append(timed(lambda: workload.setup(root))["wall_s"])
        if index < spec.SETUP_ROUNDS - 1:
            shutil.rmtree(root)
    return walls


def _call(fn) -> None:
    fn()


def timed_body(workload: Workload, rep: Path, spans, runner=_call) -> Dict:
    """One body: prepare, time, verify, clean up.

    ``runner`` lets a caller interpose on the timed call (the cProfile
    pass); the default just calls it.
    """
    workload.prepare(rep)
    gc.collect()
    before = _counters()
    outcome: Dict = {}
    error: Optional[str] = None

    def call() -> None:
        nonlocal error
        try:
            with spans.span("body"):
                outcome.update(workload.body(rep, spans))
        except (FleetError, CacheMissError, ServiceError) as exc:
            error = f"{type(exc).__name__}: {exc}"

    times = timed(lambda: runner(call))
    after = _counters()
    checks: Dict[str, bool] = {"body-completed": error is None}
    if error is None:
        checks.update(workload.verify(outcome))
        outcome["report_sha256"] = report_sha256(
            outcome.pop("report_payloads")
        )
    shutil.rmtree(rep, ignore_errors=True)
    return {
        **times,
        "error": error,
        "checks": checks,
        "outcome": outcome,
        "counters": {name: after[name] - before[name] for name in COUNTERS},
    }


def run_bodies(
    workload: Workload,
    workdir: Path,
    seconds: float,
    min_repeats: int,
) -> List[Dict]:
    """Untraced bodies for ``seconds`` (and at least ``min_repeats``).

    A body is not started when the mean cost so far (preparation and
    clean-up included) says it would overrun the window, so a run's
    length is set by ``seconds``, not by how fast the box happens to be.
    """
    spans = NullSpans()
    passes: List[Dict] = []
    start = time.perf_counter()
    while True:
        if len(passes) >= min_repeats:
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(passes) > seconds:
                break
        passes.append(
            timed_body(workload, workdir / f"body-{len(passes)}", spans)
        )
    return passes


def ledger(passes: List[Dict]) -> Dict:
    """Attempted/failed ops and run-level checks over a list of bodies.

    An invalid trial, a raised ``CacheMissError``/``FleetError``/
    ``ServiceError``, a skipped or partial ingest and a failed output
    check each count as one failed op.
    """
    attempted = failed = 0
    failures: List[str] = []
    for index, one in enumerate(passes):
        attempted += one["outcome"].get("attempted_ops", 0) + len(one["checks"])
        failed += one["outcome"].get("failed_ops", 0)
        for name, ok in one["checks"].items():
            if not ok:
                failed += 1
                failures.append(f"body {index}: {name}")
    completed = [p["outcome"] for p in passes if p["error"] is None]
    for key in EXACT_KEYS:
        attempted += 1
        if len({repr(o.get(key)) for o in completed}) > 1:
            failed += 1
            failures.append(f"{key} differs between bodies of one seed")
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "correct": failed == 0 and bool(completed),
    }


def _samples(passes: List[Dict], fn) -> List[float]:
    return [fn(p) for p in passes if p["error"] is None]


def end_to_end(setup_walls: List[float], passes: List[Dict]) -> Dict[str, Dict]:
    """The BENCHMARK.json end-to-end metrics, with their samples."""
    samples = {
        "setup_s": list(setup_walls),
        "cycle_wall_s": _samples(passes, lambda p: p["wall_s"]),
        "cycle_cpu_s": _samples(passes, lambda p: p["cpu_s"]),
        "trials_per_s": _samples(
            passes, lambda p: p["outcome"]["trials"] / p["wall_s"]
        ),
        "peak_rss_mb": [
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ],
    }
    return {name: _metric(name, values) for name, values in samples.items()}


def specific(passes: List[Dict], ops: Dict) -> Dict[str, Dict]:
    """Workload-specific end-to-end numbers (zero where meaningless) and
    the uncorrected times.  A body's inner timings (the ingest walls)
    take the body's own raw-to-quiet factor."""

    def quiet(p: Dict, raw_seconds: float) -> float:
        return raw_seconds * p["wall_s"] / p["raw_wall_s"]

    samples = {
        "cycle_wall_raw_s": _samples(passes, lambda p: p["raw_wall_s"]),
        "cycle_cpu_raw_s": _samples(passes, lambda p: p["raw_cpu_s"]),
        "host_speed": _samples(passes, lambda p: p["host_speed"]),
        "sim_pkts_per_s": _samples(
            passes, lambda p: p["counters"]["sim.packets"] / p["wall_s"]
        ),
        "sim_sec_per_wall_s": _samples(
            passes, lambda p: p["outcome"]["sim_sec_simulated"] / p["wall_s"]
        ),
        "trials_simulated": _samples(
            passes, lambda p: p["outcome"]["trials_simulated"]
        ),
        "sim_sec_simulated": _samples(
            passes, lambda p: p["outcome"]["sim_sec_simulated"]
        ),
        "ingest_total_s": _samples(
            passes,
            lambda p: quiet(p, sum(p["outcome"].get("ingest_walls", [0.0]))),
        ),
        "ingest_last_s": _samples(
            passes,
            lambda p: quiet(p, p["outcome"].get("ingest_walls", [0.0])[-1]),
        ),
        "site_refresh_s": _samples(
            passes, lambda p: quiet(p, p["outcome"].get("site_refresh_s", 0.0))
        ),
        "failed_ops_frac": [ops["failed"] / ops["attempted"]],
    }
    return {name: _metric(name, values) for name, values in samples.items()}


def _metric(name: str, values: List[float]) -> Dict:
    return {
        "value": statistics.median(values) if values else 0.0,
        "unit": spec.UNITS[name],
        "samples": values,
    }


def quartiles(values: List[float]) -> List[float]:
    """``[q1, median, q3]`` (all equal for fewer than two samples)."""
    if len(values) < 2:
        return [values[0]] * 3 if values else [0.0] * 3
    return statistics.quantiles(values, n=4)


def make_workload(name: str, seed: int, scale: str) -> Workload:
    return WORKLOADS[name](spec.SIZES[scale], seed)
