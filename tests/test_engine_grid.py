"""11-scenario fixed-seed grid: heap and calendar produce identical bytes.

Each scenario is a complete short trial through the real
``run_trial_artifacts`` code path, run twice in this process - once on
the calendar queue, once on the heap oracle (``tests/naive_engine.py``)
injected through ``engine=`` - and every published artifact (experiment
report, packet trace, queue log, final clock, event count) is serialized
and hashed.  Every scenario hashes the queue log - a 10 ms flight
recorder's occupancy rows plus the packet trace's drop instants; the
traced ones also hash the trace's delivery records.
The two hashes must match exactly: the calendar queue's promise is not
"statistically equivalent", it is the *same simulation*.

The grid spans both Prudentia network settings, trace on/off, self-pairs
and mixed pairs, loss-based and model-based CCAs, and application
workloads (video ABR, RTC, web, file transfer) whose timers and
request/response patterns stress schedule_at, Timer rearm, and the
far-future overflow path.  Trials are kept short (2 simulated seconds)
so the whole grid stays in tier-1 time budget.
"""

import hashlib
import json

import pytest

from repro.config import (
    ExperimentConfig,
    highly_constrained,
    moderately_constrained,
)
from repro.core.experiment import run_trial_artifacts
from repro.netsim.engine import CalendarEngine
from repro.netsim.trace import PacketTrace
from repro.obs.flight import FlightRecorder
from repro.services.catalog import default_catalog

from tests.naive_engine import HeapEngine
from tests.test_golden_identity import queue_log_json

DURATION_SEC = 2.0

#: name -> (network factory, service ids, seed, delivery records hashed)
GRID = {
    "8mbps-cubic-bbr-trace": (highly_constrained, ("iperf_cubic", "iperf_bbr"), 1, True),
    "8mbps-cubic-reno": (highly_constrained, ("iperf_cubic", "iperf_reno"), 2, False),
    "8mbps-bbr-bbr": (highly_constrained, ("iperf_bbr", "iperf_bbr"), 3, False),
    "8mbps-bbr-x5-cubic": (highly_constrained, ("iperf_bbr_x5", "iperf_cubic"), 4, False),
    "50mbps-cubic-bbr-trace": (moderately_constrained, ("iperf_cubic", "iperf_bbr"), 1, True),
    "50mbps-cubic-cubic": (moderately_constrained, ("iperf_cubic", "iperf_cubic"), 2, False),
    "50mbps-bbr-bbr": (moderately_constrained, ("iperf_bbr", "iperf_bbr"), 3, False),
    "50mbps-netflix-cubic": (moderately_constrained, ("netflix", "iperf_cubic"), 5, False),
    "50mbps-meet-bbr": (moderately_constrained, ("meet", "iperf_bbr"), 6, False),
    "50mbps-web-bbr": (moderately_constrained, ("news_google", "iperf_bbr"), 7, False),
    "8mbps-gdrive-youtube": (highly_constrained, ("gdrive", "youtube"), 8, False),
}


def _run(make_engine, name: str, recorders):
    """(result, testbed) of one grid scenario, recorded by ``recorders``."""
    network_factory, service_ids, seed, _traced = GRID[name]
    catalog = default_catalog()
    return run_trial_artifacts(
        [catalog.get(sid) for sid in service_ids],
        network_factory(),
        ExperimentConfig().scaled(DURATION_SEC),
        seed=seed,
        recorders=recorders,
        engine=make_engine(),
    )


def _artifact_hash(make_engine, name: str) -> str:
    traced = GRID[name][3]
    flight, trace = FlightRecorder(grid_usec=10_000), PacketTrace()
    result, testbed = _run(make_engine, name, [flight, trace])
    payload = {
        "report": result.to_json(),
        "trace": {"records": trace.records if traced else []},
        "queue_log": queue_log_json(flight, trace),
        "clock": testbed.bell.engine.now,
        "events_scheduled": testbed.bell.engine.events_scheduled,
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


class TestEngineGrid:
    def test_grid_has_eleven_scenarios(self):
        assert len(GRID) == 11

    @pytest.mark.parametrize("name", sorted(GRID))
    def test_heap_and_calendar_hashes_match(self, name):
        assert _artifact_hash(HeapEngine, name) == _artifact_hash(
            CalendarEngine, name
        )

    @pytest.mark.parametrize("name", sorted(GRID))
    def test_trace_drops_conserve_the_queue_drop_counters(self, name):
        """Every tail drop the queue counts in the measurement window is
        one drop instant in the packet trace, per service."""
        trace = PacketTrace()
        _result, testbed = _run(CalendarEngine, name, [trace])
        link = testbed.bell.link
        opened = link.probe.window_open_usec
        logged = {}
        for when, service_id in trace.drop_events:
            if when >= opened:
                logged[service_id] = logged.get(service_id, 0) + 1
        assert logged == dict(link.queue.drops)
