"""A deterministic budget for the per-packet path.

Wall-clock gates cannot hold in tier-1 (the host drifts by tens of
percent), but the *work* one simulated packet costs is exact at a fixed
seed.  On the golden pair (iperf_cubic vs iperf_bbr, 8 Mbps, 3 simulated
seconds, seed 1) this file pins:

* Python frames entered under ``repro/netsim``, ``repro/transport``,
  ``repro/cca`` and ``repro/obs/flight.py`` per packet reaching the
  switch - counted with ``sys.setprofile``, identical across two runs,
  under a ceiling, with and without a ``FlightRecorder`` attached;
* engine events per packet sent - exactly the value the simulator had
  before the per-packet path was trimmed (DESIGN.md section 6: four
  events per packet is the byte-identical floor, and the trimming removed
  frames and bytecodes, never an event) - and exactly the same with the
  recorder attached, whose samples ride the link's probe;
* the attribute layout the hot objects rely on: ``Connection`` has no
  ``__dict__`` (it has more attributes than CPython's shared-key table
  holds), and every other per-flow / per-packet object either declares
  ``__slots__`` or stays within the shared-key limit.
"""

import sys

from repro.config import ExperimentConfig, highly_constrained
from repro.core.experiment import run_trial_artifacts
from repro.obs.flight import FlightRecorder
from repro.services.catalog import default_catalog
from repro.transport.connection import Connection

from tests.test_golden_identity import SCENARIO

HOT_DIRS = (
    "/repro/netsim/", "/repro/transport/", "/repro/cca/", "/repro/obs/flight.py"
)

#: Ceiling on hot-path Python frames per packet reaching the switch
#: (15.951 measured: a trial without recorders samples nothing; an
#: always-on queue log cost 0.471 more).
FRAMES_PER_PACKET_BUDGET = 16.0

#: The same ceiling with a FlightRecorder attached (16.108 measured,
#: 15.951 detached): what the recorder costs per packet, as a count.
FLIGHT_FRAMES_PER_PACKET_BUDGET = 16.2

#: Engine events, packets sent and packets reaching the switch on the
#: golden pair - the values the simulator had before PR 19 trimmed the
#: per-packet path (6513 / 1824 = 3.5707... events per packet).
GOLDEN_EVENTS = 6_513
GOLDEN_PACKETS_SENT = 1_824
GOLDEN_PACKETS_AT_SWITCH = 1_808

#: CPython 3.11's shared-key dictionaries hold at most 30 keys; one more
#: instance attribute and every ``self.x`` on the object falls off the
#: inline-values path.
SHARED_KEY_LIMIT = 29


def run_golden_pair(recorders=()):
    catalog = default_catalog()
    specs = [catalog.get(sid) for sid in SCENARIO["services"]]
    config = ExperimentConfig().scaled(SCENARIO["duration_sec"])
    _result, testbed = run_trial_artifacts(
        specs, highly_constrained(), config, seed=SCENARIO["seed"],
        recorders=recorders,
    )
    return testbed


def count_hot_frames(recorders=()):
    """(frames under HOT_DIRS, packets reaching the switch, testbed)."""
    counts = {"frames": 0, "switch": 0}
    kinds = {}  # code object -> None (not hot), "frames" or "switch"

    def profiler(frame, event, _arg):
        if event != "call":
            return
        code = frame.f_code
        if code not in kinds:
            filename = code.co_filename.replace("\\", "/")
            if not any(part in filename for part in HOT_DIRS):
                kinds[code] = None
            elif filename.endswith("/link.py") and code.co_name == "send":
                kinds[code] = "switch"  # BottleneckLink.send
            else:
                kinds[code] = "frames"
        kind = kinds[code]
        if kind is not None:
            counts["frames"] += 1
            if kind == "switch":
                counts["switch"] += 1

    sys.setprofile(profiler)
    try:
        testbed = run_golden_pair(recorders)
    finally:
        sys.setprofile(None)
    return counts["frames"], counts["switch"], testbed


class TestFrameBudget:
    def test_frames_per_packet_repeat_and_stay_under_budget(self):
        frames, at_switch, _ = count_hot_frames()
        again = count_hot_frames()[:2]
        assert (frames, at_switch) == again
        assert at_switch == GOLDEN_PACKETS_AT_SWITCH
        assert frames / at_switch <= FRAMES_PER_PACKET_BUDGET

    def test_engine_events_per_packet_unchanged(self):
        testbed = run_golden_pair()
        packets = sum(
            conn.packets_sent
            for service in testbed.services
            for conn in service.connections
        )
        events = testbed.bell.engine.events_scheduled
        assert (events, packets) == (GOLDEN_EVENTS, GOLDEN_PACKETS_SENT)

    def test_an_attached_flight_recorder_costs_frames_not_events(self):
        frames, at_switch, testbed = count_hot_frames([FlightRecorder()])
        again = count_hot_frames([FlightRecorder()])[:2]
        assert (frames, at_switch) == again
        assert at_switch == GOLDEN_PACKETS_AT_SWITCH
        assert testbed.bell.engine.events_scheduled == GOLDEN_EVENTS
        assert frames / at_switch <= FLIGHT_FRAMES_PER_PACKET_BUDGET


def hot_objects(testbed):
    """Every object the simulator builds per flow or per packet."""
    for service in testbed.services:
        for conn in service.connections:
            yield conn
            yield conn.cca
            yield conn.rtt
            yield conn.path
            yield conn._rto_timer
            if conn.sampler is not None:
                yield conn.sampler
                yield conn.sampler._sample
            btlbw = getattr(conn.cca, "_btlbw", None)
            if btlbw is not None:
                yield btlbw
            yield from conn._pool
            yield from conn._inflight.values()


class TestAttributeLayout:
    def test_connection_has_no_instance_dict(self):
        testbed = run_golden_pair()
        conns = [c for s in testbed.services for c in s.connections]
        assert conns
        for conn in conns:
            assert type(conn) is Connection
            assert not hasattr(conn, "__dict__")

    def test_hot_objects_are_slotted_or_within_shared_key_limit(self):
        testbed = run_golden_pair()
        seen = set()
        for obj in hot_objects(testbed):
            seen.add(type(obj).__name__)
            if hasattr(obj, "__dict__"):
                assert len(vars(obj)) <= SHARED_KEY_LIMIT, type(obj)
        # The walk reached the per-packet and per-flow classes it is for.
        assert {
            "Connection", "Packet", "RttEstimator", "RateSampler",
            "Timer", "Path", "Cubic", "BBRv1", "WindowedMaxFilter",
        } <= seen
