"""Golden bit-identity: the simulator's outputs must not drift.

The hot-path optimisations promise *bit-identical* results, so this test
pins the complete artifact set of one fixed-seed pair trial - the
experiment report, the packet trace, and the queue log (a 10 ms flight
recorder's queue occupancy plus the trace's drop instants) - against a
committed fixture, byte for byte.

If this test fails, some change altered simulation behaviour (event
ordering, arithmetic, RNG draws, serialisation).  If the change is
intentional and understood, regenerate the fixture::

    PYTHONPATH=src:tests python -c \
        "import test_golden_identity as g; g.write_fixture()"

and say so in the commit message; otherwise, find the bug.
"""

import json
import pathlib

from repro.config import ExperimentConfig, highly_constrained
from repro.core.experiment import run_trial_artifacts
from repro.netsim.trace import PacketTrace
from repro.obs.flight import FlightRecorder
from repro.services.catalog import default_catalog

FIXTURE = pathlib.Path(__file__).parent / "data" / "golden_pair_8mbps_seed1.json"

#: The pinned scenario: iperf_cubic vs iperf_bbr, 8 Mbps / 128-packet
#: queue, 3 simulated seconds, seed 1, packet trace on.
SCENARIO = {
    "services": ["iperf_cubic", "iperf_bbr"],
    "network": "highly_constrained",
    "duration_sec": 3.0,
    "seed": 1,
}


def queue_log_json(flight: FlightRecorder, trace: PacketTrace) -> dict:
    """The fixture's ``queue_log`` section: ``flight``'s queue occupancy
    rows and ``trace``'s drop instants, in the layout the fixture was
    written in."""
    queue = flight.queue
    return {
        "sample_period_usec": flight.grid_usec,
        "samples": list(zip(queue.times_usec, queue.occupancy)),
        "drop_events": trace.drop_events,
    }


def compute_payload(engine=None, recorders=(), earlystop=None) -> dict:
    """Run the pinned scenario and collect every published artifact.

    ``engine`` substitutes the scheduler core (the heap oracle); the
    default is the simulator's own.  ``recorders`` attach after the
    10 ms flight recorder and packet trace, and ``earlystop`` after them
    all; none may change a byte.
    """
    catalog = default_catalog()
    specs = [catalog.get(sid) for sid in SCENARIO["services"]]
    config = ExperimentConfig().scaled(SCENARIO["duration_sec"])
    flight, trace = FlightRecorder(grid_usec=10_000), PacketTrace()
    result, _testbed = run_trial_artifacts(
        specs,
        highly_constrained(),
        config,
        seed=SCENARIO["seed"],
        recorders=[flight, trace, *recorders],
        engine=engine,
        earlystop=earlystop,
    )
    return {
        "scenario": SCENARIO,
        "report": result.to_json(),
        "trace": {"records": trace.records},
        "queue_log": queue_log_json(flight, trace),
    }


def serialize(payload: dict) -> bytes:
    return (json.dumps(payload, indent=1, sort_keys=True) + "\n").encode()


def write_fixture() -> None:  # pragma: no cover - regeneration helper
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_bytes(serialize(compute_payload()))
    print(f"wrote {FIXTURE}")


class TestGoldenIdentity:
    def test_artifacts_byte_identical_to_fixture(self):
        assert FIXTURE.exists(), (
            "golden fixture missing; regenerate per the module docstring"
        )
        assert serialize(compute_payload()) == FIXTURE.read_bytes()

    def test_artifacts_byte_identical_at_the_heap_oracle(self):
        # The same bytes from the binary heap the calendar queue replaced:
        # dispatch order is (time, seq) on both.
        from tests.naive_engine import HeapEngine

        payload = compute_payload(engine=HeapEngine())
        assert serialize(payload) == FIXTURE.read_bytes()

    def test_fixture_is_loadable_json(self):
        payload = json.loads(FIXTURE.read_text())
        assert payload["scenario"] == SCENARIO
        assert payload["report"]["seed"] == 1
        assert payload["trace"]["records"], "trace should be non-empty"
        assert payload["queue_log"]["samples"], "queue log should be non-empty"
