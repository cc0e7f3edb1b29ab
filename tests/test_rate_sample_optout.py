"""Opting out of delivery-rate samples changes nothing but the cost.

``CongestionControl.uses_rate_samples = False`` makes the connection skip
the rate sampler on every send and ACK.  That is sound only if the
controller never looks at what the sampler would have produced, so:

* an AST scan holds every ``repro.cca`` controller to its declaration;
* loss- and delay-based trials with sampling forced back on (test-only
  subclasses) publish byte-identical results, packet traces and queue
  logs;
* on a sampled (BBR) flow every packet - fresh or recycled from the free
  list - carries the sampler's current state when it is sent, and a free
  list never holds another flow's packets.
"""

import ast
import inspect
import json

import pytest

import repro.cca
from repro.cca import BBRv1, BBRv3, CongestionControl, Cubic, NewReno, Vegas
from repro.cca.bbr import BBR_LINUX_5_15
from repro.config import ExperimentConfig, highly_constrained
from repro.core.experiment import run_trial_artifacts
from repro.netsim.trace import PacketTrace
from repro.obs.flight import FlightRecorder
from repro.services.iperf import IperfService

#: What only the rate sampler writes: the per-packet snapshot fields and
#: the connection's sampler itself.
SAMPLER_ATTRS = {
    "delivered", "delivered_time", "first_sent_time", "is_app_limited",
    "sampler",
}


def controllers():
    """Every CongestionControl subclass defined under ``repro.cca``."""
    found = set()
    for _name, module in inspect.getmembers(repro.cca, inspect.ismodule):
        for _cls_name, cls in inspect.getmembers(module, inspect.isclass):
            if issubclass(cls, CongestionControl) and cls.__module__ == module.__name__:
                found.add(cls)
    return sorted(found, key=lambda cls: cls.__name__)


CONTROLLERS = controllers()


def reads_rate_samples(cls) -> bool:
    """True if the class body loads ``rate_sample`` or a sampler field."""
    tree = ast.parse(inspect.getsource(inspect.getmodule(cls)))
    body = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == cls.__name__
    )
    for node in ast.walk(body):
        if isinstance(node, ast.Name) and node.id == "rate_sample":
            if isinstance(node.ctx, ast.Load):
                return True
        elif isinstance(node, ast.Attribute) and node.attr in SAMPLER_ATTRS:
            return True
    return False


class TestDeclarationsMatchTheCode:
    def test_scan_sees_the_known_controllers(self):
        assert {CongestionControl, NewReno, Cubic, Vegas, BBRv1, BBRv3} <= set(
            CONTROLLERS
        )
        assert reads_rate_samples(BBRv1)
        assert not reads_rate_samples(Cubic)

    @pytest.mark.parametrize("cls", CONTROLLERS, ids=lambda cls: cls.__name__)
    def test_a_controller_that_reads_samples_keeps_the_default(self, cls):
        """Own body or inherited: reading implies ``uses_rate_samples``
        (so an opted-out controller provably reads nothing)."""
        reads = any(
            reads_rate_samples(base)
            for base in cls.__mro__
            if base in CONTROLLERS
        )
        if reads:
            assert cls.uses_rate_samples is True

    def test_the_loss_and_delay_based_controllers_opt_out(self):
        assert [cls.uses_rate_samples for cls in (NewReno, Cubic, Vegas)] == [
            False, False, False,
        ]
        assert BBRv1.uses_rate_samples and BBRv3.uses_rate_samples
        assert CongestionControl.uses_rate_samples


class BulkSpec:
    """A one-flow bulk service over a test-only controller class.

    A catalog recipe names only the library's controllers, so this is
    the duck-typed spec ``run_trial_artifacts`` reads: an id, no cap, and
    ``create``.
    """

    max_throughput_bps = None

    def __init__(self, service_id, cca_factory):
        self.service_id = service_id
        self.cca_factory = cca_factory

    def create(self, seed, env):
        return IperfService(
            self.service_id, cca_factory=lambda i: self.cca_factory()
        )


def run_pair(cca_a, cca_b):
    """(artifacts as one JSON string, finished testbed) of a bulk pair."""
    flight, trace = FlightRecorder(grid_usec=10_000), PacketTrace()
    result, testbed = run_trial_artifacts(
        [BulkSpec("bulk_a", cca_a), BulkSpec("bulk_b", cca_b)],
        highly_constrained(),
        ExperimentConfig().scaled(3.0),
        seed=5,
        recorders=[flight, trace],
    )
    artifacts = json.dumps(
        {
            "result": result.to_json(),
            "trace": trace.to_json(),
            "queue_log": flight.queue.to_json(),
        },
        sort_keys=True,
    )
    return artifacts, testbed


def sampled(cls):
    """``cls`` with rate sampling forced back on."""
    return type(f"Sampled{cls.__name__}", (cls,), {"uses_rate_samples": True})


def connections(testbed):
    return [c for s in testbed.services for c in s.connections]


class TestForcedSamplingIsByteIdentical:
    @pytest.mark.parametrize(
        "cca_a, cca_b", [(Cubic, NewReno), (Vegas, Cubic)],
        ids=["cubic-vs-newreno", "vegas-vs-cubic"],
    )
    def test_artifacts_identical_with_and_without_sampling(self, cca_a, cca_b):
        skipped, skipped_bed = run_pair(cca_a, cca_b)
        forced, forced_bed = run_pair(sampled(cca_a), sampled(cca_b))
        # The two runs really differ in what they paid for ...
        assert all(c.sampler is None for c in connections(skipped_bed))
        assert all(c.sampler.delivered > 0 for c in connections(forced_bed))
        # ... and in nothing they published.
        assert forced == skipped


class TestSampledFlowsSeeFreshSnapshots:
    def test_every_bbr_packet_carries_the_sampler_state_at_send(self):
        checked = {"fresh": 0, "recycled": 0}
        seen = set()  # holds the packets, so no id is ever reused

        class Checking(BBRv1):
            def on_sent(self, conn, packet):
                sampler = conn.sampler
                assert packet.delivered == sampler.delivered
                assert packet.delivered_time == sampler.delivered_time
                assert packet.first_sent_time == sampler.first_sent_time
                assert packet.is_app_limited == (
                    sampler.app_limited_until > sampler.delivered
                )
                checked["recycled" if packet in seen else "fresh"] += 1
                seen.add(packet)

        _artifacts, testbed = run_pair(
            Cubic, lambda: Checking(BBR_LINUX_5_15, seed=9)
        )
        # Both kinds of packet were exercised on the sampled flow.
        assert checked["fresh"] > 0 and checked["recycled"] > 0
        cubic, bbr = connections(testbed)
        assert cubic.sampler is None and bbr.sampler is not None

    def test_free_lists_are_per_connection(self):
        _artifacts, testbed = run_pair(
            Cubic, lambda: BBRv1(BBR_LINUX_5_15, seed=9)
        )
        conns = connections(testbed)
        assert len({id(c._pool) for c in conns}) == len(conns)
        for conn in conns:
            assert conn._pool, "steady load should leave retired packets"
            assert all(packet.flow is conn for packet in conn._pool)
