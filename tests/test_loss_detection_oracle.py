"""The flat ACK path must mark losses exactly as the oracle does.

Two connections - the real one and ``ReferenceConnection`` (loss
detection as a separate call, ``tests/naive_loss_detection.py``) - send
into a network that is just a list.  A generated program then decides
the fate of each transmission: acknowledged in any order (reordering
past dupthresh provokes spurious loss marking and late ACKs for
superseded transmissions), dropped at the bottleneck, lost upstream, or
left long enough for the RTO to fire.  After every step the two
connections must agree on every field loss detection reads or writes.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.cca import BBRv1, NewReno
from repro.transport.connection import Connection

from tests.naive_engine import HeapEngine
from tests.naive_loss_detection import ReferenceConnection


class ListPath:
    """Stands in for ``netsim.topology.Path``: sent packets pile up in
    ``sent``; requests reach the server at once."""

    def __init__(self, engine) -> None:
        self.engine = engine
        self.link = SimpleNamespace(probe=SimpleNamespace(connections=[]))
        self.sent = []

    def transmit(self, packet) -> None:
        self.sent.append(packet)

    def send_reverse_ordered(self, callback, not_before_usec=0) -> int:
        self.engine.schedule(0, callback)
        return self.engine.now


def snapshot(conn, network):
    return {
        "inflight": sorted(conn._inflight),
        "order": [(p.seq, p.tx_index) for p in conn._order],
        "rtx_queue": list(conn._rtx_queue),
        "pool": [(p.seq, p.tx_index) for p in conn._pool],
        "network": [(p.seq, p.tx_index, p.is_retransmit) for p in network],
        "counters": (
            conn.packets_sent, conn.packets_acked, conn.packets_marked_lost,
            conn.rto_count, conn.highest_acked, conn._highest_acked_tx,
            conn._recovery_until_tx,
        ),
        "cwnd": conn.cca.cwnd_packets,
        "rto": (conn._rto_timer.deadline, conn.rtt.rto_usec),
    }


def drive(conn_cls, make_cca, program):
    """Run ``program`` against one connection; a snapshot per step."""
    engine = HeapEngine()
    path = ListPath(engine)
    conn = conn_cls(engine, path, make_cca(), "svc", "svc-0")
    conn.request(500 * conn.mss_bytes)
    network = []
    snapshots = []
    for kind, index, wait_usec in program:
        # Pacing wakeups and the RTO fire inside this run().
        engine.run(until_usec=engine.now + wait_usec)
        network.extend(path.sent)
        path.sent.clear()
        if network:
            packet = network.pop(index % len(network))
            if kind == "ack":
                conn._handle_ack(packet)
            elif kind == "drop":
                conn.on_packet_dropped(packet)
            # "lose": vanished upstream, its chain never completes.
            network.extend(path.sent)
            path.sent.clear()
        snapshots.append(snapshot(conn, network))
    return snapshots


#: Mostly ACKs near the head of the network (mild reordering), some far
#: from it, some drops, and now and then a wait long enough for an RTO.
_step = st.tuples(
    st.sampled_from(["ack"] * 6 + ["drop", "lose"]),
    st.one_of(st.integers(0, 2), st.integers(0, 40)),
    st.one_of(st.integers(1, 20_000), st.just(1_500_000)),
)


@pytest.mark.parametrize(
    "make_cca", [NewReno, lambda: BBRv1(seed=3)], ids=["newreno", "bbr"]
)
@settings(max_examples=120, deadline=None)
@given(program=st.lists(_step, min_size=1, max_size=120))
def test_flat_ack_path_matches_the_oracle(make_cca, program):
    flat = drive(Connection, make_cca, program)
    reference = drive(ReferenceConnection, make_cca, program)
    assert flat == reference


def test_the_program_space_reaches_every_branch():
    """One hand-written program: fast retransmit, a late ACK for a
    superseded transmission, a bottleneck drop and an RTO all occur."""
    program = (
        [("ack", 0, 1_000)] * 4
        + [("ack", 5, 1_000)] * 6      # far reordering: spurious loss marks
        + [("ack", 0, 1_000)] * 8      # late ACKs of the originals
        + [("drop", 0, 1_000), ("lose", 0, 1_000)]
        + [("ack", 1, 1_000)] * 10
        + [("ack", 0, 1_500_000)]      # RTO
        + [("ack", 0, 1_000)] * 10
    )
    flat = drive(Connection, NewReno, program)
    assert flat == drive(ReferenceConnection, NewReno, program)
    sent, acked, lost, rtos = flat[-1]["counters"][:4]
    assert lost > 0 and rtos > 0 and acked > 0
    assert any(step["rtx_queue"] or any(r for _s, _t, r in step["network"])
               for step in flat), "no retransmission was ever produced"
    assert flat[-1]["pool"], "retired packets should reach the free list"
