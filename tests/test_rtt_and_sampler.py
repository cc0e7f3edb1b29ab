"""RTT estimation (RFC 6298) and delivery-rate sampling."""

import pytest
from hypothesis import given, strategies as st

from repro import units
from repro.netsim.packet import Packet
from repro.transport.rate_sampler import RateSampler
from repro.transport.rtt import RttEstimator


class TestRttEstimator:
    def test_first_sample_initialises(self):
        est = RttEstimator()
        est.on_rtt_sample(100_000)
        assert est.srtt_usec == 100_000
        assert est.rttvar_usec == 50_000
        assert est.min_rtt_usec == 100_000

    def test_smoothing(self):
        est = RttEstimator()
        est.on_rtt_sample(100_000)
        est.on_rtt_sample(200_000)
        # srtt = 7/8*100000 + 1/8*200000 = 112500
        assert est.srtt_usec == pytest.approx(112_500)

    def test_min_tracks_smallest(self):
        est = RttEstimator()
        for sample in (90_000, 50_000, 120_000):
            est.on_rtt_sample(sample)
        assert est.min_rtt_usec == 50_000

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            RttEstimator().on_rtt_sample(0)

    def test_rto_floor(self):
        est = RttEstimator()
        est.on_rtt_sample(1_000)
        assert est.rto_usec >= RttEstimator.MIN_RTO_USEC

    def test_rto_backoff_doubles(self):
        est = RttEstimator()
        est.on_rtt_sample(100_000)
        base = est.rto_usec
        est.backoff()
        assert est.rto_usec == min(2 * base, RttEstimator.MAX_RTO_USEC)

    def test_backoff_reset_on_sample(self):
        est = RttEstimator()
        est.on_rtt_sample(100_000)
        base = est.rto_usec
        est.backoff()
        est.backoff()
        est.on_rtt_sample(100_000)
        assert est.rto_usec == pytest.approx(base, rel=0.2)

    def test_default_rto_one_second(self):
        assert RttEstimator().rto_usec == units.seconds(1)

    @given(st.lists(st.integers(min_value=1, max_value=10**7), min_size=1, max_size=50))
    def test_srtt_within_sample_range(self, samples):
        est = RttEstimator()
        for s in samples:
            est.on_rtt_sample(s)
        assert min(samples) <= est.srtt_usec <= max(samples)


def rfc6298_update(state, rtt_usec):
    """RFC 6298 section 2 with the builtins spelled out - the body
    ``on_rtt_sample`` had before its clamps became comparisons."""
    srtt, rttvar = state
    if srtt is None:
        srtt, rttvar = float(rtt_usec), rtt_usec / 2.0
    else:
        delta = abs(srtt - rtt_usec)
        rttvar = (1 - RttEstimator.BETA) * rttvar + RttEstimator.BETA * delta
        srtt = (1 - RttEstimator.ALPHA) * srtt + RttEstimator.ALPHA * rtt_usec
    base = int(srtt + max(4 * rttvar, 1000))
    rto = min(max(RttEstimator.MIN_RTO_USEC, base), RttEstimator.MAX_RTO_USEC)
    return (srtt, rttvar), rto


class TestRttEstimatorMatchesTheRfcFormulas:
    @given(st.lists(
        st.one_of(
            st.integers(min_value=1, max_value=10**6),
            st.integers(min_value=1, max_value=10**9),  # drives the RTO cap
            st.sampled_from([1, 250, 1000, 199_000, 200_000]),  # clamp edges
        ),
        min_size=1, max_size=60,
    ))
    def test_bit_identical_to_abs_max_min(self, samples):
        est = RttEstimator()
        state = (None, 0.0)
        for sample in samples:
            est.on_rtt_sample(sample)
            state, rto = rfc6298_update(state, sample)
            assert (est.srtt_usec, est.rttvar_usec) == state
            assert est.rto_usec == rto and type(est.rto_usec) is int
        assert est.min_rtt_usec == min(samples)
        assert est.latest_rtt_usec == samples[-1]


class FakeFlow:
    service_id = "svc"


def make_pkt(seq, size=1500):
    return Packet(FakeFlow(), seq, size, 0)


class TestRateSampler:
    def test_simple_rate(self):
        sampler = RateSampler()
        pkt = make_pkt(0)
        sampler.on_sent(pkt, now=0, inflight_bytes=0)
        rs = sampler.on_ack(pkt, now=50_000, rtt_usec=50_000)
        # 1500 bytes over 50 ms = 240 kbps.
        assert rs.delivery_rate_bps == pytest.approx(240_000)
        assert not rs.is_app_limited

    def test_steady_pipeline_converges_to_true_rate(self):
        """Send/ack a steady 1-packet-per-ms pipeline: samples converge
        to 1500 B/ms = 12 Mbps."""
        sampler = RateSampler()
        inflight = []
        last_rate = None
        send_time = 0
        for i in range(300):
            pkt = make_pkt(i)
            sampler.on_sent(pkt, now=send_time, inflight_bytes=len(inflight) * 1500)
            inflight.append(pkt)
            send_time += 1000
            if send_time > 50_000:
                acked = inflight.pop(0)
                rs = sampler.on_ack(acked, now=send_time, rtt_usec=50_000)
                last_rate = rs.delivery_rate_bps
        assert last_rate == pytest.approx(12_000_000, rel=0.05)

    def test_app_limited_flag(self):
        sampler = RateSampler()
        first = make_pkt(0)
        sampler.on_sent(first, now=0, inflight_bytes=0)
        sampler.mark_app_limited(inflight_bytes=1500)
        second = make_pkt(1)
        sampler.on_sent(second, now=10_000, inflight_bytes=1500)
        assert second.is_app_limited
        rs1 = sampler.on_ack(first, now=50_000, rtt_usec=50_000)
        assert not rs1.is_app_limited
        rs2 = sampler.on_ack(second, now=60_000, rtt_usec=50_000)
        assert rs2.is_app_limited

    def test_delivered_accumulates(self):
        sampler = RateSampler()
        for i in range(4):
            pkt = make_pkt(i)
            sampler.on_sent(pkt, now=i * 100, inflight_bytes=0)
            sampler.on_ack(pkt, now=i * 100 + 50_000, rtt_usec=50_000)
        assert sampler.delivered == 6000

    @given(st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 2_000)),
        min_size=1, max_size=80,
    ))
    def test_sample_matches_the_draft_formulas(self, steps):
        """Against the draft's definitions with ``max`` spelled out: send
        1-3 packets, let time pass, ACK the oldest."""
        sampler = RateSampler()
        inflight = []
        now = 0
        for seq, (burst, wait) in enumerate(steps):
            for k in range(burst):
                pkt = make_pkt(seq * 4 + k)
                pkt.sent_time = now
                sampler.on_sent(pkt, now, len(inflight) * 1500)
                inflight.append(pkt)
            now += wait
            if not inflight:
                continue
            pkt = inflight.pop(0)
            delivered_before = sampler.delivered
            delivered_time_before = sampler.delivered_time
            rs = sampler.on_ack(pkt, now, rtt_usec=max(now - pkt.sent_time, 1))
            interval = max(
                pkt.sent_time - pkt.first_sent_time, now - pkt.delivered_time
            )
            delivered = delivered_before + 1500 - pkt.delivered
            assert rs.interval_usec == interval
            assert rs.delivered_bytes == delivered
            assert rs.delivery_rate_bps == (
                0.0 if interval <= 0
                else delivered * 8 * units.USEC_PER_SEC / interval
            )
            assert sampler.delivered == delivered_before + 1500
            assert sampler.delivered_time == now >= delivered_time_before
            assert sampler.first_sent_time == pkt.sent_time
