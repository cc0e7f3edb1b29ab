"""File-transfer services: bulk downloads, Mega's batch machinery,
OneDrive's varying throttle."""

import pytest

from repro import units
from repro.config import moderately_constrained
from repro.core.testbed import Testbed
from repro.obs.flight import FlightRecorder
from repro.cca.bbr import BBRv1, BBR_LINUX_4_15
from repro.cca.cubic import Cubic
from repro.services.filetransfer import (
    FileTransferService,
    MegaTransferService,
    ThrottledFileTransferService,
)


def run_service(service, seconds=30, seed=1, network=None, recorders=()):
    testbed = Testbed(
        network or moderately_constrained(), seed=seed, recorders=recorders
    )
    testbed.add_service(service)
    testbed.start_all()
    testbed.bell.run(units.seconds(seconds))
    return testbed


class TestFileTransfer:
    def test_fills_link(self):
        service = FileTransferService(
            "dl", cca_factory=lambda i: BBRv1(BBR_LINUX_4_15, seed=i)
        )
        run_service(service, seconds=20)
        rate = service.bytes_received * 8 / 20 / 1e6
        assert rate > 40

    def test_completion_flag(self):
        service = FileTransferService(
            "dl",
            cca_factory=lambda i: Cubic(),
            file_bytes=5 * 10**6,
        )
        run_service(service, seconds=20)
        assert service.completed

    def test_multi_flow_split(self):
        service = FileTransferService(
            "dl",
            cca_factory=lambda i: Cubic(),
            num_flows=3,
            file_bytes=30 * 10**6,
        )
        run_service(service, seconds=30)
        assert service.completed
        assert all(c.bytes_received > 0 for c in service.connections)

    def test_rate_cap(self):
        service = FileTransferService(
            "dl",
            cca_factory=lambda i: Cubic(),
            server_rate_cap_bps=units.mbps(10),
        )
        run_service(service, seconds=20)
        rate = service.bytes_received * 8 / 20 / 1e6
        assert rate < 11
        assert service.solo_rate_cap_bps() == units.mbps(10)


class TestMega:
    def make_mega(self, **overrides):
        defaults = dict(
            cca_factory=lambda i: BBRv1(BBR_LINUX_4_15, seed=100 + i),
            chunk_bytes=2 * 2**20,
            batch_gap_usec=units.msec(100),
        )
        defaults.update(overrides)
        return MegaTransferService("mega", **defaults)

    def test_requires_cca_factory(self):
        with pytest.raises(ValueError):
            MegaTransferService("mega")

    def test_batches_complete(self):
        mega = self.make_mega()
        run_service(mega, seconds=20)
        assert mega.batches_completed >= 2
        assert mega.metrics()["batches_completed"] >= 2

    def test_five_concurrent_chunks_per_batch(self):
        mega = self.make_mega()
        run_service(mega, seconds=10)
        # Fresh connections per batch: connection count is a multiple of 5.
        assert len(mega.connections) % 5 == 0
        assert len(mega.connections) >= 5

    def test_barrier_synchronises_batches(self):
        """No flow may start batch N+1 before all of batch N finished:
        total chunks requested is always a multiple of the flow count."""
        mega = self.make_mega()
        run_service(mega, seconds=15)
        assert mega._bytes_requested % (5 * mega.chunk_bytes) == 0

    def test_persistent_mode_reuses_connections(self):
        mega = self.make_mega(fresh_connections_per_batch=False)
        run_service(mega, seconds=15)
        assert len(mega.connections) == 5
        assert mega.batches_completed >= 2

    def test_bursty_traffic_pattern(self):
        """The batch gap shows up as on/off structure in the queue."""
        mega = self.make_mega(batch_gap_usec=units.msec(500))
        flight = FlightRecorder(grid_usec=10_000)
        run_service(mega, seconds=20, recorders=[flight])
        occ = flight.queue.occupancy
        tail = occ[len(occ) // 4:]
        assert max(tail) > 50
        # The inter-batch gaps show up as deep dips in occupancy.
        assert min(tail) < 0.2 * max(tail)

    def test_finite_file_stops(self):
        mega = self.make_mega(file_bytes=20 * 2**20)
        run_service(mega, seconds=30)
        assert mega._bytes_requested == 20 * 2**20


class TestThrottledOneDrive:
    def test_cap_redraws_over_time(self):
        service = ThrottledFileTransferService(
            "onedrive", cca_factory=lambda i: Cubic(), throttle_seed=5
        )
        testbed = Testbed(moderately_constrained(), seed=1)
        testbed.add_service(service)
        testbed.start_all()
        caps = set()
        for step in range(12):
            testbed.bell.run(units.seconds(10 * (step + 1)))
            caps.add(service.server_rate_cap_bps)
        assert len(caps) >= 2  # the throttle moved at least once

    def test_documented_cap_is_45mbps(self):
        service = ThrottledFileTransferService(
            "onedrive", cca_factory=lambda i: Cubic()
        )
        assert service.solo_rate_cap_bps() == units.mbps(45)

    def test_trial_seeds_give_different_profiles(self):
        rates = []
        for seed in (1, 2, 3):
            service = ThrottledFileTransferService(
                "onedrive", cca_factory=lambda i: Cubic(), throttle_seed=seed
            )
            run_service(service, seconds=40, seed=9)
            rates.append(service.bytes_received)
        assert len(set(rates)) > 1
