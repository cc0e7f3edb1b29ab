"""Testbed assembly: one Dumbbell plus attached services.

A thin composition layer between the network simulator and the experiment
runner: it owns the topology, attaches services, and exposes the
measurement-window bookkeeping (reset at warmup end, snapshot at the end).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .. import units
from ..config import ExperimentConfig, NetworkConfig
from ..netsim.topology import Dumbbell
from ..services.base import Service
from .earlystop import EarlyStopped


class Testbed:
    """One experiment's worth of emulated network plus services.

    ``recorders`` are what the trial records - either or both of
    :class:`~repro.netsim.trace.PacketTrace` and
    :class:`~repro.obs.flight.FlightRecorder` (whose queue channel is
    the queue log), each with an ``attach(link)``; with none, nothing is
    recorded.
    """

    #: Not a pytest test class, despite the name.
    __test__ = False

    def __init__(
        self,
        network: NetworkConfig,
        seed: int = 0,
        engine=None,
        recorders: Sequence = (),
        earlystop=None,
    ) -> None:
        self.network = network
        self.bell = Dumbbell(network, seed=seed, engine=engine)
        # Attach order is subscription order on the link's probe, and so
        # sampling order within one firing: the recorders as given, then
        # the stop rule - last, because it ends the run, so every reader
        # has sampled the instant it fires on.
        for recorder in recorders:
            recorder.attach(self.bell.link)
        if earlystop is not None:
            earlystop.attach(self.bell.link)
        self.services: List[Service] = []
        self._window_start_usec: Optional[int] = None
        self._window_end_usec: Optional[int] = None

    def add_service(self, service: Service) -> Service:
        """Attach a service to the testbed's dumbbell; returns it."""
        service.attach(self.bell)
        self.services.append(service)
        return service

    def start_all(self, start_jitter_usec: int = 250_000) -> None:
        """Start every service, staggered by a small seeded offset.

        Live trials never start the two services at exactly the same
        instant; the stagger (up to 250 ms by default) models that and
        gives repeated trials genuinely independent dynamics.
        """
        rng = self.bell.rng_for("service-start")
        for index, service in enumerate(self.services):
            if index == 0 or start_jitter_usec <= 0:
                service.start()
            else:
                delay = rng.randrange(1, start_jitter_usec + 1)
                self.bell.engine.schedule(delay, service.start)

    def run_window(self, config: ExperimentConfig) -> None:
        """Warm up, open the measurement window, run to its end.

        The paper runs 10 minutes and scores minutes 2-8; anything after
        the window cannot causally affect it, so the cooldown segment is
        configured but not simulated.
        """
        self.bell.run(config.measure_start_usec)
        self.open_window()
        try:
            self.bell.run(config.measure_end_usec)
        except EarlyStopped:
            # The stop rule fired mid-window: the window simply closes
            # at the truncation point and every windowed metric becomes
            # a rate estimate over the shorter horizon (DESIGN §10).
            pass
        self.close_window()

    def open_window(self) -> None:
        """Begin the measurement window: reset all windowed counters."""
        self._window_start_usec = self.bell.engine.now
        self.bell.link.reset_stats()
        for service in self.services:
            service.on_measure_start()

    def close_window(self) -> None:
        """End the measurement window (freezes the window length)."""
        self._window_end_usec = self.bell.engine.now

    @property
    def window_usec(self) -> int:
        if self._window_start_usec is None or self._window_end_usec is None:
            raise RuntimeError("measurement window was never run")
        return self._window_end_usec - self._window_start_usec

    # ------------------------------------------------------------------
    # Window measurements
    # ------------------------------------------------------------------

    def throughput_bps(self) -> Dict[str, float]:
        """Per-service delivered throughput over the window (wire bytes)."""
        window_sec = self.window_usec / units.USEC_PER_SEC
        return {
            service.service_id: (
                self.bell.link.delivered_bytes.get(service.service_id, 0)
                * 8
                / window_sec
            )
            for service in self.services
        }

    def loss_rates(self) -> Dict[str, float]:
        """Per-service bottleneck loss rate over the window."""
        return {
            service.service_id: self.bell.queue.loss_rate(service.service_id)
            for service in self.services
        }

    def queueing_delays_usec(self) -> Dict[str, float]:
        """Per-service mean bottleneck queueing delay over the window."""
        return {
            service.service_id: self.bell.queue.mean_queueing_delay_usec(
                service.service_id
            )
            for service in self.services
        }

    def utilization(self) -> float:
        """Total link utilization over the window."""
        return self.bell.link.utilization(self.window_usec)

    def external_loss_fraction(self) -> float:
        """Upstream (outside-the-testbed) loss across all services."""
        return self.bell.external_loss_fraction()
