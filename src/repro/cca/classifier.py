"""Active congestion-control classifier (the paper's CCAnalyzer step).

The paper could not get ground-truth CCA information for Vimeo and Mega, so
it ran a classifier and verified the result against BBR's probing
signatures in traces.  This module reproduces that methodology against
*our* flows: it runs an unknown controller solo through a controlled
bottleneck and classifies its family from externally observable bottleneck
behaviour - queue-occupancy level and the shape of the congestion ramps -
exactly the nearly-passive signals CCAnalyzer uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

from .. import units
from ..config import NetworkConfig
from ..netsim.topology import Dumbbell
from ..obs.flight import QueueChannel
from ..transport.connection import Connection
from .base import CongestionControl


@dataclass
class ClassifierReport:
    """Observable features plus the resulting label."""

    label: str
    mean_queue_fraction: float
    deep_dip_count: int
    ramp_linearity: float
    loss_rate: float


def _linearity(ramp: List[Tuple[float, float]]) -> float:
    """R^2 of a least-squares line through one congestion ramp.

    NewReno's additive increase produces near-perfectly linear queue ramps
    (R^2 ~ 1); Cubic's plateau-then-burst shape fits a line poorly.
    """
    n = len(ramp)
    if n < 3:
        return 1.0
    xs = [p[0] for p in ramp]
    ys = [p[1] for p in ramp]
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    syy = sum((y - mean_y) ** 2 for y in ys)
    if sxx == 0 or syy == 0:
        return 1.0
    return (sxy * sxy) / (sxx * syy)


class CCAClassifier:
    """Runs an unknown controller solo and labels its family."""

    def __init__(
        self,
        bandwidth_bps: float = units.mbps(10),
        duration_sec: float = 30.0,
        seed: int = 0,
    ) -> None:
        self.network = NetworkConfig(
            bandwidth_bps=bandwidth_bps, buffer_bdp_multiple=4.0
        )
        self.duration_usec = units.seconds(duration_sec)
        self.seed = seed

    def run(self, cca_factory: Callable[[], CongestionControl]) -> ClassifierReport:
        """Probe the controller and return features plus a label."""
        bell = Dumbbell(self.network, seed=self.seed)
        queue = QueueChannel(self.network.queue_packets)
        bell.link.subscribe(5_000, queue.sample)
        path = bell.path_for_service("probe")
        conn = Connection(
            bell.engine, path, cca_factory(), service_id="probe", flow_id="probe-0"
        )
        conn.request(10**12)  # effectively unbounded bulk transfer
        bell.run(self.duration_usec)

        times, occupancy = queue.times_usec, queue.occupancy
        capacity = self.network.queue_packets
        # Skip the startup transient (first 20% of the run).
        cut = self.duration_usec // 5
        window = [
            (t, occ) for t, occ in zip(times, occupancy) if t >= cut
        ]
        if not window:
            window = list(zip(times, occupancy))
        mean_fraction = (
            sum(occ for _t, occ in window) / len(window) / capacity
            if window
            else 0.0
        )
        deep_dips = self._count_deep_dips(window, capacity)
        ramps = self._extract_ramps(window, capacity)
        if len(ramps) > 1:
            # The final ramp is truncated by the end of the probe run and
            # fits nothing reliably; ignore it.
            ramps = ramps[:-1]
        # Length-weighted fit: long ramps carry the signal.
        total_len = sum(len(r) for r in ramps)
        linearity = (
            sum(_linearity(r) * len(r) for r in ramps) / total_len
            if total_len
            else 1.0
        )
        loss = bell.queue.loss_rate("probe")
        label = self._label(mean_fraction, deep_dips, linearity)
        return ClassifierReport(
            label=label,
            mean_queue_fraction=mean_fraction,
            deep_dip_count=deep_dips,
            ramp_linearity=linearity,
            loss_rate=loss,
        )

    @staticmethod
    def _count_deep_dips(
        window: List[Tuple[int, int]], capacity: int
    ) -> int:
        """Count excursions to a (near-)empty queue - BBR's ProbeRTT marks."""
        dips = 0
        in_dip = False
        for _t, occ in window:
            if occ <= max(1, capacity // 50):
                if not in_dip:
                    dips += 1
                    in_dip = True
            else:
                in_dip = False
        return dips

    @staticmethod
    def _smooth(window: List[Tuple[int, int]], span: int = 7) -> List[Tuple[int, float]]:
        """Moving-average smoothing of the occupancy series.

        The anti-phase-effect dither in the testbed adds per-sample noise
        that would otherwise corrupt the ramp-shape fit.
        """
        if len(window) <= span:
            return [(t, float(occ)) for t, occ in window]
        occs = [occ for _t, occ in window]
        half = span // 2
        smoothed = []
        for i, (t, _occ) in enumerate(window):
            lo = max(0, i - half)
            hi = min(len(occs), i + half + 1)
            smoothed.append((t, sum(occs[lo:hi]) / (hi - lo)))
        return smoothed

    @classmethod
    def _extract_ramps(
        cls, window: List[Tuple[int, int]], capacity: int
    ) -> List[List[Tuple[float, float]]]:
        """Split the (smoothed) occupancy series at loss drops into ramps."""
        ramps: List[List[Tuple[float, float]]] = []
        current: List[Tuple[float, float]] = []
        prev_occ = None
        for t, occ in cls._smooth(window):
            if prev_occ is not None and occ < prev_occ * 0.8 and prev_occ > capacity // 4:
                if len(current) >= 8:
                    ramps.append(current)
                current = []
            current.append((t / 1e6, float(occ)))
            prev_occ = occ
        if len(current) >= 8:
            ramps.append(current)
        return ramps

    def _label(
        self, mean_fraction: float, deep_dips: int, linearity: float
    ) -> str:
        if mean_fraction < 0.08:
            # A delay-based controller holds only a few packets queued
            # (Vegas targets 2-4) and never fills the buffer.
            return "delay-based"
        if mean_fraction < 0.55:
            return "bbr-like"
        if linearity >= 0.92:
            return "reno-like"
        return "cubic-like"


def classify_cca(
    cca_factory: Callable[[], CongestionControl],
    bandwidth_bps: float = units.mbps(10),
    duration_sec: float = 30.0,
    seed: int = 0,
) -> str:
    """Convenience wrapper: probe ``cca_factory`` and return its label."""
    classifier = CCAClassifier(
        bandwidth_bps=bandwidth_bps, duration_sec=duration_sec, seed=seed
    )
    return classifier.run(cca_factory).label
