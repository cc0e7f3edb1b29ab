"""Solo calibration: maximum transfer rates and throttle detection.

Section 3.1: "to detect upstream throttling, we run all services 'solo' to
detect their maximum transfer rate in the absence of contention".  The
calibration results populate the Table-1 'Max Xput' column and flag
services (OneDrive) whose ceiling is imposed upstream rather than by the
testbed or by an encoding cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..config import ExperimentConfig, NetworkConfig
from ..services.catalog import ServiceCatalog, ServiceSpec
from .experiment import ExperimentResult
from .runner import ExecutionBackend, TrialSpec, build_backend


@dataclass
class SoloCalibration:
    """One service's uncontended baseline at one network setting."""

    service_id: str
    solo_throughput_bps: float
    documented_cap_bps: Optional[float]
    link_bandwidth_bps: float

    @property
    def is_link_limited(self) -> bool:
        """The testbed bottleneck, not the service, set the ceiling.

        The 0.85 factor leaves room for protocol overheads and batch
        gaps: Mega's barrier pauses cost it ~10% of the link solo, which
        is not an upstream throttle.
        """
        return self.solo_throughput_bps >= 0.85 * self.link_bandwidth_bps

    @property
    def is_application_limited(self) -> bool:
        """A documented bitrate/encoding cap explains the ceiling."""
        if self.documented_cap_bps is None:
            return False
        return self.solo_throughput_bps <= 1.1 * self.documented_cap_bps

    @property
    def is_upstream_throttled(self) -> bool:
        """Ceiling below the link with no encoding cap to explain it.

        This is how the paper identified OneDrive's 45 Mbps throttle.
        """
        if self.is_link_limited:
            return False
        if self.documented_cap_bps is None:
            return True
        # Services that fall clearly short of even their documented cap
        # are throttled somewhere upstream (OneDrive's varying ceiling).
        return self.solo_throughput_bps < 0.9 * self.documented_cap_bps


def _calibration_from_result(
    spec: ServiceSpec,
    network: NetworkConfig,
    result: ExperimentResult,
) -> SoloCalibration:
    """Classify one solo result's throughput ceiling."""
    return SoloCalibration(
        service_id=spec.service_id,
        solo_throughput_bps=result.throughput_bps[spec.service_id],
        documented_cap_bps=spec.max_throughput_bps,
        link_bandwidth_bps=network.bandwidth_bps,
    )


def calibrate_catalog(
    catalog: ServiceCatalog,
    network: NetworkConfig,
    config: ExperimentConfig,
    service_ids: Optional[List[str]] = None,
    seed: int = 0,
    backend: Optional[ExecutionBackend] = None,
) -> Dict[str, SoloCalibration]:
    """Solo-run every service; returns per-service calibrations.

    Dispatches through an :class:`ExecutionBackend` (inline over this
    catalog by default), so calibration sweeps parallelise and cache the
    same way pair cycles do.
    """
    ids = service_ids if service_ids is not None else catalog.ids()
    runner = backend or build_backend(catalog=catalog)
    trials = [
        TrialSpec.solo(service_id, network, config, seed=seed + index)
        for index, service_id in enumerate(ids)
    ]
    results = runner.run(trials)
    return {
        service_id: _calibration_from_result(
            catalog.get(service_id), network, result
        )
        for service_id, result in zip(ids, results)
    }


def format_table1(
    catalog: ServiceCatalog,
    calibrations: Dict[str, SoloCalibration],
) -> str:
    """Render a Table-1-style service inventory."""
    header = (
        f"{'Service':<26} {'Category':<14} {'CCA':<24} "
        f"{'Max Xput':>10} {'#Flows':>7}  Notes"
    )
    lines = [header, "-" * len(header)]
    for service_id, calib in calibrations.items():
        spec = catalog.get(service_id)
        if spec.category == "web":
            # Page loads are short transactions: the paper lists web
            # services with an unbounded max, and solo throughput is not a
            # meaningful ceiling for them.
            cap = "inf"
        elif spec.max_throughput_bps is None and calib.is_link_limited:
            cap = "inf"
        else:
            cap = f"{calib.solo_throughput_bps / 1e6:.1f}Mbps"
        notes = spec.notes
        if calib.is_upstream_throttled and spec.category != "web":
            notes = (notes + "; " if notes else "") + "UPSTREAM THROTTLED"
        lines.append(
            f"{spec.display_name:<26} {spec.category:<14} "
            f"{spec.cca_label:<24} {cap:>10} {spec.num_flows:>7}  {notes}"
        )
    return "\n".join(lines)
