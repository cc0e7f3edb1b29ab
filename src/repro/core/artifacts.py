"""Experiment artifact publication (the internetfairness.net data dumps).

Section 7: "the Prudentia website makes potentially useful data like
bottleneck queue logs and client PCAPs for every experiment publicly
accessible".  This module is that publication pipeline: it runs a traced
experiment and writes a self-describing directory per experiment
containing the result record, the flight recording (the queue log: the
bottleneck queue sampled every 10 ms, plus per-flow CCA state), the
per-packet trace with its tail drops, and a human-readable summary.  The
flight recording is the same payload a cache's flight sidecar holds, so
``repro obs flight summarize|render`` read a published one as is.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from ..browser.environment import ClientEnvironment
from ..config import ExperimentConfig, NetworkConfig
from ..netsim.trace import PacketTrace
from ..obs.flight import FlightRecorder
from ..services.catalog import ServiceSpec
from .experiment import ExperimentResult, run_trial_artifacts


@dataclass(frozen=True)
class PublishedExperiment:
    """Paths of one published experiment's artifacts."""

    directory: Path
    result_path: Path
    flight_path: Path
    trace_path: Path
    summary_path: Path


class ArtifactPublisher:
    """Runs traced experiments and writes their artifacts to disk."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _experiment_dir(self, result: ExperimentResult) -> Path:
        slug = (
            f"{result.contender_id}_vs_{result.incumbent_id}"
            f"_{result.bandwidth_bps / 1e6:.0f}mbps_seed{result.seed}"
        ).replace("#", "i")
        return self.root / slug

    def publish_pair(
        self,
        spec_a: ServiceSpec,
        spec_b: ServiceSpec,
        network: NetworkConfig,
        config: ExperimentConfig,
        seed: int = 0,
        env: Optional[ClientEnvironment] = None,
    ) -> PublishedExperiment:
        """Run one traced trial through the trial core and publish its
        artifacts."""
        flight, trace = FlightRecorder(grid_usec=10_000), PacketTrace()
        result, _testbed = run_trial_artifacts(
            [spec_a, spec_b],
            network,
            config,
            seed=seed,
            env=env,
            recorders=[flight, trace],
        )
        return self._write(result, flight, trace)

    def _write(
        self,
        result: ExperimentResult,
        flight: FlightRecorder,
        trace: PacketTrace,
    ) -> PublishedExperiment:
        directory = self._experiment_dir(result)
        directory.mkdir(parents=True, exist_ok=True)

        result_path = directory / "result.json"
        result_path.write_text(json.dumps(result.to_json(), indent=1))

        flight_path = directory / "flight.json"
        flight_path.write_text(json.dumps(flight.to_json()))

        trace_path = directory / "packet_trace.json"
        trace_path.write_text(json.dumps(trace.to_json()))

        summary_path = directory / "SUMMARY.txt"
        lines = [
            f"{result.contender_id} vs {result.incumbent_id} at "
            f"{result.bandwidth_bps / 1e6:.0f} Mbps "
            f"({result.buffer_packets}-packet queue), seed {result.seed}",
            f"utilization: {result.utilization * 100:.1f}%",
            "",
        ]
        for sid in result.throughput_bps:
            lines.append(
                f"  {sid:<20} {result.throughput_bps[sid] / 1e6:7.2f} Mbps "
                f"= {result.mmf_share[sid] * 100:5.1f}% of MmF share, "
                f"loss {result.loss_rate[sid] * 100:.2f}%, "
                f"queueing delay "
                f"{result.queueing_delay_usec[sid] / 1000:.1f} ms"
            )
        summary_path.write_text("\n".join(lines) + "\n")

        return PublishedExperiment(
            directory=directory,
            result_path=result_path,
            flight_path=flight_path,
            trace_path=trace_path,
            summary_path=summary_path,
        )
