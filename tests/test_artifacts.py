"""Artifact publication: the per-experiment public data dumps."""

import json

import pytest

from repro.config import ExperimentConfig, highly_constrained
from repro.core.artifacts import ArtifactPublisher
from repro.core.experiment import ExperimentResult
from repro.obs.flight import FlightRecorder
from repro.services.catalog import default_catalog

CATALOG = default_catalog()
FAST = ExperimentConfig().scaled(20)


@pytest.fixture(scope="module")
def published(tmp_path_factory):
    publisher = ArtifactPublisher(tmp_path_factory.mktemp("artifacts"))
    return publisher.publish_pair(
        CATALOG.get("iperf_cubic"),
        CATALOG.get("iperf_reno"),
        highly_constrained(),
        FAST,
        seed=1,
    )


class TestPublication:
    def test_all_files_written(self, published):
        for path in (
            published.result_path,
            published.flight_path,
            published.trace_path,
            published.summary_path,
        ):
            assert path.exists()
            assert path.stat().st_size > 0

    def test_result_json_loads(self, published):
        payload = json.loads(published.result_path.read_text())
        result = ExperimentResult.from_json(payload)
        assert set(result.throughput_bps) == {"iperf_cubic", "iperf_reno"}

    def test_queue_log_has_samples_and_drops(self, published):
        """The queue log is a flight recording, in the cache sidecar's
        format (it loads through ``FlightRecorder.from_json``); its drop
        instants ride in the packet trace."""
        recording = FlightRecorder.from_json(
            json.loads(published.flight_path.read_text())
        )
        assert recording.grid_usec == 10_000
        assert len(recording.queue) > 10
        assert len(recording.queue.occupancy) == len(recording.queue)
        assert set(recording.queue.queued_packets) == {
            "iperf_cubic", "iperf_reno",
        }
        trace = json.loads(published.trace_path.read_text())
        # Cubic vs Reno at 8 Mbps definitely overflows the queue.
        assert len(trace["drop_events"]) > 0
        assert {sid for _when, sid in trace["drop_events"]} <= {
            "iperf_cubic", "iperf_reno",
        }

    def test_packet_trace_covers_both_services(self, published):
        payload = json.loads(published.trace_path.read_text())
        services = {record[1] for record in payload["records"]}
        assert services == {"iperf_cubic", "iperf_reno"}

    def test_summary_is_human_readable(self, published):
        text = published.summary_path.read_text()
        assert "MmF share" in text
        assert "utilization" in text

    def test_directory_naming(self, published):
        assert "iperf_cubic_vs_iperf_reno" in published.directory.name
        assert "8mbps" in published.directory.name

    def test_self_pair_publication(self, tmp_path):
        publisher = ArtifactPublisher(tmp_path)
        published = publisher.publish_pair(
            CATALOG.get("iperf_reno"),
            CATALOG.get("iperf_reno"),
            highly_constrained(),
            FAST,
            seed=2,
        )
        payload = json.loads(published.result_path.read_text())
        assert "iperf_reno#2" in payload["throughput_bps"]
