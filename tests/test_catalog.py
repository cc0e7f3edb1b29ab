"""The Table-1 service catalog: completeness, buildability, and recipes
that build what the lambda catalog (``tests/naive_catalog.py``) built."""

import json
import pickle

import pytest

from repro import units
from repro.browser.environment import ClientEnvironment
from repro.config import ExperimentConfig, highly_constrained, moderately_constrained
from repro.core.experiment import run_pair_experiment
from repro.core.testbed import Testbed
from repro.services.catalog import ServiceCatalog, ServiceSpec, default_catalog
from repro.services.base import Service

from tests import naive_catalog

#: The twelve Table-1 services plus the three iPerf baselines.
TABLE1_IDS = {
    "youtube", "netflix", "vimeo",
    "dropbox", "gdrive", "onedrive", "mega",
    "meet", "teams",
    "wikipedia", "news_google", "youtube_web",
    "iperf_bbr", "iperf_cubic", "iperf_reno",
}


@pytest.fixture(scope="module")
def catalog():
    return default_catalog()


class TestCompleteness:
    def test_all_table1_services_present(self, catalog):
        assert TABLE1_IDS <= set(catalog.ids())

    def test_figure_extras_present(self, catalog):
        for extra in ("iperf_bbr_415", "iperf_bbr_x5", "gdrive_2022", "youtube_2022"):
            assert extra in catalog

    def test_heatmap_set_is_video_file_iperf(self, catalog):
        ids = set(catalog.heatmap_ids())
        assert ids == {
            "youtube", "netflix", "vimeo",
            "dropbox", "gdrive", "onedrive", "mega",
            "iperf_bbr", "iperf_cubic", "iperf_reno",
        }

    def test_documented_flow_counts(self, catalog):
        assert catalog.get("mega").num_flows == 5
        assert catalog.get("netflix").num_flows == 4
        assert catalog.get("vimeo").num_flows == 2
        assert catalog.get("youtube").num_flows == 1

    def test_documented_caps(self, catalog):
        assert catalog.get("youtube").max_throughput_bps == units.mbps(13)
        assert catalog.get("vimeo").max_throughput_bps == units.mbps(14)
        assert catalog.get("netflix").max_throughput_bps == units.mbps(8)
        assert catalog.get("meet").max_throughput_bps == units.mbps(1.5)
        assert catalog.get("teams").max_throughput_bps == units.mbps(2.6)
        assert catalog.get("onedrive").max_throughput_bps == units.mbps(45)
        assert catalog.get("dropbox").max_throughput_bps is None

    def test_categories(self, catalog):
        assert len(catalog.by_category("video")) >= 3
        assert len(catalog.by_category("file-transfer")) >= 4
        assert len(catalog.by_category("rtc")) == 2
        assert len(catalog.by_category("web")) == 3
        assert len(catalog.by_category("baseline")) >= 3


class TestFactories:
    @pytest.mark.parametrize("service_id", sorted(TABLE1_IDS))
    def test_every_service_builds_and_attaches(self, catalog, service_id):
        service = catalog.create(service_id, seed=1)
        assert isinstance(service, Service)
        testbed = Testbed(highly_constrained(), seed=1)
        testbed.add_service(service)
        testbed.start_all()
        testbed.bell.run(units.seconds(2))  # no crashes, produces traffic

    def test_unknown_service_raises(self, catalog):
        with pytest.raises(KeyError):
            catalog.get("nope")

    def test_duplicate_registration_rejected(self, catalog):
        with pytest.raises(ValueError):
            catalog.register(catalog.get("mega"))

    def test_instances_are_independent(self, catalog):
        a = catalog.create("dropbox", seed=1)
        b = catalog.create("dropbox", seed=1)
        assert a is not b

    def test_render_environment_plumbed_to_video(self, catalog):
        headless = catalog.create(
            "youtube", seed=1, env=ClientEnvironment.headless_automation()
        )
        faithful = catalog.create("youtube", seed=1)
        assert headless.render_cap_bps == units.mbps(1.2)
        assert faithful.render_cap_bps is None


class TestRecipesMatchTheLambdaCatalog:
    """Each entry's recipe is the data its parent-era closure spelled as
    code: same ids, same facts, byte-identical trials."""

    ORACLE = naive_catalog.default_catalog()

    def test_same_ids_and_facts(self, catalog):
        assert catalog.ids() == self.ORACLE.ids()
        facts = ("display_name", "category", "cca_label", "num_flows",
                 "max_throughput_bps", "notes", "in_heatmap")
        for sid in catalog.ids():
            new, old = catalog.get(sid), self.ORACLE.get(sid)
            assert [getattr(new, f) for f in facts] == [
                getattr(old, f) for f in facts
            ], sid

    @pytest.mark.parametrize(
        "network", [highly_constrained(), moderately_constrained()],
        ids=["8mbps", "50mbps"],
    )
    def test_every_id_against_iperf_cubic_is_byte_identical(
        self, catalog, network
    ):
        config = ExperimentConfig().scaled(4.0)
        differing = []
        for sid in catalog.ids():
            results = [
                run_pair_experiment(
                    source.get(sid), source.get("iperf_cubic"), network,
                    config, seed=1,
                )
                for source in (catalog, self.ORACLE)
            ]
            new, old = (
                json.dumps(r.to_json(), sort_keys=True) for r in results
            )
            if new != old:
                differing.append(sid)
        assert differing == []


class TestSpecsAreData:
    def test_every_spec_survives_a_pickle_round_trip(self, catalog):
        for sid in catalog.ids():
            spec = catalog.get(sid)
            assert pickle.loads(pickle.dumps(spec)) == spec

    def test_unknown_kind_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown service kind"):
            ServiceSpec("x", "X", "baseline", "?", 1, "nope", ())

    def test_flow_count_and_name_come_from_the_spec(self, catalog):
        service = catalog.create("iperf_bbr_x5", seed=1)
        assert service.num_flows == 5
        assert service.display_name == "iPerf (5 x BBR)"
