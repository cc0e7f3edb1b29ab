"""Third-party submission portal (Appendix A) and browser fidelity layer."""

import pytest

from repro import units
from repro.browser.automation import BrowserSession, ChromeDriver
from repro.browser.environment import ClientEnvironment
from repro.config import highly_constrained, ExperimentConfig
from repro.core.experiment import run_solo_experiment
from repro.core.submission import (
    DEFAULT_ACCESS_CODES,
    Submission,
    SubmissionError,
    SubmissionPortal,
)
from repro.services.catalog import default_catalog


class TestClientEnvironment:
    def test_faithful_testbed_unrestricted(self):
        env = ClientEnvironment.faithful_testbed()
        assert env.render_cap_bps is None
        assert not env.is_render_limited

    def test_headless_heavily_capped(self):
        env = ClientEnvironment.headless_automation()
        assert env.render_cap_bps == units.mbps(1.2)
        assert env.is_render_limited

    def test_no_gpu_capped_below_4k(self):
        env = ClientEnvironment(gpu=False)
        assert env.render_cap_bps == units.mbps(4.5)

    def test_no_vp9_decode_capped(self):
        env = ClientEnvironment(hardware_vp9_decode=False)
        assert env.render_cap_bps == units.mbps(4.5)

    def test_hd_monitor_caps_below_4k_bitrates(self):
        env = ClientEnvironment(monitor_4k=False)
        assert env.render_cap_bps == units.mbps(8.0)


class TestChromeDriver:
    def _factory(self, env):
        return default_catalog().create("wikipedia", seed=0, env=env)

    def test_open_session(self):
        driver = ChromeDriver()
        session = driver.open(self._factory)
        assert isinstance(session, BrowserSession)
        assert session.service.service_id == "wikipedia"

    def test_dirty_profile_rejected(self):
        """The methodology requires wiping cookies/cache between runs."""
        driver = ChromeDriver()
        driver.open(self._factory)
        with pytest.raises(RuntimeError):
            driver.open(self._factory)

    def test_wipe_allows_next_session(self):
        driver = ChromeDriver()
        driver.open(self._factory)
        driver.wipe_profile()
        assert driver.open(self._factory)

    def test_hygiene_can_be_disabled(self):
        driver = ChromeDriver(require_clean_profile=False)
        driver.open(self._factory)
        driver.open(self._factory)
        assert len(driver.sessions) == 2


class TestSubmissionPortal:
    def make_portal(self):
        return SubmissionPortal(default_catalog())

    def test_valid_code_accepted(self):
        portal = self.make_portal()
        submission = portal.submit(
            "https://example.org/page", DEFAULT_ACCESS_CODES[0]
        )
        assert isinstance(submission, Submission)
        assert submission.kind == "web"
        assert submission.service_id in portal.catalog

    def test_invalid_code_rejected(self):
        portal = self.make_portal()
        with pytest.raises(SubmissionError):
            portal.submit("https://example.org", "wrong-code")

    def test_malformed_url_rejected(self):
        portal = self.make_portal()
        with pytest.raises(SubmissionError):
            portal.submit("not-a-url", DEFAULT_ACCESS_CODES[0])

    def test_download_url_becomes_file_transfer(self):
        portal = self.make_portal()
        submission = portal.submit(
            "https://cdn.example.org/big.zip", DEFAULT_ACCESS_CODES[1]
        )
        assert submission.kind == "download"
        spec = portal.catalog.get(submission.service_id)
        assert spec.category == "file-transfer"

    def test_resubmission_is_idempotent(self):
        """Submitting a registered URL returns the original acceptance."""
        portal = self.make_portal()
        first = portal.submit("https://example.org", DEFAULT_ACCESS_CODES[0])
        again = portal.submit("https://example.org", DEFAULT_ACCESS_CODES[1])
        assert again is first
        assert len(portal.submissions) == 1

    def test_second_url_on_a_taken_host_is_rejected(self):
        """Another URL on the same host derives the same id; it is not a
        re-submission of the first.  (At the parent: the earlier *web*
        acceptance came back for a download URL.)"""
        portal = self.make_portal()
        first = portal.submit("https://example.com/", DEFAULT_ACCESS_CODES[0])
        with pytest.raises(SubmissionError) as raised:
            portal.submit("https://example.com/big.zip", DEFAULT_ACCESS_CODES[0])
        assert "'https://example.com/'" in str(raised.value)
        assert first.service_id in str(raised.value)
        assert portal.submissions == [first]
        assert portal.catalog.get(first.service_id).category == "web"

    def test_catalog_collision_without_prior_submission_rejected(self):
        """An id already in the catalog that this portal never accepted
        is a genuine collision, not a re-submission."""
        portal = self.make_portal()
        portal.submit("https://example.org", DEFAULT_ACCESS_CODES[0])
        fresh = SubmissionPortal(portal.catalog)
        with pytest.raises(SubmissionError):
            fresh.submit("https://example.org", DEFAULT_ACCESS_CODES[0])

    def test_empty_host_url_rejected(self):
        portal = self.make_portal()
        with pytest.raises(SubmissionError, match="empty host"):
            portal.submit("https:///just-a-path", DEFAULT_ACCESS_CODES[0])

    def test_submitted_service_is_runnable(self):
        """The whole point: a submission can be scheduled like any other
        service."""
        portal = self.make_portal()
        submission = portal.submit(
            "https://example.org/app", DEFAULT_ACCESS_CODES[2]
        )
        # Page services have the Section 5.2 30-second head-start delay,
        # so the window must extend past it.
        result = run_solo_experiment(
            portal.catalog.get(submission.service_id),
            highly_constrained(),
            ExperimentConfig().scaled(60),
            seed=1,
        )
        assert result.throughput_bps[submission.service_id] > 0

    def test_all_published_codes_work(self):
        portal = self.make_portal()
        for i, code in enumerate(DEFAULT_ACCESS_CODES):
            portal.submit(f"https://site{i}.example.org", code)
        assert len(portal.submissions) == len(DEFAULT_ACCESS_CODES)
