"""Third-party service submission (Appendix A / internetfairness.net).

The Prudentia website lets service owners submit custom URLs for testing,
gated by access codes.  This module reproduces that workflow: an access-
code-validated portal that turns a submitted URL into a catalog entry (a
web page load for ``http(s)`` URLs, a bulk download for file URLs) so the
watchdog can schedule it like any first-party service.  The entry is a
recipe, like every catalog entry, so it runs in process-pool workers too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..services.catalog import ServiceCatalog, ServiceSpec, recipe

#: Access codes published in Appendix A of the paper.
DEFAULT_ACCESS_CODES = (
    "KD4p1Z8Gs1SVPHUrTOVTMNHtvUnMSmvZ",
    "A7mH2gHPmtlhbpb8ajfe48oCzA7hp6VB",
    "5PWWIvTUxZSYVhIuEiBEmOOOog8zgrGa",
    "XrVzJ3evvkVpoAf3k54mYuY0tCgjTD2k",
    "bTXmWjSdAmQf4ULItqH2JCR5oX8jZvhL",
)

#: File extensions treated as direct downloads rather than page loads.
DOWNLOAD_EXTENSIONS = (".zip", ".iso", ".bin", ".tar", ".gz", ".mp4", ".dmg")

#: Size of a submitted download (the bulk transfer a download URL runs).
DOWNLOAD_BYTES = 10 * 10**9

#: Total size of a submitted web page (HTML plus its assets).
PAGE_BYTES = 2_000_000


class SubmissionError(ValueError):
    """Invalid submission: bad access code or malformed URL."""


@dataclass
class Submission:
    """One accepted third-party submission."""

    url: str
    service_id: str
    kind: str  # "web" or "download"
    submitter_code: str


def _service_id_from_url(url: str) -> str:
    stripped = url.split("://", 1)[-1]
    host = stripped.split("/", 1)[0]
    return "ext_" + host.replace(".", "_").replace(":", "_")


class SubmissionPortal:
    """Validates access codes and registers submitted services."""

    def __init__(
        self,
        catalog: ServiceCatalog,
        access_codes: Optional[List[str]] = None,
    ) -> None:
        self.catalog = catalog
        self.access_codes = set(
            access_codes if access_codes is not None else DEFAULT_ACCESS_CODES
        )
        self.submissions: List[Submission] = []

    def submit(self, url: str, access_code: str) -> Submission:
        """Register a URL for testing; returns the accepted submission.

        The CCA of a third-party service is unknown to the watchdog, so we
        assume Cubic (the most common server default) - the classifier
        can refine this later.  The id derives from the URL's host:
        re-submitting the same URL returns the original acceptance, while
        another URL whose id is already taken is a :class:`SubmissionError`
        naming the URL (or first-party service) that holds it.
        """
        if access_code not in self.access_codes:
            raise SubmissionError("invalid access code")
        if "://" not in url or not url.split("://", 1)[-1]:
            raise SubmissionError(f"malformed URL: {url!r}")
        host = url.split("://", 1)[-1].split("/", 1)[0]
        if not host:
            raise SubmissionError(
                f"malformed URL: {url!r} has an empty host"
            )
        service_id = _service_id_from_url(url)
        if service_id in self.catalog:
            for prior in self.submissions:
                if prior.service_id != service_id:
                    continue
                if prior.url == url:
                    # Re-submitting a registered URL is a no-op, not an
                    # error: return the original acceptance.
                    return prior
                raise SubmissionError(
                    f"{url!r} maps to service id {service_id!r}, already "
                    f"held by submitted URL {prior.url!r}"
                )
            raise SubmissionError(
                f"{url!r} collides with first-party service "
                f"{service_id!r}"
            )

        if url.lower().endswith(DOWNLOAD_EXTENSIONS):
            kind, category, num_flows = "download", "file-transfer", 1
            recipe_kind = "file"
            params = recipe(cca="cubic", file_bytes=DOWNLOAD_BYTES)
        else:
            kind, category, num_flows = "web", "web", 6
            recipe_kind = "web"
            params = recipe(
                cca="cubic", page="single-host", host=host,
                page_bytes=PAGE_BYTES,
            )
        self.catalog.register(
            ServiceSpec(
                service_id, url, category, "unknown (assumed Cubic)",
                num_flows, recipe_kind, params,
                in_heatmap=False,
                notes=f"third-party submission: {url}",
            )
        )
        submission = Submission(
            url=url, service_id=service_id, kind=kind, submitter_code=access_code
        )
        self.submissions.append(submission)
        return submission
