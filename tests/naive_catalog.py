"""The lambda catalog, kept as the oracle for the recipe catalog.

``default_catalog()`` below is the Table-1 catalog as it was written
before entries became data: one ``factory`` closure per entry.  The
recipe catalog in ``repro.services.catalog`` must build services that
produce byte-identical trial results (``tests/test_catalog.py``).
``NaiveServiceSpec`` is the spec type those closures hang off;
``run_trial_artifacts`` only needs its ``service_id``,
``max_throughput_bps`` and ``create``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro import units
from repro.browser.environment import ClientEnvironment
from repro.cca.bbr import (
    BBRv1,
    BBR_LINUX_4_15,
    BBR_LINUX_5_15,
    BBR_YOUTUBE_QUIC_2022,
    BBR_YOUTUBE_QUIC_2023,
)
from repro.cca.bbrv3 import BBRv3
from repro.cca.cubic import Cubic
from repro.cca.gcc import GoogleCongestionControl
from repro.cca.reno import NewReno
from repro.cca.teams import TeamsRateController
from repro.services.abr import BitrateLadder, BufferRateABR, ConservativeABR
from repro.services.base import Service
from repro.services.catalog import ServiceCatalog
from repro.services.filetransfer import (
    FileTransferService,
    MegaTransferService,
    ThrottledFileTransferService,
)
from repro.services.iperf import IperfService
from repro.services.rtc import MeetAdaptationPolicy, RtcService, TeamsAdaptationPolicy
from repro.services.video import VideoOnDemandService
from repro.services.web import PageSpec, ResourceSpec, WebPageService

# ---------------------------------------------------------------------------
# Bitrate ladders (Table 1: available bitrates and caps)
# ---------------------------------------------------------------------------

YOUTUBE_LADDER = BitrateLadder(
    [units.mbps(m) for m in (0.7, 1.1, 1.8, 2.5, 4.5, 8.0, 13.0)]
)
NETFLIX_LADDER = BitrateLadder(
    [units.mbps(m) for m in (0.35, 0.75, 1.75, 3.0, 5.0, 8.0)]
)
VIMEO_LADDER = BitrateLadder(
    [units.mbps(m) for m in (0.6, 1.0, 1.7, 3.2, 5.5, 9.0, 14.0)]
)

# ---------------------------------------------------------------------------
# Page specs (Table 1: web services and their flow counts)
# ---------------------------------------------------------------------------


def _wikipedia_page() -> PageSpec:
    """Mostly text with one or two images; >5 flows on one domain."""
    return PageSpec(
        name="wikipedia.org",
        html=ResourceSpec("html", 120_000, "wikipedia.org"),
        subresources=[
            ResourceSpec("css", 60_000, "wikipedia.org"),
            ResourceSpec("js", 90_000, "wikipedia.org"),
            ResourceSpec("lead-image", 250_000, "upload.wikimedia.org"),
            ResourceSpec("infobox-image", 140_000, "upload.wikimedia.org"),
            ResourceSpec("logo", 25_000, "wikipedia.org"),
            ResourceSpec("fonts", 80_000, "wikipedia.org", above_fold=False),
        ],
    )


def _news_google_page() -> PageSpec:
    """Text plus many thumbnails; >20 flows across several domains."""
    thumbs = [
        ResourceSpec(
            f"thumb-{i}",
            45_000,
            f"img{i % 4}.gstatic.com",
            above_fold=(i < 12),
        )
        for i in range(22)
    ]
    return PageSpec(
        name="news.google.com",
        html=ResourceSpec("html", 450_000, "news.google.com"),
        subresources=[
            ResourceSpec("js-bundle", 700_000, "news.google.com"),
            ResourceSpec("css", 120_000, "news.google.com"),
            ResourceSpec("api", 200_000, "newsapi.google.com"),
        ]
        + thumbs,
    )


def _youtube_web_page() -> PageSpec:
    """Image-heavy thumbnail grid; >10 flows; worst hit by contention."""
    thumbs = [
        ResourceSpec(
            f"thumb-{i}",
            160_000,
            f"i{i % 3}.ytimg.com",
            above_fold=(i < 16),
        )
        for i in range(30)
    ]
    return PageSpec(
        name="youtube.com",
        html=ResourceSpec("html", 600_000, "youtube.com"),
        subresources=[
            ResourceSpec("js-desktop", 1_200_000, "youtube.com"),
            ResourceSpec("css", 150_000, "youtube.com"),
        ]
        + thumbs,
    )


# ---------------------------------------------------------------------------
# Catalog plumbing
# ---------------------------------------------------------------------------

Factory = Callable[[int, ClientEnvironment], Service]


@dataclass(frozen=True)
class NaiveServiceSpec:
    """Catalog entry: paper-documented facts plus a per-trial factory."""

    service_id: str
    display_name: str
    category: str
    cca_label: str
    num_flows: int
    factory: Factory
    max_throughput_bps: Optional[float] = None
    notes: str = ""
    in_heatmap: bool = True

    def create(
        self, seed: int = 0, env: Optional[ClientEnvironment] = None
    ) -> Service:
        """Build a fresh instance of this service for one trial."""
        return self.factory(seed, env or ClientEnvironment.faithful_testbed())


# ---------------------------------------------------------------------------
# Default catalog construction
# ---------------------------------------------------------------------------


def _flow_seed(seed: int, index: int) -> int:
    return seed * 1009 + index


def default_catalog() -> ServiceCatalog:
    """Build the full Prudentia service catalog (Table 1 + figure extras)."""
    catalog = ServiceCatalog()

    # --- on-demand video --------------------------------------------------
    catalog.register(
        NaiveServiceSpec(
            service_id="youtube",
            display_name="YouTube",
            category="video",
            cca_label="BBRv1.1 (QUIC)",
            num_flows=1,
            max_throughput_bps=units.mbps(13),
            notes="7 bitrates up to 4K; QUIC-based; conservative ABR",
            factory=lambda seed, env: VideoOnDemandService(
                "youtube",
                cca_factory=lambda i: BBRv1(
                    BBR_YOUTUBE_QUIC_2023, seed=_flow_seed(seed, i)
                ),
                ladder=YOUTUBE_LADDER,
                abr=ConservativeABR(),
                num_flows=1,
                display_name="YouTube",
                render_cap_bps=env.render_cap_bps,
            ),
        )
    )
    catalog.register(
        NaiveServiceSpec(
            service_id="netflix",
            display_name="Netflix",
            category="video",
            cca_label="NewReno",
            num_flows=4,
            max_throughput_bps=units.mbps(8),
            notes="6 bitrates up to 4K; 4 concurrent flows; run on Safari",
            factory=lambda seed, env: VideoOnDemandService(
                "netflix",
                cca_factory=lambda i: NewReno(),
                ladder=NETFLIX_LADDER,
                abr=BufferRateABR(),
                num_flows=4,
                display_name="Netflix",
                render_cap_bps=env.render_cap_bps,
            ),
        )
    )
    catalog.register(
        NaiveServiceSpec(
            service_id="vimeo",
            display_name="Vimeo",
            category="video",
            cca_label="BBR*",
            num_flows=2,
            max_throughput_bps=units.mbps(14),
            notes="7 bitrates up to 4K; CCA classified as BBR",
            factory=lambda seed, env: VideoOnDemandService(
                "vimeo",
                cca_factory=lambda i: BBRv1(
                    BBR_LINUX_4_15, seed=_flow_seed(seed, i)
                ),
                ladder=VIMEO_LADDER,
                abr=ConservativeABR(safety=0.8, up_hysteresis=1.15),
                num_flows=2,
                display_name="Vimeo",
                render_cap_bps=env.render_cap_bps,
            ),
        )
    )

    # --- file transfer ----------------------------------------------------
    catalog.register(
        NaiveServiceSpec(
            service_id="dropbox",
            display_name="Dropbox",
            category="file-transfer",
            cca_label="BBRv1.0",
            num_flows=1,
            factory=lambda seed, env: FileTransferService(
                "dropbox",
                cca_factory=lambda i: BBRv1(
                    BBR_LINUX_4_15, seed=_flow_seed(seed, i)
                ),
                display_name="Dropbox",
            ),
        )
    )
    catalog.register(
        NaiveServiceSpec(
            service_id="gdrive",
            display_name="Google Drive",
            category="file-transfer",
            cca_label="BBRv3",
            num_flows=1,
            notes="BBRv3 deployed 2023 (Observation 13)",
            factory=lambda seed, env: FileTransferService(
                "gdrive",
                cca_factory=lambda i: BBRv3(seed=_flow_seed(seed, i)),
                display_name="Google Drive",
            ),
        )
    )
    catalog.register(
        NaiveServiceSpec(
            service_id="onedrive",
            display_name="OneDrive",
            category="file-transfer",
            cca_label="Cubic (extended)",
            num_flows=1,
            max_throughput_bps=units.mbps(45),
            notes="upstream-throttled to ~45 Mbps; unstable across trials",
            factory=lambda seed, env: ThrottledFileTransferService(
                "onedrive",
                cca_factory=lambda i: Cubic(),
                display_name="OneDrive",
                throttle_seed=seed,
            ),
        )
    )
    catalog.register(
        NaiveServiceSpec(
            service_id="mega",
            display_name="Mega",
            category="file-transfer",
            cca_label="BBR*",
            num_flows=5,
            notes="5 concurrent flows, batch-of-5 chunks with barrier",
            factory=lambda seed, env: MegaTransferService(
                "mega",
                cca_factory=lambda i: BBRv1(
                    BBR_LINUX_4_15, seed=_flow_seed(seed, i)
                ),
            ),
        )
    )

    # --- RTC ----------------------------------------------------------------
    catalog.register(
        NaiveServiceSpec(
            service_id="meet",
            display_name="Google Meet",
            category="rtc",
            cca_label="GCC",
            num_flows=1,
            max_throughput_bps=units.mbps(1.5),
            in_heatmap=False,
            factory=lambda seed, env: RtcService(
                "meet",
                controller=GoogleCongestionControl(
                    max_rate_bps=units.mbps(1.5)
                ),
                policy=MeetAdaptationPolicy(),
                display_name="Google Meet",
            ),
        )
    )
    catalog.register(
        NaiveServiceSpec(
            service_id="teams",
            display_name="Microsoft Teams",
            category="rtc",
            cca_label="Unknown",
            num_flows=1,
            max_throughput_bps=units.mbps(2.6),
            in_heatmap=False,
            factory=lambda seed, env: RtcService(
                "teams",
                controller=TeamsRateController(max_rate_bps=units.mbps(2.6)),
                policy=TeamsAdaptationPolicy(),
                display_name="Microsoft Teams",
            ),
        )
    )

    # --- web ----------------------------------------------------------------
    catalog.register(
        NaiveServiceSpec(
            service_id="wikipedia",
            display_name="wikipedia.org",
            category="web",
            cca_label="BBRv1.0",
            num_flows=6,
            in_heatmap=False,
            factory=lambda seed, env: WebPageService(
                "wikipedia",
                page=_wikipedia_page(),
                cca_factory=lambda i: BBRv1(
                    BBR_LINUX_4_15, seed=_flow_seed(seed, i)
                ),
                display_name="wikipedia.org",
            ),
        )
    )
    catalog.register(
        NaiveServiceSpec(
            service_id="news_google",
            display_name="news.google.com",
            category="web",
            cca_label="BBRv3.0",
            num_flows=21,
            in_heatmap=False,
            factory=lambda seed, env: WebPageService(
                "news_google",
                page=_news_google_page(),
                cca_factory=lambda i: BBRv3(seed=_flow_seed(seed, i)),
                display_name="news.google.com",
            ),
        )
    )
    catalog.register(
        NaiveServiceSpec(
            service_id="youtube_web",
            display_name="youtube.com",
            category="web",
            cca_label="BBRv3.0",
            num_flows=12,
            in_heatmap=False,
            notes="thumbnail-heavy; different CCA than the video servers",
            factory=lambda seed, env: WebPageService(
                "youtube_web",
                page=_youtube_web_page(),
                cca_factory=lambda i: BBRv3(seed=_flow_seed(seed, i)),
                display_name="youtube.com",
            ),
        )
    )

    # --- iPerf baselines ----------------------------------------------------
    catalog.register(
        NaiveServiceSpec(
            service_id="iperf_bbr",
            display_name="iPerf (BBR)",
            category="baseline",
            cca_label="BBRv1.0 (Linux 5.15)",
            num_flows=1,
            factory=lambda seed, env: IperfService(
                "iperf_bbr",
                cca_factory=lambda i: BBRv1(
                    BBR_LINUX_5_15, seed=_flow_seed(seed, i)
                ),
                display_name="iPerf (BBR)",
            ),
        )
    )
    catalog.register(
        NaiveServiceSpec(
            service_id="iperf_cubic",
            display_name="iPerf (Cubic)",
            category="baseline",
            cca_label="Cubic (Linux 5.15)",
            num_flows=1,
            factory=lambda seed, env: IperfService(
                "iperf_cubic",
                cca_factory=lambda i: Cubic(),
                display_name="iPerf (Cubic)",
            ),
        )
    )
    catalog.register(
        NaiveServiceSpec(
            service_id="iperf_reno",
            display_name="iPerf (Reno)",
            category="baseline",
            cca_label="NewReno (Linux 5.15)",
            num_flows=1,
            factory=lambda seed, env: IperfService(
                "iperf_reno",
                cca_factory=lambda i: NewReno(),
                display_name="iPerf (Reno)",
            ),
        )
    )

    # --- figure extras (not part of the regular heatmap rotation) ----------
    catalog.register(
        NaiveServiceSpec(
            service_id="iperf_bbr_415",
            display_name="iPerf (BBR, Linux 4.15)",
            category="baseline",
            cca_label="BBRv1.0 (Linux 4.15)",
            num_flows=1,
            in_heatmap=False,
            notes="Fig 9 comparison kernel",
            factory=lambda seed, env: IperfService(
                "iperf_bbr_415",
                cca_factory=lambda i: BBRv1(
                    BBR_LINUX_4_15, seed=_flow_seed(seed, i)
                ),
                display_name="iPerf (BBR, Linux 4.15)",
            ),
        )
    )
    catalog.register(
        NaiveServiceSpec(
            service_id="iperf_bbr_x5",
            display_name="iPerf (5 x BBR)",
            category="baseline",
            cca_label="BBRv1.0 x5",
            num_flows=5,
            in_heatmap=False,
            notes="Observation 4 comparator for Mega",
            factory=lambda seed, env: IperfService(
                "iperf_bbr_x5",
                cca_factory=lambda i: BBRv1(
                    BBR_LINUX_4_15, seed=_flow_seed(seed, i)
                ),
                num_flows=5,
                display_name="iPerf (5 x BBR)",
            ),
        )
    )
    catalog.register(
        NaiveServiceSpec(
            service_id="gdrive_2022",
            display_name="Google Drive (2022)",
            category="file-transfer",
            cca_label="BBRv1",
            num_flows=1,
            in_heatmap=False,
            notes="pre-BBRv3 deployment (Fig 9a 'before')",
            factory=lambda seed, env: FileTransferService(
                "gdrive_2022",
                cca_factory=lambda i: BBRv1(
                    BBR_LINUX_4_15, seed=_flow_seed(seed, i)
                ),
                display_name="Google Drive (2022)",
            ),
        )
    )
    catalog.register(
        NaiveServiceSpec(
            service_id="youtube_2022",
            display_name="YouTube (2022)",
            category="video",
            cca_label="BBRv1 (QUIC, 2022 tuning)",
            num_flows=1,
            max_throughput_bps=units.mbps(13),
            in_heatmap=False,
            notes="pre-tuning QUIC stack (Fig 9a 'before')",
            factory=lambda seed, env: VideoOnDemandService(
                "youtube_2022",
                cca_factory=lambda i: BBRv1(
                    BBR_YOUTUBE_QUIC_2022, seed=_flow_seed(seed, i)
                ),
                ladder=YOUTUBE_LADDER,
                abr=ConservativeABR(),
                num_flows=1,
                display_name="YouTube (2022)",
                render_cap_bps=env.render_cap_bps,
            ),
        )
    )
    return catalog
