"""The Table-1 service catalog: every service Prudentia tests.

Each entry is plain data: the paper's documented facts about a service
(CCA, flow count, bitrate caps, quirks) plus a *recipe* - a ``kind``
naming one of the module-level builders below and the scalar/tuple
``params`` that builder takes (CCA name, ladder, ABR knobs, page, file
size, RTC controller and policy).  ``ServiceSpec.create`` hands the spec
itself to its kind's builder, which reads the flow count and display name
from it, so every fact is stated once.  A spec holds no code, so it
pickles: the process pool ships the caller's specs to its workers instead
of rebuilding a catalog there, and a submitted service runs on every
substrate.  Params stay JSON-able, so a cache key can later hash a
service's definition rather than its id.

Extra entries used by specific figures (Linux 4.15 iPerf BBR, the
2022-era YouTube/Google Drive stacks, five-flow iPerf BBR) live alongside
the primary twelve plus three baselines.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .. import units
from ..browser.environment import ClientEnvironment
from ..cca.base import CongestionControl
from ..cca.bbr import (
    BBRv1,
    BBR_LINUX_4_15,
    BBR_LINUX_5_15,
    BBR_YOUTUBE_QUIC_2022,
    BBR_YOUTUBE_QUIC_2023,
)
from ..cca.bbrv3 import BBRv3
from ..cca.cubic import Cubic
from ..cca.gcc import GoogleCongestionControl
from ..cca.reno import NewReno
from ..cca.teams import TeamsRateController
from .abr import BitrateLadder, BufferRateABR, ConservativeABR
from .base import Service
from .filetransfer import (
    FileTransferService,
    MegaTransferService,
    ThrottledFileTransferService,
)
from .iperf import IperfService
from .rtc import MeetAdaptationPolicy, RtcService, TeamsAdaptationPolicy
from .video import VideoOnDemandService
from .web import PageSpec, ResourceSpec, WebPageService

# ---------------------------------------------------------------------------
# Bitrate ladders in Mbps (Table 1: available bitrates and caps)
# ---------------------------------------------------------------------------

YOUTUBE_LADDER = (0.7, 1.1, 1.8, 2.5, 4.5, 8.0, 13.0)
NETFLIX_LADDER = (0.35, 0.75, 1.75, 3.0, 5.0, 8.0)
VIMEO_LADDER = (0.6, 1.0, 1.7, 3.2, 5.5, 9.0, 14.0)

# ---------------------------------------------------------------------------
# Page specs (Table 1: web services and their flow counts)
# ---------------------------------------------------------------------------


def _wikipedia_page(name: str) -> PageSpec:
    """Mostly text with one or two images; >5 flows on one domain."""
    return PageSpec(
        name=name,
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


def _news_google_page(name: str) -> PageSpec:
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
        name=name,
        html=ResourceSpec("html", 450_000, "news.google.com"),
        subresources=[
            ResourceSpec("js-bundle", 700_000, "news.google.com"),
            ResourceSpec("css", 120_000, "news.google.com"),
            ResourceSpec("api", 200_000, "newsapi.google.com"),
        ]
        + thumbs,
    )


def _youtube_web_page(name: str) -> PageSpec:
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
        name=name,
        html=ResourceSpec("html", 600_000, "youtube.com"),
        subresources=[
            ResourceSpec("js-desktop", 1_200_000, "youtube.com"),
            ResourceSpec("css", 150_000, "youtube.com"),
        ]
        + thumbs,
    )


def _single_host_page(name: str, host: str, page_bytes: int) -> PageSpec:
    """A submitted URL's page: one HTML root and nine assets on its host."""
    return PageSpec(
        name=name,
        html=ResourceSpec("html", max(50_000, page_bytes // 10), host),
        subresources=[
            ResourceSpec(f"asset-{i}", max(10_000, page_bytes // 12), host)
            for i in range(9)
        ],
    )


#: Page templates a ``web`` recipe names; each takes the page name
#: (the spec's display name) plus the recipe's page params.
PAGES = {
    "wikipedia": _wikipedia_page,
    "news_google": _news_google_page,
    "youtube_web": _youtube_web_page,
    "single-host": _single_host_page,
}

# ---------------------------------------------------------------------------
# Building blocks a recipe names
# ---------------------------------------------------------------------------

#: BBRv1 parameter sets by recipe name (``cca="bbr-<name>"``).
BBR_PARAMS = {
    "linux-4.15": BBR_LINUX_4_15,
    "linux-5.15": BBR_LINUX_5_15,
    "quic-2022": BBR_YOUTUBE_QUIC_2022,
    "quic-2023": BBR_YOUTUBE_QUIC_2023,
}

ABRS = {"conservative": ConservativeABR, "buffer-rate": BufferRateABR}
RTC_CONTROLLERS = {
    "gcc": GoogleCongestionControl,
    "teams": TeamsRateController,
}
RTC_POLICIES = {"meet": MeetAdaptationPolicy, "teams": TeamsAdaptationPolicy}


def _flow_seed(seed: int, index: int) -> int:
    return seed * 1009 + index


def flow_cca(cca: str, seed: int, index: int) -> CongestionControl:
    """A fresh controller for flow ``index`` of a service seeded ``seed``.

    ``cca`` is ``cubic``, ``newreno``, ``bbrv3`` or ``bbr-<set>`` with a
    :data:`BBR_PARAMS` set; the BBR family draws a per-flow seed.
    """
    if cca == "cubic":
        return Cubic()
    if cca == "newreno":
        return NewReno()
    if cca == "bbrv3":
        return BBRv3(seed=_flow_seed(seed, index))
    family, _, params = cca.partition("-")
    if family != "bbr" or params not in BBR_PARAMS:
        raise ValueError(f"unknown cca {cca!r}")
    return BBRv1(BBR_PARAMS[params], seed=_flow_seed(seed, index))


# ---------------------------------------------------------------------------
# One builder per kind: (spec, seed, env, **params) -> Service
# ---------------------------------------------------------------------------


def _video(spec, seed, env, cca, ladder, abr, abr_knobs=()) -> Service:
    return VideoOnDemandService(
        spec.service_id,
        cca_factory=functools.partial(flow_cca, cca, seed),
        ladder=BitrateLadder([units.mbps(m) for m in ladder]),
        abr=ABRS[abr](**dict(abr_knobs)),
        num_flows=spec.num_flows,
        display_name=spec.display_name,
        render_cap_bps=env.render_cap_bps,
    )


def _file(spec, seed, env, cca, **knobs) -> Service:
    return FileTransferService(
        spec.service_id,
        cca_factory=functools.partial(flow_cca, cca, seed),
        num_flows=spec.num_flows,
        display_name=spec.display_name,
        **knobs,
    )


def _throttled_file(spec, seed, env, cca) -> Service:
    return ThrottledFileTransferService(
        spec.service_id,
        cca_factory=functools.partial(flow_cca, cca, seed),
        num_flows=spec.num_flows,
        display_name=spec.display_name,
        throttle_seed=seed,
    )


def _mega(spec, seed, env, cca) -> Service:
    return MegaTransferService(
        spec.service_id,
        cca_factory=functools.partial(flow_cca, cca, seed),
        num_flows=spec.num_flows,
        display_name=spec.display_name,
    )


def _rtc(spec, seed, env, controller, policy) -> Service:
    return RtcService(
        spec.service_id,
        controller=RTC_CONTROLLERS[controller](
            max_rate_bps=spec.max_throughput_bps
        ),
        policy=RTC_POLICIES[policy](),
        display_name=spec.display_name,
    )


def _web(spec, seed, env, cca, page, **page_params) -> Service:
    return WebPageService(
        spec.service_id,
        page=PAGES[page](spec.display_name, **page_params),
        cca_factory=functools.partial(flow_cca, cca, seed),
        display_name=spec.display_name,
    )


def _iperf(spec, seed, env, cca) -> Service:
    return IperfService(
        spec.service_id,
        cca_factory=functools.partial(flow_cca, cca, seed),
        num_flows=spec.num_flows,
        display_name=spec.display_name,
    )


BUILDERS = {
    "video": _video,
    "file": _file,
    "throttled-file": _throttled_file,
    "mega": _mega,
    "rtc": _rtc,
    "web": _web,
    "iperf": _iperf,
}

# ---------------------------------------------------------------------------
# Catalog plumbing
# ---------------------------------------------------------------------------

Params = Tuple[Tuple[str, object], ...]


def recipe(**params) -> Params:
    """A recipe's params in canonical (name-sorted) form."""
    return tuple(sorted(params.items()))


@dataclass(frozen=True)
class ServiceSpec:
    """Catalog entry: paper-documented facts plus a per-trial recipe."""

    service_id: str
    display_name: str
    category: str
    cca_label: str
    num_flows: int
    kind: str
    params: Params
    max_throughput_bps: Optional[float] = None
    notes: str = ""
    in_heatmap: bool = True

    def __post_init__(self) -> None:
        if self.kind not in BUILDERS:
            raise ValueError(
                f"unknown service kind {self.kind!r}; known: {sorted(BUILDERS)}"
            )

    def create(
        self, seed: int = 0, env: Optional[ClientEnvironment] = None
    ) -> Service:
        """Build a fresh instance of this service for one trial."""
        return BUILDERS[self.kind](
            self,
            seed,
            env or ClientEnvironment.faithful_testbed(),
            **dict(self.params),
        )


class ServiceCatalog:
    """Registry of testable services (supports third-party additions)."""

    def __init__(self) -> None:
        self._specs: Dict[str, ServiceSpec] = {}

    def register(self, spec: ServiceSpec) -> None:
        """Add a spec to the catalog; duplicate ids are rejected."""
        if spec.service_id in self._specs:
            raise ValueError(f"duplicate service id {spec.service_id!r}")
        self._specs[spec.service_id] = spec

    def get(self, service_id: str) -> ServiceSpec:
        """Look up a spec by id; raises KeyError with suggestions."""
        try:
            return self._specs[service_id]
        except KeyError:
            raise KeyError(
                f"unknown service {service_id!r}; known: {sorted(self._specs)}"
            ) from None

    def create(
        self,
        service_id: str,
        seed: int = 0,
        env: Optional[ClientEnvironment] = None,
    ) -> Service:
        """Shorthand for ``get(service_id).create(seed, env)``."""
        return self.get(service_id).create(seed, env)

    def ids(self) -> List[str]:
        """All registered service ids, sorted."""
        return sorted(self._specs)

    def __contains__(self, service_id: str) -> bool:
        return service_id in self._specs

    def __len__(self) -> int:
        return len(self._specs)

    def by_category(self, category: str) -> List[ServiceSpec]:
        """All specs in a Table-1 category."""
        return [s for s in self._specs.values() if s.category == category]

    def heatmap_ids(self) -> List[str]:
        """The Fig-2 all-pairs set: video + file transfer + iPerf."""
        wanted = ("video", "file-transfer", "baseline")
        return [
            s.service_id
            for s in self._specs.values()
            if s.category in wanted and s.in_heatmap
        ]


# ---------------------------------------------------------------------------
# Default catalog (Table 1 + figure extras)
# ---------------------------------------------------------------------------

#: One row per service: id, display name, category, CCA label, flow
#: count, recipe kind, recipe params, then the keyword facts.
DEFAULT_SPECS = (
    # --- on-demand video --------------------------------------------------
    ServiceSpec(
        "youtube", "YouTube", "video", "BBRv1.1 (QUIC)", 1,
        "video",
        recipe(cca="bbr-quic-2023", ladder=YOUTUBE_LADDER, abr="conservative"),
        max_throughput_bps=units.mbps(13),
        notes="7 bitrates up to 4K; QUIC-based; conservative ABR",
    ),
    ServiceSpec(
        "netflix", "Netflix", "video", "NewReno", 4,
        "video",
        recipe(cca="newreno", ladder=NETFLIX_LADDER, abr="buffer-rate"),
        max_throughput_bps=units.mbps(8),
        notes="6 bitrates up to 4K; 4 concurrent flows; run on Safari",
    ),
    ServiceSpec(
        "vimeo", "Vimeo", "video", "BBR*", 2,
        "video",
        recipe(
            cca="bbr-linux-4.15",
            ladder=VIMEO_LADDER,
            abr="conservative",
            abr_knobs=(("safety", 0.8), ("up_hysteresis", 1.15)),
        ),
        max_throughput_bps=units.mbps(14),
        notes="7 bitrates up to 4K; CCA classified as BBR",
    ),
    # --- file transfer ----------------------------------------------------
    ServiceSpec(
        "dropbox", "Dropbox", "file-transfer", "BBRv1.0", 1,
        "file", recipe(cca="bbr-linux-4.15"),
    ),
    ServiceSpec(
        "gdrive", "Google Drive", "file-transfer", "BBRv3", 1,
        "file", recipe(cca="bbrv3"),
        notes="BBRv3 deployed 2023 (Observation 13)",
    ),
    ServiceSpec(
        "onedrive", "OneDrive", "file-transfer", "Cubic (extended)", 1,
        "throttled-file", recipe(cca="cubic"),
        max_throughput_bps=units.mbps(45),
        notes="upstream-throttled to ~45 Mbps; unstable across trials",
    ),
    ServiceSpec(
        "mega", "Mega", "file-transfer", "BBR*", 5,
        "mega", recipe(cca="bbr-linux-4.15"),
        notes="5 concurrent flows, batch-of-5 chunks with barrier",
    ),
    # --- RTC --------------------------------------------------------------
    ServiceSpec(
        "meet", "Google Meet", "rtc", "GCC", 1,
        "rtc", recipe(controller="gcc", policy="meet"),
        max_throughput_bps=units.mbps(1.5),
        in_heatmap=False,
    ),
    ServiceSpec(
        "teams", "Microsoft Teams", "rtc", "Unknown", 1,
        "rtc", recipe(controller="teams", policy="teams"),
        max_throughput_bps=units.mbps(2.6),
        in_heatmap=False,
    ),
    # --- web --------------------------------------------------------------
    ServiceSpec(
        "wikipedia", "wikipedia.org", "web", "BBRv1.0", 6,
        "web", recipe(cca="bbr-linux-4.15", page="wikipedia"),
        in_heatmap=False,
    ),
    ServiceSpec(
        "news_google", "news.google.com", "web", "BBRv3.0", 21,
        "web", recipe(cca="bbrv3", page="news_google"),
        in_heatmap=False,
    ),
    ServiceSpec(
        "youtube_web", "youtube.com", "web", "BBRv3.0", 12,
        "web", recipe(cca="bbrv3", page="youtube_web"),
        in_heatmap=False,
        notes="thumbnail-heavy; different CCA than the video servers",
    ),
    # --- iPerf baselines --------------------------------------------------
    ServiceSpec(
        "iperf_bbr", "iPerf (BBR)", "baseline", "BBRv1.0 (Linux 5.15)", 1,
        "iperf", recipe(cca="bbr-linux-5.15"),
    ),
    ServiceSpec(
        "iperf_cubic", "iPerf (Cubic)", "baseline", "Cubic (Linux 5.15)", 1,
        "iperf", recipe(cca="cubic"),
    ),
    ServiceSpec(
        "iperf_reno", "iPerf (Reno)", "baseline", "NewReno (Linux 5.15)", 1,
        "iperf", recipe(cca="newreno"),
    ),
    # --- figure extras (not part of the regular heatmap rotation) ---------
    ServiceSpec(
        "iperf_bbr_415", "iPerf (BBR, Linux 4.15)", "baseline",
        "BBRv1.0 (Linux 4.15)", 1,
        "iperf", recipe(cca="bbr-linux-4.15"),
        in_heatmap=False,
        notes="Fig 9 comparison kernel",
    ),
    ServiceSpec(
        "iperf_bbr_x5", "iPerf (5 x BBR)", "baseline", "BBRv1.0 x5", 5,
        "iperf", recipe(cca="bbr-linux-4.15"),
        in_heatmap=False,
        notes="Observation 4 comparator for Mega",
    ),
    ServiceSpec(
        "gdrive_2022", "Google Drive (2022)", "file-transfer", "BBRv1", 1,
        "file", recipe(cca="bbr-linux-4.15"),
        in_heatmap=False,
        notes="pre-BBRv3 deployment (Fig 9a 'before')",
    ),
    ServiceSpec(
        "youtube_2022", "YouTube (2022)", "video",
        "BBRv1 (QUIC, 2022 tuning)", 1,
        "video",
        recipe(cca="bbr-quic-2022", ladder=YOUTUBE_LADDER, abr="conservative"),
        max_throughput_bps=units.mbps(13),
        in_heatmap=False,
        notes="pre-tuning QUIC stack (Fig 9a 'before')",
    ),
)


def default_catalog() -> ServiceCatalog:
    """Build the full Prudentia service catalog (Table 1 + figure extras)."""
    catalog = ServiceCatalog()
    for spec in DEFAULT_SPECS:
        catalog.register(spec)
    return catalog
