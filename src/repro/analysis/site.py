"""Website-style report generation (the internetfairness.net front page).

The live deployment publishes its current findings as a web page: the
heatmaps, the winner/loser headline numbers, rankings, and notable
anomalies.  This module renders the same report as Markdown from a result
store, so a simulated deployment can publish its findings the same way.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core.report import FairnessReport, render_grid
from ..core.results import ResultStore
from ..obs.flight import explain_unfairness


#: Title of the findings page.
PAGE_TITLE = "Prudentia - Internet Fairness Watchdog"

#: Opening paragraph of the findings page (shared with the incremental
#: renderer so stitched pages match one-shot renders byte for byte).
PAGE_INTRO = (
    "Live all-pairs fairness measurements. Cells show the median "
    "percentage of its max-min fair share an incumbent service "
    "achieved against each contender; 100 = exactly fair."
)

#: Closing paragraph of the findings page.
PAGE_FOOTER = (
    "Per-experiment artifacts (queue logs, packet traces, raw trial "
    "records) are published alongside this page."
)


def render_bandwidth_section(
    store: ResultStore,
    service_ids: Sequence[str],
    bandwidth_bps: float,
    diagnoses: Optional[Dict[Tuple[str, str], Dict]] = None,
) -> Optional[str]:
    """One bandwidth's findings section, or ``None`` with no data.

    This is the unit of incremental regeneration: a section's text is a
    pure function of the store's data *at this bandwidth* (and the id
    list), so the service only re-renders sections whose data changed.

    ``diagnoses`` maps service-id pairs to flight-recorder diagnosis
    payloads (:func:`repro.obs.flight.diagnose`); when a worst
    interaction has one, the section gains a "Why is this unfair?"
    subsection explaining the mechanism.  ``None`` renders byte-
    identically to the pre-diagnosis layout.
    """
    label = f"{bandwidth_bps / 1e6:.0f} Mbps"
    report = FairnessReport(store, list(service_ids), bandwidth_bps)
    stats = report.losing_service_stats()
    if not stats:
        return None
    lines: List[str] = [f"## {label} bottleneck"]
    lines.append("")
    lines.append("```")
    lines.append(
        render_grid(
            report.heatmap(),
            service_ids,
            "median % of incumbent MmF share (rows = contender)",
            scale=100,
        )
    )
    lines.append("```")
    lines.append("")
    lines.append(
        f"- median losing share: "
        f"**{stats['median_losing_share'] * 100:.0f}%** "
        f"({stats['fraction_below_90pct'] * 100:.0f}% of losers below "
        f"90%, {stats['fraction_below_50pct'] * 100:.0f}% below 50%)"
    )
    most = report.most_contentious()
    least = report.least_contentious()
    if most and least:
        lines.append(
            f"- most contentious service: **{most}**; "
            f"least contentious: **{least}**"
        )
    selfs = report.self_competition_shares()
    if selfs:
        mean_self = sum(selfs.values()) / len(selfs)
        lines.append(
            f"- self-competition mean share: {mean_self * 100:.0f}%"
        )
    worst = _worst_cells(report, service_ids)
    if worst:
        lines.append("- worst interactions:")
        for contender, incumbent, share in worst:
            lines.append(
                f"    - {incumbent} gets {share * 100:.0f}% of its "
                f"fair share against {contender}"
            )
    t = next(
        report.find_non_transitive_triples(unfair_below=0.8, fair_above=0.92),
        None,
    )
    if t is not None:
        lines.append(
            f"- non-transitivity example: {t.alpha} vs {t.beta} "
            f"({t.beta_vs_alpha * 100:.0f}%), {t.beta} vs {t.gamma} "
            f"({t.gamma_vs_beta * 100:.0f}%), yet {t.gamma} vs "
            f"{t.alpha} = {t.gamma_vs_alpha * 100:.0f}%"
        )
    lines.extend(_why_unfair_lines(worst, diagnoses))
    return "\n".join(lines)


def _why_unfair_lines(
    worst: Sequence[tuple],
    diagnoses: Optional[Dict[Tuple[str, str], Dict]],
) -> List[str]:
    """The "Why is this unfair?" subsection for diagnosed worst cells.

    Empty (so the section is byte-identical to the diagnosis-free
    layout) when no worst interaction has a flight-recorder diagnosis.
    """
    if not diagnoses:
        return []
    lines: List[str] = []
    for contender, incumbent, share in worst:
        diagnosis = diagnoses.get((contender, incumbent))
        if diagnosis is None:
            diagnosis = diagnoses.get((incumbent, contender))
        if diagnosis is None:
            continue
        if not lines:
            lines.append("")
            lines.append("### Why is this unfair?")
        lines.append("")
        lines.append(
            f"**{incumbent} vs {contender}** "
            f"({share * 100:.0f}% of fair share):"
        )
        lines.append("")
        for sentence in explain_unfairness(diagnosis):
            lines.append(f"- {sentence}")
    return lines


def assemble_page(sections: Sequence[str]) -> str:
    """Stitch rendered bandwidth sections into the full findings page.

    ``assemble_page([render_bandwidth_section(...), ...])`` is byte-
    identical to :func:`render_markdown_report` over the same inputs -
    the incremental site regenerator relies on this equivalence.
    """
    lines: List[str] = [f"# {PAGE_TITLE}", "", PAGE_INTRO]
    for section in sections:
        lines.append("")
        lines.append(section)
    lines.append("")
    lines.append(PAGE_FOOTER)
    return "\n".join(lines)


def render_markdown_report(
    store: ResultStore,
    service_ids: Sequence[str],
    bandwidths_bps: Sequence[float],
) -> str:
    """Render a full findings page for the measured settings."""
    sections = []
    for bandwidth in bandwidths_bps:
        section = render_bandwidth_section(store, service_ids, bandwidth)
        if section is not None:
            sections.append(section)
    return assemble_page(sections)


def _worst_cells(
    report: FairnessReport,
    service_ids: Sequence[str],
    limit: int = 3,
) -> List[tuple]:
    """The lowest incumbent shares across all cross pairs."""
    shares = report.medians()
    cells = [
        (contender, incumbent, shares[(incumbent, contender)])
        for contender in service_ids
        for incumbent in service_ids
        if contender != incumbent and (incumbent, contender) in shares
    ]
    cells.sort(key=lambda cell: cell[2])
    return cells[:limit]
