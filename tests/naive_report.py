"""A deliberately naive fairness report: the oracle for ``core.report``.

Every function here recomputes each cell from the raw trials at the
moment it needs it - a scan of every stored trial, no buckets, no
``incumbent_key``, no matrix, no memo, no pruning, the O(n^3) triple
scan written out - which is how ``FairnessReport`` worked before its
cells were derived once.  ``tests/test_report_oracle.py`` holds the real
report (its grids, and the site section built on it) equal to this under
hypothesis, so the fast path can never publish a different number.
"""

from repro.core.report import REPORT_SCHEMA_VERSION, TransitivityTriple
from repro.core.stats import median

#: The Appendix B quantities, by their ``repro.core.results`` names.
QUANTITIES = {
    "utilization": lambda trial, key: trial.utilization,
    "loss_rate": lambda trial, key: trial.loss_rate[key],
    "queueing_delay_ms": lambda trial, key: (
        trial.queueing_delay_usec[key] / 1000.0
    ),
}


def samples(store, bandwidth, incumbent, contender, value):
    """``value`` of every valid trial of the pair; a self pair's
    incumbent is its ``#2`` instance."""
    key = incumbent + "#2" if incumbent == contender else incumbent
    return [
        value(trial, key)
        for trial in store.all_results()
        if trial.bandwidth_bps == bandwidth
        and trial.valid
        and sorted(sid.split("#")[0] for sid in trial.mmf_share)
        == sorted([incumbent, contender])
    ]


def grid(store, ids, bandwidth, value):
    cells = {}
    for contender in ids:
        for incumbent in ids:
            values = samples(store, bandwidth, incumbent, contender, value)
            cells[(contender, incumbent)] = median(values) if values else None
    return cells


def cell(store, bandwidth, incumbent, contender):
    shares = samples(
        store, bandwidth, incumbent, contender,
        lambda trial, key: trial.mmf_share[key],
    )
    return median(shares) if shares else None


def heatmap(store, ids, bandwidth):
    return {
        (contender, incumbent): cell(store, bandwidth, incumbent, contender)
        for contender in ids
        for incumbent in ids
    }


def losing_shares(store, ids, bandwidth):
    losers = []
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            share_a = cell(store, bandwidth, a, b)
            share_b = cell(store, bandwidth, b, a)
            if share_a is not None and share_b is not None:
                losers.append(min(share_a, share_b))
    return losers


def losing_service_stats(store, ids, bandwidth):
    losers = losing_shares(store, ids, bandwidth)
    if not losers:
        return {}
    return {
        "pairs": float(len(losers)),
        "median_losing_share": median(losers),
        "mean_losing_share": sum(losers) / len(losers),
        "fraction_below_90pct": sum(1 for v in losers if v <= 0.9)
        / len(losers),
        "fraction_below_50pct": sum(1 for v in losers if v <= 0.5)
        / len(losers),
    }


def _mean_over_others(store, ids, bandwidth, fixed_is_contender):
    scores = {}
    for fixed in ids:
        values = []
        for other in ids:
            if other == fixed:
                continue
            share = (
                cell(store, bandwidth, other, fixed)
                if fixed_is_contender
                else cell(store, bandwidth, fixed, other)
            )
            if share is not None:
                values.append(share)
        if values:
            scores[fixed] = sum(values) / len(values)
    return scores


def contentiousness(store, ids, bandwidth):
    return _mean_over_others(store, ids, bandwidth, fixed_is_contender=True)


def sensitivity(store, ids, bandwidth):
    return _mean_over_others(store, ids, bandwidth, fixed_is_contender=False)


def to_json(store, ids, bandwidth):
    return {
        "schema": REPORT_SCHEMA_VERSION,
        "bandwidth_bps": bandwidth,
        "service_ids": list(ids),
        "heatmap": {
            f"{contender}|{incumbent}": share
            for (contender, incumbent), share in heatmap(
                store, ids, bandwidth
            ).items()
        },
        "losing_service_stats": losing_service_stats(store, ids, bandwidth),
        "contentiousness": contentiousness(store, ids, bandwidth),
        "sensitivity": sensitivity(store, ids, bandwidth),
        "runner_stats": None,
    }


def find_non_transitive_triples(
    store, ids, bandwidth, unfair_below=0.75, fair_above=0.95
):
    triples = []
    for alpha in ids:
        for beta in ids:
            if beta == alpha:
                continue
            b_vs_a = cell(store, bandwidth, beta, alpha)
            if b_vs_a is None:
                continue
            for gamma in ids:
                if gamma in (alpha, beta):
                    continue
                g_vs_b = cell(store, bandwidth, gamma, beta)
                g_vs_a = cell(store, bandwidth, gamma, alpha)
                if g_vs_b is None or g_vs_a is None:
                    continue
                unfair_chain = (
                    b_vs_a < unfair_below
                    and g_vs_b < unfair_below
                    and g_vs_a >= fair_above
                )
                fair_chain = (
                    b_vs_a >= fair_above
                    and g_vs_b >= fair_above
                    and g_vs_a < unfair_below
                )
                if unfair_chain or fair_chain:
                    triples.append(
                        TransitivityTriple(
                            alpha, beta, gamma, bandwidth,
                            b_vs_a, g_vs_b, g_vs_a,
                        )
                    )
    return triples


def render(cells, ids, title, scale=100, fmt="{:.0f}"):
    width = max(len(s) for s in ids) + 1
    lines = [title, " " * width + "".join(f"{s[:9]:>10}" for s in ids)]
    for contender in ids:
        row = []
        for incumbent in ids:
            value = cells[(contender, incumbent)]
            row.append(
                "       ---"
                if value is None
                else f"{fmt.format(value * scale):>10}"
            )
        lines.append(f"{contender:<{width}}" + "".join(row))
    return "\n".join(lines)


def render_heatmap(store, ids, bandwidth):
    return render(
        heatmap(store, ids, bandwidth),
        ids,
        f"rows = contender, cols = incumbent; cells = median % of "
        f"incumbent's MmF share @ {bandwidth / 1e6:.0f} Mbps",
    )


def render_bandwidth_section(store, ids, bandwidth):
    """The diagnosis-free findings section, cell by cell."""
    stats = losing_service_stats(store, ids, bandwidth)
    if not stats:
        return None
    lines = [f"## {bandwidth / 1e6:.0f} Mbps bottleneck", "", "```"]
    lines.append(
        render(
            heatmap(store, ids, bandwidth),
            ids,
            "median % of incumbent MmF share (rows = contender)",
        )
    )
    lines.extend(["```", ""])
    lines.append(
        f"- median losing share: "
        f"**{stats['median_losing_share'] * 100:.0f}%** "
        f"({stats['fraction_below_90pct'] * 100:.0f}% of losers below "
        f"90%, {stats['fraction_below_50pct'] * 100:.0f}% below 50%)"
    )
    scores = contentiousness(store, ids, bandwidth)
    if scores:
        most = min(scores, key=scores.get)
        least = max(scores, key=scores.get)
        lines.append(
            f"- most contentious service: **{most}**; "
            f"least contentious: **{least}**"
        )
    selfs = [
        share
        for share in (cell(store, bandwidth, sid, sid) for sid in ids)
        if share is not None
    ]
    if selfs:
        lines.append(
            f"- self-competition mean share: "
            f"{sum(selfs) / len(selfs) * 100:.0f}%"
        )
    worst = sorted(
        (
            (contender, incumbent, cell(store, bandwidth, incumbent, contender))
            for contender in ids
            for incumbent in ids
            if contender != incumbent
            and cell(store, bandwidth, incumbent, contender) is not None
        ),
        key=lambda entry: entry[2],
    )[:3]
    if worst:
        lines.append("- worst interactions:")
        for contender, incumbent, share in worst:
            lines.append(
                f"    - {incumbent} gets {share * 100:.0f}% of its "
                f"fair share against {contender}"
            )
    triples = find_non_transitive_triples(
        store, ids, bandwidth, unfair_below=0.8, fair_above=0.92
    )
    if triples:
        t = triples[0]
        lines.append(
            f"- non-transitivity example: {t.alpha} vs {t.beta} "
            f"({t.beta_vs_alpha * 100:.0f}%), {t.beta} vs {t.gamma} "
            f"({t.gamma_vs_beta * 100:.0f}%), yet {t.gamma} vs "
            f"{t.alpha} = {t.gamma_vs_alpha * 100:.0f}%"
        )
    return "\n".join(lines)
