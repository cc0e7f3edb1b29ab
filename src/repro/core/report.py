"""Fairness reporting: heatmaps, winner/loser statistics, rankings,
transitivity analysis.

This module turns a :class:`ResultStore` into the paper's published
artifacts: the all-pairs grids (Fig 2's MmF share, Appendix B's
utilisation, loss and queueing delay) and their one text renderer, the
Observation-1 losing-service statistics, contentiousness/sensitivity
rankings (Section 2.3's working definitions), and the Table-3
non-transitivity search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..obs.metrics import get_registry
from .results import ResultStore, Value, mmf_share
from .runner import RunnerStats
from .stats import median

#: Bump when the serialised report layout changes incompatibly.
REPORT_SCHEMA_VERSION = 1

#: (contender, incumbent) -> median cell value; ``None`` = unmeasured.
Grid = Dict[Tuple[str, str], Optional[float]]

#: (incumbent, contender) -> median value, for every measured pair.
Medians = Dict[Tuple[str, str], float]


def render_grid(
    grid: Grid,
    service_ids: Sequence[str],
    title: str,
    scale: float = 1.0,
    fmt: str = "{:.0f}",
) -> str:
    """Render a grid as a fixed-width text table (rows = contender)."""
    width = max(len(s) for s in service_ids) + 1
    lines = [title]
    lines.append(" " * width + "".join(f"{s[:9]:>10}" for s in service_ids))
    for contender in service_ids:
        cells = []
        for incumbent in service_ids:
            value = grid.get((contender, incumbent))
            if value is None:
                cells.append(f"{'---':>10}")
            else:
                cells.append(f"{fmt.format(value * scale):>10}")
        lines.append(f"{contender:<{width}}" + "".join(cells))
    return "\n".join(lines)


@dataclass(frozen=True)
class TransitivityTriple:
    """A counterexample to transitive (un)fairness (Table 3)."""

    alpha: str
    beta: str
    gamma: str
    bandwidth_bps: float
    beta_vs_alpha: float
    gamma_vs_beta: float
    gamma_vs_alpha: float


class FairnessReport:
    """Aggregated fairness view over a set of measured pairs.

    ``runner_stats``, when provided by the orchestrator that produced the
    underlying measurements, records how the cycle was executed - trials
    simulated vs served from cache, and simulation wall-clock - so
    published findings carry their own provenance (a fully cache-assembled
    report shows ``trials_run == 0``).
    """

    def __init__(
        self,
        store: ResultStore,
        service_ids: Sequence[str],
        bandwidth_bps: float,
        runner_stats: Optional[RunnerStats] = None,
    ) -> None:
        self.store = store
        self.service_ids = list(service_ids)
        self.bandwidth_bps = bandwidth_bps
        self.runner_stats = runner_stats
        self._medians: Dict[Value, Medians] = {}
        self._medians_key: Optional[Tuple[int, float]] = None

    def to_json(self) -> Dict:
        """Serialise the published view of this report.

        Heatmap cells are keyed ``"contender|incumbent"`` (JSON objects
        cannot key on tuples); unmeasured cells serialise as ``null``.
        """
        return {
            "schema": REPORT_SCHEMA_VERSION,
            "bandwidth_bps": self.bandwidth_bps,
            "service_ids": list(self.service_ids),
            "heatmap": {
                f"{contender}|{incumbent}": share
                for (contender, incumbent), share in self.heatmap().items()
            },
            "losing_service_stats": self.losing_service_stats(),
            "contentiousness": self.contentiousness(),
            "sensitivity": self.sensitivity(),
            "runner_stats": (
                self.runner_stats.to_json()
                if self.runner_stats is not None
                else None
            ),
        }

    # ------------------------------------------------------------------
    # All-pairs grids (Figs 2, 11, 12, 13)
    # ------------------------------------------------------------------

    def medians(self, value: Value = mmf_share) -> Medians:
        """(incumbent, contender) -> median ``value`` over the pair's
        valid trials, for every pair measured at this bandwidth - ids
        outside :attr:`service_ids` included.

        Every published view below reads these, and they come from one
        :meth:`ResultStore.pair_samples` pass per ``value``: the memo is
        keyed on the store's mutation counter, so a trial added after a
        read drops it and the next read sees the new data.
        """
        key = (self.store.version, self.bandwidth_bps)
        if key != self._medians_key:
            self._medians = {}
            self._medians_key = key
        medians = self._medians.get(value)
        if medians is None:
            medians = self._medians[value] = {
                pair: median(samples)
                for pair, samples in self.store.pair_samples(
                    self.bandwidth_bps, value
                ).items()
            }
            get_registry().counter("core.report.cells_derived").inc(
                len(medians)
            )
        return medians

    def cell(
        self, value: Value, incumbent: str, contender: str
    ) -> Optional[float]:
        """Median ``value`` of ``incumbent`` against ``contender`` over
        the pair's valid trials; ``None`` when none measured it."""
        return self.medians(value).get((incumbent, contender))

    def median_share(
        self, incumbent: str, contender: str
    ) -> Optional[float]:
        """Median MmF share of ``incumbent`` when fighting ``contender``."""
        return self.cell(mmf_share, incumbent, contender)

    def grid(self, value: Value) -> Grid:
        """(contender, incumbent) -> median ``value`` (rows = contender):
        any per-trial quantity of :mod:`repro.core.results` as an
        all-pairs grid (Figs 11-13 are ``utilization``, ``loss_rate``
        and ``queueing_delay_ms``)."""
        medians = self.medians(value)
        return {
            (contender, incumbent): medians.get((incumbent, contender))
            for contender in self.service_ids
            for incumbent in self.service_ids
        }

    def heatmap(self) -> Grid:
        """(contender, incumbent) -> median MmF share (Fig 2)."""
        return self.grid(mmf_share)

    def render_heatmap(self) -> str:
        """Text rendering of the Fig 2 heatmap (values in % of MmF)."""
        return render_grid(
            self.heatmap(),
            self.service_ids,
            f"rows = contender, cols = incumbent; cells = median % of "
            f"incumbent's MmF share @ {self.bandwidth_bps / 1e6:.0f} Mbps",
            scale=100,
        )

    # ------------------------------------------------------------------
    # Winner/loser statistics (Observation 1)
    # ------------------------------------------------------------------

    def losing_shares(self) -> List[float]:
        """The per-pair MmF share of whichever service lost (cross pairs)."""
        shares = self.medians()
        losers: List[float] = []
        for i, a in enumerate(self.service_ids):
            for b in self.service_ids[i + 1:]:
                share_a = shares.get((a, b))
                share_b = shares.get((b, a))
                if share_a is None or share_b is None:
                    continue
                losers.append(min(share_a, share_b))
        return losers

    def losing_service_stats(self) -> Dict[str, float]:
        """Observation-1 statistics over the per-pair losing shares."""
        losers = self.losing_shares()
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

    def self_competition_shares(self) -> Dict[str, float]:
        """Median share each service achieves against itself."""
        medians = self.medians()
        return {
            sid: medians[(sid, sid)]
            for sid in self.service_ids
            if (sid, sid) in medians
        }

    # ------------------------------------------------------------------
    # Contentiousness & sensitivity (Section 2.3)
    # ------------------------------------------------------------------

    def contentiousness(self) -> Dict[str, float]:
        """Mean share *competitors* achieve against each contender.

        Lower = more contentious (the service's row in Fig 2 is red).
        """
        shares = self.medians()
        scores = {}
        for contender in self.service_ids:
            values = [
                shares[(incumbent, contender)]
                for incumbent in self.service_ids
                if incumbent != contender and (incumbent, contender) in shares
            ]
            if values:
                scores[contender] = sum(values) / len(values)
        return scores

    def sensitivity(self) -> Dict[str, float]:
        """Mean share each service achieves against all contenders.

        Lower = more sensitive (the service's column in Fig 2 is red).
        """
        shares = self.medians()
        scores = {}
        for incumbent in self.service_ids:
            values = [
                shares[(incumbent, contender)]
                for contender in self.service_ids
                if contender != incumbent and (incumbent, contender) in shares
            ]
            if values:
                scores[incumbent] = sum(values) / len(values)
        return scores

    def most_contentious(self) -> Optional[str]:
        """Service whose competitors fare worst (lowest row average)."""
        scores = self.contentiousness()
        if not scores:
            return None
        return min(scores, key=scores.get)

    def least_contentious(self) -> Optional[str]:
        """Service whose competitors fare best (highest row average)."""
        scores = self.contentiousness()
        if not scores:
            return None
        return max(scores, key=scores.get)

    # ------------------------------------------------------------------
    # Transitivity (Observation 14 / Table 3)
    # ------------------------------------------------------------------

    def find_non_transitive_triples(
        self,
        unfair_below: float = 0.75,
        fair_above: float = 0.95,
    ) -> Iterator[TransitivityTriple]:
        """Triples where alpha hurts beta, beta hurts gamma, yet gamma is
        fine against alpha (and the fair/fair/unfair mirror case), each
        built when asked for: a reader that wants one example builds
        one."""
        ids = self.service_ids
        shares = self.medians()
        position = {sid: index for index, sid in enumerate(ids)}
        # Per contender: the incumbents it leaves below / keeps above
        # the thresholds, so each (alpha, beta) intersects two small
        # sets instead of scanning every gamma.
        below: Dict[str, Set[str]] = {sid: set() for sid in ids}
        above: Dict[str, Set[str]] = {sid: set() for sid in ids}
        for contender in ids:
            for incumbent in ids:
                if incumbent == contender:
                    continue
                share = shares.get((incumbent, contender))
                if share is None:
                    continue
                if share < unfair_below:
                    below[contender].add(incumbent)
                if share >= fair_above:
                    above[contender].add(incumbent)
        for alpha in ids:
            for beta in ids:
                if beta == alpha:
                    continue
                gammas: Set[str] = set()
                if beta in below[alpha]:  # unfair, unfair, yet fair
                    gammas |= below[beta] & above[alpha]
                if beta in above[alpha]:  # fair, fair, yet unfair
                    gammas |= above[beta] & below[alpha]
                gammas -= {alpha, beta}
                for gamma in sorted(gammas, key=position.__getitem__):
                    yield TransitivityTriple(
                        alpha=alpha,
                        beta=beta,
                        gamma=gamma,
                        bandwidth_bps=self.bandwidth_bps,
                        beta_vs_alpha=shares[(beta, alpha)],
                        gamma_vs_beta=shares[(gamma, beta)],
                        gamma_vs_alpha=shares[(gamma, alpha)],
                    )
