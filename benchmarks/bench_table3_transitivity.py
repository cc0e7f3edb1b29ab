"""Table 3 / Observation 14: (un)fairness is not transitive.

Searches the all-pairs sweep for triples where alpha is unfair to beta and
beta unfair to gamma, yet gamma does fine against alpha (and the mirrored
fair/fair/unfair case) - the paper's evidence that no bellwether service
can predict general fairness.
"""

from repro.core.report import FairnessReport

from .harness import SETTINGS, heatmap_service_ids, report


def _find_triples(store):
    ids = heatmap_service_ids()
    found = {}
    for name, network in SETTINGS.items():
        rep = FairnessReport(store, ids, network.bandwidth_bps)
        found[name] = list(rep.find_non_transitive_triples(
            unfair_below=0.8, fair_above=0.92
        ))
    return found


def test_table3_non_transitivity(sweep_store):
    found = _find_triples(sweep_store)
    lines = [
        f"{'alpha':<12} {'beta':<12} {'gamma':<12} {'BW':>6} "
        f"{'b vs a':>8} {'g vs b':>8} {'g vs a':>8}"
    ]
    total = 0
    for name, triples in found.items():
        for t in triples[:8]:
            total += 1
            lines.append(
                f"{t.alpha:<12} {t.beta:<12} {t.gamma:<12} "
                f"{t.bandwidth_bps / 1e6:>4.0f}Mb "
                f"{t.beta_vs_alpha * 100:>7.0f}% "
                f"{t.gamma_vs_beta * 100:>7.0f}% "
                f"{t.gamma_vs_alpha * 100:>7.0f}%"
            )
        lines.append(f"  ({len(triples)} total in {name})")
    report("Table 3 - non-transitive fairness triples", "\n".join(lines))
    # The sweep contains at least one counterexample to transitivity.
    assert total >= 1
