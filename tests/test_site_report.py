"""The website-style markdown findings report."""

import os
from pathlib import Path

import pytest

from repro import units
from repro.analysis.site import (
    assemble_page,
    render_bandwidth_section,
    render_markdown_report,
)
from repro.core.experiment import ExperimentResult
from repro.core.results import ResultStore
from repro.service.site import SiteRenderer, bandwidth_tag

BW = units.mbps(8)
BW50 = units.mbps(50)

GOLDEN = Path(__file__).parent / "data" / "golden_site_8mbps.md"


def synth(contender, incumbent, share_c, share_i, seed=0, bw=BW):
    ids = [contender, incumbent]
    return ExperimentResult(
        contender_id=ids[0],
        incumbent_id=ids[1],
        bandwidth_bps=bw,
        buffer_packets=128,
        seed=seed,
        duration_usec=units.seconds(60),
        throughput_bps={sid: s * BW / 2 for sid, s in zip(ids, (share_c, share_i))},
        mmf_allocation_bps={sid: BW / 2 for sid in ids},
        mmf_share=dict(zip(ids, (share_c, share_i))),
        loss_rate={sid: 0.0 for sid in ids},
        queueing_delay_usec={sid: 0.0 for sid in ids},
        utilization=1.0,
    )


@pytest.fixture
def store():
    store = ResultStore()
    for seed in range(3):
        store.add(synth("bully", "meek", 1.8, 0.2, seed))
        store.add(synth("bully", "peer", 1.5, 0.5, seed))
        store.add(synth("meek", "peer", 0.9, 1.1, seed))
    return store


class TestMarkdownReport:
    def test_contains_headline_sections(self, store):
        page = render_markdown_report(store, ["bully", "meek", "peer"], [BW])
        assert "# Prudentia" in page
        assert "## 8 Mbps bottleneck" in page
        assert "median losing share" in page
        assert "most contentious service: **bully**" in page

    def test_worst_cells_listed(self, store):
        page = render_markdown_report(store, ["bully", "meek", "peer"], [BW])
        assert "meek gets 20% of its fair share against bully" in page

    def test_empty_setting_skipped(self, store):
        page = render_markdown_report(
            store, ["bully", "meek", "peer"], [BW, units.mbps(50)]
        )
        assert "## 50 Mbps bottleneck" not in page

    def test_grid_rendered_in_code_block(self, store):
        page = render_markdown_report(store, ["bully", "meek", "peer"], [BW])
        assert "```" in page
        assert "rows = contender" in page

    def test_matches_golden_fixture(self, store):
        """The fixed-seed store renders byte-identically to the committed
        golden page; a diff here means the site format changed."""
        page = render_markdown_report(store, ["bully", "meek", "peer"], [BW])
        assert page + "\n" == GOLDEN.read_text()

    def test_assembled_sections_equal_one_shot_render(self, store):
        """The incremental renderer's contract: stitching per-bandwidth
        sections reproduces the one-shot page byte for byte."""
        ids = ["bully", "meek", "peer"]
        sections = [render_bandwidth_section(store, ids, BW)]
        assert assemble_page(sections) == render_markdown_report(
            store, ids, [BW]
        )


class TestIncrementalSite:
    def test_untouched_bandwidth_section_is_byte_identical(
        self, store, tmp_path
    ):
        """Ingesting data at one bandwidth leaves the other bandwidth's
        section file untouched, byte for byte."""
        renderer = SiteRenderer(tmp_path / "site")
        renderer.regenerate(store, None)
        path_8 = (
            renderer.sections_dir / f"bw-{bandwidth_tag(BW)}.md"
        )
        before = path_8.read_bytes()
        before_mtime = path_8.stat().st_mtime_ns

        # New data lands at 50 Mbps only.
        for seed in range(3):
            store.add(synth("bully", "meek", 1.7, 0.3, seed, bw=BW50))
        changed = renderer.regenerate(store, changed_bandwidths=[BW50])
        assert changed == [BW50]
        assert path_8.read_bytes() == before
        assert path_8.stat().st_mtime_ns == before_mtime
        assert (
            renderer.sections_dir / f"bw-{bandwidth_tag(BW50)}.md"
        ).exists()
        assert "## 50 Mbps bottleneck" in renderer.index_path.read_text()

    def test_incremental_index_matches_full_render(self, store, tmp_path):
        """After incremental updates, index.md equals the one-shot render
        over the same store."""
        renderer = SiteRenderer(tmp_path / "site")
        renderer.regenerate(store, None)
        for seed in range(3):
            store.add(synth("bully", "peer", 1.6, 0.4, seed, bw=BW50))
        renderer.regenerate(store, changed_bandwidths=[BW50])
        ids_8 = ["bully", "meek", "peer"]
        ids_50 = ["bully", "peer"]
        expected = assemble_page(
            [
                render_bandwidth_section(store, ids_8, BW),
                render_bandwidth_section(store, ids_50, BW50),
            ]
        )
        assert renderer.index_path.read_text() == expected + "\n"

    def test_unchanged_regenerate_is_a_no_op(self, store, tmp_path):
        renderer = SiteRenderer(tmp_path / "site")
        renderer.regenerate(store, None)
        index_before = renderer.index_path.read_bytes()
        assert renderer.regenerate(store, None) == []
        assert renderer.index_path.read_bytes() == index_before

    def test_a_full_refresh_heals_from_the_files_alone(self, store, tmp_path):
        """The section files are the only record of what was published:
        a full refresh rewrites a hand-truncated section, removes the
        section of a bandwidth the store does not hold and a leftover
        ``site-state.json`` ledger, leaves every other file's bytes and
        mtime alone - over an unchanged store, every file's - and never
        writes a ledger."""
        for seed in range(3):
            store.add(synth("bully", "peer", 1.6, 0.4, seed, bw=BW50))
        site = tmp_path / "site"
        renderer = SiteRenderer(site)
        assert renderer.regenerate(store, None) == [BW, BW50]

        def files():
            return {
                path: (path.read_bytes(), path.stat().st_mtime_ns)
                for path in sorted(site.rglob("*")) if path.is_file()
            }

        for path in files():
            os.utime(path, ns=(10**9, 10**9))
        healthy = files()
        assert SiteRenderer(site).regenerate(store, None) == []
        assert files() == healthy

        section_8 = renderer.section_path(BW)
        section_8.write_bytes(healthy[section_8][0][:100])
        (renderer.sections_dir / "bw-2_5mbps.md").write_text("stale\n")
        (site / "site-state.json").write_text('{"schema": 1}')
        changed = SiteRenderer(site).regenerate(store, None)
        assert changed == [units.mbps(2.5), BW]
        after = files()
        assert sorted(after) == sorted(healthy)
        assert after[section_8][0] == healthy[section_8][0]
        del after[section_8], healthy[section_8]
        assert after == healthy
        assert not (site / "site-state.json").exists()
