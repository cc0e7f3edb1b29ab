"""Incremental findings-site regeneration.

The live site is always consistent and always fresh: after every
ingested cycle, only the bandwidth sections whose data changed are
re-rendered, a file is written only when its rendered bytes differ from
the ones on disk, and every write is atomic (write-temp-then-rename),
so a reader - or a crash - never sees a half-written page.

Layout under the site directory::

    site/
      index.md                 - the stitched findings page
      sections/bw-<tag>.md     - one file per bandwidth section

Section text is a pure function of the windowed store's data at that
bandwidth (see :func:`repro.analysis.site.render_bandwidth_section`),
and the per-bandwidth id list is derived from that bandwidth's own data
- so ingesting a cycle that only touched 8 Mbps leaves the 50 Mbps
section file byte-identical, which the test suite asserts.  The files
on disk are the only record of what was published: there is no ledger
beside them, and the whole site directory is deterministic for the
kill-and-restart identity check.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Union

from ..analysis.site import assemble_page, render_bandwidth_section
from ..atomicio import atomic_write
from ..core.results import ResultStore

#: The section-hash ledger earlier versions kept in the site directory;
#: a full refresh removes one left behind.
_LEGACY_STATE_FILENAME = "site-state.json"


def bandwidth_tag(bandwidth_bps: float) -> str:
    """Filesystem-safe tag for one bandwidth (``8mbps``, ``2.5mbps``)."""
    return f"{bandwidth_bps / 1e6:g}mbps".replace(".", "_")


def _service_ids_at(store: ResultStore, bandwidth_bps: float) -> List[str]:
    """Services with data at one bandwidth (the section's axis order)."""
    ids: Set[str] = set()
    for a, b, bandwidth in store.pairs():
        if bandwidth == bandwidth_bps:
            ids.add(a)
            ids.add(b)
    return sorted(ids)


def _publish(path: Path, text: str) -> bool:
    """Write ``text`` to ``path`` unless the file already holds it;
    return whether it was written."""
    data = text.encode("utf-8")
    try:
        if path.read_bytes() == data:
            return False
    except FileNotFoundError:
        pass
    atomic_write(path, data)
    return True


class SiteRenderer:
    """Maintains the findings-site directory across ingests."""

    def __init__(self, site_dir: Union[str, Path]) -> None:
        self.site_dir = Path(site_dir)
        self.sections_dir = self.site_dir / "sections"
        self.sections_dir.mkdir(parents=True, exist_ok=True)

    @property
    def index_path(self) -> Path:
        return self.site_dir / "index.md"

    def section_path(self, bandwidth_bps: float) -> Path:
        """The section file of one bandwidth."""
        return self.sections_dir / f"bw-{bandwidth_tag(bandwidth_bps)}.md"

    def regenerate(
        self,
        store: ResultStore,
        changed_bandwidths: Optional[Sequence[float]] = None,
        diagnoses: Optional[Dict[float, Dict]] = None,
    ) -> List[float]:
        """Bring the site up to date with ``store``; return the
        bandwidths whose section file changed.

        With ``changed_bandwidths`` given (the bandwidths the just-
        ingested cycle touched), only those sections are re-rendered;
        every other section file is only read back for the index.  With
        ``None`` (service startup, or an explicit full refresh), every
        bandwidth in the store is re-rendered, which also heals a crash
        that landed between a journal commit and the site write, or a
        section file damaged on disk; section files of bandwidths the
        store no longer holds (aged out of the window) are removed.
        Either way a section or ``index.md`` is written only when its
        rendered bytes differ from the file's.

        ``diagnoses`` maps bandwidth -> pair -> flight-recorder
        diagnosis payload; diagnosed worst interactions gain a "Why is
        this unfair?" subsection in their bandwidth section, so a new
        diagnosis re-renders the section exactly like new trial data
        would.
        """
        present = sorted({bw for _a, _b, bw in store.pairs()})
        targets = present if changed_bandwidths is None else changed_bandwidths
        changed: List[float] = []
        sections: Dict[float, str] = {}
        for bandwidth in sorted(set(targets)):
            path = self.section_path(bandwidth)
            ids = _service_ids_at(store, bandwidth)
            if not ids:
                # No data at this bandwidth: retire its section.
                if path.exists():
                    path.unlink()
                    changed.append(bandwidth)
                continue
            sections[bandwidth] = render_bandwidth_section(
                store,
                ids,
                bandwidth,
                diagnoses=(diagnoses or {}).get(bandwidth),
            )
            if _publish(path, sections[bandwidth] + "\n"):
                changed.append(bandwidth)
        if changed_bandwidths is None:
            live = {self.section_path(bw).name for bw in present}
            for path in self.sections_dir.glob("bw-*mbps.md"):
                try:
                    # The bandwidth its tag names, for the caller's list.
                    bandwidth = float(path.name[3:-7].replace("_", ".")) * 1e6
                except ValueError:
                    continue  # not a file this renderer writes
                if path.name not in live:
                    path.unlink()
                    changed.append(bandwidth)
            (self.site_dir / _LEGACY_STATE_FILENAME).unlink(missing_ok=True)
        for bandwidth in present:
            if bandwidth not in sections:
                path = self.section_path(bandwidth)
                try:
                    sections[bandwidth] = path.read_text("utf-8").rstrip("\n")
                except FileNotFoundError:
                    continue
        _publish(
            self.index_path,
            assemble_page([sections[bw] for bw in sorted(sections)]) + "\n",
        )
        return sorted(changed)
