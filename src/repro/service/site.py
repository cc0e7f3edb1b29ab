"""Incremental findings-site regeneration.

The live site is always consistent and always fresh: after every
ingested cycle, only the bandwidth sections whose data changed are
re-rendered, and every file write is atomic (write-temp-then-rename),
so a reader - or a crash - never sees a half-written page.

Layout under the site directory::

    site/
      index.md                 - the stitched findings page
      sections/bw-<tag>.md     - one file per bandwidth section
      site-state.json          - per-section content hashes (the
                                 incremental-regeneration ledger)

Section text is a pure function of the windowed store's data at that
bandwidth (see :func:`repro.analysis.site.render_bandwidth_section`),
and the per-bandwidth id list is derived from that bandwidth's own data
- so ingesting a cycle that only touched 8 Mbps leaves the 50 Mbps
section file byte-identical, which the test suite asserts.  The state
file carries only content hashes (no wall-clock), keeping the whole
site directory deterministic for the kill-and-restart identity check.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Union

from ..analysis.site import assemble_page, render_bandwidth_section
from ..atomicio import atomic_write
from ..core.results import ResultStore
from ..obs.log import get_logger

_log = get_logger("service.site")

#: State filename inside the site directory.
SITE_STATE_FILENAME = "site-state.json"

#: Bump when the site-state layout changes incompatibly.
SITE_STATE_SCHEMA_VERSION = 1


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


class SiteRenderer:
    """Maintains the findings-site directory across ingests."""

    def __init__(self, site_dir: Union[str, Path]) -> None:
        self.site_dir = Path(site_dir)
        self.sections_dir = self.site_dir / "sections"
        self.sections_dir.mkdir(parents=True, exist_ok=True)

    @property
    def state_path(self) -> Path:
        return self.site_dir / SITE_STATE_FILENAME

    @property
    def index_path(self) -> Path:
        return self.site_dir / "index.md"

    def _load_state(self) -> Optional[Dict[float, Dict]]:
        """The section-hash ledger as bandwidth -> section entry;
        ``None`` (absent, damaged, another schema) means render
        everything, which rebuilds it.  Damaged is anything but a list
        of ``{"bandwidth_bps": finite number, "tag": its bandwidth_tag,
        "sha256": str}`` sections, and is logged as discarded."""
        try:
            payload = json.loads(self.state_path.read_text("utf-8"))
            if payload["schema"] == SITE_STATE_SCHEMA_VERSION:
                known = {}
                for entry in payload["sections"]:
                    bandwidth = entry["bandwidth_bps"]
                    if (
                        type(bandwidth) not in (int, float)
                        or not math.isfinite(bandwidth)
                        or entry["tag"] != bandwidth_tag(bandwidth)
                        or type(entry["sha256"]) is not str
                    ):
                        raise TypeError(f"malformed section {entry!r}")
                    known[bandwidth] = entry
                return known
            defect = f"schema {payload['schema']!r}"
        except FileNotFoundError:
            return None
        except (LookupError, TypeError, ValueError) as exc:
            defect = repr(exc)
        _log.warning(
            "service.site_state_discarded", defect=defect,
            path=str(self.state_path),
        )
        return None

    def regenerate(
        self,
        store: ResultStore,
        changed_bandwidths: Optional[Sequence[float]] = None,
        diagnoses: Optional[Dict[float, Dict]] = None,
    ) -> List[float]:
        """Bring the site up to date with ``store``; return what changed.

        With ``changed_bandwidths`` given (the bandwidths the just-
        ingested cycle touched), only those sections are re-rendered;
        every other section file is left untouched - not even re-read.
        With ``None`` (service startup, or an explicit full refresh),
        every bandwidth in the store is re-rendered, which also heals a
        crash that landed between a journal commit and the site write.

        ``diagnoses`` maps bandwidth -> pair -> flight-recorder
        diagnosis payload; diagnosed worst interactions gain a "Why is
        this unfair?" subsection in their bandwidth section.  The
        content hash covers it, so a new diagnosis re-renders the
        section exactly like new trial data would.
        """
        known = self._load_state()
        if known is None:
            known = {}
            changed_bandwidths = None
        present = {bw for _a, _b, bw in store.pairs()}
        if changed_bandwidths is None:
            targets = set(present) | set(known)
        else:
            targets = set(changed_bandwidths)
        changed: List[float] = []
        for bandwidth in sorted(targets):
            tag = bandwidth_tag(bandwidth)
            path = self.sections_dir / f"bw-{tag}.md"
            ids = _service_ids_at(store, bandwidth)
            section = (
                render_bandwidth_section(
                    store,
                    ids,
                    bandwidth,
                    diagnoses=(diagnoses or {}).get(bandwidth),
                )
                if ids
                else None
            )
            if section is None:
                # Bandwidth aged out of the window: retire its section.
                if bandwidth in known:
                    known.pop(bandwidth)
                    if path.exists():
                        path.unlink()
                    changed.append(bandwidth)
                continue
            digest = hashlib.sha256(section.encode("utf-8")).hexdigest()
            entry = known.get(bandwidth)
            if entry is not None and entry["sha256"] == digest:
                continue
            atomic_write(path, section + "\n")
            known[bandwidth] = {
                "bandwidth_bps": bandwidth,
                "tag": tag,
                "sha256": digest,
            }
            changed.append(bandwidth)
        if changed or not self.index_path.exists():
            self._write_index(known)
            state = {
                "schema": SITE_STATE_SCHEMA_VERSION,
                "sections": [known[bw] for bw in sorted(known)],
            }
            atomic_write(
                self.state_path,
                json.dumps(state, indent=1, sort_keys=True),
            )
        return changed

    def _write_index(self, known: Dict[float, Dict]) -> None:
        """Stitch ``index.md`` from the section files, atomically."""
        sections = []
        for bandwidth in sorted(known):
            path = self.sections_dir / f"bw-{known[bandwidth]['tag']}.md"
            sections.append(path.read_text().rstrip("\n"))
        atomic_write(self.index_path, assemble_page(sections) + "\n")
