"""Post-processing and figure-regeneration helpers.

Sparklines for the time-series figures (Figs 4, 8, 10), the findings
page, and the paper's numbered Observations computed from a result
store.  The all-pairs grids (Figs 2/11/12/13) and their renderer are
:class:`repro.core.report.FairnessReport` and
:func:`repro.core.report.render_grid`.
"""

from .site import render_markdown_report
from .observations import observation10_loss, observation9_utilization

__all__ = [
    "render_markdown_report",
    "observation9_utilization",
    "observation10_loss",
]
