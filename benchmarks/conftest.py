"""Benchmark-suite plumbing: emit collected figure reports at the end."""

from __future__ import annotations

import pytest

from . import harness


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print every regenerated table/figure after the run summary.

    This survives pytest's output capture, so ``pytest benchmarks/
    --ignore=benchmarks/pipeline | tee bench_output.txt`` records the
    figures (add ``--durations=0`` for each figure's wall-clock time).
    """
    if not harness.REPORTS:
        return
    terminalreporter.write_sep("=", "Prudentia reproduced tables & figures")
    terminalreporter.write_line(
        f"(experiment duration {harness.DURATION_SEC:.0f}s, "
        f"{harness.TRIALS} trials per pair; full text copies in "
        f"benchmarks/results/)"
    )
    for title, body in harness.REPORTS:
        terminalreporter.write_sep("-", title)
        terminalreporter.write_line(body)
