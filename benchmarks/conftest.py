"""Benchmark-suite plumbing: the shared all-pairs sweep, and the
collected figure reports emitted at the end."""

from __future__ import annotations

import pytest

from . import harness


@pytest.fixture(scope="session")
def sweep_store():
    """The all-pairs sweep Figs 2, 3, 11, 12, 13 and Table 3 read, built
    once per session; ``--durations=0`` shows it as this fixture's
    setup row, not inside whichever of those benches runs first."""
    return harness.full_sweep_store()


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
