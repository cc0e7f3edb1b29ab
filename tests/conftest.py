"""Shared fixtures: fast experiment scales and the service catalog.

Integration tests run the same protocol as the paper but scaled down to
seconds so the suite stays fast; unit tests exercise components directly.
"""

from __future__ import annotations

import pytest

from repro import units
from repro.config import (
    ExperimentConfig,
    NetworkConfig,
    highly_constrained,
    moderately_constrained,
)
from repro.services.catalog import default_catalog


@pytest.fixture(scope="session")
def catalog():
    return default_catalog()


@pytest.fixture
def kill_before_rename(monkeypatch):
    """Every ``atomic_write`` dies after its temp file is written and
    before the rename, as a SIGKILL at that instant would (undo with
    ``monkeypatch.undo()``)."""
    import os

    def killed(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(os, "replace", killed)
    return monkeypatch


@pytest.fixture
def summaries_since():
    """Empties ``summarize_trials``' memo; the returned callable reads
    how many summaries were (computed, reused) since."""
    from repro.core import stats
    from repro.obs.metrics import get_registry

    def read():
        return tuple(
            get_registry().counter(f"core.convergence.summaries_{kind}").value
            for kind in ("computed", "reused")
        )

    stats._SUMMARY_MEMO.clear()
    start = read()
    return lambda: tuple(now - then for now, then in zip(read(), start))


@pytest.fixture
def fast_config():
    """A 20-second experiment (4 s warmup/cooldown trims)."""
    return ExperimentConfig().scaled(20)


@pytest.fixture
def medium_config():
    """A 60-second experiment for behaviours that need convergence."""
    return ExperimentConfig().scaled(60)


@pytest.fixture
def hc_network():
    """The paper's 8 Mbps highly-constrained setting."""
    return highly_constrained()


@pytest.fixture
def mc_network():
    """The paper's 50 Mbps moderately-constrained setting."""
    return moderately_constrained()


@pytest.fixture
def small_network():
    """A 10 Mbps link for generic transport tests."""
    return NetworkConfig(bandwidth_bps=units.mbps(10))
