"""Watchdog-as-a-service: the deployment shape of the paper's Prudentia.

The batch pipeline (``repro fleet cycle`` and friends) produces merged
fleet-cycle outputs - a plan plus a content-addressed cache of every
trial.  This package turns those one-shot artifacts into the paper's
*deployment*: a single long-running coordinator that

- watches a spool directory and ingests each merged cycle as it lands
  (:mod:`repro.service.coordinator`),
- maintains a durable rolling result store - each cycle's record logs,
  adopted as hard links, and a journal of one commit line per cycle,
  with crash recovery by replay (:mod:`repro.service.store`),
- incrementally regenerates the findings site per ingested cycle
  (:mod:`repro.service.site`), and
- exposes the ops surface: spool-file submissions folded into the next
  cycle's plan, heartbeat, status, and graceful shutdown
  (``repro service run|ingest-once|status|submit``).
"""

from .coordinator import IngestReport, ServiceError, WatchdogService
from .store import CycleRecord, RollingResultStore

__all__ = [
    "CycleRecord",
    "IngestReport",
    "RollingResultStore",
    "ServiceError",
    "WatchdogService",
]
