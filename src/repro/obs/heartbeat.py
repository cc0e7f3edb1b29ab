"""Heartbeat file: the running watchdog service, inspectable.

``repro service run`` is the paper's deployment mode - a loop that runs
for years.  Its operators' first question is always "is it still making
progress?", asked from *outside* the process.  The heartbeat file
answers it: a small JSON document rewritten atomically
(write-temp-then-rename, so a reader never sees a torn write) at
startup, after every ingested batch, at every cycle boundary and on
exit.

The file records cumulative progress (trials, batches, cycles) and the
current phase.  A reader decides liveness from ``age_sec``: a heartbeat
older than a few poll intervals means the process died or stalled.
:meth:`Heartbeat.load` reads it through
:func:`~repro.atomicio.load_json_artifact`, so a damaged file is a
:class:`HeartbeatError` naming the file and the defect.

Writes happen per batch, far off the per-packet path and outside the
simulated clock.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Union

from ..atomicio import atomic_write, load_json_artifact

#: Heartbeat payload schema; bump on incompatible layout changes.
HEARTBEAT_SCHEMA_VERSION = 1

#: Phases a heartbeat can report.
PHASES = ("starting", "cycle", "idle", "done")


class HeartbeatError(ValueError):
    """A heartbeat file is cut short, corrupted, or not a heartbeat."""


@dataclass
class Heartbeat:
    """One snapshot of watchdog progress (the heartbeat file contents)."""

    pid: int
    phase: str
    started_unix: float
    updated_unix: float
    cycle: int = 0
    batches_completed: int = 0
    trials_completed: int = 0

    def to_json(self) -> Dict:
        """Schema-versioned heartbeat payload (the file contents)."""
        payload = dataclasses.asdict(self)
        payload["schema"] = HEARTBEAT_SCHEMA_VERSION
        return payload

    @classmethod
    def from_json(cls, payload: Dict) -> "Heartbeat":
        """Load a heartbeat, ignoring unknown keys (forward compat).

        ``pid`` and the two timestamps must be numbers and ``phase`` one
        of :data:`PHASES`; anything else raises :class:`HeartbeatError`.
        """
        for name in ("pid", "started_unix", "updated_unix"):
            value = payload.get(name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise HeartbeatError(f"{name} is {value!r}, not a number")
        if payload.get("phase") not in PHASES:
            raise HeartbeatError(
                f"phase is {payload.get('phase')!r}, not one of {PHASES}"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in known})

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Heartbeat":
        """Read a heartbeat file; a damaged one raises
        :class:`HeartbeatError`, a missing one ``OSError``."""
        return load_json_artifact(
            Path(path), cls.from_json, "heartbeat", HeartbeatError
        )

    def age_sec(self, now: Optional[float] = None) -> float:
        """Seconds since the last update (staleness = death or stall)."""
        return (now if now is not None else time.time()) - self.updated_unix


class HeartbeatWriter:
    """Maintains one heartbeat file for a running watchdog service.

    The service loop calls :meth:`starting` once, :meth:`batch_done`
    after every ingested batch, :meth:`cycle_done` at cycle boundaries
    and :meth:`finished` on the way out.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        if self.path.parent != Path(""):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self.started = time.time()
        self.cycles_completed = 0
        self.batches_completed = 0
        self.trials_completed = 0

    # -- lifecycle hooks ----------------------------------------------

    def starting(self) -> None:
        """Record startup (phase ``starting``)."""
        self._write(phase="starting")

    def batch_done(self, trials: int) -> None:
        """One scheduler batch finished (``trials`` trials executed)."""
        self.batches_completed += 1
        self.trials_completed += trials
        self._write(phase="cycle")

    def cycle_done(self) -> None:
        """One full cycle finished (phase ``idle``)."""
        self.cycles_completed += 1
        self._write(phase="idle")

    def finished(self) -> None:
        """Mark the run complete (phase ``done``)."""
        self._write(phase="done")

    # -- mechanics -----------------------------------------------------

    def _write(self, phase: str) -> None:
        beat = Heartbeat(
            pid=os.getpid(),
            phase=phase,
            started_unix=self.started,
            updated_unix=time.time(),
            cycle=self.cycles_completed,
            batches_completed=self.batches_completed,
            trials_completed=self.trials_completed,
        )
        atomic_write(
            self.path, json.dumps(beat.to_json(), indent=1, sort_keys=True)
        )


def describe(beat: Heartbeat, now: Optional[float] = None) -> str:
    """One human line for ``repro obs heartbeat``."""
    return " ".join([
        f"phase={beat.phase}",
        f"cycle={beat.cycle}",
        f"trials={beat.trials_completed}",
        f"batches={beat.batches_completed}",
        f"age={beat.age_sec(now):.1f}s",
    ])
