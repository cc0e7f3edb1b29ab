"""Per-cycle heartbeat file: the continuous watchdog, inspectable.

``Prudentia.run_continuously`` is the paper's deployment mode - a loop
that runs for years.  Its operators' first question is always "is it
still making progress, and when will the current cycle finish?", asked
from *outside* the process.  The heartbeat file answers it: a small
JSON document rewritten atomically (write-temp-then-rename, so a reader
never sees a torn write) after every scheduler batch and at every cycle
boundary.

The file records cumulative progress (trials, batches, cycles), the
current phase, and - once at least one cycle has completed - an ETA for
the remaining cycles extrapolated from the mean cycle duration.  A
reader decides liveness from ``age_sec``: a heartbeat older than a few
batch durations means the process died or stalled.

Writes happen per batch (tens of trials, i.e. minutes of simulation per
write), far off the per-packet path and outside the simulated clock.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..atomicio import atomic_write

#: Heartbeat payload schema; bump on incompatible layout changes.
HEARTBEAT_SCHEMA_VERSION = 1

#: Phases a heartbeat can report.
PHASES = ("starting", "cycle", "idle", "done")


@dataclass
class Heartbeat:
    """One snapshot of watchdog progress (the heartbeat file contents)."""

    pid: int
    phase: str
    started_unix: float
    updated_unix: float
    cycle: int = 0
    cycles_total: Optional[int] = None
    batches_completed: int = 0
    trials_completed: int = 0
    progress: Optional[float] = None
    eta_sec: Optional[float] = None

    def to_json(self) -> Dict:
        """Schema-versioned heartbeat payload (the file contents)."""
        payload = dataclasses.asdict(self)
        payload["schema"] = HEARTBEAT_SCHEMA_VERSION
        return payload

    @classmethod
    def from_json(cls, payload: Dict) -> "Heartbeat":
        """Load a heartbeat, ignoring unknown keys (forward compat)."""
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in known})

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Heartbeat":
        return cls.from_json(json.loads(Path(path).read_text()))

    def age_sec(self, now: Optional[float] = None) -> float:
        """Seconds since the last update (staleness = death or stall)."""
        return (now if now is not None else time.time()) - self.updated_unix


class HeartbeatWriter:
    """Maintains one heartbeat file for a running watchdog process.

    The watchdog calls :meth:`batch_done` after every executed batch and
    :meth:`cycle_done` at cycle boundaries; ETA and progress fall out of
    the cycle completion times it accumulates.  ``cycles_total`` is set
    by ``run_continuously`` (a one-shot ``run_cycle`` has no horizon, so
    progress/ETA stay ``None``).
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        if self.path.parent != Path(""):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self.started = time.time()
        self.cycles_total: Optional[int] = None
        self.batches_completed = 0
        self.trials_completed = 0
        self._cycle_marks: List[float] = []

    # -- lifecycle hooks ----------------------------------------------

    def starting(self, cycles_total: Optional[int] = None) -> None:
        """Record startup; ``cycles_total`` enables progress/ETA."""
        if cycles_total is not None:
            self.cycles_total = cycles_total
        self._write(phase="starting")

    def batch_done(self, trials: int) -> None:
        """One scheduler batch finished (``trials`` trials executed)."""
        self.batches_completed += 1
        self.trials_completed += trials
        self._write(phase="cycle")

    def cycle_done(self) -> None:
        """One full cycle finished; refreshes progress and ETA."""
        self._cycle_marks.append(time.time())
        done = (
            self.cycles_total is not None
            and len(self._cycle_marks) >= self.cycles_total
        )
        self._write(phase="done" if done else "idle")

    def finished(self) -> None:
        """Mark the run complete (phase ``done``) regardless of horizon."""
        self._write(phase="done")

    # -- mechanics -----------------------------------------------------

    def _estimate(self) -> "tuple[Optional[float], Optional[float]]":
        """(progress fraction, eta seconds) from cycle completion marks."""
        if self.cycles_total is None or self.cycles_total <= 0:
            return None, None
        completed = len(self._cycle_marks)
        progress = min(1.0, completed / self.cycles_total)
        if completed == 0:
            return progress, None
        per_cycle = (self._cycle_marks[-1] - self.started) / completed
        remaining = max(0, self.cycles_total - completed)
        return progress, per_cycle * remaining

    def _write(self, phase: str) -> None:
        progress, eta = self._estimate()
        beat = Heartbeat(
            pid=os.getpid(),
            phase=phase,
            started_unix=self.started,
            updated_unix=time.time(),
            cycle=len(self._cycle_marks),
            cycles_total=self.cycles_total,
            batches_completed=self.batches_completed,
            trials_completed=self.trials_completed,
            progress=progress,
            eta_sec=eta,
        )
        atomic_write(
            self.path, json.dumps(beat.to_json(), indent=1, sort_keys=True)
        )


def describe(beat: Heartbeat, now: Optional[float] = None) -> str:
    """One human line for ``repro obs heartbeat``."""
    age = beat.age_sec(now)
    parts = [
        f"phase={beat.phase}",
        f"cycle={beat.cycle}"
        + (f"/{beat.cycles_total}" if beat.cycles_total else ""),
        f"trials={beat.trials_completed}",
        f"batches={beat.batches_completed}",
        f"age={age:.1f}s",
    ]
    if beat.progress is not None:
        parts.append(f"progress={beat.progress * 100:.0f}%")
    if beat.eta_sec is not None:
        parts.append(f"eta={beat.eta_sec:.0f}s")
    return " ".join(parts)
