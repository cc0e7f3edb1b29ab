"""Trial-level early termination (TURBOTEST-style, PAPERS.md).

Adaptive rounds (PR 6) stop scheduling *trials* once a pair converges;
this module stops a *running trial* the moment its fairness outcome is
determined.  A :class:`EarlyStopMonitor` is a subscriber of the
bottleneck link's probe (:class:`repro.netsim.trace.Probe`), exactly like
the flight recorder: it runs on existing send events only - zero new
engine events - and an unsubscribed link pays one integer compare, so
runs without the feature are byte-identical to the seed.

The stop decision is a *pure function* of (versioned model JSON, the
prefix of grid samples): each checkpoint inside the measurement window
is one :class:`~repro.obs.flight.QueueChannel` row - windowed delivered
bytes, drops (the retransmit proxy) and standing-queue occupancy - and
the trial stops once the model's threshold rule holds for
``consecutive`` checkpoints after ``min_horizon_usec`` of evidence.  The
monitor and :func:`fit_model` read those rows through the same
``QueueChannel.window_rows``, live or from a flight sidecar, so replaying
a recording against the same model reproduces the same truncation point
and truncated results are content-addressable cache entries like any
other, just annotated with ``horizon_sim_sec`` and ``model_id``.

Truncation semantics: the measurement window simply closes early, so
every windowed metric (throughput, loss rate, queueing delay) becomes a
windowed-*rate* estimate over the shorter horizon.  Full-length results
always supersede truncated ones in the cache, and a deterministic
seed-hash fraction of trials (:func:`audit_decision`) runs full-length
with the monitor in audit mode to measure the realized mispredict rate.

``fit_model`` trains the threshold rule offline from an existing cache
of full-length trials with flight sidecars - stdlib only, versioned
artifact (``repro earlystop fit``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..atomicio import atomic_write, load_json_artifact
from ..obs.flight import QueueChannel, Row

__all__ = [
    "EARLYSTOP_SCHEMA_VERSION",
    "EarlyStopConfig",
    "EarlyStopModel",
    "EarlyStopModelError",
    "EarlyStopMonitor",
    "EarlyStopped",
    "audit_decision",
    "fit_model",
    "stop_index",
]

EARLYSTOP_SCHEMA_VERSION = 1


class EarlyStopped(Exception):
    """Control-flow signal: the stop rule fired at ``stop_usec``.

    Raised from the monitor's probe checkpoint, it unwinds through
    ``engine.run`` (both engines reset their running flag in a
    ``finally``) and is caught by ``Testbed.run_window``, which closes
    the measurement window at the truncation point.
    """

    def __init__(self, stop_usec: int) -> None:
        super().__init__(f"early stop at {stop_usec} usec")
        self.stop_usec = stop_usec


class EarlyStopModelError(ValueError):
    """A model file is cut short, corrupted, or not a model at all."""


@dataclass(frozen=True)
class EarlyStopModel:
    """Versioned threshold/SPRT-style stop rule (the trained artifact).

    A checkpoint is *settled* when, versus the previous checkpoint, the
    largest per-service windowed-share move is at most
    ``epsilon_share``, at most ``max_drop_burst`` packets were dropped
    (loss bursts mean retransmission dynamics are still playing out),
    and the queue-occupancy fraction moved by at most ``queue_epsilon``
    (a standing queue may persist, but it must be *stable*).  The rule
    fires at the first checkpoint at least ``min_horizon_usec`` into the
    measurement window that ends a run of ``consecutive`` settled
    checkpoints.
    """

    grid_usec: int = 100_000
    min_horizon_usec: int = 2_000_000
    epsilon_share: float = 0.02
    consecutive: int = 4
    max_drop_burst: int = 12
    queue_epsilon: float = 0.25
    #: Audit verdict threshold: a full-length audit trial counts as a
    #: mispredict when the share predicted at the would-stop point
    #: differs from the final share by more than this.
    share_tolerance: float = 0.05
    #: Number of cached trials the rule was calibrated on (provenance).
    trained_on: int = 0

    def __post_init__(self) -> None:
        if self.grid_usec <= 0:
            raise ValueError("checkpoint grid must be positive")
        if self.consecutive < 1:
            raise ValueError("consecutive must be >= 1")

    def to_json(self) -> Dict:
        """The versioned artifact payload: every field, then
        ``model_id``, the content hash of everything before it."""
        payload = {"schema": EARLYSTOP_SCHEMA_VERSION, **asdict(self)}
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()
        payload["model_id"] = digest[:16]
        return payload

    @property
    def model_id(self) -> str:
        """Content hash of the decision-relevant parameters."""
        return self.to_json()["model_id"]

    @classmethod
    def from_json(cls, payload: Dict) -> "EarlyStopModel":
        schema = payload.get("schema")
        if schema != EARLYSTOP_SCHEMA_VERSION:
            raise ValueError(f"unsupported earlystop schema {schema!r}")
        return cls(
            grid_usec=int(payload["grid_usec"]),
            min_horizon_usec=int(payload["min_horizon_usec"]),
            epsilon_share=float(payload["epsilon_share"]),
            consecutive=int(payload["consecutive"]),
            max_drop_burst=int(payload["max_drop_burst"]),
            queue_epsilon=float(payload["queue_epsilon"]),
            share_tolerance=float(payload.get("share_tolerance", 0.05)),
            trained_on=int(payload.get("trained_on", 0)),
        )

    def save(self, path: Path) -> None:
        """Write the artifact JSON (sorted keys, trailing newline)."""
        atomic_write(
            path, json.dumps(self.to_json(), indent=1, sort_keys=True) + "\n"
        )

    @classmethod
    def load(cls, path: Path) -> "EarlyStopModel":
        """Read a model artifact; a file that is not one raises
        :class:`EarlyStopModelError` naming the file and the defect."""
        return load_json_artifact(
            Path(path), cls.from_json, "earlystop model", EarlyStopModelError
        )


@dataclass(frozen=True)
class EarlyStopConfig:
    """What an execution backend needs: the model plus audit policy."""

    model: EarlyStopModel = field(default_factory=EarlyStopModel)
    #: Deterministic fraction of trials run full-length in audit mode.
    audit_fraction: float = 0.05

    def to_json(self) -> Dict:
        """Manifest/worker-shippable encoding (model + audit policy)."""
        return {
            "model": self.model.to_json(),
            "audit_fraction": self.audit_fraction,
        }

    @classmethod
    def from_json(cls, payload: Dict) -> "EarlyStopConfig":
        return cls(
            model=EarlyStopModel.from_json(payload["model"]),
            audit_fraction=float(payload.get("audit_fraction", 0.05)),
        )


def audit_decision(cache_key: str, audit_fraction: float) -> bool:
    """Deterministic per-trial audit draw from the trial's cache key.

    The cache key is already a content hash of the trial spec, so the
    draw is a pure function of trial content: stable across re-plans,
    shard boundaries and hosts (the audit-determinism property the
    fleet's receipt accounting relies on).
    """
    if audit_fraction <= 0.0:
        return False
    if audit_fraction >= 1.0:
        return True
    draw = int(cache_key[:12], 16) / float(1 << 48)
    return draw < audit_fraction


# ----------------------------------------------------------------------
# The pure stop rule
# ----------------------------------------------------------------------


def _shares(delivered: Dict[str, int]) -> Optional[Dict[str, float]]:
    total = sum(delivered.values())
    if total <= 0:
        return None
    return {sid: nbytes / total for sid, nbytes in delivered.items()}


def _row_settled(model: EarlyStopModel, prev: Row, row: Row) -> bool:
    """Is ``row`` settled versus ``prev`` under ``model``?  Pure."""
    shares = _shares(row[1])
    prev_shares = _shares(prev[1])
    if shares is None or prev_shares is None:
        return False
    delta = 0.0
    for sid in set(shares) | set(prev_shares):
        move = abs(shares.get(sid, 0.0) - prev_shares.get(sid, 0.0))
        if move > delta:
            delta = move
    if delta > model.epsilon_share:
        return False
    if row[2] - prev[2] > model.max_drop_burst:
        return False
    if abs(row[3] - prev[3]) > model.queue_epsilon:
        return False
    return True


def stop_index(
    model: EarlyStopModel, window_open_usec: int, rows: Sequence[Row]
) -> Optional[int]:
    """Index of the checkpoint where the rule first fires, else None.

    A pure function of (model, prefix): appending rows never changes the
    decision on an earlier prefix, and the per-row feature extraction
    iterates the service set order-independently, so replaying the same
    samples in any checkpoint bookkeeping order reproduces the same
    truncation point.
    """
    run = 0
    for i in range(1, len(rows)):
        run = run + 1 if _row_settled(model, rows[i - 1], rows[i]) else 0
        if (
            run >= model.consecutive
            and rows[i][0] - window_open_usec >= model.min_horizon_usec
        ):
            return i
    return None


# ----------------------------------------------------------------------
# The per-trial monitor (the engine-level checkpoint hook)
# ----------------------------------------------------------------------


class EarlyStopMonitor:
    """One trial's stop rule, live; attach like a FlightRecorder.

    ``attach`` subscribes to the link's probe on the model's grid.  Each
    checkpoint inside the measurement window (pre-window samples carry
    warmup transients and are never part of the decision prefix) adds a
    row to the monitor's :class:`~repro.obs.flight.QueueChannel` and
    evaluates :func:`stop_index` over the rule's look-back.  In normal
    mode the rule firing raises :class:`EarlyStopped`; in audit mode the
    trial runs full-length and only the *would-stop* point plus predicted
    shares are recorded, so the final result can grade the prediction.
    """

    def __init__(self, model: EarlyStopModel, audit: bool = False) -> None:
        self.model = model
        self.audit = audit
        self.channel: Optional[QueueChannel] = None
        self.triggered = False
        self.would_stop_usec: Optional[int] = None
        self.predicted_shares: Optional[Dict[str, float]] = None

    def attach(self, link: Any) -> None:
        """Subscribe to the link's probe (zero engine events scheduled)."""
        self.channel = QueueChannel(link.queue.capacity_packets)
        link.subscribe(self.model.grid_usec, self.checkpoint)

    def checkpoint(self, now: int, link: Any) -> None:
        """Probe subscriber: record one window row; fire the rule if it
        holds.  A no-op before the window opens and once resolved."""
        if (
            link.probe.window_open_usec is None
            or self.would_stop_usec is not None
        ):
            return
        self.channel.sample(now, link)
        # ``consecutive`` settled steps span ``consecutive + 1`` rows, so
        # over that look-back the rule can only fire at the newest row.
        opened, rows = self.channel.window_rows(
            last=self.model.consecutive + 1
        )
        if stop_index(self.model, opened, rows) is None:
            return
        self.would_stop_usec = now
        self.predicted_shares = _shares(rows[-1][1])
        if not self.audit:
            self.triggered = True
            raise EarlyStopped(now)

    def result_metadata(
        self,
        planned_window_usec: int,
        window_usec: int,
        throughput_bps: Dict[str, float],
    ) -> Optional[Dict]:
        """The ``earlystop`` block for a result/cache entry, or None.

        None when the monitor was armed but never fired (and is not
        auditing a would-stop): such a trial is byte-identical to a run
        without the feature, and stays so in the cache.
        """
        if self.triggered:
            return {
                "model_id": self.model.model_id,
                "truncated": True,
                "horizon_sim_sec": round(window_usec / 1e6, 6),
                "planned_sim_sec": round(planned_window_usec / 1e6, 6),
                "sim_sec_saved": round(
                    (planned_window_usec - window_usec) / 1e6, 6
                ),
                "checkpoints": len(self.channel),
            }
        if self.audit and self.would_stop_usec is not None:
            total = sum(throughput_bps.values())
            final = (
                {sid: bps / total for sid, bps in throughput_bps.items()}
                if total > 0
                else {}
            )
            predicted = self.predicted_shares or {}
            error = 0.0
            for sid in set(final) | set(predicted):
                move = abs(final.get(sid, 0.0) - predicted.get(sid, 0.0))
                if move > error:
                    error = move
            return {
                "model_id": self.model.model_id,
                "truncated": False,
                "audit": True,
                "would_stop_sim_sec": round(
                    (self.would_stop_usec - self.channel.window_open_usec)
                    / 1e6,
                    6,
                ),
                "planned_sim_sec": round(planned_window_usec / 1e6, 6),
                "share_error": round(error, 6),
                "mispredict": error > self.model.share_tolerance,
            }
        return None


# ----------------------------------------------------------------------
# Offline fitting from the cached full-trial corpus
# ----------------------------------------------------------------------


def fit_model(
    corpus: List[Tuple[Dict, Dict[str, float]]],
    grid_usec: int,
    window_usec: int,
    target_share_error: float = 0.05,
    target_mispredict_rate: float = 0.0,
) -> EarlyStopModel:
    """Calibrate the threshold rule against cached full-length trials.

    ``corpus`` pairs each flight sidecar payload with the trial's final
    per-service throughput (the ground truth the prediction must match).
    Candidate rules are scanned from strict to permissive; the winner is
    the rule saving the most simulated time whose fraction of
    mispredicted trials (share error above ``target_share_error``) stays
    within ``target_mispredict_rate``.  Stdlib-only by design.

    Every recording must have been sampled on ``grid_usec`` (a model is
    served on its own grid, so training on another one is skew) -
    ``ValueError`` otherwise.  Recordings without a recorded window-open
    instant (sidecars older than the field) are skipped, not guessed at.
    """
    trials: List[Tuple[int, List[Row], Dict[str, float]]] = []
    for payload, throughput_bps in corpus:
        if payload["grid_usec"] != grid_usec:
            raise ValueError(
                f"corpus mixes sampling grids: a recording sampled every "
                f"{payload['grid_usec']} usec cannot train a {grid_usec} "
                "usec stop rule"
            )
        queue = payload.get("queue")
        if not queue:
            continue
        extracted = QueueChannel.from_json(queue).window_rows()
        if extracted is None:
            continue
        opened, rows = extracted
        total = sum(throughput_bps.values())
        if total <= 0 or len(rows) < 4:
            continue
        final = {sid: bps / total for sid, bps in throughput_bps.items()}
        trials.append((opened, rows, final))
    base = EarlyStopModel(
        grid_usec=grid_usec,
        share_tolerance=target_share_error,
        trained_on=len(trials),
    )
    if not trials:
        return base
    horizon_floor = max(grid_usec * 4, window_usec // 4)
    candidates = [
        replace(
            base,
            epsilon_share=eps,
            consecutive=consecutive,
            min_horizon_usec=horizon_floor,
            max_drop_burst=burst,
        )
        for eps in (0.01, 0.02, 0.05, 0.1)
        for consecutive in (5, 4, 3, 2)
        for burst in (4, 12, 32)
    ]
    best: Optional[EarlyStopModel] = None
    best_saved = -1.0
    for model in candidates:
        mispredicts = 0
        saved = 0.0
        for opened, rows, final in trials:
            idx = stop_index(model, opened, rows)
            if idx is None:
                continue
            predicted = _shares(rows[idx][1]) or {}
            error = max(
                (
                    abs(final.get(sid, 0.0) - predicted.get(sid, 0.0))
                    for sid in set(final) | set(predicted)
                ),
                default=0.0,
            )
            if error > target_share_error:
                mispredicts += 1
            saved += max(0.0, (opened + window_usec - rows[idx][0]) / 1e6)
        if mispredicts / len(trials) > target_mispredict_rate:
            continue
        if saved > best_saved:
            best_saved = saved
            best = model
    return best if best is not None else base
