"""Simulation-time flight recorder: per-trial CCA and queue telemetry.

The :class:`FlightRecorder` samples what every connection's congestion
controller and the bottleneck queue were *doing* over simulated time -
cwnd, pacing rate, inflight bytes, RTT estimates, retransmissions, the
CCA's internal phase (BBR state machine, Cubic/Vegas/Reno slow-start vs
avoidance), queue occupancy per service, drops and delivered bytes - on a
fixed sim-time grid, so a fairness finding can be *explained* ("BBR sat
in PROBE_BW holding 70% of the queue") instead of just scored.

Zero-new-events invariant
-------------------------
The recorder schedules nothing and mutates nothing.  It is one subscriber
of the bottleneck link's :class:`~repro.netsim.trace.Probe`
(``link.subscribe(grid_usec, recorder.sample)``): at the first send at or
after each grid boundary it samples the queue channel and, in the same
firing, every flow registered on the probe that was ACKed since its last
row.  ``sample`` performs pure attribute reads, so heap sequence numbers,
tie-breaks and RNG draws are untouched and recorded simulations are
bit-identical to unrecorded ones (``tests/test_golden_identity.py`` runs
with the recorder enabled).

:class:`QueueChannel` is the one link-side row store: ``sample`` is the
only code that reads delivered bytes, drops and occupancy off a link, and
``window_rows`` is the only way the early-stop rule sees them - the live
monitor and offline ``fit_model`` both call it, so a model is served on
exactly the features it was trained on.

Storage is columnar (``array``-backed, like
:class:`~repro.netsim.trace.PacketTrace`) with interned phase strings.
This module imports nothing from ``transport``/``netsim`` - channels read
duck-typed attributes - and those packages import nothing from here.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, List, Optional, Tuple

#: Version stamp for recording payloads (bump on layout changes).
FLIGHT_SCHEMA_VERSION = 1

#: Version stamp for diagnosis summaries derived from recordings.
DIAGNOSIS_SCHEMA_VERSION = 1

#: Default sampling grid: 100 ms of simulated time.  Coarse enough that
#: a 60 s trial stays around 600 points per connection, fine enough to
#: see state-machine phases and queue standing waves.
DEFAULT_GRID_USEC = 100_000

_USEC_PER_SEC = 1_000_000

#: One stop-rule checkpoint: (time_usec, {service: delivered_bytes},
#: total_drops, queue_occupancy_fraction), counters cumulative since the
#: measurement window opened.
Row = Tuple[int, Dict[str, int], int, float]


class ConnChannel:
    """Columnar per-connection telemetry (one row per grid sample)."""

    __slots__ = (
        "service_id",
        "flow_id",
        "cca_name",
        "acked",
        "times_usec",
        "cwnd_packets",
        "pacing_rate_bps",
        "inflight_bytes",
        "srtt_usec",
        "min_rtt_usec",
        "packets_lost",
        "rto_count",
        "phase_codes",
        "aux1",
        "aux2",
        "phases",
        "_code_of",
    )

    def __init__(self, service_id: str, flow_id: str, cca_name: str) -> None:
        self.service_id = service_id
        self.flow_id = flow_id
        self.cca_name = cca_name
        #: The flow's ``packets_acked`` at its last row: a flow gets a row
        #: only for grid cells in which it was ACKed, so idle and finished
        #: flows stop growing the recording.
        self.acked = 0
        self.times_usec = array("q")
        self.cwnd_packets = array("d")
        self.pacing_rate_bps = array("d")   # -1.0 encodes "unpaced"
        self.inflight_bytes = array("q")
        self.srtt_usec = array("d")         # -1.0 encodes "no sample yet"
        self.min_rtt_usec = array("q")      # -1 encodes "no sample yet"
        self.packets_lost = array("q")      # cumulative
        self.rto_count = array("q")         # cumulative
        self.phase_codes = array("q")
        self.aux1 = array("d")
        self.aux2 = array("d")
        self.phases: List[str] = []         # code -> interned phase name
        self._code_of: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.times_usec)

    def sample(self, now: int, conn: Any) -> None:
        """Record one grid point from pure reads."""
        self.times_usec.append(now)
        self.acked = conn.packets_acked
        cca = conn.cca
        self.cwnd_packets.append(cca.cwnd_packets)
        pacing = cca.pacing_rate_bps
        self.pacing_rate_bps.append(-1.0 if pacing is None else pacing)
        self.inflight_bytes.append(len(conn._inflight) * conn.mss_bytes)
        rtt = conn.rtt
        srtt = rtt.srtt_usec
        self.srtt_usec.append(-1.0 if srtt is None else srtt)
        min_rtt = rtt.min_rtt_usec
        self.min_rtt_usec.append(-1 if min_rtt is None else min_rtt)
        self.packets_lost.append(conn.packets_marked_lost)
        self.rto_count.append(conn.rto_count)
        phase, aux1, aux2 = cca.flight_state()
        code = self._code_of.get(phase)
        if code is None:
            code = self._code_of[phase] = len(self.phases)
            self.phases.append(phase)
        self.phase_codes.append(code)
        self.aux1.append(aux1)
        self.aux2.append(aux2)

    def to_json(self) -> Dict:
        """Columnar arrays as plain JSON lists (one key per column)."""
        return {
            "service_id": self.service_id,
            "cca": self.cca_name,
            "times_usec": list(self.times_usec),
            "cwnd_packets": list(self.cwnd_packets),
            "pacing_rate_bps": list(self.pacing_rate_bps),
            "inflight_bytes": list(self.inflight_bytes),
            "srtt_usec": list(self.srtt_usec),
            "min_rtt_usec": list(self.min_rtt_usec),
            "packets_lost": list(self.packets_lost),
            "rto_count": list(self.rto_count),
            "phases": list(self.phases),
            "phase_codes": list(self.phase_codes),
            "aux1": list(self.aux1),
            "aux2": list(self.aux2),
        }

    @classmethod
    def from_json(cls, flow_id: str, payload: Dict) -> "ConnChannel":
        ch = cls(payload["service_id"], flow_id, payload["cca"])
        ch.times_usec.extend(payload["times_usec"])
        ch.cwnd_packets.extend(payload["cwnd_packets"])
        ch.pacing_rate_bps.extend(payload["pacing_rate_bps"])
        ch.inflight_bytes.extend(payload["inflight_bytes"])
        ch.srtt_usec.extend(payload["srtt_usec"])
        ch.min_rtt_usec.extend(payload["min_rtt_usec"])
        ch.packets_lost.extend(payload["packets_lost"])
        ch.rto_count.extend(payload["rto_count"])
        ch.phases = list(payload["phases"])
        ch._code_of = {name: i for i, name in enumerate(ch.phases)}
        ch.phase_codes.extend(payload["phase_codes"])
        ch.aux1.extend(payload["aux1"])
        ch.aux2.extend(payload["aux2"])
        return ch


class QueueChannel:
    """Columnar bottleneck-queue telemetry (one row per grid sample).

    Per-service series (queued packets, cumulative drops, delivered
    bytes) are parallel arrays zero-backfilled when a service first
    appears, so every column stays aligned with ``times_usec``.

    The link's counters restart when the measurement window opens; the
    channel notes that instant (``window_open_usec``, as the probe
    recorded it) and the index of the first row sampled after it
    (``window_row``), so window-scoped readers never have to guess the
    boundary from the data.  Both stay ``None`` in a recording that never
    saw the window open (and in sidecars older than the fields).
    """

    __slots__ = (
        "capacity_packets",
        "window_open_usec",
        "window_row",
        "times_usec",
        "occupancy",
        "queued_packets",
        "drops",
        "delivered_bytes",
    )

    def __init__(self, capacity_packets: int) -> None:
        self.capacity_packets = capacity_packets
        self.window_open_usec: Optional[int] = None
        self.window_row: Optional[int] = None
        self.times_usec = array("q")
        self.occupancy = array("q")
        self.queued_packets: Dict[str, array] = {}
        self.drops: Dict[str, array] = {}
        self.delivered_bytes: Dict[str, array] = {}

    def __len__(self) -> int:
        return len(self.times_usec)

    @staticmethod
    def _append_row(columns: Dict[str, array], values: Dict[str, int],
                    row: int) -> None:
        for sid, value in values.items():
            col = columns.get(sid)
            if col is None:
                col = columns[sid] = array("q", [0] * row)
            col.append(value)
        if len(columns) > len(values):
            for col in columns.values():
                if len(col) <= row:
                    col.append(0)

    def sample(self, now: int, link: Any) -> None:
        """Record one grid point from pure reads."""
        row = len(self.times_usec)
        opened = link.probe.window_open_usec
        if opened != self.window_open_usec:
            self.window_open_usec = opened
            self.window_row = row
        self.times_usec.append(now)
        queue = link.queue
        self.occupancy.append(len(queue._queue))
        counts: Dict[str, int] = {}
        for pkt in queue._queue:
            sid = pkt.flow.service_id
            counts[sid] = counts.get(sid, 0) + 1
        self._append_row(self.queued_packets, counts, row)
        self._append_row(self.drops, dict(queue.drops), row)
        self._append_row(self.delivered_bytes, dict(link.delivered_bytes), row)

    def window_rows(
        self, last: Optional[int] = None
    ) -> Optional[Tuple[int, List[Row]]]:
        """``(window_open_usec, rows sampled since)`` for the stop rule.

        ``last`` keeps only that many trailing rows (the live monitor
        needs just the rule's look-back, not the whole window).  ``None``
        when the channel never saw the window open.
        """
        if self.window_row is None:
            return None
        n = len(self.times_usec)
        start = self.window_row
        if last is not None:
            start = max(start, n - last)
        delivered = self.delivered_bytes
        drops = self.drops.values()
        capacity = self.capacity_packets
        rows: List[Row] = [
            (
                self.times_usec[i],
                {sid: col[i] for sid, col in delivered.items()},
                sum(col[i] for col in drops),
                self.occupancy[i] / capacity,
            )
            for i in range(start, n)
        ]
        return self.window_open_usec, rows

    def to_json(self) -> Dict:
        """Columnar arrays as plain JSON (per-service columns sorted)."""
        payload = {
            "capacity_packets": self.capacity_packets,
            "times_usec": list(self.times_usec),
            "occupancy": list(self.occupancy),
            "queued_packets": {
                sid: list(col) for sid, col in sorted(self.queued_packets.items())
            },
            "drops": {sid: list(col) for sid, col in sorted(self.drops.items())},
            "delivered_bytes": {
                sid: list(col)
                for sid, col in sorted(self.delivered_bytes.items())
            },
        }
        if self.window_row is not None:
            payload["window_open_usec"] = self.window_open_usec
            payload["window_row"] = self.window_row
        return payload

    @classmethod
    def from_json(cls, payload: Dict) -> "QueueChannel":
        ch = cls(payload["capacity_packets"])
        ch.window_open_usec = payload.get("window_open_usec")
        ch.window_row = payload.get("window_row")
        ch.times_usec.extend(payload["times_usec"])
        ch.occupancy.extend(payload["occupancy"])
        for name in ("queued_packets", "drops", "delivered_bytes"):
            columns = getattr(ch, name)
            for sid, values in payload[name].items():
                columns[sid] = array("q", values)
        return ch


class FlightRecorder:
    """Grid-sampled telemetry for one trial.

    Usage: construct, pass to ``run_trial_artifacts(..., recorders=[rec])``;
    the testbed attaches it to the bottleneck link's probe and the trial
    core labels ``meta`` with the trial.  After the run, ``to_json()`` is
    the versioned sidecar payload.
    """

    def __init__(self, grid_usec: int = DEFAULT_GRID_USEC,
                 meta: Optional[Dict] = None) -> None:
        if grid_usec <= 0:
            raise ValueError("sampling grid must be positive")
        self.grid_usec = grid_usec
        self.meta: Dict = dict(meta or {})
        self.connections: Dict[str, ConnChannel] = {}
        self.queue: Optional[QueueChannel] = None

    def attach(self, link: Any) -> None:
        """Subscribe to the link's probe (zero events scheduled) and
        have ``meta`` labelled with the trial."""
        self.queue = QueueChannel(link.queue.capacity_packets)
        link.probe.labels.append(self.meta)
        link.subscribe(self.grid_usec, self.sample)

    def sample(self, now: int, link: Any) -> None:
        """Probe subscriber: one queue row, plus one row per active flow."""
        self.queue.sample(now, link)
        channels = self.connections
        for conn in link.probe.connections:
            channel = channels.get(conn.flow_id)
            if channel is None:
                channel = channels[conn.flow_id] = ConnChannel(
                    conn.service_id, conn.flow_id, conn.cca.name
                )
            if conn.packets_acked != channel.acked:
                channel.sample(now, conn)

    def to_json(self) -> Dict:
        """The versioned sidecar payload (schema, meta, all channels)."""
        return {
            "schema": FLIGHT_SCHEMA_VERSION,
            "grid_usec": self.grid_usec,
            "meta": dict(self.meta),
            "connections": {
                flow_id: channel.to_json()
                for flow_id, channel in sorted(self.connections.items())
            },
            "queue": self.queue.to_json() if self.queue is not None else None,
        }

    @classmethod
    def from_json(cls, payload: Dict) -> "FlightRecorder":
        schema = payload.get("schema")
        if schema != FLIGHT_SCHEMA_VERSION:
            raise ValueError(f"unsupported flight schema {schema!r}")
        rec = cls(payload["grid_usec"], meta=payload.get("meta"))
        for flow_id, conn_payload in payload.get("connections", {}).items():
            rec.connections[flow_id] = ConnChannel.from_json(
                flow_id, conn_payload
            )
        queue_payload = payload.get("queue")
        if queue_payload is not None:
            rec.queue = QueueChannel.from_json(queue_payload)
        return rec


# ----------------------------------------------------------------------
# Diagnosis: derived summaries over a recording payload
# ----------------------------------------------------------------------


def dwell_times(payload: Dict) -> Dict[str, Dict[str, int]]:
    """Per-connection time spent in each CCA phase, in usec.

    The interval between consecutive samples is attributed to the phase
    observed at the *earlier* sample; the final sample is credited one
    grid period (its phase held at least until the trial ended).
    """
    grid = payload["grid_usec"]
    out: Dict[str, Dict[str, int]] = {}
    for flow_id, conn in payload["connections"].items():
        times = conn["times_usec"]
        codes = conn["phase_codes"]
        phases = conn["phases"]
        dwell: Dict[str, int] = {}
        for i, code in enumerate(codes):
            if i + 1 < len(times):
                span = times[i + 1] - times[i]
            else:
                span = grid
            name = phases[code]
            dwell[name] = dwell.get(name, 0) + span
        out[flow_id] = dwell
    return out


def standing_queue_intervals(
    payload: Dict,
    threshold_fraction: float = 0.5,
    min_duration_usec: int = 500_000,
) -> List[Tuple[int, int]]:
    """Intervals where queue occupancy stood at/above a capacity fraction.

    A bufferbloat signature: the queue never drains below
    ``threshold_fraction * capacity`` for at least ``min_duration_usec``
    of simulated time.  Returns ``[(start_usec, end_usec), ...]``.
    """
    queue = payload.get("queue")
    if not queue or not queue["times_usec"]:
        return []
    threshold = threshold_fraction * queue["capacity_packets"]
    grid = payload["grid_usec"]
    intervals: List[Tuple[int, int]] = []
    start: Optional[int] = None
    last = 0
    for t, occ in zip(queue["times_usec"], queue["occupancy"]):
        if occ >= threshold:
            if start is None:
                start = t
            last = t
        elif start is not None:
            if last + grid - start >= min_duration_usec:
                intervals.append((start, last + grid))
            start = None
    if start is not None and last + grid - start >= min_duration_usec:
        intervals.append((start, last + grid))
    return intervals


def queue_share_series(payload: Dict) -> Tuple[List[int], Dict[str, List[float]]]:
    """Per-service share of queued packets at each sample with occupants."""
    queue = payload.get("queue")
    if not queue:
        return [], {}
    times: List[int] = []
    shares: Dict[str, List[float]] = {sid: [] for sid in queue["queued_packets"]}
    columns = queue["queued_packets"]
    for i, t in enumerate(queue["times_usec"]):
        total = sum(col[i] for col in columns.values())
        if total <= 0:
            continue
        times.append(t)
        for sid, col in columns.items():
            shares[sid].append(col[i] / total)
    return times, shares


def throughput_share_series(
    payload: Dict,
) -> Tuple[List[int], Dict[str, List[float]]]:
    """Per-service share of delivered bytes per grid interval.

    ``delivered_bytes`` counters reset when the measurement window opens
    (``BottleneckLink.reset_stats``); a negative delta is treated as a
    counter reset and the post-reset value is used as the delta.
    """
    queue = payload.get("queue")
    if not queue:
        return [], {}
    columns = queue["delivered_bytes"]
    times: List[int] = []
    shares: Dict[str, List[float]] = {sid: [] for sid in columns}
    prev: Dict[str, int] = {sid: 0 for sid in columns}
    for i, t in enumerate(queue["times_usec"]):
        deltas = {}
        for sid, col in columns.items():
            cur = col[i]
            delta = cur - prev[sid]
            if delta < 0:  # counter reset at the window boundary
                delta = cur
            deltas[sid] = delta
            prev[sid] = cur
        total = sum(deltas.values())
        if total <= 0:
            continue
        times.append(t)
        for sid in columns:
            shares[sid].append(deltas[sid] / total)
    return times, shares


def retransmit_bursts(
    payload: Dict, min_packets: int = 3
) -> Dict[str, List[Tuple[int, int, int]]]:
    """Per-connection grid intervals with heavy retransmission marking.

    Consecutive grid intervals whose cumulative-loss delta is at least
    ``min_packets`` are coalesced into ``(start, end, packets)`` bursts.
    """
    out: Dict[str, List[Tuple[int, int, int]]] = {}
    for flow_id, conn in payload["connections"].items():
        times = conn["times_usec"]
        lost = conn["packets_lost"]
        bursts: List[Tuple[int, int, int]] = []
        start: Optional[int] = None
        end = 0
        count = 0
        for i in range(1, len(times)):
            delta = lost[i] - lost[i - 1]
            if delta >= min_packets:
                if start is None:
                    start = times[i - 1]
                    count = 0
                end = times[i]
                count += delta
            elif start is not None:
                bursts.append((start, end, count))
                start = None
        if start is not None:
            bursts.append((start, end, count))
        if bursts:
            out[flow_id] = bursts
    return out


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def diagnose(payload: Dict) -> Dict:
    """Derive the versioned per-trial diagnosis summary from a recording."""
    grid = payload["grid_usec"]
    queue = payload.get("queue") or {}
    queue_times = queue.get("times_usec") or []
    conn_times = [
        t for conn in payload["connections"].values() for t in conn["times_usec"][-1:]
    ]
    t_end = max([queue_times[-1] if queue_times else 0] + conn_times + [0])
    t_start = min(
        [queue_times[0] if queue_times else t_end]
        + [c["times_usec"][0] for c in payload["connections"].values() if c["times_usec"]]
        + [t_end]
    )
    duration = max(t_end + grid - t_start, grid)

    dwell = dwell_times(payload)
    dwell_out = {
        flow: {
            phase: {
                "usec": usec,
                "fraction": round(usec / max(sum(d.values()), 1), 4),
            }
            for phase, usec in sorted(d.items())
        }
        for flow, d in sorted(dwell.items())
    }

    intervals = standing_queue_intervals(payload)
    standing_usec = sum(end - start for start, end in intervals)
    qs_times, qs = queue_share_series(payload)
    tp_times, tp = throughput_share_series(payload)
    bursts = retransmit_bursts(payload)

    return {
        "schema": DIAGNOSIS_SCHEMA_VERSION,
        "grid_usec": grid,
        "meta": dict(payload.get("meta") or {}),
        "duration_usec": duration,
        "dwell": dwell_out,
        "standing_queue": {
            "capacity_packets": queue.get("capacity_packets"),
            "threshold_fraction": 0.5,
            "intervals_usec": [list(iv) for iv in intervals],
            "fraction": round(standing_usec / duration, 4),
        },
        "queue_share": {
            "times_usec": qs_times,
            "series": {sid: [round(v, 4) for v in col] for sid, col in sorted(qs.items())},
            "mean": {sid: round(_mean(col), 4) for sid, col in sorted(qs.items())},
        },
        "throughput_share": {
            "times_usec": tp_times,
            "series": {sid: [round(v, 4) for v in col] for sid, col in sorted(tp.items())},
            "mean": {sid: round(_mean(col), 4) for sid, col in sorted(tp.items())},
        },
        "retransmit_bursts": {
            flow: {
                "bursts": len(b),
                "packets": sum(count for _s, _e, count in b),
                "intervals_usec": [[s, e] for s, e, _c in b],
            }
            for flow, b in sorted(bursts.items())
        },
    }


def explain_unfairness(diagnosis: Dict) -> List[str]:
    """Deterministic human-readable sentences for a diagnosis summary.

    Used by the service site's "why is this unfair" sections; every
    sentence is derived from the diagnosis alone so regeneration is
    reproducible.
    """
    lines: List[str] = []
    tp_mean = diagnosis.get("throughput_share", {}).get("mean", {})
    if len(tp_mean) >= 2:
        winner = max(sorted(tp_mean), key=lambda s: tp_mean[s])
        loser = min(sorted(tp_mean), key=lambda s: tp_mean[s])
        if winner != loser:
            lines.append(
                f"{winner} captured {tp_mean[winner] * 100:.0f}% of delivered "
                f"bytes vs {loser}'s {tp_mean[loser] * 100:.0f}%."
            )
    qs_mean = diagnosis.get("queue_share", {}).get("mean", {})
    if len(qs_mean) >= 2:
        hog = max(sorted(qs_mean), key=lambda s: qs_mean[s])
        if qs_mean[hog] > 0.55:
            lines.append(
                f"{hog} held {qs_mean[hog] * 100:.0f}% of the bottleneck "
                "queue on average, crowding out competing packets."
            )
    sq = diagnosis.get("standing_queue", {})
    if sq.get("fraction", 0) >= 0.2:
        lines.append(
            f"a standing queue at or above "
            f"{sq.get('threshold_fraction', 0.5) * 100:.0f}% of the "
            f"{sq.get('capacity_packets')}-packet buffer persisted for "
            f"{sq['fraction'] * 100:.0f}% of the trial (bufferbloat)."
        )
    dwell = diagnosis.get("dwell", {})
    for flow in sorted(dwell):
        phases = dwell[flow]
        if not phases:
            continue
        dominant = max(sorted(phases), key=lambda p: phases[p]["usec"])
        frac = phases[dominant]["fraction"]
        if frac >= 0.5 and len(phases) > 1:
            lines.append(
                f"{flow} spent {frac * 100:.0f}% of the trial in the "
                f"{dominant} phase."
            )
    for flow, info in sorted(diagnosis.get("retransmit_bursts", {}).items()):
        lines.append(
            f"{flow} suffered {info['packets']} retransmitted packets "
            f"across {info['bursts']} loss burst(s)."
        )
    if not lines:
        lines.append("no dominant-flow signature detected in this trial.")
    return lines


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------

_SPARK = " .:-=+*#%@"


def _phase_letter(phase: str) -> str:
    return (phase[:1] or "?").upper()


def _resample(times: List[int], values: List, t0: int, t1: int,
              width: int) -> List:
    """Pick the latest value at/before each of ``width`` bucket ends."""
    out = []
    j = 0
    span = max(t1 - t0, 1)
    for k in range(width):
        target = t0 + span * (k + 1) // width
        while j + 1 < len(times) and times[j + 1] <= target:
            j += 1
        out.append(values[j] if times and times[j] <= target else None)
    return out


def render_timeline(payload: Dict, width: int = 60) -> str:
    """ASCII timeline: one phase strip per connection plus a queue strip."""
    conns = payload["connections"]
    queue = payload.get("queue") or {}
    all_times = [t for c in conns.values() for t in (c["times_usec"] or [])]
    all_times += queue.get("times_usec") or []
    if not all_times:
        return "flight timeline: no samples recorded"
    t0, t1 = min(all_times), max(all_times)
    grid = payload["grid_usec"]
    lines = [
        f"flight timeline  grid={grid / 1000:g} ms  "
        f"span={t0 / _USEC_PER_SEC:.2f}s..{(t1 + grid) / _USEC_PER_SEC:.2f}s"
    ]
    label_w = max([len(f) for f in conns] + [5]) + 2
    tag_w = max(
        [len(c["cca"]) for c in conns.values()]
        + [len(f"cap {queue.get('capacity_packets', 0)}")]
    )
    legend: Dict[str, str] = {}
    for flow_id in sorted(conns):
        conn = conns[flow_id]
        codes = _resample(conn["times_usec"], conn["phase_codes"], t0, t1, width)
        strip = ""
        for code in codes:
            if code is None:
                strip += " "
            else:
                phase = conn["phases"][code]
                letter = _phase_letter(phase)
                legend.setdefault(letter, phase)
                strip += letter
        cwnds = [v for v in conn["cwnd_packets"] if v is not None]
        lo, hi = (min(cwnds), max(cwnds)) if cwnds else (0, 0)
        lines.append(
            f"{flow_id:<{label_w}}[{conn['cca']:<{tag_w}}] {strip}  "
            f"cwnd {lo:.0f}..{hi:.0f} pkts"
        )
    if queue.get("times_usec"):
        cap = max(queue["capacity_packets"], 1)
        occs = _resample(queue["times_usec"], queue["occupancy"], t0, t1, width)
        strip = ""
        for occ in occs:
            if occ is None:
                strip += " "
            else:
                idx = min(int(occ / cap * (len(_SPARK) - 1)), len(_SPARK) - 1)
                strip += _SPARK[idx]
        tag = f"cap {queue['capacity_packets']}"
        lines.append(
            f"{'queue':<{label_w}}[{tag:<{tag_w}}] "
            f"{strip}  occupancy 0..{max(queue['occupancy'])} pkts"
        )
    if legend:
        pairs = ", ".join(f"{k}={v}" for k, v in sorted(legend.items()))
        lines.append(f"phases: {pairs}")
    return "\n".join(lines)


def render_summary(diagnosis: Dict) -> str:
    """Human-readable diagnosis: dwell times, queue share, verdict lines."""
    lines = []
    duration = diagnosis.get("duration_usec", 0)
    lines.append(
        f"flight diagnosis  schema={diagnosis.get('schema')}  "
        f"duration={duration / _USEC_PER_SEC:.2f}s  "
        f"grid={diagnosis.get('grid_usec', 0) / 1000:g}ms"
    )
    lines.append("per-connection CCA state dwell times:")
    for flow, phases in sorted(diagnosis.get("dwell", {}).items()):
        parts = [
            f"{phase} {info['fraction'] * 100:.0f}% "
            f"({info['usec'] / _USEC_PER_SEC:.2f}s)"
            for phase, info in sorted(
                phases.items(), key=lambda kv: -kv[1]["usec"]
            )
        ]
        lines.append(f"  {flow}: " + ", ".join(parts))
    qs = diagnosis.get("queue_share", {})
    if qs.get("mean"):
        parts = [
            f"{sid} {frac * 100:.0f}%" for sid, frac in sorted(qs["mean"].items())
        ]
        lines.append("queue share (mean while occupied): " + "  ".join(parts))
        series = qs.get("series", {})
        times = qs.get("times_usec", [])
        if times:
            lines.append("queue-share series (per sample):")
            for sid in sorted(series):
                strip = "".join(
                    _SPARK[min(int(v * (len(_SPARK) - 1)), len(_SPARK) - 1)]
                    for v in series[sid][:80]
                )
                lines.append(f"  {sid}: {strip}")
    tp = diagnosis.get("throughput_share", {})
    if tp.get("mean"):
        parts = [
            f"{sid} {frac * 100:.0f}%" for sid, frac in sorted(tp["mean"].items())
        ]
        lines.append("throughput share (mean per interval): " + "  ".join(parts))
    sq = diagnosis.get("standing_queue", {})
    if sq:
        lines.append(
            f"standing queue: >={sq.get('threshold_fraction', 0.5) * 100:.0f}% "
            f"of {sq.get('capacity_packets')} packets for "
            f"{sq.get('fraction', 0) * 100:.0f}% of the trial "
            f"({len(sq.get('intervals_usec', []))} interval(s))"
        )
    rb = diagnosis.get("retransmit_bursts", {})
    if rb:
        for flow, info in sorted(rb.items()):
            lines.append(
                f"retransmission bursts: {flow}: {info['packets']} packets "
                f"in {info['bursts']} burst(s)"
            )
    else:
        lines.append("retransmission bursts: none")
    return "\n".join(lines)


def to_chrome_counters(payload: Dict, pid: int = 1) -> List[Dict]:
    """Chrome trace counter events ("ph": "C") for about://tracing.

    Complements the span export in :mod:`repro.obs.tracing`: spans show
    where wall time went, counter tracks show what the simulation was
    doing over *simulated* time (ts is sim usec here).
    """
    events: List[Dict] = []
    for flow_id, conn in sorted(payload["connections"].items()):
        for i, t in enumerate(conn["times_usec"]):
            events.append({
                "name": f"cwnd {flow_id}",
                "ph": "C",
                "ts": t,
                "pid": pid,
                "args": {"packets": conn["cwnd_packets"][i]},
            })
            events.append({
                "name": f"inflight {flow_id}",
                "ph": "C",
                "ts": t,
                "pid": pid,
                "args": {"bytes": conn["inflight_bytes"][i]},
            })
    queue = payload.get("queue")
    if queue:
        for i, t in enumerate(queue["times_usec"]):
            args = {"total": queue["occupancy"][i]}
            for sid, col in sorted(queue["queued_packets"].items()):
                args[sid] = col[i]
            events.append({
                "name": "queue occupancy",
                "ph": "C",
                "ts": t,
                "pid": pid,
                "args": args,
            })
    return events
