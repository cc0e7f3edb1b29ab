"""Trial statistics: medians, IQRs, bootstrap confidence intervals.

Section 3.4: Prudentia reports medians with inter-quartile-range error
bars, and keeps adding trials until the 95% confidence interval of the
median is within +/-0.5 Mbps (8 Mbps setting) or +/-1.5 Mbps (50 Mbps
setting).  The CI of the median is computed with a percentile bootstrap.

The bootstrap is the one piece of control plane every adaptive round
pays, so :func:`bootstrap_median_ci` draws its resampling indices from
the Mersenne Twister in bulk rather than one ``randrange`` at a time,
and :func:`summarize_trials` computes each distinct summary once per
process.  Neither changes a bit of any result: the bulk draw consumes
the same generator stream the per-draw loop would (that loop lives on
as the oracle ``tests/naive_stats.py``), and the memo is keyed on a
type-exact encoding of every argument.  DESIGN section 8 states the
contract and names the tests that execute it.
"""

from __future__ import annotations

import json
import random
import struct
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs.metrics import get_registry


def median(samples: Sequence[float]) -> float:
    """Sample median (mean of the middle two for even counts)."""
    if not samples:
        raise ValueError("median of empty sample set")
    ordered = sorted(samples)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def quantile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile, 0 <= q <= 1."""
    if not samples:
        raise ValueError("quantile of empty sample set")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be within [0, 1]")
    return _quantile_of_sorted(sorted(samples), q)


def _quantile_of_sorted(ordered: Sequence[float], q: float) -> float:
    """:func:`quantile` of an already-sorted, non-empty sample set."""
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    weight = position - low
    return ordered[low] * (1 - weight) + ordered[high] * weight


def iqr(samples: Sequence[float]) -> Tuple[float, float]:
    """(25th, 75th) percentiles - the paper's error bars."""
    return quantile(samples, 0.25), quantile(samples, 0.75)


def derive_bootstrap_seed(samples: Sequence[float], key: str = "") -> int:
    """Deterministic bootstrap RNG seed from the data itself.

    The convergence verdict for a trial series must be a pure function of
    the series (plus an optional context ``key`` such as the pair and
    service it belongs to) - never of wall-clock, call order, process
    boundaries, or which host evaluated it.  Hashing a canonical JSON
    encoding of the values gives every distinct sample set its own,
    reproducible resampling noise, so re-planning an adaptive cycle on a
    different host reaches byte-identical stopping decisions.
    """
    canonical = json.dumps(
        {"key": key, "samples": [float(v) for v in samples]},
        sort_keys=True,
        separators=(",", ":"),
    )
    return zlib.crc32(canonical.encode("utf-8")) & 0xFFFFFFFF


def _randrange_stream(rng: random.Random, n: int, count: int) -> Sequence[int]:
    """The next ``count`` values of ``rng.randrange(n)``, drawn in bulk.

    CPython's ``randrange(n)`` is the top ``k = n.bit_length()`` bits of
    one 32-bit generator output, drawn again while that is >= ``n``, and
    ``getrandbits(32 * m)`` is the next ``m`` outputs, least significant
    word first.  So one big draw, laid out little-endian, holds the very
    words a per-draw loop would consume, in order; taking the top bits
    of each and dropping the rejected ones leaves the same values.  More
    words may be consumed than the loop would have used, which only a
    later draw from ``rng`` could observe.

    For ``k <= 8`` (n < 256; Section 3.4 caps a series at 30 trials) the
    top bits sit in each word's top byte, and one ``bytes.translate``
    shifts the accepted bytes and deletes the rejected ones.
    """
    k = n.bit_length()
    if k <= 8:
        shift = 8 - k
        accepted = bytes(byte >> shift for byte in range(256))
        rejected = bytes(byte for byte in range(256) if byte >> shift >= n)
        values = bytearray()
    else:
        shift = 32 - k
        values = []
    while len(values) < count:
        # Only the words the shortfall needs on average: about half of
        # all first passes come up short, so the top-up is an everyday
        # path, not one a test has to contrive.
        words = ((count - len(values)) << k) // n + 8
        raw = rng.getrandbits(32 * words).to_bytes(4 * words, "little")
        if k <= 8:
            values += raw[3::4].translate(accepted, rejected)
        else:
            values += [
                value
                for word in struct.unpack(f"<{words}I", raw)
                if (value := word >> shift) < n
            ]
    return values[:count]


def bootstrap_median_ci(
    samples: Sequence[float],
    confidence: float = 0.95,
    n_resamples: int = 2000,
    seed: Optional[int] = 0,
    key: str = "",
) -> Tuple[float, float]:
    """Percentile-bootstrap confidence interval of the median.

    ``seed=None`` derives the resampling seed from the sample values (and
    ``key``) via :func:`derive_bootstrap_seed`; an explicit integer seed
    keeps the historic fixed-seed behaviour.

    Resample ``i`` is ``data[rng.randrange(n)]`` taken ``n`` times from a
    generator private to the call, exactly as if drawn one at a time
    (see :func:`_randrange_stream`); its median is :func:`median` of
    those values in that order.  The result is therefore identical - in
    value, type and sign of zero, for any input - to the per-draw loop
    kept as ``tests/naive_stats.py``.
    """
    if not samples:
        raise ValueError("bootstrap of empty sample set")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    if n_resamples < 1:
        raise ValueError("n_resamples must be positive")
    data = list(samples)
    if len(data) == 1:
        return data[0], data[0]
    if seed is None:
        seed = derive_bootstrap_seed(data, key)
    rng = random.Random(seed)
    n = len(data)
    resampled = map(
        data.__getitem__, _randrange_stream(rng, n, n * n_resamples)
    )
    # zip over n references to one iterator cuts it into runs of n.
    medians = sorted(median(resample) for resample in zip(*[resampled] * n))
    alpha = (1.0 - confidence) / 2.0
    return (
        _quantile_of_sorted(medians, alpha),
        _quantile_of_sorted(medians, 1.0 - alpha),
    )


@dataclass(frozen=True)
class TrialSummary:
    """Summary statistics for one measured quantity over trials."""

    n: int
    median: float
    q25: float
    q75: float
    ci_low: float
    ci_high: float

    @property
    def ci_halfwidth(self) -> float:
        return max(self.median - self.ci_low, self.ci_high - self.median)

    @property
    def iqr_width(self) -> float:
        return self.q75 - self.q25


#: Memo behind :func:`summarize_trials`: encoded arguments -> summary.
_SUMMARY_MEMO: Dict[str, TrialSummary] = {}
_SUMMARY_MEMO_MAX = 4096


def summarize_trials(
    samples: Sequence[float],
    confidence: float = 0.95,
    seed: Optional[int] = None,
    key: str = "",
) -> TrialSummary:
    """Median, IQR and bootstrap CI in one record.

    The bootstrap seed defaults to the data-derived value (see
    :func:`derive_bootstrap_seed`), making the summary - and therefore
    every convergence verdict built on it - reproducible across hosts,
    re-plans, and evaluation order.

    Being a pure function of its arguments, each distinct summary is
    computed once per process: a fold, the assembly replay of the same
    series and a warm re-run of the cycle share one (frozen) record.
    The memo is keyed on the ``repr`` of the arguments, not on a tuple
    of them: ``==``/``hash`` conflate ``1`` with ``1.0`` and ``0.0``
    with ``-0.0``, whose summaries differ in type or sign, while
    ``repr`` is type-exact.  Bounded: at the cap the memo simply starts
    over.  ``core.convergence.summaries_computed`` / ``_reused`` count
    the misses and hits.
    """
    token = repr((key, confidence, seed, list(samples)))
    summary = _SUMMARY_MEMO.get(token)
    if summary is not None:
        get_registry().counter("core.convergence.summaries_reused").inc()
        return summary
    mid = median(samples)
    q25, q75 = iqr(samples)
    ci_low, ci_high = bootstrap_median_ci(
        samples, confidence, seed=seed, key=key
    )
    summary = TrialSummary(
        n=len(samples), median=mid, q25=q25, q75=q75, ci_low=ci_low, ci_high=ci_high
    )
    if len(_SUMMARY_MEMO) >= _SUMMARY_MEMO_MAX:
        _SUMMARY_MEMO.clear()
    _SUMMARY_MEMO[token] = summary
    get_registry().counter("core.convergence.summaries_computed").inc()
    return summary
