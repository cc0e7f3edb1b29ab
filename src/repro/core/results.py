"""The results behind internetfairness.net, queryable in memory.

Holds every trial's :class:`ExperimentResult`, queryable by pair and
network setting.  It persists nothing itself: a trial record lives on
disk as a cache entry (:mod:`repro.core.cache`) and in the service's
store journal and segments (:mod:`repro.service.store`), the one
encoding in both.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..obs.metrics import get_registry
from .experiment import ExperimentResult

SettingKey = Tuple[str, str, float]  # (service_a, service_b, bandwidth)

#: A per-trial quantity: ``value(trial, incumbent's key in trial)``.
Value = Callable[[ExperimentResult, str], float]


def _pair_key(a: str, b: str) -> Tuple[str, str]:
    return (a, b) if a <= b else (b, a)


def incumbent_key(
    trial: ExperimentResult, incumbent: str, contender: str
) -> Optional[str]:
    """The key ``incumbent`` has in ``trial``'s per-service mappings
    when read against ``contender`` (a self-pair's second instance is
    ``<id>#2``); ``None`` when the trial did not measure it."""
    ids = list(trial.mmf_share)
    if incumbent == contender:
        suffixed = [sid for sid in ids if sid.endswith("#2")]
        return suffixed[0] if suffixed else ids[0]
    for sid in ids:
        if sid.split("#")[0] == incumbent:
            return sid
    return None


# The per-trial quantities the paper's grids publish, as ``value``
# arguments of :meth:`ResultStore.pair_samples` (``key`` is the
# incumbent's).

def mmf_share(trial: ExperimentResult, key: str) -> float:
    """Fig 2: the incumbent's share of its max-min fair allocation."""
    return trial.mmf_share[key]


def throughput_bps(trial: ExperimentResult, key: str) -> float:
    """The incumbent's mean throughput."""
    return trial.throughput_bps[key]


def utilization(trial: ExperimentResult, key: str) -> float:
    """Fig 11: total link utilisation (the same for both services)."""
    return trial.utilization


def loss_rate(trial: ExperimentResult, key: str) -> float:
    """Fig 12: the loss rate the incumbent experienced."""
    return trial.loss_rate[key]


def queueing_delay_ms(trial: ExperimentResult, key: str) -> float:
    """Fig 13: the incumbent's mean queueing delay, in ms."""
    return trial.queueing_delay_usec[key] / 1000.0


#: One bucket entry: a trial and the keys its pair's two services have
#: in it (the bucket's lower id's, then the higher id's; the same key
#: twice for a self pair), resolved once when the trial is added.  An
#: invalid trial, or a service the trial did not measure, has ``None``.
Entry = Tuple[ExperimentResult, Optional[str], Optional[str]]


class ResultStore:
    """In-memory store of trial results."""

    def __init__(self) -> None:
        self._results: Dict[SettingKey, List[Entry]] = {}
        #: Mutation counter: bumped by every added trial, so a view
        #: derived from the store (``FairnessReport``'s medians) can
        #: tell whether it is still current.
        self.version = 0

    def add(self, result: ExperimentResult) -> None:
        """Record one trial under its (pair, bandwidth) bucket."""
        self.extend((result,))

    def extend(
        self, results: Iterable[ExperimentResult], valid_only: bool = False
    ) -> None:
        """Record many trials at once (runner/cache integration point),
        resolving each valid trial's two keys here, once.

        With ``valid_only`` trials failing the external-loss discard rule
        are dropped, matching the watchdog's hygiene behaviour.
        """
        buckets = self._results
        resolved = added = 0
        try:
            for result in results:
                valid = result.valid
                if valid_only and not valid:
                    continue
                a, b = _pair_key(
                    result.contender_id.split("#")[0],
                    result.incumbent_id.split("#")[0],
                )
                key_a = key_b = None
                if valid:
                    resolved += 1
                    key_a = incumbent_key(result, a, b)
                    key_b = key_a if a == b else incumbent_key(result, b, a)
                buckets.setdefault((a, b, result.bandwidth_bps), []).append(
                    (result, key_a, key_b)
                )
                added += 1
        finally:
            # Also when a trial raises part-way: the trials added before
            # it change the version, so no derived view reads as current.
            self.version += added
            get_registry().counter("core.results.trials_resolved").inc(
                resolved
            )

    def trials(
        self, a: str, b: str, bandwidth_bps: float
    ) -> List[ExperimentResult]:
        """All recorded trials of a pair at a bandwidth (any order)."""
        a, b = _pair_key(a.split("#")[0], b.split("#")[0])
        bucket = self._results.get((a, b, bandwidth_bps), ())
        return [entry[0] for entry in bucket]

    def valid_trials(
        self, a: str, b: str, bandwidth_bps: float
    ) -> List[ExperimentResult]:
        """Trials that survive the external-loss discard rule."""
        return [t for t in self.trials(a, b, bandwidth_bps) if t.valid]

    def pair_samples(
        self, bandwidth_bps: float, value: Value
    ) -> Dict[Tuple[str, str], List[float]]:
        """``(incumbent, contender) -> [value(trial, key), ...]`` for
        every pair measured at ``bandwidth_bps``, over the pair's valid
        trials in the order they were added, where ``key`` is the
        incumbent's key in the trial: the one loop from trials to
        per-trial values.  A pair no valid trial measured has no entry.
        """
        out: Dict[Tuple[str, str], List[float]] = {}
        for (a, b, bandwidth), bucket in self._results.items():
            if bandwidth != bandwidth_bps:
                continue
            of_a = [value(t, key) for t, key, _ in bucket if key is not None]
            if of_a:
                out[(a, b)] = of_a
            if a != b:
                of_b = [
                    value(t, key) for t, _, key in bucket if key is not None
                ]
                if of_b:
                    out[(b, a)] = of_b
        return out

    def pairs(self) -> List[SettingKey]:
        """All (service_a, service_b, bandwidth) buckets with data."""
        return sorted(self._results)

    def all_results(self) -> Iterable[ExperimentResult]:
        """Iterate every stored trial across all buckets."""
        for bucket in self._results.values():
            for entry in bucket:
                yield entry[0]

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._results.values())
