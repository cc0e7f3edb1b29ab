"""The results behind internetfairness.net, queryable in memory.

Holds every trial's :class:`ExperimentResult`, queryable by pair and
network setting.  It persists nothing itself: a trial record lives on
disk as a cache entry (:mod:`repro.core.cache`) and in the service's
store journal and segments (:mod:`repro.service.store`), the one
encoding in both.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

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
# arguments of :meth:`ResultStore.samples` (``key`` is the incumbent's).

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


class ResultStore:
    """In-memory store of trial results."""

    def __init__(self) -> None:
        self._results: Dict[SettingKey, List[ExperimentResult]] = {}
        #: Mutation counter: bumped by every :meth:`add`, so a view
        #: derived from the store (``FairnessReport``'s median matrix)
        #: can tell whether it is still current.
        self.version = 0

    def add(self, result: ExperimentResult) -> None:
        """Record one trial under its (pair, bandwidth) bucket."""
        self.version += 1
        base_a = result.contender_id.split("#")[0]
        base_b = result.incumbent_id.split("#")[0]
        a, b = _pair_key(base_a, base_b)
        key = (a, b, result.bandwidth_bps)
        self._results.setdefault(key, []).append(result)

    def extend(
        self, results: Iterable[ExperimentResult], valid_only: bool = False
    ) -> None:
        """Record many trials at once (runner/cache integration point).

        With ``valid_only`` trials failing the external-loss discard rule
        are dropped, matching the watchdog's hygiene behaviour.
        """
        for result in results:
            if valid_only and not result.valid:
                continue
            self.add(result)

    def trials(
        self, a: str, b: str, bandwidth_bps: float
    ) -> List[ExperimentResult]:
        """All recorded trials of a pair at a bandwidth (any order)."""
        a, b = _pair_key(a.split("#")[0], b.split("#")[0])
        return list(self._results.get((a, b, bandwidth_bps), []))

    def valid_trials(
        self, a: str, b: str, bandwidth_bps: float
    ) -> List[ExperimentResult]:
        """Trials that survive the external-loss discard rule."""
        return [t for t in self.trials(a, b, bandwidth_bps) if t.valid]

    def samples(
        self,
        incumbent: str,
        contender: str,
        bandwidth_bps: float,
        value: Value,
    ) -> List[float]:
        """``value(trial, key)`` of every valid trial of the pair, where
        ``key`` is ``incumbent``'s key in that trial (the one place
        :func:`incumbent_key` is resolved).  Trials that did not measure
        ``incumbent`` contribute nothing.
        """
        values = []
        for trial in self.valid_trials(incumbent, contender, bandwidth_bps):
            key = incumbent_key(trial, incumbent, contender)
            if key is not None:
                values.append(value(trial, key))
        return values

    def pairs(self) -> List[SettingKey]:
        """All (service_a, service_b, bandwidth) buckets with data."""
        return sorted(self._results)

    def all_results(self) -> Iterable[ExperimentResult]:
        """Iterate every stored trial across all buckets."""
        for bucket in self._results.values():
            yield from bucket

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._results.values())
