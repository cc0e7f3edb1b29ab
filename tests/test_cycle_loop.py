"""The one cycle loop: ``while specs := state.next_specs():
state.record(specs, execute(specs))`` over a
:class:`~repro.core.convergence.CycleState`, driven here by fake
``execute``s - no simulation - so the order, the seeds and the batch
windows can be checked over generated shapes."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import units
from repro.config import ExperimentConfig, NetworkConfig, TrialPolicyConfig
from repro.core.convergence import CycleState
from repro.core.experiment import ExperimentResult
from repro.core.runner import RunnerStats
from repro.fleet import AdaptiveCycleState

FAST = ExperimentConfig().scaled(10)
NETWORKS = [NetworkConfig(units.mbps(mbps)) for mbps in (8, 20, 50)]


def fake_result(spec, throughputs_bps=None):
    """A result ``spec`` could have produced, without simulating it."""
    a, b = spec.pair_key
    ids = (a, b if b != a else f"{b}#2")
    if throughputs_bps is None:
        throughputs_bps = dict.fromkeys(ids, 1e6)
    return ExperimentResult(
        contender_id=ids[0],
        incumbent_id=ids[1],
        bandwidth_bps=spec.network.bandwidth_bps,
        buffer_packets=1,
        seed=spec.seed,
        duration_usec=spec.config.duration_usec,
        throughput_bps=throughputs_bps,
        mmf_share=dict.fromkeys(ids, 1.0),
    )


class RecordingBackend:
    """Stands in for an ``ExecutionBackend``: keeps every round it is
    handed and answers with :func:`fake_result`."""

    def __init__(self):
        self.rounds = []
        self.stats = RunnerStats()

    def run(self, specs):
        self.rounds.append(list(specs))
        return [fake_result(spec) for spec in specs]


policies = st.builds(
    lambda floor, extra, batch, ci_bps: TrialPolicyConfig(
        min_trials=floor,
        max_trials=floor + extra,
        batch_size=batch,
        ci_halfwidth_bps=ci_bps,
    ),
    floor=st.integers(1, 4),
    extra=st.integers(0, 6),  # 0: min == max; caps off the batch grid
    batch=st.integers(1, 4),
    ci_bps=st.sampled_from([0.0, 2e5, 2e6, float("inf")]),
)


@st.composite
def cycles(draw):
    networks = draw(
        st.lists(st.sampled_from(NETWORKS), min_size=1, max_size=3, unique=True)
    )
    return dict(
        service_ids=draw(
            st.lists(
                st.sampled_from("abcde"), min_size=2, max_size=5, unique=True
            )
        ),
        networks=networks,
        config=FAST,
        policies=[draw(policies) for _network in networks],
        base_seed=draw(st.integers(0, 50)),
        include_self_pairs=draw(st.booleans()),
    )


@given(cycle=cycles(), stream=st.integers(0, 2**32))
@settings(max_examples=150, deadline=None)
def test_the_loop_runs_what_assembly_reconstructs(cycle, stream):
    """Whatever the policies and the throughputs: assembly's trial list
    is the executed one regrouped network-major, no pair skips or
    repeats a trial index, and every round is round-robin."""
    rng = random.Random(stream)
    noise = {}  # per pair: steady (converges) or jumpy (runs to the cap)
    state = AdaptiveCycleState(**cycle)
    rounds = []
    while specs := state.next_specs():
        rounds.append(specs)
        results = []
        for spec in specs:
            spread = noise.setdefault(
                (spec.network, spec.pair_key), rng.choice([0.0, 5e6])
            )
            results.append(
                fake_result(
                    spec,
                    {
                        sid: 2e6 + rng.uniform(0.0, spread)
                        for sid in ("x", "y")
                    },
                )
            )
        state.record(specs, results)
    assert state.done and state.round_index == len(rounds)

    executed = [
        spec
        for network in state.networks
        for specs in rounds
        for spec in specs
        if spec.network == network
    ]
    assert [t.spec for t in state.assembly_plan().trials] == executed

    for network, tracker in zip(state.networks, state.trackers):
        for pair, pair_state in tracker.states.items():
            ran = [
                spec.seed
                for spec in executed
                if spec.network == network and spec.pair_key == pair
            ]
            assert ran == [
                tracker.seed_for(pair, index)
                for index in range(pair_state.trials_done)
            ]
            policy = tracker.policy.config
            assert policy.min_trials <= len(ran) <= policy.max_trials

    for specs in rounds:
        for network in state.networks:
            turn = {}  # pair -> how many of its trials this round so far
            turns = []
            for spec in specs:
                if spec.network == network:
                    turns.append(turn.get(spec.pair_key, 0))
                    turn[spec.pair_key] = turns[-1] + 1
            assert turns == sorted(turns)


def test_record_finds_the_tracker_by_network_setting():
    """Specs rebuilt from a plan file carry equal, not identical,
    network objects; two settings that compare equal cannot be told
    apart and are refused up front."""
    state = CycleState(["a", "b"], NETWORKS[:2], FAST, base_seed=1)
    specs = state.next_specs()
    rebuilt = [
        type(spec)(
            spec.service_ids,
            NetworkConfig(spec.network.bandwidth_bps),
            spec.config,
            spec.seed,
        )
        for spec in specs
    ]
    state.record(rebuilt, [fake_result(spec) for spec in rebuilt])
    assert [t.trials_done_total() for t in state.trackers] == [30, 30]
    with pytest.raises(ValueError, match="distinct"):
        CycleState(["a", "b"], [NETWORKS[0], NetworkConfig(8000000)], FAST)
