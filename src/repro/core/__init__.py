"""The Prudentia watchdog: the paper's primary contribution.

Experiment orchestration (all-pairs round-robin scheduling, the
CI-of-the-median trial policy, solo calibration), fairness metrics
(max-min fair share), persistence, and report generation.
"""

from .mmf import max_min_allocation, pair_allocation
from .metrics import (
    mmf_share,
    jains_fairness_index,
    harm,
)
from .stats import (
    median,
    iqr,
    bootstrap_median_ci,
    derive_bootstrap_seed,
    TrialSummary,
    summarize_trials,
)
from .testbed import Testbed
from .experiment import (
    ExperimentResult,
    run_multi_experiment,
    run_pair_experiment,
    run_solo_experiment,
)
from .sweep import (
    SweepPoint,
    render_sweep,
    run_sweep,
)
from .cache import TrialCache, trial_cache_key
from .runner import (
    CacheMissError,
    ExecutionBackend,
    InlineBackend,
    ProcessPoolBackend,
    RunnerStats,
    TrialSpec,
    build_backend,
    replay,
    run_trial,
)
from .experiment import derive_service_seed
from .policy import (
    PolicyDecision,
    TrialPolicy,
    VERDICT_CONVERGED,
    VERDICT_OPEN,
    VERDICT_UNSTABLE,
)
from .convergence import ConvergenceTracker, CycleState, PairState
from .artifacts import ArtifactPublisher, PublishedExperiment
from .calibration import SoloCalibration, calibrate_catalog
from .results import ResultStore
from .watchdog import Prudentia
from .submission import SubmissionPortal, Submission
from .report import FairnessReport

__all__ = [
    "max_min_allocation",
    "pair_allocation",
    "mmf_share",
    "jains_fairness_index",
    "harm",
    "median",
    "iqr",
    "bootstrap_median_ci",
    "derive_bootstrap_seed",
    "TrialSummary",
    "summarize_trials",
    "Testbed",
    "ExperimentResult",
    "run_multi_experiment",
    "run_pair_experiment",
    "run_solo_experiment",
    "SweepPoint",
    "render_sweep",
    "run_sweep",
    "TrialSpec",
    "TrialCache",
    "trial_cache_key",
    "CacheMissError",
    "ExecutionBackend",
    "InlineBackend",
    "ProcessPoolBackend",
    "RunnerStats",
    "build_backend",
    "replay",
    "run_trial",
    "derive_service_seed",
    "TrialPolicy",
    "PolicyDecision",
    "VERDICT_OPEN",
    "VERDICT_CONVERGED",
    "VERDICT_UNSTABLE",
    "ConvergenceTracker",
    "CycleState",
    "PairState",
    "ArtifactPublisher",
    "PublishedExperiment",
    "SoloCalibration",
    "calibrate_catalog",
    "ResultStore",
    "Prudentia",
    "SubmissionPortal",
    "Submission",
    "FairnessReport",
]
