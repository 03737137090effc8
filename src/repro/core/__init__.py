"""The paper's primary contribution: the low-power partitioning algorithm.

* :mod:`repro.core.objective` — the objective function ``OF`` (Fig. 1
  line 13): normalized system energy balanced against hardware effort by
  the designer factor ``F``.
* :mod:`repro.core.partitioner` — the Fig. 1 algorithm: decompose,
  pre-select (Fig. 3), schedule, compute ``U_R^core``/``GEQ_RS`` (Fig. 4),
  estimate energies, pick the best candidate.
* :mod:`repro.core.flow` — the full design flow of Fig. 5, from behavioral
  source to the gate-level-checked partitioned system evaluation.
* :mod:`repro.core.profile` — the flow's front half: ``#ex_times``
  (footnote 14) read off the initial design's ISS run.
* :mod:`repro.core.baselines` — comparison partitioners: the classic
  performance-driven approach of the related work, and a COSYN-style
  average-power allocator.
* :mod:`repro.core.explore` — the parallel design-space exploration
  engine: fans candidate evaluations over a worker pool and memoizes
  every outcome under stable content keys, surviving worker crashes,
  hangs and pool breakage with bounded retries and pool rebuilds.
* :mod:`repro.core.checkpoint` — journaled on-disk evaluation cache and
  resumable sweep checkpoints (``repro explore --checkpoint/--resume``).
* :mod:`repro.core.pareto` — multi-objective frontier analysis over the
  candidates' (energy, GEQ, cycles) vectors: non-dominated filtering,
  knee-point selection and exact hypervolume (``repro pareto``).
* :mod:`repro.core.faults` — deterministic worker-fault injection
  (:class:`FaultPlan`) for testing the engine's recovery paths.
"""

from repro.core.objective import (
    ObjectiveConfig,
    ObjectiveVector,
    objective_value,
)
from repro.core.pareto import (
    ParetoPoint,
    front_report,
    hypervolume,
    knee_point,
    pareto_front,
    reference_point,
)
from repro.core.partitioner import (
    CandidateEvaluation,
    PartitionConfig,
    PartitionDecision,
    Partitioner,
    SweepPrep,
)
from repro.core.profile import (
    ProfileError,
    ProfiledApp,
    profile_app,
    profile_from_sim,
)
from repro.core.flow import AppSpec, FlowResult, LowPowerFlow
from repro.core.iterative import (
    IterativePartitioner,
    IterativeResult,
    IterativeStep,
)
from repro.core.baselines import (
    performance_driven_choice,
    average_power_choice,
)
from repro.core.explore import (
    EvaluationCache,
    ExplorationEngine,
    ExploreReport,
    candidate_cache_key,
)
from repro.core.checkpoint import (
    CheckpointMismatch,
    PersistentEvaluationCache,
    SweepCheckpoint,
    checkpoint_context_key,
)
from repro.core.faults import FaultInjected, FaultPlan, FaultPlanError

__all__ = [
    "ObjectiveConfig",
    "ObjectiveVector",
    "objective_value",
    "ParetoPoint",
    "front_report",
    "hypervolume",
    "knee_point",
    "pareto_front",
    "reference_point",
    "CandidateEvaluation",
    "PartitionConfig",
    "PartitionDecision",
    "Partitioner",
    "SweepPrep",
    "EvaluationCache",
    "ExplorationEngine",
    "ExploreReport",
    "candidate_cache_key",
    "CheckpointMismatch",
    "PersistentEvaluationCache",
    "SweepCheckpoint",
    "checkpoint_context_key",
    "FaultInjected",
    "FaultPlan",
    "FaultPlanError",
    "ProfileError",
    "ProfiledApp",
    "profile_app",
    "profile_from_sim",
    "AppSpec",
    "FlowResult",
    "LowPowerFlow",
    "IterativePartitioner",
    "IterativeResult",
    "IterativeStep",
    "performance_driven_choice",
    "average_power_choice",
]
