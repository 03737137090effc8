"""Iterative multi-core partitioning (the paper's Eq. 3 generalized).

The paper's experiments map one cluster to one ASIC core, but its
formulation is N-core ("deploy an *additional* core ... such that
``sum_i E_core_i <= E_initial``", Eq. 3) and the Fig. 3 estimator carries
synergy corrections whose whole purpose is pricing a cluster *given* that
neighbours are already in hardware.  This module closes that loop: a
greedy outer iteration that repeatedly runs the Fig. 1 search, commits the
best cluster, and re-prices the remaining candidates with the committed
set in ``hw_clusters`` — until no candidate improves the evaluated system
energy.

This mirrors the paper's own interactive loop (Fig. 5: "If 'not' then the
whole procedure can be repeated").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.cluster.cluster import Cluster, decompose_into_clusters
from repro.cluster.preselect import preselect_clusters
from repro.core.flow import AppSpec
from repro.core.partitioner import (
    CandidateEvaluation,
    PartitionConfig,
    Partitioner,
)
from repro.core.profile import profile_app
from repro.lang.interp import ExecutionProfile
from repro.power.system import SystemRun, evaluate_partitioned
from repro.sched.list_scheduler import ScheduleError
from repro.sched.utilization import ClusterMetrics
from repro.synth.rtl_sim import AsicRunStats, simulate_asic
from repro.tech.library import TechnologyLibrary, cmos6_library


@dataclass
class IterativeStep:
    """One committed core of the greedy iteration."""

    candidate: CandidateEvaluation
    asic_stats: AsicRunStats
    system: SystemRun        # evaluated system with all cores so far
    energy_before_nj: float  # system energy before committing this core


@dataclass
class IterativeResult:
    """Outcome of the multi-core partitioning loop."""

    app: AppSpec
    initial: SystemRun
    steps: List[IterativeStep] = field(default_factory=list)

    @property
    def final(self) -> SystemRun:
        return self.steps[-1].system if self.steps else self.initial

    @property
    def cores(self) -> List[CandidateEvaluation]:
        return [step.candidate for step in self.steps]

    @property
    def total_asic_cells(self) -> int:
        return sum(step.candidate.asic_cells for step in self.steps)

    @property
    def energy_savings_percent(self) -> float:
        if self.initial.total_energy_nj == 0:
            return 0.0
        return 100.0 * (1.0 - self.final.total_energy_nj
                        / self.initial.total_energy_nj)

    @property
    def functional_match(self) -> bool:
        return all(step.system.result == self.initial.result
                   for step in self.steps)


def _combine_stats(stats: List[AsicRunStats]) -> AsicRunStats:
    """Aggregate the per-core run statistics of all committed cores."""
    return AsicRunStats(
        compute_cycles=sum(s.compute_cycles for s in stats),
        handshake_cycles=sum(s.handshake_cycles for s in stats),
        transfer_cycles=sum(s.transfer_cycles for s in stats),
        invocations=sum(s.invocations for s in stats),
        transfer_words_in=sum(s.transfer_words_in for s in stats),
        transfer_words_out=sum(s.transfer_words_out for s in stats),
    )


def _combine_metrics(candidates: List[CandidateEvaluation]) -> ClusterMetrics:
    """Cycle-weighted aggregate utilization across the committed cores."""
    total_cycles = sum(c.metrics.total_cycles for c in candidates)
    if total_cycles:
        utilization = sum(c.metrics.utilization * c.metrics.total_cycles
                          for c in candidates) / total_cycles
        weighted = sum(
            c.metrics.utilization_size_weighted * c.metrics.total_cycles
            for c in candidates) / total_cycles
    else:
        utilization = weighted = 0.0
    return ClusterMetrics(
        total_cycles=total_cycles,
        utilization=utilization,
        utilization_size_weighted=weighted,
        geq=sum(c.metrics.geq for c in candidates),
        energy_estimate_nj=sum(c.metrics.energy_estimate_nj
                               for c in candidates),
        energy_detailed_nj=sum(c.metrics.energy_detailed_nj
                               for c in candidates),
        clock_ns=max((c.metrics.clock_ns for c in candidates), default=0.0),
    )


class IterativePartitioner:
    """Greedy multi-core extension of the Fig. 1 search.

    Args:
        library: technology data (defaults to CMOS6).
        config: designer inputs, shared by every iteration.
        max_cores: upper bound on ASIC cores to commit.
        min_improvement: relative system-energy gain a new core must
            deliver to be committed (stops the greedy loop).
        engine: an :class:`~repro.core.explore.ExplorationEngine` to
            evaluate candidates through — its memoization cache makes the
            first greedy pass free when a plain flow/sweep already priced
            the same candidates, and its worker pool parallelizes each
            pass's grid.
    """

    def __init__(self, library: Optional[TechnologyLibrary] = None,
                 config: Optional[PartitionConfig] = None,
                 max_cores: int = 3,
                 min_improvement: float = 0.01,
                 engine=None) -> None:
        if max_cores < 1:
            raise ValueError(f"max_cores must be >= 1, got {max_cores}")
        if not 0.0 <= min_improvement < 1.0:
            raise ValueError(
                f"min_improvement must be in [0, 1), got {min_improvement}")
        self.library = library or cmos6_library()
        self.config = config
        self.max_cores = max_cores
        self.min_improvement = min_improvement
        self.engine = engine

    # ------------------------------------------------------------------

    def _blocks_overlap(self, cluster: Cluster,
                        taken: Set[Tuple[str, str]]) -> bool:
        return any((cluster.function, block) in taken
                   for block in cluster.blocks)

    def _search_next(self, partitioner: Partitioner,
                     profile: ExecutionProfile,
                     initial: SystemRun,
                     hw_names: FrozenSet[str],
                     taken_blocks: Set[Tuple[str, str]],
                     app: Optional[AppSpec] = None,
                     ) -> Optional[CandidateEvaluation]:
        """One Fig. 1 search pass, pricing transfers against the committed
        set and skipping clusters overlapping already-mapped blocks."""
        program = partitioner.program
        config = partitioner.config
        clusters = decompose_into_clusters(program)
        chains: Dict[str, List[Cluster]] = {}
        for cluster in clusters:
            chains.setdefault(cluster.function, []).append(cluster)
        preselected = preselect_clusters(
            clusters, program, profile, self.library,
            n_max=config.n_max_clusters,
            min_dynamic_ops=config.min_cluster_dynamic_ops)

        pairs = [(cluster, resource_set)
                 for cluster in preselected
                 if cluster.name not in hw_names
                 and not self._blocks_overlap(cluster, taken_blocks)
                 for resource_set in config.resource_sets]
        outcomes = self._evaluate_pairs(partitioner, profile, initial,
                                        pairs, chains, hw_names, app)

        best: Optional[CandidateEvaluation] = None
        for (cluster, resource_set), outcome in zip(pairs, outcomes):
            if isinstance(outcome, str) or outcome is None:
                continue
            evaluation = outcome
            if evaluation.utilization <= initial.up_utilization:
                continue
            cap = config.objective.geq_cap
            if cap is not None and evaluation.asic_cells > cap:
                continue
            if best is None or evaluation.objective < best.objective:
                best = evaluation
        return best

    def _evaluate_pairs(self, partitioner: Partitioner,
                        profile: ExecutionProfile, initial: SystemRun,
                        pairs, chains, hw_names: FrozenSet[str],
                        app: Optional[AppSpec]) -> List[object]:
        """Evaluate the pass's grid — through the engine when one is set
        (cached, possibly parallel), inline otherwise."""
        if self.engine is not None:
            return self.engine.evaluate_pairs(
                partitioner, profile, initial, pairs, chains,
                hw_clusters=hw_names, app=app)
        outcomes: List[object] = []
        for cluster, resource_set in pairs:
            try:
                outcomes.append(partitioner.evaluate_candidate(
                    cluster, resource_set, profile, initial,
                    hw_clusters=hw_names,
                    chain=chains[cluster.function]))
            except ScheduleError as exc:
                outcomes.append(str(exc))
        return outcomes

    # ------------------------------------------------------------------

    def run(self, app: AppSpec) -> IterativeResult:
        """Run the greedy multi-core loop on one application."""
        front = profile_app(app, self.library)
        image, profile, initial = front.image, front.profile, front.initial
        partitioner = Partitioner(front.program, self.library,
                                  app.config or self.config)

        result = IterativeResult(app=app, initial=initial)
        hw_names: FrozenSet[str] = frozenset()
        taken_blocks: Set[Tuple[str, str]] = set()
        committed: List[CandidateEvaluation] = []
        stats_list: List[AsicRunStats] = []
        current_energy = initial.total_energy_nj

        while len(committed) < self.max_cores:
            candidate = self._search_next(partitioner, profile, initial,
                                          hw_names, taken_blocks, app=app)
            if candidate is None:
                break

            stats = simulate_asic(
                candidate.schedules, candidate.ex_times,
                candidate.invocations,
                transfer_words_in=candidate.transfer.total_words_in,
                transfer_words_out=candidate.transfer.total_words_out)
            trial_committed = committed + [candidate]
            trial_stats = stats_list + [stats]
            hw_blocks = set().union(*(c.hw_blocks for c in trial_committed))
            system = evaluate_partitioned(
                image, self.library,
                hw_blocks=hw_blocks,
                asic_stats=_combine_stats(trial_stats),
                asic_metrics=_combine_metrics(trial_committed),
                asic_cells=sum(c.asic_cells for c in trial_committed),
                asic_mem_reads=sum(c.shared_mem_reads
                                   for c in trial_committed),
                asic_mem_writes=sum(c.shared_mem_writes
                                    for c in trial_committed),
                args=app.args, globals_init=app.globals_init,
                icache_cfg=app.icache, dcache_cfg=app.dcache,
                model_caches=app.model_caches)

            gain = 1.0 - system.total_energy_nj / current_energy
            if gain < self.min_improvement:
                break

            committed = trial_committed
            stats_list = trial_stats
            result.steps.append(IterativeStep(
                candidate=candidate, asic_stats=stats,
                system=system, energy_before_nj=current_energy))
            current_energy = system.total_energy_nj
            hw_names = frozenset(c.cluster.name for c in committed)
            taken_blocks = {(c.cluster.function, b)
                            for c in committed for b in c.cluster.blocks}

        return result
