"""The low-power partitioning algorithm (paper Fig. 1).

Steps, mapped to the pseudo code:

1.  the graph ``G`` is the program's CDFGs (built by the frontend);
2.  ``decompose_into_cluster`` — :func:`repro.cluster.decompose_into_clusters`;
3/4. per-cluster bus-transfer energy — :func:`repro.cluster.estimate_transfers`;
5.  ``pre-select`` — :func:`repro.cluster.preselect_clusters` with ``N_max^c``;
6/7. loop over pre-selected clusters x designer resource sets;
8.  ``do_list_schedule`` — :func:`repro.sched.list_schedule` per block;
9.  ``U_R^core > U_uP^core`` — Fig. 4 via :func:`repro.sched.bind_schedule`
     and :func:`repro.sched.cluster_metrics` against the ISS-measured μP
     utilization;
11. ``E_R^core`` — the line-11 estimate from the binding;
12. ``E_uP^core`` — initial μP energy minus the ISS's per-block attribution
     of the cluster;
13. ``OF`` — :func:`repro.core.objective.objective_value` with ``E_rest``
     scaled from the initial run's cache/memory/bus energies.

The loop of steps 6/7 is :meth:`repro.core.explore.ExplorationEngine.sweep`:
it runs :meth:`Partitioner.prepare` (steps 2-5), prices each pair with
:meth:`Partitioner.evaluate_candidate` (lines 8-13) and hands the outcomes
to :meth:`Partitioner.decide` (the line-9 filter and the best ``OF``).  The
best-``OF`` candidate proceeds to synthesis and gate-level estimation
(lines 14/15, in :mod:`repro.core.flow`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.cluster.cluster import Cluster, decompose_into_clusters
from repro.cluster.preselect import (
    TransferEstimate,
    estimate_transfers,
    preselect_clusters,
)
from repro.core.objective import (
    ObjectiveConfig,
    ObjectiveVector,
    objective_value,
)
from repro.lang.interp import ExecutionProfile
from repro.lang.program import Program
from repro.obs import get_tracer
from repro.power.system import SystemRun
from repro.sched.asic_memory import (
    local_buffer_words,
    make_latency_fn,
    shared_memory_traffic,
)
from repro.sched.binding import BindingResult, bind_schedule
from repro.sched.list_scheduler import (
    ChainingModel,
    Schedule,
    list_schedule,
)
from repro.sched.utilization import ClusterMetrics, cluster_metrics
from repro.synth.datapath import build_datapath
from repro.synth.fsm import build_controller
from repro.synth.netlist import SCRATCHPAD_CELLS_PER_WORD
from repro.tech.library import TechnologyLibrary
from repro.tech.resources import ResourceSet, default_resource_sets


@dataclass
class PartitionConfig:
    """Designer inputs to the partitioning process.

    The paper emphasizes "manifold possibilities of interaction": the
    resource sets (3-5 reference allocations), the cluster budget
    ``N_max^c``, and the objective parameters are all designer-set.
    """

    resource_sets: List[ResourceSet] = field(default_factory=default_resource_sets)
    n_max_clusters: int = 8
    #: Minimum profiled datapath-op executions a cluster must contain to be
    #: considered — stray scalar fragments are never worth an ASIC core.
    min_cluster_dynamic_ops: int = 64
    #: Enable operator chaining in the ASIC schedules (dependent
    #: single-cycle operations sharing a control step when their delays fit
    #: the clock period).  Off by default — the paper uses a simple list
    #: schedule; see benchmarks/bench_ablation_chaining.py.
    use_chaining: bool = False
    objective: ObjectiveConfig = field(default_factory=ObjectiveConfig)


@dataclass
class CandidateEvaluation:
    """One (cluster, resource set) pair's full evaluation."""

    cluster: Cluster
    resource_set: ResourceSet
    schedules: Dict[str, Schedule]
    binding: BindingResult
    metrics: ClusterMetrics
    transfer: TransferEstimate
    invocations: int
    ex_times: Dict[str, int]
    asic_cells: int
    e_r_nj: float
    e_up_nj: float
    e_rest_nj: float
    objective: float
    shared_mem_reads: int = 0
    shared_mem_writes: int = 0
    scratchpad_words: int = 0
    #: Estimated system execution cycles of the partitioned design:
    #: the μP's remaining cycles plus the ASIC core's ``N_cyc^c``.
    est_cycles: int = 0

    @property
    def utilization(self) -> float:
        return self.metrics.utilization

    @property
    def vector(self) -> ObjectiveVector:
        """The (energy, GEQ, cycles) multi-objective view of this pair."""
        return ObjectiveVector(
            energy_nj=self.e_r_nj + self.e_up_nj + self.e_rest_nj,
            geq=self.asic_cells,
            # getattr: evaluations unpickled from a pre-vector checkpoint
            # journal lack the field entirely.
            cycles=getattr(self, "est_cycles", 0))

    @property
    def hw_blocks(self) -> Set[Tuple[str, str]]:
        blocks = {(self.cluster.function, b) for b in self.cluster.blocks}
        if self.cluster.kind == "function":
            blocks.add((self.cluster.function, "__prologue"))
            blocks.add((self.cluster.function, "__epilogue"))
        return blocks


@dataclass
class PartitionDecision:
    """Outcome of the Fig. 1 search."""

    best: Optional[CandidateEvaluation]
    candidates: List[CandidateEvaluation]
    preselected: List[Cluster]
    all_clusters: List[Cluster]
    rejections: List[Tuple[str, str, str]]  # (cluster, set, reason)
    up_utilization: float
    initial_objective: float

    @property
    def examined(self) -> int:
        return len(self.candidates) + len(self.rejections)


@dataclass
class SweepPrep:
    """Precomputed inputs of one Fig. 1 candidate sweep.

    Produced by :meth:`Partitioner.prepare`, once per search.
    :meth:`repro.core.explore.ExplorationEngine.evaluate_pairs` evaluates
    ``pairs`` (or a filtered subset, as the multi-core iteration and the
    baseline selectors do) against ``chains``; in-process or on workers,
    the outcomes come back in pair order, so decisions are bit-identical.
    """

    all_clusters: List[Cluster]
    preselected: List[Cluster]
    chains: Dict[str, List[Cluster]]

    def pairs(self, resource_sets: List[ResourceSet]
              ) -> List[Tuple[Cluster, ResourceSet]]:
        """The (cluster, resource set) grid in canonical sweep order."""
        return [(cluster, resource_set)
                for cluster in self.preselected
                for resource_set in resource_sets]


class Partitioner:
    """The Fig. 1 search steps for one profiled program.

    ``prepare`` builds the candidate grid, ``evaluate_candidate`` prices
    one pair and ``decide`` filters and ranks the outcomes; the sweep
    itself is :meth:`repro.core.explore.ExplorationEngine.sweep`.
    """

    def __init__(self, program: Program, library: TechnologyLibrary,
                 config: Optional[PartitionConfig] = None) -> None:
        self.program = program
        self.library = library
        self.config = config or PartitionConfig()

    # ------------------------------------------------------------------

    def _block_counts(self, profile: ExecutionProfile,
                      function: str) -> Dict[str, int]:
        cdfg = self.program.cdfgs[function]
        return {name: profile.block_count(function, name)
                for name in cdfg.blocks}

    def _cluster_invocations(self, cluster: Cluster,
                             profile: ExecutionProfile) -> int:
        cdfg = self.program.cdfgs[cluster.function]
        if cluster.kind == "function":
            return profile.call_counts.get(cluster.function, 0)
        return cluster.invocations(self._block_counts(profile,
                                                      cluster.function), cdfg)

    # ------------------------------------------------------------------

    def evaluate_candidate(self, cluster: Cluster,
                           resource_set: ResourceSet,
                           profile: ExecutionProfile,
                           initial: SystemRun,
                           hw_clusters: frozenset = frozenset(),
                           *, chain: List[Cluster],
                           ) -> CandidateEvaluation:
        """Evaluate one (cluster, resource set) pair; raises
        :class:`~repro.sched.list_scheduler.ScheduleError` when the set
        cannot execute the cluster.  ``chain`` is the cluster's function's
        decomposition, ``SweepPrep.chains[cluster.function]``."""
        cdfg = self.program.cdfgs[cluster.function]
        schedulable = cluster.schedulable_ops(cdfg)
        array_sizes = dict(self.program.global_arrays)
        array_sizes.update(cdfg.arrays)
        latency_of = make_latency_fn(array_sizes, self.library)
        chaining = ChainingModel() if self.config.use_chaining else None
        schedules = {name: list_schedule(ops, resource_set,
                                         latency_of=latency_of,
                                         chaining=chaining)
                     for name, ops in schedulable.items()}
        binding = bind_schedule(schedules, self.library)
        ex_times = self._block_counts(profile, cluster.function)
        metrics = cluster_metrics(binding, ex_times, self.library)
        shared_reads, shared_writes = shared_memory_traffic(
            schedulable, ex_times, array_sizes, self.library)
        scratchpad = local_buffer_words(schedulable, array_sizes, self.library)

        invocations = self._cluster_invocations(cluster, profile)
        transfer = estimate_transfers(cluster, chain, self.program,
                                      self.library, hw_clusters=hw_clusters,
                                      invocations=invocations)

        datapath = build_datapath(schedules, binding, self.library,
                                  block_ops=schedulable)
        controller = build_controller(
            schedules, loop_counter_count=max(1, len(cluster.fsm_ops) // 3))
        asic_cells = (datapath.geq + controller.geq
                      + SCRATCHPAD_CELLS_PER_WORD * scratchpad)

        # Fig. 1 line 11: ASIC energy estimate, plus the shared-memory
        # traffic its oversized arrays imply.
        e_r_nj = metrics.energy_estimate_nj + (
            shared_reads * (self.library.mem_read_energy_nj
                            + self.library.bus_read_energy_nj)
            + shared_writes * (self.library.mem_write_energy_nj
                               + self.library.bus_write_energy_nj))
        # Line 12: remaining μP energy = initial minus the cluster's share.
        assert initial.sim is not None
        cluster_up_nj = initial.sim.blocks_energy_nj(cluster.function,
                                                     cluster.blocks)
        e_up_nj = max(0.0, initial.energy.up_core_nj - cluster_up_nj)
        # E_rest: other cores, scaled by the μP's remaining activity, plus
        # the candidate's transfer energy (Fig. 3).
        rest_initial = (initial.energy.icache_nj + initial.energy.dcache_nj
                        + initial.energy.mem_nj + initial.energy.bus_nj)
        cluster_cycles = initial.sim.blocks_cycles(cluster.function,
                                                   cluster.blocks)
        remaining_fraction = 1.0
        if initial.up_cycles > 0:
            remaining_fraction = max(
                0.0, 1.0 - cluster_cycles / initial.up_cycles)
        e_rest_nj = rest_initial * remaining_fraction + transfer.energy_nj
        # Execution-cycle estimate for the objective vector: the μP keeps
        # running everything outside the cluster, the ASIC core executes
        # the cluster in N_cyc^c (transfer stalls are priced in energy,
        # not cycles — matching the line-11/12 energy split above).
        est_cycles = (max(0, initial.up_cycles - cluster_cycles)
                      + metrics.total_cycles)

        objective = objective_value(
            e_r_nj + e_up_nj + e_rest_nj,
            e0_nj=initial.total_energy_nj,
            geq=asic_cells,
            config=self.config.objective,
        )
        return CandidateEvaluation(
            cluster=cluster, resource_set=resource_set, schedules=schedules,
            binding=binding, metrics=metrics, transfer=transfer,
            invocations=invocations, ex_times=ex_times,
            asic_cells=asic_cells, e_r_nj=e_r_nj, e_up_nj=e_up_nj,
            e_rest_nj=e_rest_nj, objective=objective,
            shared_mem_reads=shared_reads, shared_mem_writes=shared_writes,
            scratchpad_words=scratchpad, est_cycles=est_cycles,
        )

    # ------------------------------------------------------------------

    def prepare(self, profile: ExecutionProfile) -> SweepPrep:
        """Fig. 1 steps 2-5: decompose, estimate transfers, pre-select."""
        tracer = get_tracer()
        with tracer.span("partition.prepare"):
            all_clusters = decompose_into_clusters(self.program)
            preselected = preselect_clusters(
                all_clusters, self.program, profile, self.library,
                n_max=self.config.n_max_clusters,
                min_dynamic_ops=self.config.min_cluster_dynamic_ops)
            chains: Dict[str, List[Cluster]] = {}
            for cluster in all_clusters:
                chains.setdefault(cluster.function, []).append(cluster)
        tracer.count("cluster.decomposed", len(all_clusters))
        tracer.count("cluster.preselected", len(preselected))
        return SweepPrep(all_clusters=all_clusters, preselected=preselected,
                         chains=chains)

    def decide(self, outcomes: List[Tuple[Cluster, ResourceSet, object]],
               prep: SweepPrep, initial: SystemRun) -> PartitionDecision:
        """Fig. 1 lines 9-13: filter and rank evaluated candidates.

        ``outcomes`` holds, per sweep pair *in canonical order*, either the
        :class:`CandidateEvaluation` or a rejection-reason string (a
        failed schedule).  Keeping the filtering/ranking here — and only
        here — guarantees every sweep (serial or parallel, single- or
        multi-core) filters identically.
        """
        tracer = get_tracer()
        config = self.config
        u_up = initial.up_utilization
        candidates: List[CandidateEvaluation] = []
        rejections: List[Tuple[str, str, str]] = []

        for cluster, resource_set, outcome in outcomes:
            if isinstance(outcome, str):
                rejections.append((cluster.name, resource_set.name, outcome))
                tracer.count("explore.rejected.schedule")
                continue
            evaluation = outcome
            # Fig. 1 line 9: the ASIC must beat the μP's utilization.
            if evaluation.utilization <= u_up:
                rejections.append((cluster.name, resource_set.name,
                                   f"U_R {evaluation.utilization:.3f} <= "
                                   f"U_uP {u_up:.3f}"))
                tracer.count("explore.rejected.utilization")
                continue
            cap = config.objective.geq_cap
            if cap is not None and evaluation.asic_cells > cap:
                rejections.append((cluster.name, resource_set.name,
                                   f"{evaluation.asic_cells} cells over "
                                   f"cap {cap}"))
                tracer.count("explore.rejected.cap")
                continue
            candidates.append(evaluation)

        initial_objective = objective_value(
            initial.total_energy_nj, e0_nj=initial.total_energy_nj,
            geq=0, config=config.objective)

        best: Optional[CandidateEvaluation] = None
        for candidate in candidates:
            if best is None or candidate.objective < best.objective:
                best = candidate
        # Only partition when the objective actually improves.
        if best is not None and best.objective >= initial_objective:
            best = None

        return PartitionDecision(
            best=best, candidates=candidates, preselected=prep.preselected,
            all_clusters=prep.all_clusters, rejections=rejections,
            up_utilization=u_up, initial_objective=initial_objective,
        )
