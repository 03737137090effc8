"""Baseline partitioners for comparison.

The related work the paper positions against (refs [4]-[9]) partitions for
*performance* under a hardware-cost budget; ref [11] (COSYN) allocates
tasks using *average* per-PE power numbers rather than utilization-based,
data-dependent estimates.  Both are reproduced here over the same candidate
machinery so the comparison isolates the selection criterion.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.explore import ExplorationEngine
from repro.core.partitioner import CandidateEvaluation, Partitioner
from repro.lang.interp import ExecutionProfile
from repro.obs import get_tracer
from repro.power.system import SystemRun
from repro.synth.rtl_sim import TRANSFER_CYCLES_PER_WORD


def _enumerate_candidates(partitioner: Partitioner,
                          profile: ExecutionProfile,
                          initial: SystemRun) -> List[CandidateEvaluation]:
    """All schedulable (cluster, resource set) pairs under the cell cap —
    without the low-power approach's utilization gate."""
    prep = partitioner.prepare(profile)
    engine = ExplorationEngine(library=partitioner.library,
                               tracer=get_tracer())
    outcomes = engine.evaluate_pairs(
        partitioner, profile, initial,
        prep.pairs(partitioner.config.resource_sets), prep.chains)
    cap = partitioner.config.objective.geq_cap
    return [evaluation for evaluation in outcomes
            if not isinstance(evaluation, str)
            and (cap is None or evaluation.asic_cells <= cap)]


def _estimated_total_cycles(candidate: CandidateEvaluation,
                            initial: SystemRun) -> int:
    """Predicted partitioned execution time (μP + ASIC + transfers)."""
    assert initial.sim is not None
    cluster_cycles = initial.sim.blocks_cycles(candidate.cluster.function,
                                               candidate.cluster.blocks)
    up_cycles = max(0, initial.up_cycles - cluster_cycles)
    asic_cycles = candidate.metrics.total_cycles
    transfer_cycles = (TRANSFER_CYCLES_PER_WORD
                       * candidate.transfer.total_words)
    return up_cycles + asic_cycles + transfer_cycles


def performance_driven_choice(partitioner: Partitioner,
                              profile: ExecutionProfile,
                              initial: SystemRun,
                              ) -> Optional[CandidateEvaluation]:
    """Classic HW/SW partitioning: minimize execution time under the cell
    budget, blind to energy (the refs [4]-[9] objective)."""
    candidates = _enumerate_candidates(partitioner, profile, initial)
    best: Optional[CandidateEvaluation] = None
    best_cycles = initial.total_cycles
    for candidate in candidates:
        cycles = _estimated_total_cycles(candidate, initial)
        if cycles < best_cycles:
            best_cycles = cycles
            best = candidate
    return best


def average_power_choice(partitioner: Partitioner,
                         profile: ExecutionProfile,
                         initial: SystemRun,
                         ) -> Optional[CandidateEvaluation]:
    """COSYN-style allocation (ref [11]): score each candidate with an
    *average* ASIC power instead of the utilization-based, data-dependent
    estimate — the distinction the paper's related-work section draws.

    Average power = mean active power over the whole resource set,
    regardless of how well the schedule actually uses it.
    """
    library = partitioner.library
    candidates = _enumerate_candidates(partitioner, profile, initial)
    best: Optional[CandidateEvaluation] = None
    best_energy = None
    for candidate in candidates:
        specs = [library.spec(inst.kind) for inst in candidate.binding.instances]
        if not specs:
            continue
        # Average power of the PE, applied to the full execution time.
        avg_power_mw = sum(s.p_av_mw for s in specs)
        time_ns = candidate.metrics.total_cycles * max(
            (s.t_cyc_ns for s in specs), default=0.0)
        asic_energy_nj = avg_power_mw * time_ns / 1000.0  # mW*ns = pJ
        total = asic_energy_nj + candidate.e_up_nj + candidate.e_rest_nj
        if best_energy is None or total < best_energy:
            best_energy = total
            best = candidate
    return best
