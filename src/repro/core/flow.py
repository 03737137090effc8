"""The complete design flow (paper Fig. 5).

``Application -> clusters -> pre-selection -> list schedule -> U_R -> best
OF -> HW synthesis -> gate-level energy  //  rest -> ISS + cache profiler +
analytical models -> total energy -> reduced?``

:class:`LowPowerFlow` drives all of it for one :class:`AppSpec` and returns
a :class:`FlowResult` carrying both the initial and the partitioned system
evaluations — the raw material for Table 1 and Figure 6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.verify import VerificationReport

from repro.core.partitioner import (
    CandidateEvaluation,
    PartitionConfig,
    PartitionDecision,
    Partitioner,
)
from repro.core.profile import profile_app
from repro.isa.image import ProgramImage
from repro.lang.interp import ExecutionProfile
from repro.lang.program import Program, compile_source
from repro.mem.cache import CacheConfig
from repro.obs import NullTracer, Tracer, use_tracer
from repro.power.system import SystemRun, evaluate_partitioned
from repro.synth.datapath import Datapath, build_datapath
from repro.synth.fsm import Controller, build_controller
from repro.synth.gatesim import GateLevelEnergy, estimate_gate_energy
from repro.synth.netlist import Netlist, expand_netlist
from repro.synth.rtl_sim import AsicRunStats, simulate_asic
from repro.tech.library import TechnologyLibrary, cmos6_library


@dataclass
class AppSpec:
    """One application: behavioral source plus its workload binding."""

    name: str
    source: str
    description: str = ""
    args: Tuple[int, ...] = ()
    globals_init: Dict[str, List[int]] = field(default_factory=dict)
    config: Optional[PartitionConfig] = None
    icache: Optional[CacheConfig] = None
    dcache: Optional[CacheConfig] = None
    #: When False, the memory system is not modelled (the paper neglects
    #: caches/memory for its least memory-intensive application, "ckey").
    model_caches: bool = True
    #: Run the IR optimizer (constant folding, copy propagation, strength
    #: reduction, dead-code elimination) before everything else.
    optimize: bool = False

    def compile(self) -> Program:
        program = compile_source(self.source, name=self.name)
        if self.optimize:
            from repro.ir.optimize import optimize_program
            optimize_program(program)
        return program


@dataclass
class FlowResult:
    """Everything the flow produced for one application."""

    app: AppSpec
    program: Program
    profile: ExecutionProfile
    image: ProgramImage
    initial: SystemRun
    decision: PartitionDecision
    best: Optional[CandidateEvaluation] = None
    datapath: Optional[Datapath] = None
    controller: Optional[Controller] = None
    netlist: Optional[Netlist] = None
    gate_energy: Optional[GateLevelEnergy] = None
    asic_stats: Optional[AsicRunStats] = None
    partitioned: Optional[SystemRun] = None
    accepted: bool = False
    #: Cross-layer invariant audit (populated when the flow runs with
    #: ``verify=True``; see :mod:`repro.verify` and docs/VALIDATION.md).
    verification: Optional["VerificationReport"] = None

    @property
    def functional_match(self) -> bool:
        """The partitioned system must compute the same result."""
        if self.partitioned is None:
            return True
        return self.partitioned.result == self.initial.result

    @property
    def energy_savings_percent(self) -> float:
        if self.partitioned is None or self.initial.total_energy_nj == 0:
            return 0.0
        return 100.0 * (1.0 - self.partitioned.total_energy_nj
                        / self.initial.total_energy_nj)

    @property
    def time_change_percent(self) -> float:
        if self.partitioned is None or self.initial.total_cycles == 0:
            return 0.0
        return 100.0 * (self.partitioned.total_cycles
                        / self.initial.total_cycles - 1.0)

    @property
    def asic_cells(self) -> int:
        if self.netlist is not None:
            return self.netlist.total_cells
        return 0

    def summary(self) -> str:
        """A complete human-readable report of this flow run."""
        from repro.power.report import format_table1

        lines = [f"{self.app.name}: {self.app.description or 'application'}"]
        lines.append(
            f"U_uP = {self.decision.up_utilization:.3f}; "
            f"{len(self.decision.preselected)} clusters pre-selected, "
            f"{len(self.decision.candidates)} candidates evaluated, "
            f"{len(self.decision.rejections)} rejected")
        if self.best is None:
            lines.append("no beneficial partition found")
            return "\n".join(lines)
        lines.append(
            f"chosen: {self.best.cluster.name} on "
            f"'{self.best.resource_set.name}' "
            f"(U_R={self.best.utilization:.3f}, {self.asic_cells} cells, "
            f"{self.best.invocations} invocations)")
        if self.gate_energy is not None:
            lines.append(
                f"gate-level ASIC energy: "
                f"{self.gate_energy.total_nj / 1e3:.2f} uJ "
                f"(line-11 estimate "
                f"{self.best.metrics.energy_estimate_nj / 1e3:.2f} uJ)")
        lines.append(format_table1(
            [(self.app.name, self.initial, self.partitioned)]))
        lines.append(
            f"energy {self.energy_savings_percent:+.2f}% saved, "
            f"time {self.time_change_percent:+.2f}%, "
            f"functional match: {self.functional_match}")
        return "\n".join(lines)


class LowPowerFlow:
    """Drives the whole Fig. 5 flow for one application.

    Args:
        library: technology data (defaults to CMOS6).
        config: designer inputs used when the app carries none.
        tracer: observability sink — stage timings and counters land here
            (see ``docs/OBSERVABILITY.md``).
        jobs: when > 1, the candidate sweep fans out over that many worker
            processes via an internally owned
            :class:`~repro.core.explore.ExplorationEngine`.
        cache: a shared :class:`~repro.core.explore.EvaluationCache`; with
            ``jobs == 1`` this enables in-process sweep memoization.
        engine: an externally owned engine to sweep through (overrides
            ``jobs``/``cache``); lets many flows share one worker pool.
        verify: run the :mod:`repro.verify` invariant pass over the
            finished result and attach it as ``FlowResult.verification``
            (see docs/VALIDATION.md).
        collect_traces: capture memory-reference traces during the system
            evaluations so the verifier can cross-check cache accesses
            reference by reference (``mem.trace``); implies extra memory
            proportional to the instruction count.
    """

    def __init__(self, library: Optional[TechnologyLibrary] = None,
                 config: Optional[PartitionConfig] = None,
                 tracer: Optional[Tracer] = None,
                 jobs: int = 1,
                 cache=None,
                 engine=None,
                 verify: bool = False,
                 collect_traces: bool = False) -> None:
        self.library = library or cmos6_library()
        self.config = config
        self.tracer = tracer or NullTracer()
        self.jobs = jobs
        self.cache = cache
        self._engine = engine
        self.verify = verify
        self.collect_traces = collect_traces

    def _sweep_engine(self):
        """The engine backing the candidate sweep, if any is warranted."""
        if self._engine is not None:
            return self._engine
        if self.jobs > 1 or self.cache is not None:
            from repro.core.explore import ExplorationEngine
            self._engine = ExplorationEngine(
                library=self.library, config=self.config, jobs=self.jobs,
                cache=self.cache, tracer=self.tracer)
        return self._engine

    def run(self, app: AppSpec) -> FlowResult:
        """Execute the flow end to end.

        The partitioned evaluation is performed whenever the partitioner
        finds a candidate; ``accepted`` reflects the flow's final test
        ("it is tested whether the total system energy consumption could
        be reduced or not").
        """
        tracer = self.tracer
        with use_tracer(tracer), tracer.span("flow.run"):
            return self._run_traced(app, tracer)

    def _run_traced(self, app: AppSpec, tracer: Tracer) -> FlowResult:
        # Initial ("I") design on the μP core, profiled (#ex_times) off
        # that same ISS run.
        front = profile_app(app, self.library, tracer,
                            collect_trace=self.collect_traces)
        program, image = front.program, front.image
        profile, initial = front.profile, front.initial
        config = app.config or self.config or PartitionConfig()

        partitioner = Partitioner(program, self.library, config)
        engine = self._sweep_engine()
        if engine is not None:
            decision = engine.sweep(partitioner, profile, initial, app=app)
        else:
            decision = partitioner.run(profile, initial)
        result = FlowResult(app=app, program=program, profile=profile,
                            image=image, initial=initial, decision=decision)
        if decision.best is None:
            return self._finish(result, tracer)

        best = decision.best
        result.best = best

        # Fig. 1 line 14: synthesize the winning core.
        with tracer.span("flow.synthesis"):
            cluster_cdfg = program.cdfgs[best.cluster.function]
            result.datapath = build_datapath(
                best.schedules, best.binding, self.library,
                block_ops=best.cluster.schedulable_ops(cluster_cdfg))
            result.controller = build_controller(
                best.schedules,
                loop_counter_count=max(1, len(best.cluster.fsm_ops) // 3))
            result.netlist = expand_netlist(
                result.datapath, result.controller, self.library,
                scratchpad_words=best.scratchpad_words)
            # Line 15: gate-level switching-energy estimation.
            result.gate_energy = estimate_gate_energy(
                result.netlist, best.binding, best.ex_times,
                best.metrics.total_cycles, self.library)

            result.asic_stats = simulate_asic(
                best.schedules, best.ex_times, best.invocations,
                transfer_words_in=best.transfer.total_words_in,
                transfer_words_out=best.transfer.total_words_out)

        # Partitioned ("P") system evaluation.
        with tracer.span("flow.partitioned"):
            result.partitioned = evaluate_partitioned(
                image, self.library,
                hw_blocks=best.hw_blocks,
                asic_stats=result.asic_stats,
                asic_metrics=best.metrics,
                asic_cells=result.netlist.total_cells,
                asic_energy_nj=result.gate_energy.total_nj,
                asic_mem_reads=best.shared_mem_reads,
                asic_mem_writes=best.shared_mem_writes,
                args=app.args, globals_init=app.globals_init,
                icache_cfg=app.icache, dcache_cfg=app.dcache,
                model_caches=app.model_caches,
                collect_trace=self.collect_traces)

        result.accepted = (result.partitioned.total_energy_nj
                           < initial.total_energy_nj)
        return self._finish(result, tracer)

    def _finish(self, result: FlowResult, tracer: Tracer) -> FlowResult:
        """Optionally run the invariant audit before handing back."""
        if self.verify:
            from repro.verify import verify_flow_result
            with tracer.span("flow.verify"):
                result.verification = verify_flow_result(
                    result, self.library)
        return result
