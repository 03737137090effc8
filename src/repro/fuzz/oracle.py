"""The differential oracle stack: six checks, one verdict.

For one :class:`~repro.fuzz.generator.FuzzProgram` the stack runs:

1. the CDFG **interpreter** (:class:`repro.lang.Interpreter`) — the
   semantic model of record;
2. the **reference ISS** (``Simulator(engine="reference")``) — checked
   against the interpreter for results and final memory state;
3. the **compiled-block ISS engine** (``engine="compiled"``) — checked
   against the reference engine for *bit-identical observables*: result,
   cycles, instruction counts, float energies, per-block attribution,
   cache/bus/memory counters and the memory-reference trace;
4. the **ISS-derived profile** (:func:`repro.core.profile.profile_from_sim`
   on the compiled engine's run) — checked against the interpreter's
   :class:`~repro.lang.ExecutionProfile` field for field, since the flow
   takes ``#ex_times`` from the ISS run;
5. the **priced record** — the compiled engine's execution record,
   priced under a partition derived from the program (every other block
   label in hardware, :func:`derived_partition`), checked against a
   hardware-shadow run of the reference engine on the same observables
   as stage 3, including the trace (the priced record's is a view of it,
   as a trace-collecting partitioned evaluation attaches);
6. periodically, the **full partitioning flow** under the
   :mod:`repro.verify` invariant audit (``LowPowerFlow(verify=True,
   collect_traces=True)``) — results must match the interpreter, the
   partitioned system must be functionally identical, and the audit must
   report zero ERROR findings.

Any disagreement is classified as a :class:`Mismatch` whose ``kind`` is
stable under shrinking — the shrinker only accepts reductions that keep
the same classification.

Deliberate bug injection (:data:`KNOWN_BUGS`) wires subtly wrong
semantics into exactly one layer, so the harness itself — detection,
classification, shrinking, exit codes — is testable end to end.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.profile import ProfileError, profile_from_sim
from repro.isa.image import ProgramImage, link_program
from repro.isa.instructions import Opcode
from repro.isa.simcompile import ExecutionRecord
from repro.isa.simulator import SimError, Simulator
from repro.lang import InterpError, Interpreter, compile_source
from repro.lang.program import Program
from repro.mem.bus import SharedBus
from repro.mem.cache import Cache, CacheConfig
from repro.mem.main_memory import MainMemory
from repro.mem.trace import MemoryTrace
from repro.tech.library import TechnologyLibrary, cmos6_library

#: Named cache geometries the oracle cycles through (the coverage signal
#: records which ones a campaign exercised).  ``None`` entries disable
#: the memory system entirely (the paper's ckey configuration).
CACHE_GEOMETRIES: Dict[str, Optional[Tuple[CacheConfig, CacheConfig]]] = {
    "none": None,
    "default": (CacheConfig(size_bytes=2048, line_bytes=16, associativity=2,
                            miss_penalty=8),
                CacheConfig(size_bytes=1024, line_bytes=16, associativity=2,
                            miss_penalty=8)),
    "direct-small": (CacheConfig(size_bytes=512, line_bytes=16,
                                 associativity=1, miss_penalty=6),
                     CacheConfig(size_bytes=256, line_bytes=16,
                                 associativity=1, miss_penalty=6)),
    "tiny-4way": (CacheConfig(size_bytes=256, line_bytes=8, associativity=4,
                              miss_penalty=12),
                  CacheConfig(size_bytes=128, line_bytes=8, associativity=4,
                              miss_penalty=12)),
}

#: SimResult fields compared between the compiled and reference engines.
_ENGINE_FIELDS = ("result", "cycles", "instructions", "energy_nj",
                  "stall_cycles", "taken_branches", "hw_instructions",
                  "hw_entries", "block_cycles", "block_energy_nj",
                  "block_counts", "resource_active_cycles", "pc_counts")

#: ExecutionProfile fields compared between the interpreter and the ISS.
_PROFILE_FIELDS = ("block_counts", "call_counts", "steps", "op_counts",
                   "result")


@dataclass(frozen=True)
class Mismatch:
    """One classified disagreement between two layers of the stack."""

    #: Stable classification id, e.g. ``"result.iss"`` or
    #: ``"engine.counter:cycles"`` — the shrinker preserves this.
    kind: str
    #: Which pair disagreed, e.g. ``"interp vs iss-reference"``.
    parties: str
    #: Human-readable one-liner with the offending values.
    detail: str


@dataclass
class OracleOutcome:
    """Everything one oracle pass observed for one program."""

    program_name: str
    #: ``"ok"``, ``"mismatch"`` or ``"skip"`` (interpreter-side fault —
    #: by-construction programs never take this path, but shrinker
    #: intermediates may).
    status: str = "ok"
    mismatches: List[Mismatch] = field(default_factory=list)
    #: IR op kinds dynamically executed (names, sorted).
    op_kinds: Tuple[str, ...] = ()
    #: Cache geometry name this pass ran under.
    geometry: str = "none"
    #: Scheduler-path features observed by the full-flow check (empty
    #: when the flow stage did not run).
    flow_paths: Tuple[str, ...] = ()
    #: Whether the full-flow stage ran.
    flow_checked: bool = False
    interp_result: Optional[int] = None
    interp_steps: int = 0

    @property
    def failed(self) -> bool:
        return self.status == "mismatch"

    @property
    def kinds(self) -> Tuple[str, ...]:
        """Classification ids, sorted and deduplicated."""
        return tuple(sorted({m.kind for m in self.mismatches}))


@dataclass
class OracleConfig:
    """Knobs for one :class:`OracleStack`."""

    #: Interpreter fuel (CDFG operations).
    max_interp_steps: int = 2_000_000
    #: ISS fuel (dynamic instructions).
    max_instructions: int = 40_000_000
    #: Compare full memory-reference traces when the reference run stayed
    #: under this many instructions (tracing is memory-proportional).
    trace_instruction_limit: int = 200_000
    #: Run the full partition flow + verifier on this program.
    run_flow: bool = False
    #: Deliberate bug to inject (a :data:`KNOWN_BUGS` key) or None.
    inject_bug: Optional[str] = None


# ---------------------------------------------------------------------------
# Deliberate bug injection
# ---------------------------------------------------------------------------

def _swap_sub_operands(sim: Simulator) -> None:
    """Decode-layer bug: SUB computes ``rs2 - rs1``."""
    for pc, op in enumerate(sim._opcode):
        if op is Opcode.SUB:
            sim._rs1[pc], sim._rs2[pc] = sim._rs2[pc], sim._rs1[pc]


def _bump_main_label_count(image: ProgramImage, counts: List[int]) -> None:
    """Profile bug: the count at ``main``'s first block label is one high."""
    pc = next(pc for label, pc in image.labels["main"].items()
              if not label.startswith("__"))
    counts[pc] += 1


def _hw_blocks_set_class(sim: Simulator) -> None:
    """Pricing bug: hardware blocks update the previous class."""
    sim._class_chain = lambda hw_blocks: hw_blocks | ~hw_blocks


class _ShrMask15Interpreter(Interpreter):
    """Interpreter bug: logical shifts mask the amount to 4 bits."""

    @staticmethod
    def _alu(kind, op, env):
        from repro.ir.ops import OpKind
        from repro.lang.interp import wrap32
        if kind is OpKind.SHR:
            a = env[op.operands[0]]
            b = env[op.operands[1]] if len(op.operands) > 1 else 0
            return wrap32((a & 0xFFFFFFFF) >> (b & 15))
        return Interpreter._alu(kind, op, env)


@dataclass(frozen=True)
class InjectedBug:
    """One deliberately wrong semantic, wired into exactly one layer."""

    name: str
    description: str
    #: Mutates an ISS simulator before it runs; ``engines`` limits which.
    mutate_iss: Optional[Callable[[Simulator], None]] = None
    engines: Tuple[str, ...] = ("reference", "compiled")
    #: Replacement interpreter class.
    interpreter_cls: type = Interpreter
    #: Mutates a copy of the per-pc counts the ISS profile is read from.
    mutate_counts: Optional[Callable[[ProgramImage, List[int]], None]] = None


#: Registry of injectable bugs (``repro fuzz --inject-bug NAME``).
KNOWN_BUGS: Dict[str, InjectedBug] = {
    bug.name: bug for bug in (
        InjectedBug(
            name="iss-sub-swap",
            description="both ISS engines decode SUB with swapped operands "
                        "(disagrees with the interpreter)",
            mutate_iss=_swap_sub_operands),
        InjectedBug(
            name="compiled-sub-swap",
            description="only the compiled engine decodes SUB with swapped "
                        "operands (disagrees with the reference engine)",
            mutate_iss=_swap_sub_operands,
            engines=("compiled",)),
        InjectedBug(
            name="interp-shr-mask",
            description="the interpreter masks logical-shift amounts to 4 "
                        "bits instead of 5",
            interpreter_cls=_ShrMask15Interpreter),
        InjectedBug(
            name="profile-label-off-by-one",
            description="the ISS-derived profile reads one too many "
                        "executions at main's first block label",
            mutate_counts=_bump_main_label_count),
        InjectedBug(
            name="price-hw-class",
            description="pricing a record lets hardware blocks update the "
                        "previous instruction class",
            mutate_iss=_hw_blocks_set_class,
            engines=("compiled",)),
    )
}


def derived_partition(image: ProgramImage) -> set:
    """The pricing stage's partition: every other block label of the
    image (in sorted order, starting with the second) in hardware."""
    return set(sorted(set(image.attribution))[1::2])


# ---------------------------------------------------------------------------
# The stack
# ---------------------------------------------------------------------------

class _MemorySystem:
    """One engine's private cache/bus/memory instances (or all None)."""

    def __init__(self, geometry: Optional[Tuple[CacheConfig, CacheConfig]],
                 library: TechnologyLibrary) -> None:
        if geometry is None:
            self.icache = self.dcache = None
            self.memory = self.bus = None
        else:
            self.icache = Cache(geometry[0], "icache")
            self.dcache = Cache(geometry[1], "dcache")
            self.memory = MainMemory(library)
            self.bus = SharedBus(library)

    def counters(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for cache in (self.icache, self.dcache):
            if cache is None:
                continue
            stats = cache.snapshot()
            for fname in ("reads", "writes", "read_hits", "write_hits",
                          "read_misses", "write_misses", "fills"):
                out[f"{stats.name}.{fname}"] = getattr(stats, fname)
        if self.memory is not None:
            out["mem.word_reads"] = self.memory.word_reads
            out["mem.word_writes"] = self.memory.word_writes
        if self.bus is not None:
            out["bus.word_reads"] = self.bus.word_reads
            out["bus.word_writes"] = self.bus.word_writes
        return out


class OracleStack:
    """Runs one program through every executor pair and classifies."""

    def __init__(self, config: Optional[OracleConfig] = None,
                 library: Optional[TechnologyLibrary] = None) -> None:
        self.config = config or OracleConfig()
        self.library = library or cmos6_library()
        self._bug = (KNOWN_BUGS[self.config.inject_bug]
                     if self.config.inject_bug else None)

    # -- helpers --------------------------------------------------------

    def _interpreter(self, program: Program) -> Interpreter:
        cls = self._bug.interpreter_cls if self._bug else Interpreter
        return cls(program, max_steps=self.config.max_interp_steps)

    def _simulator(self, image, engine: str, mem: _MemorySystem,
                   trace: Optional[MemoryTrace],
                   hw_blocks: Optional[set] = None) -> Simulator:
        sim = Simulator(image, self.library,
                        icache=mem.icache, dcache=mem.dcache,
                        memory_model=mem.memory, bus=mem.bus,
                        max_instructions=self.config.max_instructions,
                        hw_blocks=hw_blocks, trace=trace, engine=engine)
        if (self._bug is not None and self._bug.mutate_iss is not None
                and engine in self._bug.engines):
            self._bug.mutate_iss(sim)
        return sim

    # -- main entry -----------------------------------------------------

    def check(self, fuzz_program, geometry: str = "none") -> OracleOutcome:
        """Run the full differential stack on one program."""
        outcome = OracleOutcome(program_name=fuzz_program.name,
                                geometry=geometry)
        try:
            program = compile_source(fuzz_program.source,
                                     name=fuzz_program.name)
        except Exception as exc:  # lexer/parser/semantic failure
            outcome.status = "mismatch"
            outcome.mismatches.append(Mismatch(
                kind="compile", parties="frontend",
                detail=f"{type(exc).__name__}: {exc}"))
            return outcome

        # 1. Interpreter — the semantic model of record.
        interp = self._interpreter(program)
        try:
            for name, values in fuzz_program.globals_init.items():
                interp.set_global(name, values)
            interp_result = interp.run(*fuzz_program.args)
        except InterpError as exc:
            # By-construction programs cannot fault; shrinker
            # intermediates can.  Check fault *agreement* instead.
            return self._check_fault_agreement(fuzz_program, program,
                                               outcome, geometry, exc)
        outcome.interp_result = interp_result
        outcome.interp_steps = interp.profile.steps
        outcome.op_kinds = tuple(sorted(
            kind.name for kind in interp.profile.op_counts))
        interp_globals = {
            name: interp.get_global(name)
            for name in sorted(fuzz_program.globals_init)
        }

        # 2 + 3. Both ISS engines, each with a private memory system.
        image = link_program(program)
        want_trace = True
        engine_runs: Dict[str, Tuple] = {}
        record = ExecutionRecord()
        for engine in ("reference", "compiled"):
            mem = _MemorySystem(CACHE_GEOMETRIES[geometry], self.library)
            trace = MemoryTrace() if want_trace else None
            sim = self._simulator(image, engine, mem, trace)
            for name, values in fuzz_program.globals_init.items():
                sim.set_global(name, values)
            try:
                sim_result = sim.run(
                    *fuzz_program.args,
                    record=record if engine == "compiled" else None)
            except SimError as exc:
                outcome.status = "mismatch"
                outcome.mismatches.append(Mismatch(
                    kind="fault.iss", parties=f"interp vs iss-{engine}",
                    detail=f"interpreter returned {interp_result} but the "
                           f"{engine} engine faulted: {exc}"))
                return outcome
            sim_globals = {
                name: sim.get_global(name, len(values))
                for name, values in sorted(fuzz_program.globals_init.items())
            }
            engine_runs[engine] = (sim_result, sim_globals, mem.counters(),
                                   trace.events if trace is not None else None)
            if (engine == "reference"
                    and sim_result.instructions
                    > self.config.trace_instruction_limit):
                # Keep the compiled run comparable: drop its trace too.
                want_trace = False
                engine_runs[engine] = (sim_result, sim_globals,
                                       mem.counters(), None)

        self._compare_interp_vs_iss(outcome, interp_result, interp_globals,
                                    engine_runs["reference"])
        self._compare_engines(outcome, engine_runs["reference"],
                              engine_runs["compiled"])
        self._compare_profiles(outcome, program, image, interp.profile,
                               engine_runs["compiled"][0])
        if record.complete:
            self._check_priced_record(outcome, fuzz_program, image, record,
                                      geometry, want_trace)

        # 6. Full flow + invariant audit (periodic; expensive).
        if self.config.run_flow and not outcome.mismatches:
            self._check_flow(fuzz_program, outcome, geometry, interp_result)

        if outcome.mismatches:
            outcome.status = "mismatch"
        return outcome

    # -- comparisons ----------------------------------------------------

    def _check_fault_agreement(self, fuzz_program, program: Program,
                               outcome: OracleOutcome, geometry: str,
                               interp_exc: InterpError) -> OracleOutcome:
        """The interpreter faulted: both ISS engines must fault too."""
        outcome.status = "skip"
        image = link_program(program)
        for engine in ("reference", "compiled"):
            mem = _MemorySystem(CACHE_GEOMETRIES[geometry], self.library)
            sim = self._simulator(image, engine, mem, None)
            for name, values in fuzz_program.globals_init.items():
                sim.set_global(name, values)
            try:
                sim_result = sim.run(*fuzz_program.args)
            except SimError:
                continue
            outcome.status = "mismatch"
            outcome.mismatches.append(Mismatch(
                kind="fault.disagree", parties=f"interp vs iss-{engine}",
                detail=f"interpreter faulted ({interp_exc}) but the "
                       f"{engine} engine returned {sim_result.result}"))
        return outcome

    def _compare_interp_vs_iss(self, outcome: OracleOutcome,
                               interp_result: int, interp_globals,
                               reference_run) -> None:
        sim_result, sim_globals, _counters, _trace = reference_run
        if sim_result.result != interp_result:
            outcome.mismatches.append(Mismatch(
                kind="result.iss", parties="interp vs iss-reference",
                detail=f"interpreter returned {interp_result}, ISS "
                       f"returned {sim_result.result}"))
        for name in interp_globals:
            if interp_globals[name] != sim_globals[name]:
                outcome.mismatches.append(Mismatch(
                    kind="globals.iss", parties="interp vs iss-reference",
                    detail=f"final contents of global {name!r} differ"))
                break

    def _compare_engines(self, outcome: OracleOutcome, reference_run,
                         compiled_run) -> None:
        ref_result, ref_globals, ref_counters, ref_trace = reference_run
        com_result, com_globals, com_counters, com_trace = compiled_run
        for fname in _ENGINE_FIELDS:
            ref_value = getattr(ref_result, fname)
            com_value = getattr(com_result, fname)
            if ref_value != com_value:
                detail = (f"{fname}: reference={ref_value!r} "
                          f"compiled={com_value!r}")
                outcome.mismatches.append(Mismatch(
                    kind=f"engine.counter:{fname}",
                    parties="iss-reference vs iss-compiled",
                    detail=detail if len(detail) <= 300
                    else detail[:297] + "..."))
        if ref_globals != com_globals:
            outcome.mismatches.append(Mismatch(
                kind="engine.globals",
                parties="iss-reference vs iss-compiled",
                detail="final global memory differs between engines"))
        if ref_counters != com_counters:
            diff = sorted(key for key in set(ref_counters) | set(com_counters)
                          if ref_counters.get(key) != com_counters.get(key))
            outcome.mismatches.append(Mismatch(
                kind="engine.cache",
                parties="iss-reference vs iss-compiled",
                detail=f"memory-system counters differ: {', '.join(diff)}"))
        if ref_trace is not None and com_trace is not None \
                and ref_trace != com_trace:
            first = next((i for i, (a, b) in
                          enumerate(zip(ref_trace, com_trace)) if a != b),
                         min(len(ref_trace), len(com_trace)))
            outcome.mismatches.append(Mismatch(
                kind="engine.trace",
                parties="iss-reference vs iss-compiled",
                detail=f"memory-reference traces diverge at event {first} "
                       f"(lengths {len(ref_trace)}/{len(com_trace)})"))

    def _compare_profiles(self, outcome: OracleOutcome, program: Program,
                          image: ProgramImage, interp_profile,
                          sim_result) -> None:
        """The flow's ISS-derived profile must equal the interpreter's."""
        if self._bug is not None and self._bug.mutate_counts is not None:
            counts = list(sim_result.pc_counts)
            self._bug.mutate_counts(image, counts)
            sim_result = replace(sim_result, pc_counts=counts)
        try:
            derived = profile_from_sim(program, image, sim_result)
        except ProfileError as exc:
            detail = f"derivation failed: {exc}"
        else:
            fields = [name for name in _PROFILE_FIELDS
                      if getattr(derived, name)
                      != getattr(interp_profile, name)]
            if not fields:
                return
            detail = f"fields differ: {', '.join(fields)}"
        outcome.mismatches.append(Mismatch(
            kind="profile.iss", parties="interp vs iss-profile",
            detail=detail))

    def _check_priced_record(self, outcome: OracleOutcome, fuzz_program,
                             image: ProgramImage, record: ExecutionRecord,
                             geometry: str, want_trace: bool) -> None:
        """The record priced under a derived partition must equal a
        hardware-shadow run of the reference engine (stage 5)."""
        hw_blocks = derived_partition(image)
        mem = _MemorySystem(CACHE_GEOMETRIES[geometry], self.library)
        ref_trace = MemoryTrace() if want_trace else None
        sim = self._simulator(image, "reference", mem, ref_trace, hw_blocks)
        for name, values in fuzz_program.globals_init.items():
            sim.set_global(name, values)
        try:
            reference = sim.run(*fuzz_program.args)
        except SimError as exc:
            outcome.mismatches.append(Mismatch(
                kind="price.fault",
                parties="iss-reference (partitioned)",
                detail=f"the hardware-shadow run faulted: {exc}"))
            return
        ref_counters = mem.counters()
        mem = _MemorySystem(CACHE_GEOMETRIES[geometry], self.library)
        trace = MemoryTrace() if want_trace else None
        priced = self._simulator(image, "compiled", mem, trace,
                                 hw_blocks).price(record)
        for fname in _ENGINE_FIELDS:
            ref_value = getattr(reference, fname)
            value = getattr(priced, fname)
            if ref_value != value:
                detail = f"{fname}: reference={ref_value!r} priced={value!r}"
                outcome.mismatches.append(Mismatch(
                    kind=f"price.counter:{fname}",
                    parties="iss-reference vs priced record",
                    detail=detail if len(detail) <= 300
                    else detail[:297] + "..."))
        counters = mem.counters()
        if counters != ref_counters:
            diff = sorted(key for key in set(ref_counters) | set(counters)
                          if ref_counters.get(key) != counters.get(key))
            outcome.mismatches.append(Mismatch(
                kind="price.cache", parties="iss-reference vs priced record",
                detail=f"memory-system counters differ: {', '.join(diff)}"))
        if want_trace and trace.events != ref_trace.events:
            outcome.mismatches.append(Mismatch(
                kind="price.trace",
                parties="iss-reference vs priced record (partitioned)",
                detail=f"partitioned traces differ (lengths "
                       f"{len(ref_trace)}/{len(trace)})"))

    def _check_flow(self, fuzz_program, outcome: OracleOutcome,
                    geometry: str, interp_result: int) -> None:
        """Run the full partition flow under the strict invariant audit."""
        from repro.core.flow import AppSpec, LowPowerFlow

        geo = CACHE_GEOMETRIES[geometry]
        app = AppSpec(name=fuzz_program.name, source=fuzz_program.source,
                      args=tuple(fuzz_program.args),
                      globals_init=dict(fuzz_program.globals_init),
                      icache=geo[0] if geo else None,
                      dcache=geo[1] if geo else None,
                      model_caches=geo is not None)
        flow = LowPowerFlow(library=self.library, verify=True,
                            collect_traces=True)
        try:
            result = flow.run(app)
        except Exception as exc:
            outcome.flow_checked = True
            outcome.mismatches.append(Mismatch(
                kind="flow.crash", parties="flow",
                detail=f"{type(exc).__name__}: {exc}"))
            return
        outcome.flow_checked = True
        paths = [f"clusters={len(result.decision.preselected)}"]
        paths.append("best" if result.decision.best is not None else "none")
        # Rejection reasons carry measured numbers; strip them so the
        # coverage feature space stays finite.
        paths.extend(sorted({re.sub(r"[-+]?\d[\d.,]*", "N", reason)
                             for _c, _s, reason in
                             result.decision.rejections}))
        outcome.flow_paths = tuple(paths)
        if result.initial.result != interp_result:
            outcome.mismatches.append(Mismatch(
                kind="flow.result", parties="interp vs flow-initial",
                detail=f"flow initial system returned "
                       f"{result.initial.result}, interpreter "
                       f"{interp_result}"))
        if not result.functional_match:
            outcome.mismatches.append(Mismatch(
                kind="flow.functional", parties="flow-initial vs "
                                                "flow-partitioned",
                detail=f"partitioned result "
                       f"{result.partitioned.result} != initial "
                       f"{result.initial.result}"))
        report = result.verification
        if report is not None and report.has_errors:
            errors = report.errors
            outcome.mismatches.append(Mismatch(
                kind="flow.verify", parties="verifier",
                detail=f"{len(errors)} ERROR finding(s), first: "
                       f"{errors[0].check}: {errors[0].message}"))
