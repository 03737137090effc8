"""Cycle-counting SL32 instruction-set simulator.

This is the "instruction set simulator tool (ISS)" of the paper's design
flow (Fig. 5) with the attached instruction-level energy calculation "the
same methodology as in [Tiwari et al.]".  Per run it produces:

* total cycles and per-(function, block) cycle/energy attribution — the
  block attribution is what lets the partitioner compute ``E_μP,c_i``
  (Fig. 1 line 12) for any cluster;
* μP datapath-resource active cycles, hence the core utilization rate
  ``U_μP^core`` (Eq. 1/4) that ASIC candidates must beat;
* instruction- and data-reference streams into the cache cores, whose
  misses stall the pipeline and generate main-memory/bus traffic.

Execution engines
-----------------
Two engines produce **bit-identical** observable results:

* ``engine="reference"`` — the original decode-per-dynamic-instruction
  interpreter below (:meth:`Simulator._interp_from`), which calls
  :meth:`Cache.access` and charges every counter inline.  It is the
  model of record: simple, obviously faithful to the paper's semantics,
  and the oracle the fast path is checked against.
* ``engine="auto"``/``"compiled"`` (default) — record, then price.  The
  per-image block compiler in :mod:`repro.isa.simcompile` executes the
  program with no cache, memory, bus or energy model and keeps an
  :class:`~repro.isa.simcompile.ExecutionRecord` (the block sequence,
  the data addresses, the taken branches); :meth:`Simulator.price`
  (:mod:`repro.isa.pricing`) then charges the record to this simulator's
  hardware blocks and memory system.  Cycles, energy_nj, per-block
  attribution and cache counters match the reference bit for bit, and
  an attached trace becomes a view of the record
  (:class:`~repro.isa.pricing.RecordReferences`) holding the reference's
  events.  One record prices any partition and cache geometry of the
  same image, which is how the flow prices the partitioned design
  without a second execution.  Jumps into a block interior (only
  reachable through unusual hand-written images) price the record so
  far and finish in the reference interpreter.

The equivalence is enforced by ``tests/golden/test_golden_values.py``
(frozen pre-optimisation outputs of every bundled app) and
``tests/isa/test_engine_equivalence.py`` (both engines on the same
images, and records priced under several partitions); ``repro.verify``
audits the cross-layer invariants on real runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.isa.energy import InstructionEnergyModel
from repro.isa.image import CODE_BASE, MEMORY_BYTES, ProgramImage, STACK_TOP
from repro.isa.instructions import (
    INSTRUCTION_INFO,
    Opcode,
    TAKEN_BRANCH_PENALTY,
    UPResource,
    WORD_BYTES,
)
from repro.mem.bus import SharedBus
from repro.mem.cache import Cache
from repro.mem.main_memory import MainMemory
from repro.obs import get_tracer
from repro.tech.library import TechnologyLibrary

_MASK32 = 0xFFFFFFFF


def _wrap32(value: int) -> int:
    value &= _MASK32
    return value - (1 << 32) if value & 0x80000000 else value


class SimError(Exception):
    """Raised on simulator faults (bad address, fuel exhausted, div by 0)."""


@dataclass
class SimResult:
    """Outcome of one simulated run."""

    result: int
    cycles: int
    instructions: int
    energy_nj: float
    block_cycles: Dict[Tuple[str, str], int] = field(default_factory=dict)
    block_energy_nj: Dict[Tuple[str, str], float] = field(default_factory=dict)
    block_counts: Dict[Tuple[str, str], int] = field(default_factory=dict)
    resource_active_cycles: Dict[UPResource, int] = field(default_factory=dict)
    taken_branches: int = 0
    stall_cycles: int = 0
    hw_instructions: int = 0
    hw_entries: int = 0
    #: Software-side executions of each pc (hardware-shadow pcs read 0).
    pc_counts: List[int] = field(default_factory=list)

    @property
    def utilization(self) -> float:
        """μP core utilization rate ``U_μP^core`` (Eq. 4)."""
        if self.cycles == 0:
            return 0.0
        rates = [min(1.0, active / self.cycles)
                 for active in self.resource_active_cycles.values()]
        return sum(rates) / len(rates) if rates else 0.0

    def function_cycles(self, function: str) -> int:
        return sum(c for (f, _), c in self.block_cycles.items() if f == function)

    def function_energy_nj(self, function: str) -> float:
        return sum(e for (f, _), e in self.block_energy_nj.items()
                   if f == function)

    def blocks_cycles(self, function: str, blocks) -> int:
        """Cycles spent in a set of blocks of one function."""
        wanted = set(blocks)
        return sum(c for (f, b), c in self.block_cycles.items()
                   if f == function and b in wanted)

    def blocks_energy_nj(self, function: str, blocks) -> float:
        wanted = set(blocks)
        return sum(e for (f, b), e in self.block_energy_nj.items()
                   if f == function and b in wanted)


class Simulator:
    """Executes a linked :class:`~repro.isa.image.ProgramImage`.

    Args:
        image: the program.
        library: technology constants (for the energy model).
        icache / dcache: optional cache cores; references stream into them
            and read misses stall the core.
        memory_model: main-memory traffic sink (refills + write-throughs).
        bus: shared-bus traffic sink (each memory word crosses the bus).
        max_instructions: fuel limit.
        hw_blocks: optional set of ``(function, block)`` labels executed by
            an ASIC core in a partitioned design.  Instructions attributed
            to these blocks run in *hardware-shadow* mode: they execute
            functionally (keeping the program correct) but contribute no μP
            cycles, energy or cache traffic — the ASIC cost model accounts
            for them instead.  This reproduces the partitioned system's
            software side, including the changed cache access pattern the
            paper highlights (footnote 2).
    """

    def __init__(self, image: ProgramImage, library: TechnologyLibrary,
                 icache: Optional[Cache] = None,
                 dcache: Optional[Cache] = None,
                 memory_model: Optional[MainMemory] = None,
                 bus: Optional[SharedBus] = None,
                 max_instructions: int = 100_000_000,
                 hw_blocks: Optional[set] = None,
                 trace: Optional[object] = None,
                 engine: str = "auto") -> None:
        if engine not in ("auto", "compiled", "reference"):
            raise ValueError(f"unknown engine {engine!r}")
        self.image = image
        self.library = library
        self.icache = icache
        self.dcache = dcache
        self.memory_model = memory_model
        self.bus = bus
        self.max_instructions = max_instructions
        self.hw_blocks = hw_blocks or set()
        #: Optional :class:`~repro.mem.trace.MemoryTrace` capturing the μP
        #: side's references (fetches + data) for the trace-driven profiler.
        self.trace = trace
        #: Execution engine: "auto"/"compiled" use the per-image block
        #: compiler (bit-identical results), "reference" forces the
        #: original interpreter (the model of record, kept for oracle
        #: testing and benchmarking).
        self.engine = engine
        self.energy_model = InstructionEnergyModel(library)
        self.memory: List[int] = [0] * (MEMORY_BYTES // WORD_BYTES)
        self._compiled = None
        self._decode()

    def _decode(self) -> None:
        """Flatten instruction objects into parallel arrays for speed."""
        instrs = self.image.instructions
        self._opcode: List[Opcode] = [i.opcode for i in instrs]
        self._rd = [i.rd for i in instrs]
        self._rs1 = [i.rs1 for i in instrs]
        self._rs2 = [i.rs2 for i in instrs]
        self._imm = [i.imm for i in instrs]
        self._target = [i.target if isinstance(i.target, int) else 0
                        for i in instrs]
        self._cycles = [INSTRUCTION_INFO[i.opcode].cycles for i in instrs]
        self._class = [INSTRUCTION_INFO[i.opcode].energy_class for i in instrs]
        self._base_nj = [self.energy_model.base_nj(c) for c in self._class]
        self._is_hw = [label in self.hw_blocks for label in self.image.attribution]

    # ------------------------------------------------------------------
    # Data initialization
    # ------------------------------------------------------------------

    def set_global(self, name: str, values: List[int]) -> None:
        """Write a global array's initial contents into memory."""
        symbol = name if name in self.image.symbol_addresses else f"__g_{name}"
        address = self.image.symbol_addresses.get(symbol)
        if address is None:
            raise KeyError(f"unknown global {name!r}")
        size = self.image.symbol_sizes[symbol]
        if len(values) != size:
            raise ValueError(
                f"global {name!r} has {size} elements, got {len(values)}")
        word = address // WORD_BYTES
        for offset, value in enumerate(values):
            self.memory[word + offset] = _wrap32(value)

    def get_global(self, name: str, length: int) -> List[int]:
        symbol = name if name in self.image.symbol_addresses else f"__g_{name}"
        address = self.image.symbol_addresses[symbol]
        word = address // WORD_BYTES
        return self.memory[word:word + length]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, *args: int, record=None) -> SimResult:
        """Execute the program from its entry point.

        ``record``: an empty :class:`~repro.isa.simcompile.ExecutionRecord`
        the compiled engine keeps this execution in, so the same run can
        be priced again under another partition or memory system
        (:meth:`price`).
        """
        get_tracer().count("isa.executions")
        if self.engine == "reference":
            if record is not None:
                raise ValueError("the reference engine keeps no record")
            return self._run_reference(*args)
        return self._run_compiled(args, record)

    def price(self, record) -> SimResult:
        """Charge a complete execution record of this image to this
        simulator's hardware blocks and memory system.

        Nothing executes: the result equals a :meth:`run` of the same
        workload on this simulator, and the attached caches, memory, bus
        and trace end as that run would leave them.
        """
        if record.image is not self.image:
            raise ValueError("the record is of another image")
        if not record.complete:
            raise ValueError("the record was cut short and cannot be "
                             "priced")
        with get_tracer().span("isa.price"):
            priced = self._price(record)
        result = self._aggregate(
            priced.counts, priced.extra_cycles, priced.extra_nj,
            priced.cycles, priced.stall_cycles, priced.instructions,
            priced.taken_branches, record.result)
        result.hw_instructions = priced.hw_instructions
        result.hw_entries = priced.hw_entries
        return result

    def _price(self, record):
        """Price ``record``; an attached trace gets its references."""
        from repro.isa.pricing import RecordReferences, price_record
        if self.trace is not None:
            self.trace.append_view(RecordReferences(record, self._is_hw))
        return price_record(self, record)

    def _class_chain(self, hw_blocks):
        """Per block: whether its instructions set the previous class.

        Software blocks do; hardware-shadow blocks leave it alone.
        """
        return ~hw_blocks

    # -- compiled engine ------------------------------------------------

    def _run_compiled(self, args, record) -> SimResult:
        from repro.isa.simcompile import ExecutionRecord, compile_program

        prog = self._compiled
        if prog is None or prog.fuel != self.max_instructions:
            with get_tracer().span("isa.compile"):
                prog = compile_program(self)
            self._compiled = prog
        if record is None:
            record = ExecutionRecord()
        elif record.bseq or record.complete:
            raise ValueError("the record already holds an execution")
        record.image = self.image
        record.blocks = prog.blocks
        record.taken = [0] * prog.size
        prog.bind(record.bseq.append, record.daddrs.append, record.taken)
        prog.st[0] = self.max_instructions

        memory = self.memory
        regs = [0] * 33  # regs[32] is the write sink for rd=0
        regs[29] = STACK_TOP
        # Seed entry arguments into the stub's outgoing-arg slots.
        for index, value in enumerate(args):
            memory[(STACK_TOP - WORD_BYTES * (index + 1)) // WORD_BYTES] = \
                _wrap32(value)

        funcs = prog.funcs
        size = prog.size
        pc = self.image.entry_pc
        with get_tracer().span("isa.execute"):
            while pc is not None:
                if 0 <= pc < size:
                    fn = funcs[pc]
                    if fn is not None:
                        pc = fn(regs)
                        continue
                    break  # a jump into a block interior
                raise SimError(f"pc out of range: {pc}")
        if pc is not None:
            return self._deopt_resume(record, pc, regs)
        record.result = regs[1]
        record.complete = True
        return self.price(record)

    def _deopt_resume(self, record, pc: int, regs: List[int]) -> SimResult:
        """Price the record so far, then finish in the interpreter.

        The record stays incomplete: it holds only the compiled prefix.
        An attached trace lists the prefix's references, and the
        interpreter appends the rest.
        """
        with get_tracer().span("isa.price"):
            done = self._price(record)
        return self._interp_from(pc, regs[:32], done.counts,
                                 done.extra_cycles, done.extra_nj,
                                 done.cycles, done.stall_cycles,
                                 done.instructions, done.taken_branches,
                                 done.hw_instructions, done.hw_entries,
                                 done.in_hw, done.prev_class)

    # -- reference engine -----------------------------------------------

    def _run_reference(self, *args: int) -> SimResult:
        size = len(self._opcode)
        counts = [0] * size
        extra_cycles = [0] * size
        extra_nj = [0.0] * size
        regs = [0] * 32
        regs[29] = STACK_TOP
        # Seed entry arguments into the stub's outgoing-arg slots.
        for index, value in enumerate(args):
            self.memory[(STACK_TOP - WORD_BYTES * (index + 1)) // WORD_BYTES] \
                = _wrap32(value)
        return self._interp_from(self.image.entry_pc, regs, counts,
                                 extra_cycles, extra_nj, 0, 0, 0, 0, 0, 0,
                                 False, "nop")

    def _interp_from(self, pc: int, regs: List[int], counts: List[int],
                     extra_cycles: List[int], extra_nj: List[float],
                     cycles: int, stall_cycles: int, instructions: int,
                     taken_branches: int, hw_instructions: int,
                     hw_entries: int, in_hw: bool,
                     prev_class: str) -> SimResult:
        """The reference interpreter, resumable from any machine state.

        Fresh runs enter through :meth:`_run_reference`; the compiled
        engine enters mid-run when it deoptimises.
        """
        opcode = self._opcode
        rd_arr, rs1_arr, rs2_arr = self._rd, self._rs1, self._rs2
        imm_arr, target_arr = self._imm, self._target
        cyc_arr, cls_arr = self._cycles, self._class
        memory = self.memory
        icache, dcache = self.icache, self.dcache
        memory_model, bus = self.memory_model, self.bus
        energy_model = self.energy_model
        overhead_nj = energy_model.overhead_nj("alu", "mul")  # flat constant
        stall_nj = energy_model.stall_nj
        i_penalty = icache.config.miss_penalty if icache else 0
        i_line_words = icache.config.line_words if icache else 0
        d_penalty = dcache.config.miss_penalty if dcache else 0
        d_line_words = dcache.config.line_words if dcache else 0

        size = len(opcode)

        if self.trace is not None:
            from repro.mem.trace import Access
            trace_events = self.trace.events
            _IF, _RD, _WR = Access.IFETCH, Access.READ, Access.WRITE
        else:
            trace_events = None

        is_hw = self._is_hw
        fuel = self.max_instructions
        OP = Opcode  # local alias

        while True:
            if pc < 0 or pc >= size:
                raise SimError(f"pc out of range: {pc}")
            op = opcode[pc]
            instructions += 1
            if instructions > fuel:
                raise SimError(f"fuel exhausted after {fuel} instructions")

            hw = is_hw[pc]
            if hw:
                # Hardware-shadow mode: functional execution only; the ASIC
                # cost model accounts for this work.
                hw_instructions += 1
                if not in_hw:
                    hw_entries += 1
                    in_hw = True
            else:
                in_hw = False
                counts[pc] += 1
                if trace_events is not None:
                    trace_events.append((_IF, CODE_BASE + pc * WORD_BYTES))
                if icache is not None:
                    if not icache.access(CODE_BASE + pc * WORD_BYTES):
                        extra_cycles[pc] += i_penalty
                        stall_cycles += i_penalty
                        extra_nj[pc] += i_penalty * stall_nj
                        if memory_model is not None:
                            memory_model.refill(i_line_words)
                        if bus is not None:
                            bus.read_words(i_line_words)
                cls = cls_arr[pc]
                if cls != prev_class:
                    extra_nj[pc] += overhead_nj
                prev_class = cls
                cycles += cyc_arr[pc]
            next_pc = pc + 1

            if op is OP.ADD:
                regs[rd_arr[pc]] = _wrap32(regs[rs1_arr[pc]] + regs[rs2_arr[pc]])
            elif op is OP.ADDI:
                regs[rd_arr[pc]] = _wrap32(regs[rs1_arr[pc]] + imm_arr[pc])
            elif op is OP.LI:
                regs[rd_arr[pc]] = _wrap32(imm_arr[pc])
            elif op is OP.MOV:
                regs[rd_arr[pc]] = regs[rs1_arr[pc]]
            elif op is OP.LW:
                address = regs[rs1_arr[pc]] + imm_arr[pc]
                if not 0 <= address < MEMORY_BYTES:
                    raise SimError(f"load fault at pc {pc}: address {address:#x}")
                regs[rd_arr[pc]] = memory[address // WORD_BYTES]
                if trace_events is not None and not hw:
                    trace_events.append((_RD, address))
                if dcache is not None and not hw:
                    if not dcache.access(address):
                        extra_cycles[pc] += d_penalty
                        stall_cycles += d_penalty
                        extra_nj[pc] += d_penalty * stall_nj
                        if memory_model is not None:
                            memory_model.refill(d_line_words)
                        if bus is not None:
                            bus.read_words(d_line_words)
            elif op is OP.SW:
                address = regs[rs1_arr[pc]] + imm_arr[pc]
                if not 0 <= address < MEMORY_BYTES:
                    raise SimError(f"store fault at pc {pc}: address {address:#x}")
                memory[address // WORD_BYTES] = regs[rs2_arr[pc]]
                if trace_events is not None and not hw:
                    trace_events.append((_WR, address))
                if dcache is not None and not hw:
                    dcache.access(address, is_write=True)
                    # Write-through: the word always reaches memory.
                    if memory_model is not None:
                        memory_model.write_word()
                    if bus is not None:
                        bus.write_words(1)
            elif op is OP.SUB:
                regs[rd_arr[pc]] = _wrap32(regs[rs1_arr[pc]] - regs[rs2_arr[pc]])
            elif op is OP.MUL:
                regs[rd_arr[pc]] = _wrap32(regs[rs1_arr[pc]] * regs[rs2_arr[pc]])
            elif op is OP.SLT:
                regs[rd_arr[pc]] = int(regs[rs1_arr[pc]] < regs[rs2_arr[pc]])
            elif op is OP.SLE:
                regs[rd_arr[pc]] = int(regs[rs1_arr[pc]] <= regs[rs2_arr[pc]])
            elif op is OP.SGT:
                regs[rd_arr[pc]] = int(regs[rs1_arr[pc]] > regs[rs2_arr[pc]])
            elif op is OP.SGE:
                regs[rd_arr[pc]] = int(regs[rs1_arr[pc]] >= regs[rs2_arr[pc]])
            elif op is OP.SEQ:
                regs[rd_arr[pc]] = int(regs[rs1_arr[pc]] == regs[rs2_arr[pc]])
            elif op is OP.SNE:
                regs[rd_arr[pc]] = int(regs[rs1_arr[pc]] != regs[rs2_arr[pc]])
            elif op is OP.BNZ:
                if regs[rs1_arr[pc]] != 0:
                    next_pc = target_arr[pc]
                    if not hw:
                        cycles += TAKEN_BRANCH_PENALTY
                        extra_cycles[pc] += TAKEN_BRANCH_PENALTY
                        taken_branches += 1
            elif op is OP.BEZ:
                if regs[rs1_arr[pc]] == 0:
                    next_pc = target_arr[pc]
                    if not hw:
                        cycles += TAKEN_BRANCH_PENALTY
                        extra_cycles[pc] += TAKEN_BRANCH_PENALTY
                        taken_branches += 1
            elif op is OP.JMP:
                next_pc = target_arr[pc]
            elif op is OP.CALL:
                regs[31] = pc + 1
                next_pc = target_arr[pc]
            elif op is OP.RET:
                next_pc = regs[31]
            elif op is OP.AND:
                regs[rd_arr[pc]] = _wrap32(regs[rs1_arr[pc]] & regs[rs2_arr[pc]])
            elif op is OP.OR:
                regs[rd_arr[pc]] = _wrap32(regs[rs1_arr[pc]] | regs[rs2_arr[pc]])
            elif op is OP.XOR:
                regs[rd_arr[pc]] = _wrap32(regs[rs1_arr[pc]] ^ regs[rs2_arr[pc]])
            elif op is OP.NOT:
                regs[rd_arr[pc]] = _wrap32(~regs[rs1_arr[pc]])
            elif op is OP.NEG:
                regs[rd_arr[pc]] = _wrap32(-regs[rs1_arr[pc]])
            elif op is OP.SLL:
                regs[rd_arr[pc]] = _wrap32(
                    regs[rs1_arr[pc]] << (regs[rs2_arr[pc]] & 31))
            elif op is OP.SRL:
                regs[rd_arr[pc]] = _wrap32(
                    (regs[rs1_arr[pc]] & _MASK32) >> (regs[rs2_arr[pc]] & 31))
            elif op is OP.SLLI:
                regs[rd_arr[pc]] = _wrap32(regs[rs1_arr[pc]] << (imm_arr[pc] & 31))
            elif op is OP.DIV:
                divisor = regs[rs2_arr[pc]]
                if divisor == 0:
                    raise SimError(f"division by zero at pc {pc}")
                dividend = regs[rs1_arr[pc]]
                quotient = abs(dividend) // abs(divisor)
                if (dividend < 0) != (divisor < 0):
                    quotient = -quotient
                regs[rd_arr[pc]] = _wrap32(quotient)
            elif op is OP.REM:
                divisor = regs[rs2_arr[pc]]
                if divisor == 0:
                    raise SimError(f"modulo by zero at pc {pc}")
                dividend = regs[rs1_arr[pc]]
                quotient = abs(dividend) // abs(divisor)
                if (dividend < 0) != (divisor < 0):
                    quotient = -quotient
                regs[rd_arr[pc]] = _wrap32(dividend - divisor * quotient)
            elif op is OP.NOP:
                pass
            elif op is OP.HALT:
                break
            else:  # pragma: no cover - exhaustive
                raise SimError(f"cannot execute {op}")

            regs[0] = 0  # r0 stays zero
            pc = next_pc

        result = self._aggregate(counts, extra_cycles, extra_nj, cycles,
                                 stall_cycles, instructions, taken_branches,
                                 regs[1])
        result.hw_instructions = hw_instructions
        result.hw_entries = hw_entries
        return result

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def _aggregate(self, counts: List[int], extra_cycles: List[int],
                   extra_nj: List[float], cycles: int, stall_cycles: int,
                   instructions: int, taken_branches: int,
                   result: int) -> SimResult:
        attribution = self.image.attribution
        block_cycles: Dict[Tuple[str, str], int] = {}
        block_energy: Dict[Tuple[str, str], float] = {}
        block_counts: Dict[Tuple[str, str], int] = {}
        resource_active: Dict[UPResource, int] = {
            res: 0 for res in UPResource}

        for pc, count in enumerate(counts):
            if count == 0:
                continue
            key = attribution[pc]
            base_cycles = self._cycles[pc] * count + extra_cycles[pc]
            energy = self._base_nj[pc] * count + extra_nj[pc]
            block_cycles[key] = block_cycles.get(key, 0) + base_cycles
            block_energy[key] = block_energy.get(key, 0.0) + energy
            block_counts[key] = block_counts.get(key, 0) + count
            info = INSTRUCTION_INFO[self._opcode[pc]]
            for res in info.resources:
                if res in (UPResource.IFU, UPResource.REGFILE):
                    resource_active[res] += count
                else:
                    resource_active[res] += count * info.cycles

        total_energy = sum(block_energy.values())
        return SimResult(
            result=result,
            cycles=cycles + stall_cycles,
            instructions=instructions,
            energy_nj=total_energy,
            block_cycles=block_cycles,
            block_energy_nj=block_energy,
            block_counts=block_counts,
            resource_active_cycles=resource_active,
            taken_branches=taken_branches,
            stall_cycles=stall_cycles,
            pc_counts=list(counts),
        )
