"""Negative paths of the compiled engine's deoptimisation.

When a hand-written image jumps into a basic-block *interior* (an
``r31``/RET game no compiler output produces), the compiled engine
reconstructs interpreter state mid-run and finishes in the reference
interpreter.  The happy path is covered by
``test_engine_equivalence.py``; these tests pin the nasty half of the
contract: a run that *faults after* deoptimising must fault exactly like
a from-scratch reference run — same exception type, same message, same
already-charged counters left behind — and a deopt that lands straight
on a faulting instruction must not disturb the fault either.
"""

import pytest

from repro.isa.image import ProgramImage
from repro.isa.instructions import Instruction, Opcode
from repro.isa.simulator import SimError, Simulator
from repro.mem.bus import SharedBus
from repro.mem.cache import Cache, CacheConfig
from repro.mem.main_memory import MainMemory
from repro.mem.trace import MemoryTrace
from repro.tech import cmos6_library


def make_image(instructions, name="hand"):
    attribution = [(name, "body")] * len(instructions)
    return ProgramImage(
        name=name,
        instructions=instructions,
        entry_pc=0,
        function_ranges={name: (0, len(instructions))},
        symbol_addresses={},
        attribution=attribution,
        frame_sizes={},
    )


def assert_same_result(compiled, reference):
    assert compiled.result == reference.result
    assert compiled.cycles == reference.cycles
    assert compiled.instructions == reference.instructions
    assert compiled.energy_nj == reference.energy_nj  # bit-exact
    assert compiled.stall_cycles == reference.stall_cycles
    assert compiled.taken_branches == reference.taken_branches
    assert compiled.hw_instructions == reference.hw_instructions
    assert compiled.hw_entries == reference.hw_entries
    assert compiled.block_cycles == reference.block_cycles
    assert compiled.block_energy_nj == reference.block_energy_nj
    assert compiled.block_counts == reference.block_counts
    assert compiled.resource_active_cycles == reference.resource_active_cycles


def _deopt_prologue():
    """A loop that accumulates real counters, then a RET into an interior.

    The loop makes the pre-deopt machine state non-trivial (branch
    counts, per-block counters, partial sums), so state reconstruction
    has something to get wrong.
    """
    return [
        Instruction(Opcode.LI, rd=2, imm=5),             # counter
        Instruction(Opcode.LI, rd=3, imm=0),             # accumulator
        Instruction(Opcode.ADD, rd=3, rs1=3, rs2=2),     # loop body
        Instruction(Opcode.ADDI, rd=2, rs1=2, imm=-1),
        Instruction(Opcode.BNZ, rs1=2, target=2),
        Instruction(Opcode.LI, rd=31, imm=8),            # interior target
        Instruction(Opcode.RET),                         # deopt here
        Instruction(Opcode.LI, rd=3, imm=999),           # skipped leader
    ]


def test_mid_run_deopt_matches_from_scratch_reference():
    code = _deopt_prologue() + [
        Instruction(Opcode.ADDI, rd=1, rs1=3, imm=100),  # pc 8: interior
        Instruction(Opcode.HALT),
    ]
    image = make_image(code)
    library = cmos6_library()
    compiled = Simulator(image, library, engine="compiled").run()
    reference = Simulator(image, library, engine="reference").run()
    assert compiled.result == 115  # 5+4+3+2+1 = 15, +100
    assert_same_result(compiled, reference)


@pytest.mark.parametrize("fault_tail,message", [
    ([Instruction(Opcode.LI, rd=4, imm=0),               # pc 8: interior
      Instruction(Opcode.DIV, rd=1, rs1=3, rs2=4),
      Instruction(Opcode.HALT)], "division by zero at pc 9"),
    ([Instruction(Opcode.LI, rd=4, imm=0),
      Instruction(Opcode.REM, rd=1, rs1=3, rs2=4),
      Instruction(Opcode.HALT)], "modulo by zero at pc 9"),
    ([Instruction(Opcode.LI, rd=4, imm=-4),
      Instruction(Opcode.LW, rd=1, rs1=4, imm=0),
      Instruction(Opcode.HALT)], "load fault at pc 9: address -0x4"),
    ([Instruction(Opcode.LI, rd=4, imm=-4),
      Instruction(Opcode.SW, rs1=4, rs2=3, imm=0),
      Instruction(Opcode.HALT)], "store fault at pc 9: address -0x4"),
    ([Instruction(Opcode.JMP, target=77)], "pc out of range: 77"),
], ids=["div", "rem", "load", "store", "wild-jump"])
def test_fault_after_deopt_matches_reference_fault(fault_tail, message):
    """The resumed interpreter faults exactly like a from-scratch run."""
    image = make_image(_deopt_prologue() + fault_tail)
    library = cmos6_library()
    for engine in ("compiled", "reference"):
        sim = Simulator(image, library, engine=engine)
        with pytest.raises(SimError) as excinfo:
            sim.run()
        assert str(excinfo.value) == message, engine


def test_deopt_landing_directly_on_faulting_instruction():
    # The interior pc itself faults: the very first resumed step.
    code = _deopt_prologue() + [
        Instruction(Opcode.DIV, rd=1, rs1=3, rs2=0),     # pc 8: r0 == 0
        Instruction(Opcode.HALT),
    ]
    image = make_image(code)
    library = cmos6_library()
    messages = []
    for engine in ("compiled", "reference"):
        with pytest.raises(SimError) as excinfo:
            Simulator(image, library, engine=engine).run()
        messages.append(str(excinfo.value))
    assert messages[0] == messages[1] == "division by zero at pc 8"


def test_fuel_exhaustion_after_deopt_matches_reference():
    # The interior code spins forever; fuel accounting must carry the
    # pre-deopt instructions, so both engines report the same message at
    # the same budget.
    code = _deopt_prologue() + [
        Instruction(Opcode.JMP, target=8),               # pc 8: spin
    ]
    image = make_image(code)
    library = cmos6_library()
    for engine in ("compiled", "reference"):
        sim = Simulator(image, library, max_instructions=200, engine=engine)
        with pytest.raises(SimError) as excinfo:
            sim.run()
        assert str(excinfo.value) == "fuel exhausted after 200 instructions"


def test_deopt_with_memory_system_and_trace_stays_bit_identical():
    """Counters and the reference trace survive the engine hand-off."""
    code = _deopt_prologue() + [
        Instruction(Opcode.LI, rd=4, imm=64),            # pc 8: interior
        Instruction(Opcode.SW, rs1=4, rs2=3, imm=0),
        Instruction(Opcode.LW, rd=5, rs1=4, imm=0),
        Instruction(Opcode.ADD, rd=1, rs1=5, rs2=3),
        Instruction(Opcode.HALT),
    ]
    image = make_image(code)
    config = CacheConfig(size_bytes=256, line_bytes=16, associativity=2,
                         miss_penalty=8)
    runs = {}
    for engine in ("compiled", "reference"):
        library = cmos6_library()
        trace = MemoryTrace()
        sim = Simulator(image, library,
                        icache=Cache(config, "icache"),
                        dcache=Cache(config, "dcache"),
                        memory_model=MainMemory(library),
                        bus=SharedBus(library),
                        trace=trace, engine=engine)
        result = sim.run()
        runs[engine] = (result, trace.events,
                        sim.icache.snapshot(), sim.dcache.snapshot(),
                        sim.memory_model.word_reads,
                        sim.memory_model.word_writes)
    assert_same_result(runs["compiled"][0], runs["reference"][0])
    assert runs["compiled"][1:] == runs["reference"][1:]


def test_deopt_result_is_reproducible_on_rerun():
    # The compiled program object is cached on the simulator; a second
    # run after a deopt must reset state and deopt identically.
    code = _deopt_prologue() + [
        Instruction(Opcode.ADDI, rd=1, rs1=3, imm=7),    # pc 8
        Instruction(Opcode.HALT),
    ]
    sim = Simulator(make_image(code), cmos6_library(), engine="compiled")
    first = sim.run()
    second = sim.run()
    assert_same_result(first, second)


def test_deopt_leaves_an_incomplete_record_that_cannot_be_priced():
    from repro.isa.simcompile import ExecutionRecord

    code = _deopt_prologue() + [
        Instruction(Opcode.ADDI, rd=1, rs1=3, imm=7),    # pc 8
        Instruction(Opcode.HALT),
    ]
    image = make_image(code)
    record = ExecutionRecord()
    sim = Simulator(image, cmos6_library())
    assert sim.run(record=record).result == 22
    assert not record.complete
    assert len(record.bseq) > 0  # the compiled prefix was recorded
    with pytest.raises(ValueError, match="cut short"):
        sim.price(record)


@pytest.mark.parametrize("hw_label", ["loop", "tail", "lead"])
def test_deopt_hands_over_hardware_state(hw_label):
    """The priced prefix hands the interpreter its in-hardware flag and
    previous instruction class, whichever side of the deopt is shadowed."""
    code = _deopt_prologue() + [
        Instruction(Opcode.LI, rd=4, imm=64),            # pc 8: interior
        Instruction(Opcode.SW, rs1=4, rs2=3, imm=0),
        Instruction(Opcode.LW, rd=5, rs1=4, imm=0),
        Instruction(Opcode.MUL, rd=6, rs1=5, rs2=3),
        Instruction(Opcode.ADD, rd=1, rs1=5, rs2=3),
        Instruction(Opcode.HALT),
    ]
    attribution = ([("hand", "head")] * 2 + [("hand", "loop")] * 3
                   + [("hand", "lead")] * 3 + [("hand", "body")] * 3
                   + [("hand", "tail")] * 3)
    image = ProgramImage(
        name="hand", instructions=code, entry_pc=0,
        function_ranges={"hand": (0, len(code))}, symbol_addresses={},
        attribution=attribution, frame_sizes={})
    config = CacheConfig(size_bytes=256, line_bytes=16, associativity=2,
                         miss_penalty=8)
    runs = {}
    for engine in ("compiled", "reference"):
        library = cmos6_library()
        trace = MemoryTrace()
        sim = Simulator(image, library,
                        icache=Cache(config, "icache"),
                        dcache=Cache(config, "dcache"),
                        memory_model=MainMemory(library),
                        bus=SharedBus(library), trace=trace,
                        hw_blocks={("hand", hw_label)}, engine=engine)
        result = sim.run()
        runs[engine] = (result, trace.events,
                        sim.icache.snapshot(), sim.icache.set_contents(),
                        sim.dcache.snapshot(), sim.dcache.set_contents(),
                        sim.memory_model.word_reads,
                        sim.memory_model.word_writes)
    assert runs["compiled"][0].hw_entries == 1
    assert_same_result(runs["compiled"][0], runs["reference"][0])
    assert runs["compiled"][1:] == runs["reference"][1:]
