"""Compiled-vs-reference engine equivalence.

The compiled basic-block engine (:mod:`repro.isa.simcompile`) records one
cache-free execution and prices it (:mod:`repro.isa.pricing`); the result
must be observably *bit-identical* to the reference interpreter: same
SimResult down to float energies, same cache counters and tag stores,
same memory-trace events, same fault types and messages.  These tests run
both engines side by side on hand-built images that exercise every opcode
family, hardware-shadow blocks, cache/bus wiring, tracing,
deoptimisation, and the fault paths, plus one real compiled application.
Every compiled run's record is also priced again under several
hardware partitions and cache geometries (cold and warm), each checked
against a reference re-run of that design.
"""

import pytest

from repro.fuzz.oracle import CACHE_GEOMETRIES, derived_partition
from repro.isa.image import ProgramImage, STACK_TOP, link_program
from repro.isa.instructions import Instruction, Opcode
from repro.isa.simcompile import ExecutionRecord
from repro.isa.simulator import SimError, Simulator
from repro.mem.bus import SharedBus
from repro.mem.cache import Cache, CacheConfig
from repro.mem.main_memory import MainMemory
from repro.mem.trace import MemoryTrace
from repro.tech import cmos6_library


def make_image(instructions, attribution=None, name="hand"):
    attribution = attribution or [(name, "body")] * len(instructions)
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
    assert compiled.pc_counts == reference.pc_counts
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


def memory_system(geometry, library):
    """Fresh simulator keyword arguments for one named geometry."""
    shape = CACHE_GEOMETRIES[geometry]
    if shape is None:
        return {}
    return {"icache": Cache(shape[0], "icache"),
            "dcache": Cache(shape[1], "dcache"),
            "memory_model": MainMemory(library), "bus": SharedBus(library)}


def memory_state(kwargs):
    """Every counter and tag store of a memory system."""
    state = []
    for name in ("icache", "dcache"):
        if name in kwargs:
            state.append((kwargs[name].snapshot(),
                          kwargs[name].set_contents()))
    for name in ("memory_model", "bus"):
        if name in kwargs:
            state.append((kwargs[name].word_reads,
                          kwargs[name].word_writes))
    return state


def reference_run(image, args, globals_init, hw_blocks, mem):
    sim = Simulator(image, cmos6_library(), engine="reference",
                    hw_blocks=hw_blocks, **mem)
    for name, values in (globals_init or {}).items():
        sim.set_global(name, values)
    return sim.run(*args)


def assert_prices_like_reference(image, record, args, globals_init,
                                 partitions, geometries=("default",)):
    """``record`` priced under every partition and geometry equals a
    reference run of that design, memory system included."""
    library = cmos6_library()
    for geometry in geometries:
        for hw_blocks in partitions:
            want_mem = memory_system(geometry, library)
            want = reference_run(image, args, globals_init, hw_blocks,
                                 want_mem)
            got_mem = memory_system(geometry, library)
            got = Simulator(image, library, hw_blocks=hw_blocks,
                            **got_mem).price(record)
            assert_same_result(got, want)
            assert memory_state(got_mem) == memory_state(want_mem)


def partitions_of(image, *extra):
    """The unpartitioned design, the fuzz oracle's derived partition,
    its complement, and ``extra``."""
    labels = set(image.attribution)
    derived = derived_partition(image)
    return [set(), derived, labels - derived, *extra]


def run_both(image, *args, sim_kwargs=None, globals_init=None):
    results = []
    record = ExecutionRecord()
    for engine in ("compiled", "reference"):
        kwargs = dict(sim_kwargs or {})
        sim = Simulator(image, cmos6_library(), engine=engine, **kwargs)
        for name, values in (globals_init or {}).items():
            sim.set_global(name, values)
        results.append(sim.run(
            *args, record=record if engine == "compiled" else None))
    assert_same_result(results[0], results[1])
    if record.complete:
        hw_blocks = (sim_kwargs or {}).get("hw_blocks") or set()
        assert_prices_like_reference(image, record, args, globals_init,
                                     partitions_of(image, hw_blocks))
    return results[0]


def test_alu_opcode_mix_equivalent():
    code = [
        Instruction(Opcode.LI, rd=2, imm=0x7FFFFFFF),
        Instruction(Opcode.LI, rd=3, imm=-17),
        Instruction(Opcode.ADD, rd=4, rs1=2, rs2=3),     # wrap territory
        Instruction(Opcode.SUB, rd=5, rs1=3, rs2=2),
        Instruction(Opcode.MUL, rd=6, rs1=2, rs2=3),
        Instruction(Opcode.AND, rd=7, rs1=2, rs2=3),
        Instruction(Opcode.OR, rd=8, rs1=2, rs2=3),
        Instruction(Opcode.XOR, rd=9, rs1=2, rs2=3),
        Instruction(Opcode.NOT, rd=10, rs1=3),
        Instruction(Opcode.NEG, rd=11, rs1=2),
        Instruction(Opcode.SLT, rd=12, rs1=3, rs2=2),
        Instruction(Opcode.SLE, rd=13, rs1=2, rs2=2),
        Instruction(Opcode.SGT, rd=14, rs1=3, rs2=2),
        Instruction(Opcode.SGE, rd=15, rs1=2, rs2=3),
        Instruction(Opcode.SEQ, rd=16, rs1=2, rs2=2),
        Instruction(Opcode.SNE, rd=17, rs1=2, rs2=3),
        Instruction(Opcode.LI, rd=18, imm=4),
        Instruction(Opcode.SLL, rd=19, rs1=3, rs2=18),
        Instruction(Opcode.SRL, rd=20, rs1=3, rs2=18),
        Instruction(Opcode.SLLI, rd=21, rs1=2, imm=33),  # shift amount & 31
        Instruction(Opcode.DIV, rd=22, rs1=3, rs2=18),
        Instruction(Opcode.REM, rd=23, rs1=3, rs2=18),
        Instruction(Opcode.ADDI, rd=24, rs1=2, imm=-1),
        Instruction(Opcode.MOV, rd=25, rs1=24),
        Instruction(Opcode.NOP),
        Instruction(Opcode.ADD, rd=1, rs1=4, rs2=22),
        Instruction(Opcode.HALT),
    ]
    run_both(make_image(code))


def test_zero_register_write_sink_equivalent():
    code = [
        Instruction(Opcode.LI, rd=0, imm=1234),
        Instruction(Opcode.ADDI, rd=0, rs1=0, imm=99),
        Instruction(Opcode.MOV, rd=1, rs1=0),
        Instruction(Opcode.HALT),
    ]
    assert run_both(make_image(code)).result == 0


def test_loop_branches_and_calls_equivalent():
    # sum 1..10 via a CALL/RET loop body; exercises BNZ/BEZ both ways.
    code = [
        Instruction(Opcode.LI, rd=2, imm=10),           # counter
        Instruction(Opcode.LI, rd=3, imm=0),            # accumulator
        Instruction(Opcode.BEZ, rs1=2, target=7),       # loop exit
        Instruction(Opcode.CALL, target=9),             # body: r3 += r2
        Instruction(Opcode.ADDI, rd=2, rs1=2, imm=-1),
        Instruction(Opcode.BNZ, rs1=2, target=3),
        Instruction(Opcode.BEZ, rs1=0, target=7),       # always taken
        Instruction(Opcode.MOV, rd=1, rs1=3),
        Instruction(Opcode.HALT),
        Instruction(Opcode.ADD, rd=3, rs1=3, rs2=2),    # callee
        Instruction(Opcode.RET),
    ]
    result = run_both(make_image(code))
    assert result.result == sum(range(1, 11))
    assert result.taken_branches > 0


def test_memory_caches_bus_and_trace_equivalent():
    # Strided load/store loop crossing cache lines, full memory system +
    # trace on both engines; compare every counter and the event stream.
    code = [
        Instruction(Opcode.LI, rd=2, imm=64),            # iterations
        Instruction(Opcode.LI, rd=3, imm=1024),          # base address
        Instruction(Opcode.LW, rd=4, rs1=3, imm=0),
        Instruction(Opcode.ADDI, rd=4, rs1=4, imm=7),
        Instruction(Opcode.SW, rs1=3, rs2=4, imm=512),
        Instruction(Opcode.ADDI, rd=3, rs1=3, imm=20),   # stride 20B
        Instruction(Opcode.ADDI, rd=2, rs1=2, imm=-1),
        Instruction(Opcode.BNZ, rs1=2, target=2),
        Instruction(Opcode.MOV, rd=1, rs1=4),
        Instruction(Opcode.HALT),
    ]
    image = make_image(code)
    outcomes = {}
    record = ExecutionRecord()
    for engine in ("compiled", "reference"):
        icache = Cache(CacheConfig(size_bytes=256, line_bytes=16,
                                   associativity=2, miss_penalty=8),
                       name="icache")
        dcache = Cache(CacheConfig(size_bytes=128, line_bytes=16,
                                   associativity=1, miss_penalty=6),
                       name="dcache")
        library = cmos6_library()
        memory_model = MainMemory(library)
        bus = SharedBus(library)
        trace = MemoryTrace()
        sim = Simulator(image, library, icache=icache,
                        dcache=dcache, memory_model=memory_model, bus=bus,
                        trace=trace, engine=engine)
        result = sim.run(record=record if engine == "compiled" else None)
        outcomes[engine] = (result, icache.snapshot(), dcache.snapshot(),
                            memory_model.word_reads,
                            memory_model.word_writes, trace.events)
    compiled, reference = outcomes["compiled"], outcomes["reference"]
    assert_same_result(compiled[0], reference[0])
    assert compiled[1] == reference[1]          # icache stats
    assert compiled[2] == reference[2]          # dcache stats
    assert compiled[3:5] == reference[3:5]      # main-memory words
    assert compiled[5] == reference[5]          # exact trace event order
    assert_prices_like_reference(image, record, (), {}, partitions_of(image),
                                 geometries=sorted(CACHE_GEOMETRIES))


def test_hw_shadow_blocks_equivalent():
    # Middle region attributed to a hw block: functional-only there.
    code = [
        Instruction(Opcode.LI, rd=2, imm=5),
        Instruction(Opcode.LI, rd=3, imm=0),
        Instruction(Opcode.ADD, rd=3, rs1=3, rs2=2),     # hw region start
        Instruction(Opcode.ADDI, rd=2, rs1=2, imm=-1),
        Instruction(Opcode.BNZ, rs1=2, target=2),        # hw region end
        Instruction(Opcode.MOV, rd=1, rs1=3),
        Instruction(Opcode.HALT),
    ]
    attribution = ([("hand", "head")] * 2 + [("hand", "loop")] * 3
                   + [("hand", "tail")] * 2)
    image = make_image(code, attribution=attribution)
    result = run_both(image,
                      sim_kwargs={"hw_blocks": {("hand", "loop")}})
    assert result.result == 15
    assert result.hw_instructions > 0
    assert result.hw_entries >= 1


def _labelled_memory_loop():
    """A load/store loop split over three labels, with a call."""
    code = [
        Instruction(Opcode.LI, rd=2, imm=48),            # iterations
        Instruction(Opcode.LI, rd=3, imm=1024),          # base address
        Instruction(Opcode.LW, rd=4, rs1=3, imm=0),      # loop
        Instruction(Opcode.MUL, rd=4, rs1=4, rs2=2),
        Instruction(Opcode.CALL, target=11),
        Instruction(Opcode.SW, rs1=3, rs2=4, imm=512),
        Instruction(Opcode.ADDI, rd=3, rs1=3, imm=36),
        Instruction(Opcode.ADDI, rd=2, rs1=2, imm=-1),
        Instruction(Opcode.BNZ, rs1=2, target=2),
        Instruction(Opcode.MOV, rd=1, rs1=4),            # tail
        Instruction(Opcode.HALT),
        Instruction(Opcode.SLLI, rd=5, rs1=4, imm=2),    # callee
        Instruction(Opcode.LW, rd=6, rs1=3, imm=4),
        Instruction(Opcode.ADD, rd=4, rs1=5, rs2=6),
        Instruction(Opcode.RET),
    ]
    attribution = ([("hand", "head")] * 2 + [("hand", "loop")] * 7
                   + [("hand", "tail")] * 2 + [("callee", "body")] * 4)
    return make_image(code, attribution=attribution)


def _app_image(app_name):
    from repro.apps import app_by_name

    app = app_by_name(app_name)
    return app, link_program(app.compile())


@pytest.mark.parametrize("slices", ["default", "tiny"])
@pytest.mark.parametrize("geometry", sorted(CACHE_GEOMETRIES))
@pytest.mark.parametrize("program", ["hand-loop", "ckey"])
def test_one_record_prices_every_partition(program, geometry, slices,
                                           monkeypatch):
    """One compiled execution, priced under several partitions on every
    fuzz-oracle geometry, equals a reference re-run of each design —
    also when tiny slices and windows put every carried state (cache
    stacks, previous class, in-hardware flag, running sums) across
    many boundaries."""
    if slices == "tiny":
        from repro.isa import pricing
        monkeypatch.setattr(pricing, "SLICE_BLOCKS", 3)
        monkeypatch.setattr(pricing, "_WINDOW_ELEMENTS", 16)
    if program == "ckey":
        app, image = _app_image("ckey")
        args, globals_init = app.args, app.globals_init
    else:
        image, args, globals_init = _labelled_memory_loop(), (), {}
    library = cmos6_library()
    record = ExecutionRecord()
    sim = Simulator(image, library, **memory_system(geometry, library))
    for name, values in globals_init.items():
        sim.set_global(name, values)
    sim.run(*args, record=record)
    partitions = partitions_of(image)
    assert len({frozenset(p) for p in partitions}) == len(partitions)
    assert_prices_like_reference(image, record, args, globals_init,
                                 partitions, geometries=(geometry,))


@pytest.mark.parametrize("geometry", sorted(
    name for name, shape in CACHE_GEOMETRIES.items() if shape))
def test_pricing_into_warm_caches_matches_reference(geometry):
    """A record priced into caches that already hold state continues
    them exactly as a reference run on the same warm caches would."""
    image = _labelled_memory_loop()
    library = cmos6_library()
    record = ExecutionRecord()
    Simulator(image, library).run(record=record)
    for hw_blocks in partitions_of(image):
        states = []
        for pricing in (True, False):
            mem = memory_system(geometry, library)
            warm = reference_run(image, (), {}, {("hand", "tail")}, mem)
            assert warm.stall_cycles > 0  # the caches really are warm
            if pricing:
                result = Simulator(image, library, hw_blocks=hw_blocks,
                                   **mem).price(record)
            else:
                result = reference_run(image, (), {}, hw_blocks, mem)
            states.append((result, memory_state(mem)))
        assert_same_result(states[0][0], states[1][0])
        assert states[0][1] == states[1][1]


@pytest.mark.parametrize("geometry", sorted(CACHE_GEOMETRIES))
def test_pricing_a_record_twice_is_deterministic(geometry):
    """Pricing reads the record without consuming it."""
    image = _labelled_memory_loop()
    library = cmos6_library()
    record = ExecutionRecord()
    Simulator(image, library).run(record=record)
    before = (record.bseq.tobytes(), record.daddrs.tobytes(),
              list(record.taken))
    runs = []
    for _ in range(2):
        mem = memory_system(geometry, library)
        sim = Simulator(image, library, hw_blocks=derived_partition(image),
                        **mem)
        runs.append((sim.price(record), memory_state(mem)))
    assert_same_result(runs[0][0], runs[1][0])
    assert runs[0][1] == runs[1][1]
    assert (record.bseq.tobytes(), record.daddrs.tobytes(),
            list(record.taken)) == before


def test_price_rejects_records_it_cannot_price():
    image = _labelled_memory_loop()
    library = cmos6_library()
    record = ExecutionRecord()
    sim = Simulator(image, library)
    sim.run(record=record)
    with pytest.raises(ValueError, match="already holds"):
        sim.run(record=record)
    other = _labelled_memory_loop()
    with pytest.raises(ValueError, match="another image"):
        Simulator(other, library).price(record)
    with pytest.raises(ValueError, match="cut short"):
        Simulator(image, library).price(ExecutionRecord(image=image))
    with pytest.raises(ValueError, match="keeps no record"):
        Simulator(image, library, engine="reference").run(
            record=ExecutionRecord())


def test_deopt_on_jump_into_block_interior():
    # A hand-written r31 makes RET land mid-block: the compiled engine
    # must deoptimise into the reference interpreter and still agree.
    code = [
        Instruction(Opcode.LI, rd=2, imm=3),
        Instruction(Opcode.LI, rd=31, imm=4),    # non-leader target
        Instruction(Opcode.RET),                 # jumps to pc 4
        Instruction(Opcode.LI, rd=1, imm=999),   # skipped block leader
        Instruction(Opcode.ADDI, rd=1, rs1=2, imm=39),   # block interior
        Instruction(Opcode.HALT),
    ]
    result = run_both(make_image(code))
    assert result.result == 42


@pytest.mark.parametrize("engine", ["compiled", "reference"])
def test_fault_messages_identical(engine):
    cases = [
        ([Instruction(Opcode.LI, rd=2, imm=0),
          Instruction(Opcode.DIV, rd=1, rs1=2, rs2=2),
          Instruction(Opcode.HALT)], "division by zero at pc 1"),
        ([Instruction(Opcode.LI, rd=2, imm=0),
          Instruction(Opcode.REM, rd=1, rs1=2, rs2=2),
          Instruction(Opcode.HALT)], "modulo by zero at pc 1"),
        ([Instruction(Opcode.LI, rd=2, imm=-8),
          Instruction(Opcode.LW, rd=1, rs1=2, imm=0),
          Instruction(Opcode.HALT)], "load fault at pc 1: address -0x8"),
        ([Instruction(Opcode.LI, rd=2, imm=-8),
          Instruction(Opcode.SW, rs1=2, rs2=2, imm=0),
          Instruction(Opcode.HALT)], "store fault at pc 1: address -0x8"),
        ([Instruction(Opcode.JMP, target=99)], "pc out of range: 99"),
        ([Instruction(Opcode.BNZ, rs1=29, target=-5)],
         "pc out of range: -5"),
    ]
    for code, message in cases:
        sim = Simulator(make_image(code), cmos6_library(), engine=engine)
        with pytest.raises(SimError) as excinfo:
            sim.run()
        assert str(excinfo.value) == message


@pytest.mark.parametrize("engine", ["compiled", "reference"])
def test_fuel_exhaustion_message(engine):
    code = [Instruction(Opcode.JMP, target=0)]
    sim = Simulator(make_image(code), cmos6_library(),
                    max_instructions=100, engine=engine)
    with pytest.raises(SimError) as excinfo:
        sim.run()
    assert str(excinfo.value) == "fuel exhausted after 100 instructions"


def test_real_application_equivalent():
    # End to end on a real compiled app with the full memory system.
    app, image = _app_image("ckey")
    outcomes = {}
    for engine in ("compiled", "reference"):
        library = cmos6_library()
        mem = memory_system("default", library)
        sim = Simulator(image, library, engine=engine, **mem)
        for name, values in app.globals_init.items():
            sim.set_global(name, values)
        result = sim.run(*app.args)
        outcomes[engine] = (result, memory_state(mem))
    assert_same_result(outcomes["compiled"][0], outcomes["reference"][0])
    assert outcomes["compiled"][1] == outcomes["reference"][1]


def test_engine_rejects_unknown_name():
    code = [Instruction(Opcode.HALT)]
    with pytest.raises(ValueError):
        Simulator(make_image(code), cmos6_library(), engine="turbo")
