"""Trace tool + trace-driven cache profiler tests.

The headline property: replaying a captured trace through the profiler
must reproduce the inline cache simulation of the ISS exactly — same hit
rates, same stall cycles, same memory traffic.
"""

import io

import pytest

from repro.isa.image import link_program
from repro.isa.simulator import Simulator
from repro.lang import compile_source
from repro.mem import (
    Access,
    Cache,
    CacheConfig,
    MainMemory,
    MemoryTrace,
    best_profile,
    profile_configs,
    replay,
)
from repro.tech import cmos6_library


# ---------------------------------------------------------------------------
# Trace container
# ---------------------------------------------------------------------------

def test_record_and_counts():
    trace = MemoryTrace()
    trace.record(Access.IFETCH, 0x0)
    trace.record(Access.READ, 0x100)
    trace.record(Access.READ, 0x104)
    trace.record(Access.WRITE, 0x100)
    assert len(trace) == 4
    assert trace.counts() == (1, 2, 1)


def test_footprint():
    trace = MemoryTrace()
    for address in (0x0, 0x1, 0x2, 0x3, 0x4):
        trace.record(Access.READ, address)
    assert trace.footprint_bytes(granularity=4) == 8  # two words
    with pytest.raises(ValueError):
        trace.footprint_bytes(granularity=0)


def test_dump_load_roundtrip():
    trace = MemoryTrace()
    trace.record(Access.IFETCH, 0x40)
    trace.record(Access.WRITE, 0xFFF0)
    buffer = io.StringIO()
    trace.dump(buffer)
    buffer.seek(0)
    loaded = MemoryTrace.load(buffer)
    assert loaded.events == trace.events


def test_load_with_comments_and_blanks():
    text = "# header\n\ni 0x40  # fetch\nr 0x100\nW 0x104\n"
    trace = MemoryTrace.load(io.StringIO(text))
    assert trace.counts() == (1, 1, 1)


def test_load_rejects_garbage():
    with pytest.raises(ValueError):
        MemoryTrace.load(io.StringIO("x 0x40\n"))
    with pytest.raises(ValueError):
        MemoryTrace.load(io.StringIO("r notanumber\n"))


def test_load_rejects_negative_addresses():
    # A line tag of -1 would collide with the batched kernel's "no tag"
    # sentinel: this trace used to replay as 2 hits on engine="batch"
    # and 1 hit on engine="reference".
    text = "i -0x10\ni 0x7f0\ni -0x10\n"
    with pytest.raises(ValueError, match="bad trace record on line 1"):
        MemoryTrace.load(io.StringIO(text))
    with pytest.raises(ValueError, match="bad trace record on line 2"):
        MemoryTrace.load(io.StringIO("r 0x0\nw -4\n"))


# ---------------------------------------------------------------------------
# Profiler vs inline simulation equivalence
# ---------------------------------------------------------------------------

SRC = """
global data: int[256];
func main() -> int {
    var s: int = 0;
    for p in 0 .. 3 {
        for i in 0 .. 256 { data[i] = data[i] + i; }
        for i in 0 .. 256 { s = s + data[(i * 7) & 255]; }
    }
    return s;
}
"""


@pytest.fixture(scope="module")
def captured():
    library = cmos6_library()
    image = link_program(compile_source(SRC))
    icfg = CacheConfig(size_bytes=1024, line_bytes=16, associativity=2,
                       miss_penalty=8)
    dcfg = CacheConfig(size_bytes=512, line_bytes=16, associativity=2,
                       miss_penalty=8)
    trace = MemoryTrace()
    icache, dcache = Cache(icfg, "i"), Cache(dcfg, "d")
    memory = MainMemory(library)
    sim = Simulator(image, library, icache=icache, dcache=dcache,
                    memory_model=memory, trace=trace)
    result = sim.run()
    return trace, icfg, dcfg, icache, dcache, memory, result


def test_trace_captured_every_reference(captured):
    trace, icfg, dcfg, icache, dcache, memory, result = captured
    fetches, reads, writes = trace.counts()
    assert fetches == result.instructions
    assert reads == dcache.reads
    assert writes == dcache.writes


def test_replay_matches_inline_simulation(captured):
    trace, icfg, dcfg, icache, dcache, memory, result = captured
    profile = replay(trace, icfg, dcfg)
    assert profile.icache.reads == icache.reads
    assert profile.icache.read_misses == icache.read_misses
    assert profile.dcache.reads == dcache.reads
    assert profile.dcache.read_misses == dcache.read_misses
    assert profile.dcache.write_misses == dcache.write_misses
    assert profile.stall_cycles == result.stall_cycles
    assert profile.memory_word_reads == memory.word_reads
    assert profile.memory_word_writes == memory.word_writes


def test_replay_energy_matches_inline_models(captured, library):
    from repro.mem import CacheEnergyModel
    trace, icfg, dcfg, icache, dcache, memory, result = captured
    profile = replay(trace, icfg, dcfg)
    inline = (CacheEnergyModel(library, icfg).energy_nj(icache)
              + CacheEnergyModel(library, dcfg).energy_nj(dcache))
    assert profile.cache_energy_nj(library) == pytest.approx(inline)
    assert profile.memory_energy_nj(library) == pytest.approx(
        memory.energy_nj())


def test_profile_many_configs_single_trace(captured, library):
    trace = captured[0]
    space = [
        (CacheConfig(size_bytes=s, line_bytes=16, associativity=a,
                     miss_penalty=8),
         CacheConfig(size_bytes=s // 2, line_bytes=16, associativity=a,
                     miss_penalty=8))
        for s in (1024, 2048, 4096) for a in (1, 2)
    ]
    profiles = profile_configs(trace, space)
    assert len(profiles) == 6
    # Bigger caches never miss more on the same trace.
    by_assoc = {}
    for profile in profiles:
        key = profile.icache_cfg.associativity
        by_assoc.setdefault(key, []).append(profile)
    for group in by_assoc.values():
        group.sort(key=lambda p: p.icache_cfg.size_bytes)
        misses = [p.icache.read_misses for p in group]
        assert misses == sorted(misses, reverse=True)


def test_best_profile_minimizes_memsys_energy(captured, library):
    trace = captured[0]
    space = [
        (CacheConfig(size_bytes=s, line_bytes=16, associativity=2,
                     miss_penalty=8),
         CacheConfig(size_bytes=512, line_bytes=16, associativity=2,
                     miss_penalty=8))
        for s in (512, 2048, 8192)
    ]
    profiles = profile_configs(trace, space)
    best = best_profile(profiles, library)
    energies = [p.cache_energy_nj(library) + p.memory_energy_nj(library)
                for p in profiles]
    assert (best.cache_energy_nj(library)
            + best.memory_energy_nj(library)) == min(energies)


def test_best_profile_empty_rejected(library):
    with pytest.raises(ValueError):
        best_profile([], library)


def test_hardware_shadow_references_not_traced():
    """In a partitioned run the cluster's references must not appear in the
    software-side trace."""
    library = cmos6_library()
    program = compile_source(SRC)
    image = link_program(program)
    from repro.cluster import decompose_into_clusters
    loops = [c for c in decompose_into_clusters(program, function="main")
             if c.kind == "loop" and c.depth == 1]
    hw_blocks = {("main", b) for b in loops[0].blocks}

    full_trace = MemoryTrace()
    Simulator(image, library, trace=full_trace).run()
    part_trace = MemoryTrace()
    Simulator(image, library, trace=part_trace, hw_blocks=hw_blocks).run()
    assert len(part_trace) < len(full_trace)
