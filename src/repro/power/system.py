"""System-level energy evaluation — the machinery behind Table 1.

The paper stresses that "all system components are taken into consideration
to estimate energy savings" because a partition changes the cache access
pattern (footnote 2).  :func:`evaluate_initial` runs the whole application
on the μP core with its caches; :func:`evaluate_partitioned` prices the
same execution with the chosen cluster in hardware-shadow mode (see
:class:`~repro.isa.simulator.Simulator`) — from the initial run's
execution record when it has one, so the application runs on the ISS
once — adds the ASIC core's energy and cycles from the synthesis models,
and accounts the shared-memory transfer traffic on the bus, the memory
and the μP core.  With ``collect_trace=True`` either one attaches the
memory-reference trace, a view of the record it priced (the software
side's references only), so collecting a trace executes nothing extra.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.isa.energy import InstructionEnergyModel
from repro.isa.image import ProgramImage
from repro.isa.simulator import SimResult, Simulator
from repro.mem.bus import SharedBus
from repro.mem.cache import Cache, CacheConfig, CacheStats
from repro.mem.cache_energy import CacheEnergyModel
from repro.mem.main_memory import MainMemory
from repro.mem.trace import MemoryTrace
from repro.sched.utilization import ClusterMetrics
from repro.synth.rtl_sim import AsicRunStats
from repro.tech.library import TechnologyLibrary

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.isa.simcompile import ExecutionRecord


@dataclass
class CoreEnergy:
    """Per-core energy breakdown in nanojoules (Table 1's energy columns)."""

    icache_nj: float = 0.0
    dcache_nj: float = 0.0
    mem_nj: float = 0.0
    up_core_nj: float = 0.0
    asic_core_nj: float = 0.0
    bus_nj: float = 0.0

    @property
    def total_nj(self) -> float:
        return (self.icache_nj + self.dcache_nj + self.mem_nj
                + self.up_core_nj + self.asic_core_nj + self.bus_nj)


@dataclass
class MemorySystemStats:
    """Event-counter snapshot of the memory system after one evaluation.

    These are the raw counts behind the energy numbers in
    :class:`CoreEnergy` — :mod:`repro.verify` re-derives every reported
    component energy and the bus/memory traffic from them (the
    ``power.conservation`` / ``mem.traffic`` invariants in
    ``docs/VALIDATION.md``).  ``trace_counts`` is only populated when the
    evaluation ran with ``collect_trace=True``.
    """

    icache: Optional[CacheStats] = None
    dcache: Optional[CacheStats] = None
    mem_word_reads: int = 0
    mem_word_writes: int = 0
    bus_word_reads: int = 0
    bus_word_writes: int = 0
    #: μP↔ASIC shared-memory transfer words (in + out), partitioned runs.
    transfer_words: int = 0
    #: The ASIC's in-place accesses to oversized shared-memory arrays.
    asic_mem_reads: int = 0
    asic_mem_writes: int = 0
    #: (instruction fetches, data reads, data writes) of the captured
    #: memory-reference trace, when one was collected.
    trace_counts: Optional[Tuple[int, int, int]] = None
    #: The captured reference stream itself (``collect_trace=True``
    #: only): a view of the execution record the evaluation priced.
    trace: Optional[MemoryTrace] = None


@dataclass
class SystemRun:
    """One evaluated system configuration (initial or partitioned)."""

    label: str
    energy: CoreEnergy
    up_cycles: int
    asic_cycles: int
    result: int
    up_utilization: float
    asic_utilization: float = 0.0
    asic_cells: int = 0
    sim: Optional[SimResult] = None
    icache_hit_rate: float = 1.0
    dcache_hit_rate: float = 1.0
    transfer_words: int = 0
    stats: Optional[MemorySystemStats] = None

    @property
    def total_cycles(self) -> int:
        return self.up_cycles + self.asic_cycles

    @property
    def total_energy_nj(self) -> float:
        return self.energy.total_nj


def default_cache_configs() -> Tuple[CacheConfig, CacheConfig]:
    """Instruction and data cache geometries (SPARCLite-class, 0.8 micron)."""
    icache = CacheConfig(size_bytes=2048, line_bytes=16, associativity=2,
                         miss_penalty=8)
    dcache = CacheConfig(size_bytes=1024, line_bytes=16, associativity=2,
                         miss_penalty=8)
    return icache, dcache


def _build_memory_system(library: TechnologyLibrary,
                         icache_cfg: CacheConfig,
                         dcache_cfg: CacheConfig):
    icache = Cache(icache_cfg, "icache")
    dcache = Cache(dcache_cfg, "dcache")
    memory = MainMemory(library)
    bus = SharedBus(library)
    return icache, dcache, memory, bus


def _snapshot_memory_system(icache, dcache, memory, bus, trace,
                            transfer_words: int = 0,
                            asic_mem_reads: int = 0,
                            asic_mem_writes: int = 0
                            ) -> Optional[MemorySystemStats]:
    """Freeze the memory-system counters after a run (None if no caches)."""
    if memory is None:
        return None
    trace_counts = trace.counts() if trace is not None else None
    return MemorySystemStats(
        icache=icache.snapshot() if icache else None,
        dcache=dcache.snapshot() if dcache else None,
        mem_word_reads=memory.word_reads,
        mem_word_writes=memory.word_writes,
        bus_word_reads=bus.word_reads if bus else 0,
        bus_word_writes=bus.word_writes if bus else 0,
        transfer_words=transfer_words,
        asic_mem_reads=asic_mem_reads,
        asic_mem_writes=asic_mem_writes,
        trace_counts=trace_counts,
        trace=trace,
    )


def evaluate_initial(image: ProgramImage, library: TechnologyLibrary,
                     args: Tuple[int, ...] = (),
                     globals_init: Optional[Dict[str, List[int]]] = None,
                     icache_cfg: Optional[CacheConfig] = None,
                     dcache_cfg: Optional[CacheConfig] = None,
                     model_caches: bool = True,
                     collect_trace: bool = False,
                     record: Optional["ExecutionRecord"] = None
                     ) -> SystemRun:
    """Run the unpartitioned ("I") design and account every core.

    With ``model_caches=False`` the memory system is left out entirely —
    the treatment the paper gives its least memory-intensive application
    ("the contribution to total energy consumption could be neglected").
    ``collect_trace=True`` additionally captures the memory-reference
    trace (Fig. 5's "memory trace" tool) into ``SystemRun.stats`` so
    :mod:`repro.verify` can cross-check cache accesses reference by
    reference.  ``record``, an empty
    :class:`~repro.isa.simcompile.ExecutionRecord`, keeps the run's
    execution for :func:`evaluate_partitioned`; a complete one (the same
    workload on the same image) is priced instead of executed.
    """
    if icache_cfg is None or dcache_cfg is None:
        default_i, default_d = default_cache_configs()
        icache_cfg = icache_cfg or default_i
        dcache_cfg = dcache_cfg or default_d
    if model_caches:
        icache, dcache, memory, bus = _build_memory_system(
            library, icache_cfg, dcache_cfg)
    else:
        icache = dcache = memory = bus = None
    trace = MemoryTrace() if (collect_trace and model_caches) else None
    sim = Simulator(image, library, icache=icache, dcache=dcache,
                    memory_model=memory, bus=bus, trace=trace)
    if record is not None and record.complete:
        result = sim.price(record)
    else:
        for name, values in (globals_init or {}).items():
            sim.set_global(name, values)
        result = sim.run(*args, record=record)
    stats = _snapshot_memory_system(icache, dcache, memory, bus, trace)

    energy = CoreEnergy(
        icache_nj=(CacheEnergyModel(library, icache_cfg).energy_nj(icache)
                   if icache else 0.0),
        dcache_nj=(CacheEnergyModel(library, dcache_cfg).energy_nj(dcache)
                   if dcache else 0.0),
        mem_nj=memory.energy_nj() if memory else 0.0,
        up_core_nj=result.energy_nj,
        asic_core_nj=0.0,
        bus_nj=bus.energy_nj() if bus else 0.0,
    )
    return SystemRun(
        label="initial",
        energy=energy,
        up_cycles=result.cycles,
        asic_cycles=0,
        result=result.result,
        up_utilization=result.utilization,
        sim=result,
        icache_hit_rate=icache.hit_rate if icache else 1.0,
        dcache_hit_rate=dcache.hit_rate if dcache else 1.0,
        stats=stats,
    )


def evaluate_partitioned(image: ProgramImage, library: TechnologyLibrary,
                         hw_blocks: Set[Tuple[str, str]],
                         asic_stats: AsicRunStats,
                         asic_metrics: ClusterMetrics,
                         asic_cells: int,
                         asic_energy_nj: Optional[float] = None,
                         asic_mem_reads: int = 0,
                         asic_mem_writes: int = 0,
                         args: Tuple[int, ...] = (),
                         globals_init: Optional[Dict[str, List[int]]] = None,
                         icache_cfg: Optional[CacheConfig] = None,
                         dcache_cfg: Optional[CacheConfig] = None,
                         model_caches: bool = True,
                         collect_trace: bool = False,
                         record: Optional["ExecutionRecord"] = None
                         ) -> SystemRun:
    """Evaluate the partitioned ("P") design.

    Args:
        hw_blocks: ``(function, block)`` labels mapped to the ASIC core.
        asic_stats: cycle accounting of the synthesized core.
        asic_metrics: utilization/energy metrics of the binding.
        asic_cells: reported hardware effort of the whole core.
        asic_energy_nj: gate-level energy estimate; falls back to the
            detailed resource-level model when absent.
        asic_mem_reads / asic_mem_writes: the ASIC's in-place accesses to
            oversized (non-scratchpad) arrays in shared memory.
        record: the initial run's execution record (the same workload on
            the same image, see :func:`evaluate_initial`).  It is priced
            under ``hw_blocks`` instead of executing the design again.
    """
    if icache_cfg is None or dcache_cfg is None:
        default_i, default_d = default_cache_configs()
        icache_cfg = icache_cfg or default_i
        dcache_cfg = dcache_cfg or default_d
    if model_caches:
        icache, dcache, memory, bus = _build_memory_system(
            library, icache_cfg, dcache_cfg)
    else:
        icache = dcache = memory = bus = None
    trace = MemoryTrace() if (collect_trace and model_caches) else None
    sim = Simulator(image, library, icache=icache, dcache=dcache,
                    memory_model=memory, bus=bus, hw_blocks=hw_blocks,
                    trace=trace)
    if record is not None:
        result = sim.price(record)
    else:
        for name, values in (globals_init or {}).items():
            sim.set_global(name, values)
        result = sim.run(*args)

    # Shared-memory transfers (Fig. 2a): the μP deposits inputs (bus+mem
    # write), the ASIC downloads them (bus+mem read); symmetrically for
    # outputs.  The μP spends load/store instructions moving its side.
    words = asic_stats.transfer_words_in + asic_stats.transfer_words_out
    if memory is not None:
        memory.word_writes += words
        memory.word_reads += words
        memory.word_reads += asic_mem_reads
        memory.word_writes += asic_mem_writes
    if bus is not None:
        bus.write_words(words)
        bus.read_words(words)
        bus.read_words(asic_mem_reads)
        bus.write_words(asic_mem_writes)
    stats = _snapshot_memory_system(
        icache, dcache, memory, bus, trace,
        transfer_words=words,
        asic_mem_reads=asic_mem_reads,
        asic_mem_writes=asic_mem_writes)
    energy_model = InstructionEnergyModel(library)
    transfer_up_nj = words * 2 * energy_model.base_nj("mem")
    # μP idle power while the ASIC runs (scaled technology nodes only;
    # the reference node's coefficient is 0.0, an exact no-op).
    up_idle_nj = asic_stats.asic_cycles * library.up_idle_cycle_energy_nj

    asic_nj = asic_energy_nj if asic_energy_nj is not None \
        else asic_metrics.energy_detailed_nj

    energy = CoreEnergy(
        icache_nj=(CacheEnergyModel(library, icache_cfg).energy_nj(icache)
                   if icache else 0.0),
        dcache_nj=(CacheEnergyModel(library, dcache_cfg).energy_nj(dcache)
                   if dcache else 0.0),
        mem_nj=memory.energy_nj() if memory else 0.0,
        up_core_nj=result.energy_nj + transfer_up_nj + up_idle_nj,
        asic_core_nj=asic_nj,
        bus_nj=bus.energy_nj() if bus else 0.0,
    )
    return SystemRun(
        label="partitioned",
        energy=energy,
        up_cycles=result.cycles + asic_stats.transfer_cycles,
        asic_cycles=asic_stats.asic_cycles,
        result=result.result,
        up_utilization=result.utilization,
        asic_utilization=asic_metrics.utilization,
        asic_cells=asic_cells,
        sim=result,
        icache_hit_rate=icache.hit_rate if icache else 1.0,
        dcache_hit_rate=dcache.hit_rate if dcache else 1.0,
        transfer_words=words,
        stats=stats,
    )
