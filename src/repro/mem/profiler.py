"""Trace-driven cache profiler (the paper's WARTS-style "cache profiler").

Replays one captured :class:`~repro.mem.trace.MemoryTrace` through many
cache geometries in a single pass, yielding per-configuration access/miss
statistics and energies — the cheap way to explore the memory system for a
fixed partition (footnote 4) without re-running the instruction-set
simulator per geometry.

The profiler reproduces the simulator's policy exactly (LRU,
write-through, no-write-allocate); equivalence is asserted by tests.

Engines
-------
Mirroring the ISS's compiled/reference split, :func:`replay` takes an
``engine`` selector:

* ``"auto"`` (default) and ``"batch"`` run the chunked numpy kernel of
  :mod:`repro.mem.cache_batch` (imported at the first replay), which
  walks the trace once for a whole geometry space and replays each
  distinct i-cache and d-cache geometry once;
* ``"reference"`` runs the original one-:meth:`Cache.access`-per-event
  loop, once per pair.

Both produce bit-identical :class:`CacheProfile` results — counters,
final tag state, stalls, and memory traffic
(``tests/mem/test_cache_batch.py`` pins this differentially).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.mem.cache import Cache, CacheConfig
from repro.mem.cache_energy import CacheEnergyModel
from repro.mem.trace import Access, MemoryTrace
from repro.obs import get_tracer

#: Valid values for the ``engine=`` selector, mirroring the ISS pattern.
MEM_ENGINES = ("auto", "batch", "reference")


@dataclass
class CacheProfile:
    """Replay outcome of one trace against one (i-cache, d-cache) pair."""

    icache_cfg: CacheConfig
    dcache_cfg: CacheConfig
    icache: Cache
    dcache: Cache
    #: Pipeline stall cycles implied by read misses.
    stall_cycles: int
    #: Main-memory word traffic: refills + write-throughs.
    memory_word_reads: int
    memory_word_writes: int

    def cache_energy_nj(self, library) -> float:
        i_model = CacheEnergyModel(library, self.icache_cfg)
        d_model = CacheEnergyModel(library, self.dcache_cfg)
        return i_model.energy_nj(self.icache) + d_model.energy_nj(self.dcache)

    def memory_energy_nj(self, library) -> float:
        return (self.memory_word_reads * library.mem_read_energy_nj
                + self.memory_word_writes * library.mem_write_energy_nj)


def replay(trace: MemoryTrace,
           icache_cfg: CacheConfig,
           dcache_cfg: CacheConfig,
           engine: str = "auto") -> CacheProfile:
    """Replay ``trace`` against one geometry pair.

    ``engine``: ``"auto"``/``"batch"`` use the chunked batched kernel,
    ``"reference"`` the scalar per-event loop (see module docstring).
    """
    return profile_configs(trace, [(icache_cfg, dcache_cfg)],
                           engine=engine)[0]


def profile_configs(trace: MemoryTrace,
                    space: Sequence[Tuple[CacheConfig, CacheConfig]],
                    engine: str = "auto") -> List[CacheProfile]:
    """Replay one trace against every geometry pair in ``space``.

    The batched engines walk the trace once for the whole space
    (:func:`repro.mem.cache_batch.replay_sweep`); ``"reference"``
    replays each pair on its own.  Returns one profile per pair, in
    ``space`` order.
    """
    if engine not in MEM_ENGINES:
        raise ValueError(f"unknown engine {engine!r} (expected one of "
                         f"{', '.join(MEM_ENGINES)})")
    with get_tracer().span("mem.replay"):
        if engine == "reference":
            return [_replay_reference(trace, icfg, dcfg)
                    for icfg, dcfg in space]
        from repro.mem.cache_batch import replay_sweep
        caches = replay_sweep(trace, space)
    profiles = []
    for (icache_cfg, dcache_cfg), (icache, dcache) in zip(space, caches):
        # Stall cycles and memory traffic are pure functions of the
        # counters: every read miss stalls for miss_penalty and refills
        # line_words words; every write goes through to memory.
        stall = (icache.read_misses * icache_cfg.miss_penalty
                 + dcache.read_misses * dcache_cfg.miss_penalty)
        mem_reads = (icache.read_misses * icache_cfg.line_words
                     + dcache.read_misses * dcache_cfg.line_words)
        profiles.append(CacheProfile(
            icache_cfg=icache_cfg, dcache_cfg=dcache_cfg,
            icache=icache, dcache=dcache, stall_cycles=stall,
            memory_word_reads=mem_reads, memory_word_writes=dcache.writes))
    return profiles


def _replay_reference(trace: MemoryTrace,
                      icache_cfg: CacheConfig,
                      dcache_cfg: CacheConfig) -> CacheProfile:
    """The scalar oracle: one :meth:`Cache.access` per event."""
    icache = Cache(icache_cfg, "icache")
    dcache = Cache(dcache_cfg, "dcache")
    stall = 0
    mem_reads = 0
    mem_writes = 0
    for kind, address in trace:
        if kind is Access.IFETCH:
            if not icache.access(address):
                stall += icache_cfg.miss_penalty
                mem_reads += icache_cfg.line_words
        elif kind is Access.READ:
            if not dcache.access(address):
                stall += dcache_cfg.miss_penalty
                mem_reads += dcache_cfg.line_words
        else:
            dcache.access(address, is_write=True)
            mem_writes += 1  # write-through
    return CacheProfile(icache_cfg=icache_cfg, dcache_cfg=dcache_cfg,
                        icache=icache, dcache=dcache, stall_cycles=stall,
                        memory_word_reads=mem_reads,
                        memory_word_writes=mem_writes)


def best_profile(profiles: Sequence[CacheProfile], library,
                 ) -> CacheProfile:
    """The geometry minimizing memory-system energy (caches + memory)."""
    if not profiles:
        raise ValueError("no profiles to choose from")
    return min(profiles,
               key=lambda p: p.cache_energy_nj(library)
               + p.memory_energy_nj(library))
