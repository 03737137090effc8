"""Set-associative cache simulator (LRU, write-through, no-allocate).

Write-through with no write-allocate matches the embedded cores of the
paper's era (e.g. SPARCLite): write misses go straight to memory without
disturbing the array, writes are buffered (no stall), read misses stall the
pipeline for ``miss_penalty`` cycles while the line refills.

Optimised data layout
---------------------
:class:`Cache` is on the hot path of every simulated reference (one call
per instruction fetch plus one per data access), so the tag store is a
single flat list of ``num_sets * associativity`` entries — each set owns
the contiguous segment ``[set * assoc, (set + 1) * assoc)`` in MRU-first
order, with ``None`` marking an invalid way.  Geometry that the previous
implementation recomputed from :class:`CacheConfig` properties on every
access (set mask, index shift, offset shift) is frozen into instance
attributes at construction, the hit scan is a bounded C-level
``list.index``, and LRU rotation is a small slice move within the set's
segment — no per-access allocation.

The observable results are bit-identical to the reference model: every
counter (reads/writes, hits/misses counted independently on their own
code paths, fills) and every hit/miss decision matches the per-set
list-of-tags implementation exactly.  ``tests/golden/test_golden_values.py``
pins the end-to-end counters for all bundled apps and
``repro.verify`` audits the ``hits + misses == accesses`` invariant at
runtime (``mem.cache_accounting``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache core.

    Attributes:
        size_bytes: total data capacity.
        line_bytes: line (block) size.
        associativity: ways per set (1 = direct-mapped).
        miss_penalty: stall cycles for a read miss (line refill).
        address_bits: physical address width (for tag-energy modelling).
    """

    size_bytes: int = 8192
    line_bytes: int = 16
    associativity: int = 2
    miss_penalty: int = 8
    address_bits: int = 24

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.line_bytes <= 0:
            raise ValueError("cache sizes must be positive")
        if self.size_bytes % (self.line_bytes * self.associativity) != 0:
            raise ValueError(
                f"size {self.size_bytes} not divisible by "
                f"line*assoc = {self.line_bytes * self.associativity}")
        if self.line_bytes & (self.line_bytes - 1):
            raise ValueError("line_bytes must be a power of two")
        num_sets = self.size_bytes // (self.line_bytes * self.associativity)
        if num_sets & (num_sets - 1):
            raise ValueError(f"number of sets ({num_sets}) must be a power of two")
        if self.address_bits <= self.index_bits + self.offset_bits:
            # An address must split into index + offset + at least one tag
            # bit; a clamp here would silently undercount tag energy.
            raise ValueError(
                f"address_bits={self.address_bits} cannot address this "
                f"geometry: {num_sets} sets x {self.line_bytes}B lines need "
                f"{self.index_bits} index + {self.offset_bits} offset bits "
                f"plus at least 1 tag bit (widen address_bits or shrink the "
                f"cache)")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.associativity)

    @property
    def line_words(self) -> int:
        return self.line_bytes // 4

    @property
    def index_bits(self) -> int:
        return max(1, self.num_sets - 1).bit_length() if self.num_sets > 1 else 0

    @property
    def offset_bits(self) -> int:
        return (self.line_bytes - 1).bit_length()

    @property
    def tag_bits(self) -> int:
        # __post_init__ guarantees this is >= 1; no clamping.
        return self.address_bits - self.index_bits - self.offset_bits


@dataclass(frozen=True)
class CacheStats:
    """Immutable snapshot of one cache's event counters.

    Hits and misses are counted *independently* on their respective code
    paths (rather than one being derived from the other), so the identity
    ``hits + misses == accesses`` is a genuine cross-counter invariant —
    exactly what :mod:`repro.verify` audits (see ``docs/VALIDATION.md``,
    ``mem.cache_accounting``).
    """

    name: str
    config: CacheConfig
    reads: int
    writes: int
    read_hits: int
    write_hits: int
    read_misses: int
    write_misses: int
    fills: int

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def hits(self) -> int:
        return self.read_hits + self.write_hits

    @property
    def misses(self) -> int:
        return self.read_misses + self.write_misses

    @property
    def hit_rate(self) -> float:
        if self.accesses == 0:
            return 1.0
        return 1.0 - self.misses / self.accesses


class Cache:
    """One cache core; call :meth:`access` per reference.

    Statistics accumulate until :meth:`reset`.
    """

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self.config = config
        self.name = name
        # Flat tag store: set ``s`` owns ``_tags[s*assoc:(s+1)*assoc]`` in
        # MRU-first order; ``None`` marks an invalid way.  Geometry is
        # frozen here so the hot :meth:`access` path never touches the
        # (computed) CacheConfig properties.
        self._assoc = config.associativity
        self._set_mask = config.num_sets - 1
        self._offset_shift = config.offset_bits
        self._index_shift = config.index_bits
        self._tags: List[object] = [None] * (config.num_sets * self._assoc)
        self.reads = 0
        self.writes = 0
        self.read_hits = 0
        self.write_hits = 0
        self.read_misses = 0
        self.write_misses = 0
        self.fills = 0

    def reset(self) -> None:
        """Clear contents and statistics."""
        self._tags = [None] * (self.config.num_sets * self._assoc)
        self.reads = 0
        self.writes = 0
        self.read_hits = 0
        self.write_hits = 0
        self.read_misses = 0
        self.write_misses = 0
        self.fills = 0

    def access(self, address: int, is_write: bool = False) -> bool:
        """Simulate one reference; returns True on hit.

        Read misses allocate (LRU eviction); write misses do not
        (no-write-allocate, write-through).
        """
        line = address >> self._offset_shift
        assoc = self._assoc
        base = (line & self._set_mask) * assoc
        end = base + assoc
        tag = line >> self._index_shift
        tags = self._tags
        try:
            way = tags.index(tag, base, end)
        except ValueError:
            way = -1
        if is_write:
            self.writes += 1
            if way < 0:
                self.write_misses += 1
                return False
            self.write_hits += 1
        else:
            self.reads += 1
            if way < 0:
                self.read_misses += 1
                self.fills += 1
                # Insert at MRU; the set's LRU way falls off the segment.
                tags[base + 1:end] = tags[base:end - 1]
                tags[base] = tag
                return False
            self.read_hits += 1
        if way > base:
            # Rotate the hit way to the MRU slot of its set segment.
            tags[base + 1:way + 1] = tags[base:way]
            tags[base] = tag
        return True

    def set_contents(self) -> List[List[int]]:
        """Valid tags per set, MRU-first (introspection/testing only)."""
        assoc = self._assoc
        return [[tag for tag in self._tags[base:base + assoc]
                 if tag is not None]
                for base in range(0, len(self._tags), assoc)]

    def snapshot(self) -> CacheStats:
        """Freeze the current counters into a :class:`CacheStats`."""
        return CacheStats(
            name=self.name, config=self.config,
            reads=self.reads, writes=self.writes,
            read_hits=self.read_hits, write_hits=self.write_hits,
            read_misses=self.read_misses, write_misses=self.write_misses,
            fills=self.fills)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def hits(self) -> int:
        return self.read_hits + self.write_hits

    @property
    def misses(self) -> int:
        return self.read_misses + self.write_misses

    @property
    def hit_rate(self) -> float:
        if self.accesses == 0:
            return 1.0
        return 1.0 - self.misses / self.accesses

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Cache {self.name}: {self.config.size_bytes}B "
                f"{self.config.associativity}-way, "
                f"{self.accesses} accesses, hit rate {self.hit_rate:.3f}>")
