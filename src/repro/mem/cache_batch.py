"""Batched set-associative cache simulation (the ``engine="batch"`` kernel).

:class:`~repro.mem.cache.Cache.access` is called once per simulated
reference, so a trace replay pays Python interpreter overhead per event.
This module replays a :class:`~repro.mem.trace.MemoryTrace` in large
chunks instead, and is **bit-identical** to the scalar loop: every
:class:`~repro.mem.cache.CacheStats` counter (hits and misses counted
independently, fills) and the final MRU tag-store state match a
reference replay exactly.  ``tests/mem/test_cache_batch.py`` pins this
differentially against fuzz-generated and golden-app traces.

Why batching is equivalence-preserving
--------------------------------------
Cache sets are independent state machines: the outcome of a reference
depends only on the prior references that map to the *same* set, in
their original relative order.  A stable sort by set index therefore
lets each set's subsequence be replayed on its own.  Within one set,
consecutive references to the *same line* are all-or-nothing given the
residency at the start of the run — so the per-set subsequence is
compressed into runs keyed by (set, tag):

* line resident at run start: every access in the run hits; the first
  promotes the line to MRU.
* line absent, run contains a read: the writes before the first read
  miss (no-write-allocate), the first read misses and fills, and every
  later access in the run hits the now-MRU line.
* line absent, reads absent: every write misses; no state change.

For *read-only* runs with associativity <= 2 the per-run outcome has a
closed form over the run-head tag sequence ``u``: with LRU depth 1 a
run head hits iff ``u[k] == u[k-1]``, with depth 2 iff
``u[k] == u[k-1]`` or ``u[k] == u[k-2]`` (same set) — both fully
vectorized with numpy, including chunk-boundary continuity via virtual
prefix runs seeded from the carried per-set MRU/LRU state.

Besides the counters, every chunk reports the stream positions of its
read misses (both the closed form and the run loop decide each run head
explicitly), which is what lets :mod:`repro.isa.pricing` charge miss
stalls and energies to the instruction that missed.  A cache can start
warm (:meth:`BatchCache.from_cache`) and finish into the
:class:`~repro.mem.cache.Cache` it came from.

A geometry sweep (:func:`replay_sweep`) walks the trace once, from its
arrays (:meth:`~repro.mem.trace.MemoryTrace.streams`: a view of an
execution record derives them, an event list converts once), one chunk
of trace events at a time, feeding one :class:`BatchCache` per distinct
cache geometry, so pairs that share an i-cache or a d-cache share its
replay.  The i-stream is cut to the heads of same-line runs once per
line size: a fetch to the line of the fetch before it hits the MRU line
and moves no LRU state, so it only counts as a read hit.  The d-stream
is its addresses plus write flags.  Set indices sort in the narrowest
unsigned dtype that holds them (numpy's radix path up to 2^16 sets),
which gives the same stable permutation.

Counters (see docs/OBSERVABILITY.md): ``mem.batch.replays``,
``mem.batch.caches``, ``mem.batch.chunks``, ``mem.batch.events``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.mem.cache import Cache, CacheConfig
from repro.mem.trace import MemoryTrace
from repro.obs import get_tracer

#: Events per chunk.  Large enough to amortize array setup, small enough
#: to keep the working set (3 int64 arrays + sort permutation) in cache.
DEFAULT_CHUNK_EVENTS = 1 << 18

#: Sentinel "no tag" for the closed form; real tags are >= 0
#: (addresses are never negative: the ISS faults first and
#: :meth:`MemoryTrace.load` rejects them).
_NO_TAG = -1


class BatchCache:
    """Chunked replay state of one cache core.

    Holds per-set MRU stacks (Python lists, MRU-first — the same
    observable order as :meth:`Cache.set_contents`) plus the same
    independently-counted statistics as :class:`Cache`.  Feed it chunks
    via :meth:`consume_vector`, then call :meth:`finish` to materialize a
    :class:`Cache` whose counters and flat tag store are bit-identical to
    a scalar access-per-reference replay of the same stream.
    """

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self.config = config
        self.name = name
        self._assoc = config.associativity
        self._set_mask = config.num_sets - 1
        self._sort_dtype = np.min_scalar_type(self._set_mask)
        self._offset_shift = config.offset_bits
        self._index_shift = config.index_bits
        self._stacks: List[List[int]] = [[] for _ in range(config.num_sets)]
        self.reads = 0
        self.writes = 0
        self.read_hits = 0
        self.write_hits = 0
        self.read_misses = 0
        self.write_misses = 0
        self.fills = 0

    @classmethod
    def from_cache(cls, cache: Cache) -> "BatchCache":
        """Replay state that continues ``cache``: its tag store and
        counters, as if the chunks that follow were more
        :meth:`Cache.access` calls on it."""
        batch = cls(cache.config, cache.name)
        batch._stacks = cache.set_contents()
        for name in ("reads", "writes", "read_hits", "write_hits",
                     "read_misses", "write_misses", "fills"):
            setattr(batch, name, getattr(cache, name))
        return batch

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------

    def consume_vector(self, addresses, is_write=None):
        """Replay one chunk given as numpy arrays.

        ``addresses`` is an integer array (int32 or int64) of byte
        addresses in stream order; ``is_write`` is a parallel bool array,
        or None for a read-only chunk (the instruction-fetch stream).
        Returns the ascending stream positions of the chunk's read
        misses.
        """
        n = int(addresses.shape[0])
        if n == 0:
            return np.zeros(0, dtype=np.int64)
        lines = addresses >> self._offset_shift
        sets = lines & self._set_mask
        tags = lines >> self._index_shift
        # Stable sort groups equal sets while preserving each set's own
        # subsequence order — the equivalence-preserving transform.  The
        # narrowest unsigned dtype gives the same permutation, on numpy's
        # radix path for up to 2^16 sets.
        order = np.argsort(sets.astype(self._sort_dtype), kind="stable")
        sets = sets[order]
        tags = tags[order]
        if is_write is None or not is_write.any():
            if self._assoc <= 2:
                missed = self._consume_read_runs_lru2(sets, tags)
            else:
                missed = self._consume_runs(sets, tags, None)
        else:
            missed = self._consume_runs(sets, tags, is_write[order])
        return np.sort(order[missed])

    @staticmethod
    def _run_bounds(sets, tags):
        """Start/end indices of maximal same-(set, tag) runs."""
        n = sets.shape[0]
        head = np.empty(n, dtype=bool)
        head[0] = True
        np.not_equal(tags[1:], tags[:-1], out=head[1:])
        head[1:] |= sets[1:] != sets[:-1]
        starts = np.flatnonzero(head)
        ends = np.empty_like(starts)
        ends[:-1] = starts[1:]
        ends[-1] = n
        return starts, ends

    def _consume_runs(self, sets, tags, is_write):
        """Run-compressed replay (general path: any assoc, mixed R/W).

        One Python iteration per (set, tag) run instead of per event.
        ``is_write`` is the set-sorted bool array, or None (all reads).
        Returns the set-sorted positions of the read misses.
        """
        starts, ends = self._run_bounds(sets, tags)
        n = sets.shape[0]
        lengths = ends - starts
        if is_write is None:
            run_reads = lengths
            total_reads = n
            first_read = starts
        else:
            read_cum = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(~is_write, out=read_cum[1:])
            run_reads = read_cum[ends] - read_cum[starts]
            # Position of the first read in each run (== run end when the
            # run is write-only).
            positions = np.where(is_write, n, np.arange(n, dtype=np.int64))
            first_read = np.minimum.reduceat(positions, starts)
            total_reads = int(read_cum[n])
        # The loop only decides residency and moves the LRU stacks; the
        # counters follow from which runs found their line absent.
        stacks = self._stacks
        assoc = self._assoc
        absent: List[int] = []
        for i, (s, tag, r) in enumerate(zip(sets[starts].tolist(),
                                            tags[starts].tolist(),
                                            run_reads.tolist())):
            stack = stacks[s]
            # Membership test instead of try/except: raising ValueError
            # per miss would dominate on low-locality streams.
            if tag in stack:
                # Resident at run start: the whole run hits.
                if stack[0] != tag:
                    stack.remove(tag)
                    stack.insert(0, tag)
            else:
                absent.append(i)
                if r:
                    # The first read misses and fills; the rest of the
                    # run hits the now-MRU line.
                    stack.insert(0, tag)
                    if len(stack) > assoc:
                        stack.pop()
        absent_runs = np.array(absent, dtype=np.int64)
        has_reads = run_reads[absent_runs] > 0
        missed = absent_runs[has_reads]
        # An absent line misses every write before the first read (all
        # of them in a write-only run): no-write-allocate.
        write_misses = int((np.minimum(first_read[absent_runs],
                                       ends[absent_runs])
                            - starts[absent_runs]).sum())
        self.reads += total_reads
        self.writes += n - total_reads
        self.read_hits += total_reads - len(missed)
        self.write_hits += n - total_reads - write_misses
        self.read_misses += len(missed)
        self.write_misses += write_misses
        self.fills += len(missed)
        # A run that misses does so at its first read.
        return first_read[missed]

    def _consume_read_runs_lru2(self, sets, tags):
        """Fully-vectorized read-only replay for associativity <= 2.

        Over one set's run-head tag sequence ``u`` an LRU stack of depth
        d <= 2 holds exactly the last d distinct tags, so run head ``k``
        hits iff ``u[k] == u[k-1]`` (depth 1; only possible across a
        chunk boundary) or ``u[k] == u[k-2]`` (depth 2), and the state
        after the group is ``(u[-1], u[-2])``.  Carried per-set state
        enters as virtual prefix runs ``u[-2] = LRU, u[-1] = MRU``
        patched in below; everything else is array arithmetic.  Returns
        the set-sorted positions of the read misses (the missing run
        heads).
        """
        starts, _ = self._run_bounds(sets, tags)
        run_sets = sets[starts]
        run_tags = tags[starts]
        k = starts.shape[0]
        n = sets.shape[0]
        assoc = self._assoc
        stacks = self._stacks
        # prev1[j] = tag of run j-1 when it belongs to the same set.
        same1 = np.empty(k, dtype=bool)
        same1[0] = False
        np.equal(run_sets[1:], run_sets[:-1], out=same1[1:])
        prev1 = np.full(k, _NO_TAG, dtype=run_tags.dtype)
        prev1[1:][same1[1:]] = run_tags[:-1][same1[1:]]
        # prev2[j] = tag of run j-2 when it belongs to the same set.
        same2 = np.zeros(k, dtype=bool)
        if k > 2:
            np.equal(run_sets[2:], run_sets[:-2], out=same2[2:])
        prev2 = np.full(k, _NO_TAG, dtype=run_tags.dtype)
        if k > 2:
            prev2[2:][same2[2:]] = run_tags[:-2][same2[2:]]
        # Patch chunk-boundary continuity: the first run of each group
        # sees the carried (MRU, LRU) as its virtual predecessors, the
        # second run sees the carried MRU at depth 2.  At most
        # 2 * num_sets fixups per chunk — negligible.
        group_firsts = np.flatnonzero(~same1)
        for j, s in zip(group_firsts.tolist(),
                        run_sets[group_firsts].tolist()):
            stack = stacks[s]
            if stack:
                prev1[j] = stack[0]
                if len(stack) > 1:
                    prev2[j] = stack[1]
        if assoc == 2:
            group_seconds = np.flatnonzero(same1 & ~same2)
            for j, s in zip(group_seconds.tolist(),
                            run_sets[group_seconds].tolist()):
                stack = stacks[s]
                if not stack:
                    continue
                if int(run_tags[j - 1]) == stack[0]:
                    # The group's first run hit the carried MRU, which
                    # left the carried LRU as the depth-2 line.
                    if len(stack) > 1:
                        prev2[j] = stack[1]
                else:
                    prev2[j] = stack[0]
        head_hit = run_tags == prev1
        if assoc == 2:
            head_hit |= run_tags == prev2
        head_hits = int(np.count_nonzero(head_hit))
        # Every non-head event in a run hits its (resident or just
        # filled) line; heads hit per the closed form above.
        self.reads += n
        self.read_hits += (n - k) + head_hits
        self.read_misses += k - head_hits
        self.fills += k - head_hits
        # Final state per group: MRU = last run tag; LRU = previous run
        # tag, falling back to carried state for single-run groups.
        bounds = group_firsts.tolist()
        bounds.append(k)
        run_tag_list = run_tags.tolist()
        run_set_list = run_sets.tolist()
        for g in range(len(bounds) - 1):
            first, limit = bounds[g], bounds[g + 1]
            s = run_set_list[first]
            mru = run_tag_list[limit - 1]
            if assoc == 1:
                stacks[s] = [mru]
            elif limit - first >= 2:
                stacks[s] = [mru, run_tag_list[limit - 2]]
            else:
                stack = stacks[s]
                if not stack:
                    stacks[s] = [mru]
                elif stack[0] != mru:
                    # Hit at carried LRU or a miss: either way the old
                    # MRU slides down and ``mru`` takes the top.
                    stacks[s] = [mru, stack[0]]
                # else: hit at carried MRU; stack unchanged.
        return starts[~head_hit]

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------

    def finish(self, cache: Optional[Cache] = None) -> Cache:
        """Materialize a :class:`Cache` with this state and counters.

        The result is indistinguishable from having driven
        :meth:`Cache.access` once per reference: same flat MRU-first tag
        store, same independently-counted statistics.  ``cache`` (of
        this geometry) is overwritten in place and returned; by default
        a new one is built.
        """
        if cache is None:
            cache = Cache(self.config, self.name)
        assoc = self._assoc
        tags = cache._tags
        for index, stack in enumerate(self._stacks):
            base = index * assoc
            tags[base:base + assoc] = stack + [None] * (assoc - len(stack))
        cache.reads = self.reads
        cache.writes = self.writes
        cache.read_hits = self.read_hits
        cache.write_hits = self.write_hits
        cache.read_misses = self.read_misses
        cache.write_misses = self.write_misses
        cache.fills = self.fills
        return cache


def replay_sweep(trace: MemoryTrace,
                 space: Sequence[Tuple[CacheConfig, CacheConfig]],
                 *,
                 chunk_events: int = DEFAULT_CHUNK_EVENTS,
                 ) -> List[Tuple[Cache, Cache]]:
    """Replay ``trace`` through every (i-cache, d-cache) pair of ``space``
    in one pass.

    Routing matches the scalar profiler loop: IFETCH events feed the
    i-cache as reads, READ events feed the d-cache as reads, and any
    other kind feeds the d-cache as a write.  Caches are independent, so
    each distinct i-cache and d-cache geometry is replayed once however
    many pairs share it, from the trace's arrays
    (:meth:`MemoryTrace.streams`), one chunk of ``chunk_events`` trace
    events at a time.  Returns one ``(icache, dcache)`` pair of freshly
    materialized :class:`Cache` objects per entry of ``space``, in
    order — bit-identical (counters and tag store) to a scalar
    :meth:`Cache.access` replay of that pair; no two entries share a
    :class:`Cache`.
    """
    if chunk_events < 1:
        raise ValueError(f"chunk_events must be positive: {chunk_events}")
    if not space:
        return []
    # CacheConfig is frozen (hashable): one replay state per distinct
    # geometry and stream, in first-seen order.
    ibatches = {icfg: BatchCache(icfg, "icache") for icfg, _ in space}
    dbatches = {dcfg: BatchCache(dcfg, "dcache") for _, dcfg in space}
    tracer = get_tracer()
    tracer.count("mem.batch.replays")
    tracer.count("mem.batch.caches", len(ibatches) + len(dbatches))
    fetches, data, writes, data_at = trace.streams()
    # Chunk bounds as positions in the trace and in each stream.
    bounds = np.append(np.arange(0, len(trace), chunk_events), len(trace))
    d_bounds = np.searchsorted(data_at, bounds)
    # A fetch to the line of the fetch before it hits the line that one
    # left most recently used and moves no LRU state, so each i-cache
    # replays only the heads of same-line runs, cut once per line size.
    heads = {}
    for icfg in ibatches:
        shift = icfg.offset_bits
        if shift not in heads:
            lines = fetches >> shift
            head = np.ones(len(lines), dtype=bool)
            np.not_equal(lines[1:], lines[:-1], out=head[1:])
            at = np.flatnonzero(head)
            heads[shift] = (fetches[at],
                            np.searchsorted(at, bounds - d_bounds))
    for c in range(len(bounds) - 1):
        tracer.count("mem.batch.chunks")
        tracer.count("mem.batch.events", int(bounds[c + 1] - bounds[c]))
        for icfg, batch in ibatches.items():
            addresses, cut = heads[icfg.offset_bits]
            if cut[c + 1] > cut[c]:
                batch.consume_vector(addresses[cut[c]:cut[c + 1]])
        lo, hi = d_bounds[c], d_bounds[c + 1]
        if hi > lo:
            for batch in dbatches.values():
                batch.consume_vector(data[lo:hi], writes[lo:hi])
    for icfg, batch in ibatches.items():
        rest = len(fetches) - len(heads[icfg.offset_bits][0])
        batch.reads += rest
        batch.read_hits += rest
    return [(ibatches[icfg].finish(), dbatches[dcfg].finish())
            for icfg, dcfg in space]


def replay_batch(trace: MemoryTrace,
                 icache_cfg: CacheConfig,
                 dcache_cfg: CacheConfig,
                 *,
                 chunk_events: int = DEFAULT_CHUNK_EVENTS,
                 ) -> Tuple[Cache, Cache]:
    """Replay ``trace`` through one (i-cache, d-cache) pair in chunks:
    the one-pair case of :func:`replay_sweep`."""
    return replay_sweep(trace, [(icache_cfg, dcache_cfg)],
                        chunk_events=chunk_events)[0]
