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

numpy is an optional accelerator: when it is not importable (or the
caller forces ``vectorized=False``) the kernel falls back to a pure
Python chunked loop with identical observable behaviour, and bumps the
``mem.batch.fallback`` counter.

A geometry sweep (:func:`replay_sweep`) walks the trace once: each chunk
is converted and split into its i and d streams once, then fed to one
:class:`BatchCache` per distinct cache geometry, so pairs that share an
i-cache or a d-cache share its replay.

Counters (see docs/OBSERVABILITY.md): ``mem.batch.replays``,
``mem.batch.caches``, ``mem.batch.chunks``, ``mem.batch.events``,
``mem.batch.fallback``.
"""

from __future__ import annotations

from itertools import chain
from typing import List, Optional, Sequence, Tuple

from repro.mem.cache import Cache, CacheConfig
from repro.mem.trace import Access, MemoryTrace
from repro.obs import get_tracer

try:  # numpy is an optional accelerator, never a hard dependency
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via vectorized=False
    _np = None

#: Events per chunk.  Large enough to amortize array setup, small enough
#: to keep the working set (3 int64 arrays + sort permutation) in cache.
DEFAULT_CHUNK_EVENTS = 1 << 18

#: Sentinel "no tag" for the vectorized paths; real tags are >= 0.
_NO_TAG = -1


class BatchCache:
    """Chunked replay state of one cache core.

    Holds per-set MRU stacks (Python lists, MRU-first — the same
    observable order as :meth:`Cache.set_contents`) plus the same
    independently-counted statistics as :class:`Cache`.  Feed it chunks
    via :meth:`consume_vector` / :meth:`consume_scalar`, then call
    :meth:`finish` to materialize a :class:`Cache` whose counters and
    flat tag store are bit-identical to a scalar access-per-reference
    replay of the same stream.
    """

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self.config = config
        self.name = name
        self._assoc = config.associativity
        self._set_mask = config.num_sets - 1
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

    # ------------------------------------------------------------------
    # Pure-Python chunked fallback
    # ------------------------------------------------------------------

    def consume_scalar(self, pairs: Sequence[Tuple[int, bool]]) -> None:
        """Replay ``(address, is_write)`` pairs in stream order.

        Same policy as :meth:`Cache.access` (LRU, write-through,
        no-write-allocate), with the geometry and counters hoisted into
        locals so the fallback still runs one tight loop per chunk.
        """
        assoc = self._assoc
        set_mask = self._set_mask
        offset_shift = self._offset_shift
        index_shift = self._index_shift
        stacks = self._stacks
        reads = writes = read_hits = write_hits = 0
        read_misses = write_misses = fills = 0
        for address, is_write in pairs:
            line = address >> offset_shift
            stack = stacks[line & set_mask]
            tag = line >> index_shift
            try:
                way = stack.index(tag)
            except ValueError:
                way = -1
            if is_write:
                writes += 1
                if way < 0:
                    write_misses += 1
                    continue
                write_hits += 1
            else:
                reads += 1
                if way < 0:
                    read_misses += 1
                    fills += 1
                    stack.insert(0, tag)
                    if len(stack) > assoc:
                        stack.pop()
                    continue
                read_hits += 1
            if way > 0:
                del stack[way]
                stack.insert(0, tag)
        self.reads += reads
        self.writes += writes
        self.read_hits += read_hits
        self.write_hits += write_hits
        self.read_misses += read_misses
        self.write_misses += write_misses
        self.fills += fills

    # ------------------------------------------------------------------
    # numpy-vectorized paths
    # ------------------------------------------------------------------

    def consume_vector(self, addresses, is_write=None) -> None:
        """Replay one chunk given as numpy arrays.

        ``addresses`` is an int64 array of byte addresses in stream
        order; ``is_write`` is a parallel bool array, or None for a
        read-only chunk (the instruction-fetch stream).
        """
        n = int(addresses.shape[0])
        if n == 0:
            return
        lines = addresses >> self._offset_shift
        sets = lines & self._set_mask
        tags = lines >> self._index_shift
        # Stable sort groups equal sets while preserving each set's own
        # subsequence order — the equivalence-preserving transform.
        order = _np.argsort(sets, kind="stable")
        sets = sets[order]
        tags = tags[order]
        if is_write is None or not is_write.any():
            if self._assoc <= 2:
                self._consume_read_runs_lru2(sets, tags)
            else:
                self._consume_runs(sets, tags, None)
        else:
            self._consume_runs(sets, tags, is_write[order])

    @staticmethod
    def _run_bounds(sets, tags):
        """Start/end indices of maximal same-(set, tag) runs."""
        n = sets.shape[0]
        head = _np.empty(n, dtype=bool)
        head[0] = True
        _np.not_equal(tags[1:], tags[:-1], out=head[1:])
        head[1:] |= sets[1:] != sets[:-1]
        starts = _np.flatnonzero(head)
        ends = _np.empty_like(starts)
        ends[:-1] = starts[1:]
        ends[-1] = n
        return starts, ends

    def _consume_runs(self, sets, tags, is_write) -> None:
        """Run-compressed replay (general path: any assoc, mixed R/W).

        One Python iteration per (set, tag) run instead of per event.
        ``is_write`` is the set-sorted bool array, or None (all reads).
        """
        starts, ends = self._run_bounds(sets, tags)
        n = sets.shape[0]
        lengths = ends - starts
        if is_write is None:
            run_reads = lengths.tolist()
            writes_before = None
            total_reads = n
        else:
            read_cum = _np.zeros(n + 1, dtype=_np.int64)
            _np.cumsum(~is_write, out=read_cum[1:])
            run_reads = (read_cum[ends] - read_cum[starts]).tolist()
            # Position of the first read in each run (== run end when the
            # run is write-only); everything before it is a write miss
            # when the line is absent at run start.
            positions = _np.where(is_write, n, _np.arange(n, dtype=_np.int64))
            first_read = _np.minimum.reduceat(positions, starts)
            writes_before = (_np.minimum(first_read, ends) - starts).tolist()
            total_reads = int(read_cum[n])
        run_sets = sets[starts].tolist()
        run_tags = tags[starts].tolist()
        run_lengths = lengths.tolist()
        stacks = self._stacks
        assoc = self._assoc
        read_hits = read_misses = write_hits = write_misses = fills = 0
        for i in range(len(run_tags)):
            tag = run_tags[i]
            stack = stacks[run_sets[i]]
            r = run_reads[i]
            w = run_lengths[i] - r
            # Membership test instead of try/except: raising ValueError
            # per miss would dominate on low-locality streams.
            if tag in stack:
                # Resident at run start: the whole run hits.
                read_hits += r
                write_hits += w
                if stack[0] != tag:
                    stack.remove(tag)
                    stack.insert(0, tag)
            elif r:
                # Absent: writes before the first read miss without
                # allocating; the first read misses and fills; the rest
                # of the run hits the now-MRU line.
                wb = writes_before[i] if writes_before is not None else 0
                write_misses += wb
                write_hits += w - wb
                read_misses += 1
                fills += 1
                read_hits += r - 1
                stack.insert(0, tag)
                if len(stack) > assoc:
                    stack.pop()
            else:
                # Absent, write-only run: no-write-allocate.
                write_misses += w
        self.reads += total_reads
        self.writes += n - total_reads
        self.read_hits += read_hits
        self.write_hits += write_hits
        self.read_misses += read_misses
        self.write_misses += write_misses
        self.fills += fills

    def _consume_read_runs_lru2(self, sets, tags) -> None:
        """Fully-vectorized read-only replay for associativity <= 2.

        Over one set's run-head tag sequence ``u`` an LRU stack of depth
        d <= 2 holds exactly the last d distinct tags, so run head ``k``
        hits iff ``u[k] == u[k-1]`` (depth 1; only possible across a
        chunk boundary) or ``u[k] == u[k-2]`` (depth 2), and the state
        after the group is ``(u[-1], u[-2])``.  Carried per-set state
        enters as virtual prefix runs ``u[-2] = LRU, u[-1] = MRU``
        patched in below; everything else is array arithmetic.
        """
        starts, _ = self._run_bounds(sets, tags)
        run_sets = sets[starts]
        run_tags = tags[starts]
        k = starts.shape[0]
        n = sets.shape[0]
        assoc = self._assoc
        stacks = self._stacks
        # prev1[j] = tag of run j-1 when it belongs to the same set.
        same1 = _np.empty(k, dtype=bool)
        same1[0] = False
        _np.equal(run_sets[1:], run_sets[:-1], out=same1[1:])
        prev1 = _np.full(k, _NO_TAG, dtype=run_tags.dtype)
        prev1[1:][same1[1:]] = run_tags[:-1][same1[1:]]
        # prev2[j] = tag of run j-2 when it belongs to the same set.
        same2 = _np.zeros(k, dtype=bool)
        if k > 2:
            _np.equal(run_sets[2:], run_sets[:-2], out=same2[2:])
        prev2 = _np.full(k, _NO_TAG, dtype=run_tags.dtype)
        if k > 2:
            prev2[2:][same2[2:]] = run_tags[:-2][same2[2:]]
        # Patch chunk-boundary continuity: the first run of each group
        # sees the carried (MRU, LRU) as its virtual predecessors, the
        # second run sees the carried MRU at depth 2.  At most
        # 2 * num_sets fixups per chunk — negligible.
        group_firsts = _np.flatnonzero(~same1)
        for j, s in zip(group_firsts.tolist(),
                        run_sets[group_firsts].tolist()):
            stack = stacks[s]
            if stack:
                prev1[j] = stack[0]
                if len(stack) > 1:
                    prev2[j] = stack[1]
        if assoc == 2:
            group_seconds = _np.flatnonzero(same1 & ~same2)
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
        head_hits = int(_np.count_nonzero(head_hit))
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

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------

    def finish(self) -> Cache:
        """Materialize a :class:`Cache` with this state and counters.

        The result is indistinguishable from having driven
        :meth:`Cache.access` once per reference: same flat MRU-first tag
        store, same independently-counted statistics.
        """
        cache = Cache(self.config, self.name)
        assoc = self._assoc
        tags = cache._tags
        for index, stack in enumerate(self._stacks):
            base = index * assoc
            tags[base:base + len(stack)] = stack
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
                 vectorized: Optional[bool] = None,
                 ) -> List[Tuple[Cache, Cache]]:
    """Replay ``trace`` through every (i-cache, d-cache) pair of ``space``
    in one pass.

    Routing matches the scalar profiler loop: IFETCH events feed the
    i-cache as reads, READ events feed the d-cache as reads, and any
    other kind feeds the d-cache as a write.  Caches are independent, so
    each distinct i-cache and d-cache geometry is replayed once however
    many pairs share it, and each chunk of the trace is converted and
    split into its i and d streams once for all of them.  Returns one
    ``(icache, dcache)`` pair of freshly materialized :class:`Cache`
    objects per entry of ``space``, in order — bit-identical (counters
    and tag store) to a scalar :meth:`Cache.access` replay of that pair;
    no two entries share a :class:`Cache`.

    ``vectorized``: None picks numpy when importable, False forces the
    pure-Python chunked fallback, True requires numpy.
    """
    if chunk_events < 1:
        raise ValueError(f"chunk_events must be positive: {chunk_events}")
    if vectorized is None:
        vectorized = _np is not None
    elif vectorized and _np is None:
        raise RuntimeError(
            "numpy is not available: pass vectorized=False (or None) to "
            "use the pure-Python batched fallback")
    if not space:
        return []
    # CacheConfig is frozen (hashable): one replay state per distinct
    # geometry and stream, in first-seen order.
    ibatches = {icfg: BatchCache(icfg, "icache") for icfg, _ in space}
    dbatches = {dcfg: BatchCache(dcfg, "dcache") for _, dcfg in space}
    tracer = get_tracer()
    tracer.count("mem.batch.replays")
    tracer.count("mem.batch.caches", len(ibatches) + len(dbatches))
    if not vectorized:
        tracer.count("mem.batch.fallback")
    events = trace.events
    ifetch = int(Access.IFETCH)
    read = int(Access.READ)
    for start in range(0, len(events), chunk_events):
        chunk = events[start:start + chunk_events]
        tracer.count("mem.batch.chunks")
        tracer.count("mem.batch.events", len(chunk))
        if vectorized:
            # fromiter over a flattened iterator is ~3x faster than
            # asarray on a list of tuples (no per-tuple unpacking).
            array = _np.fromiter(chain.from_iterable(chunk),
                                 dtype=_np.int64,
                                 count=2 * len(chunk)).reshape(-1, 2)
            kinds = array[:, 0]
            addresses = array[:, 1]
            imask = kinds == ifetch
            if imask.any():
                ifetches = addresses[imask]
                for batch in ibatches.values():
                    batch.consume_vector(ifetches)
            dmask = ~imask
            if dmask.any():
                daddresses = addresses[dmask]
                dwrites = kinds[dmask] != read
                for batch in dbatches.values():
                    batch.consume_vector(daddresses, dwrites)
        else:
            ipairs: List[Tuple[int, bool]] = []
            dpairs: List[Tuple[int, bool]] = []
            for kind, address in chunk:
                if kind == ifetch:
                    ipairs.append((address, False))
                else:
                    dpairs.append((address, kind != read))
            for batch in ibatches.values():
                batch.consume_scalar(ipairs)
            for batch in dbatches.values():
                batch.consume_scalar(dpairs)
    return [(ibatches[icfg].finish(), dbatches[dcfg].finish())
            for icfg, dcfg in space]


def replay_batch(trace: MemoryTrace,
                 icache_cfg: CacheConfig,
                 dcache_cfg: CacheConfig,
                 *,
                 chunk_events: int = DEFAULT_CHUNK_EVENTS,
                 vectorized: Optional[bool] = None,
                 ) -> Tuple[Cache, Cache]:
    """Replay ``trace`` through one (i-cache, d-cache) pair in chunks:
    the one-pair case of :func:`replay_sweep`."""
    return replay_sweep(trace, [(icache_cfg, dcache_cfg)],
                        chunk_events=chunk_events, vectorized=vectorized)[0]
