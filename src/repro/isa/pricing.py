"""Pricing an execution record: one run, any partition and cache geometry.

:mod:`repro.isa.simcompile` executes a program cache-free and leaves an
:class:`~repro.isa.simcompile.ExecutionRecord` — the dynamic block
sequence, every data address and the taken branches per pc.
:func:`price_record` turns that record into exactly the accumulators the
reference interpreter (:meth:`Simulator._interp_from`) would have built
for the simulator's hardware blocks and attached memory system, and
leaves the attached caches, memory and bus as per-reference calls would:

* per-pc counts are block counts, and the integer counters (cycles,
  stalls, taken branches, hardware instructions and entries) follow by
  exact integer identities;
* the i-cache sees, per software block execution, the first fetch of
  each same-line run (the rest of a run hit the MRU line and only bump
  the counters), the d-cache every software ``LW``/``SW``; both streams
  are rebuilt one slice of the block sequence at a time and fed to the
  batched kernel (:class:`repro.mem.cache_batch.BatchCache`), which
  reports where the read misses fell;
* class transitions run over the software blocks only: a hardware block
  does not update the previous class, and the first software block sees
  ``"nop"``;
* each pc's ``extra_nj`` is the sequential sum of its addends in
  execution order, and within one execution i-miss, then class
  transition, then d-miss.  Absent addends are 0.0 (adding it is exact),
  so a ``[i, t, d] x executions`` matrix per pc, raveled row-major and
  summed with ``np.add.accumulate`` (sequential, unlike the pairwise
  ``np.sum``), reproduces the scalar loop bit for bit.  A pc whose
  addends are all one constant needs no matrix: its sum is that of m
  copies, read off one accumulated run of the constant.

No array here has one element per dynamic instruction: streams are built
per slice, and per-pc matrices are processed a bounded window at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.isa.image import CODE_BASE
from repro.isa.instructions import Opcode, TAKEN_BRANCH_PENALTY, WORD_BYTES
from repro.mem.cache_batch import BatchCache
from repro.mem.trace import Access

#: Block executions per slice of the block sequence: a few tens of
#: thousands of kernel events per slice keeps the stream arrays small and
#: the numpy calls few (six warm initial pricings of the bundled apps
#: were fastest at 8,192, against 2,048 to 65,536).
SLICE_BLOCKS = 8192

#: Float elements per window of the per-pc addend matrices.
_WINDOW_ELEMENTS = 1 << 16

#: Addend columns of one execution, in the reference's order.
_I, _T, _D = 0, 1, 2


def _int32_view(values) -> np.ndarray:
    if len(values) == 0:
        return np.zeros(0, dtype=np.int32)
    return np.frombuffer(values, dtype=np.int32)


def _gather(offsets: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(offsets[i], offsets[i] + lengths[i])``."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if len(ends) else 0
    return (np.arange(total, dtype=np.int64)
            - np.repeat(ends - lengths - offsets, lengths))


def _block_tables(blocks):
    """Per block its first pc and length, and per pc its block."""
    starts = np.array([start for start, _ in blocks], dtype=np.int64)
    blen = np.array([end - start for start, end in blocks], dtype=np.int64)
    return starts, blen, np.repeat(np.arange(len(blocks), dtype=np.int64),
                                   blen)


def _data_tables(opcode, block_of_pc: np.ndarray, nblk: int):
    """The static data references (``LW``/``SW``): their pcs in
    ascending order, which are writes, and per block how many there are
    and the index of its first."""
    data_pcs = np.flatnonzero(np.array(
        [op is Opcode.LW or op is Opcode.SW for op in opcode], dtype=bool))
    d_write = np.array([opcode[p] is Opcode.SW for p in data_pcs.tolist()],
                       dtype=bool)
    nd = np.bincount(block_of_pc[data_pcs], minlength=nblk)
    return data_pcs, d_write, nd, np.cumsum(nd) - nd


@dataclass
class Priced:
    """The reference interpreter's accumulators after a record.

    Exactly the state :meth:`Simulator._interp_from` takes and keeps, so
    a deoptimised run resumes from it.
    """

    counts: List[int]
    extra_cycles: List[int]
    extra_nj: List[float]
    cycles: int
    stall_cycles: int
    instructions: int
    taken_branches: int
    hw_instructions: int
    hw_entries: int
    in_hw: bool
    prev_class: str


def price_record(sim, record) -> Priced:
    """Price ``record`` under ``sim``'s hardware blocks and memory system.

    The attached caches (warm or cold), main memory and bus are updated
    in place, as the per-reference calls of a reference run would.
    """
    opcode = sim._opcode
    size = len(opcode)
    blocks = record.blocks
    nblk = len(blocks)
    icache, dcache = sim.icache, sim.dcache
    memory_model, bus = sim.memory_model, sim.bus

    # -- static tables ---------------------------------------------------
    starts, blen, block_of_pc = _block_tables(blocks)
    pc_hw = np.array(sim._is_hw, dtype=bool)
    hw_b = pc_hw[starts] if nblk else np.zeros(0, dtype=bool)
    class_names = sorted(set(sim._class) | {"nop"})
    class_id = {name: index for index, name in enumerate(class_names)}
    pc_cid = np.array([class_id[name] for name in sim._class],
                      dtype=np.int32)
    first_cid = pc_cid[starts]
    last_cid = pc_cid[starts + blen - 1]
    static_t = np.zeros(size, dtype=bool)
    static_t[1:] = pc_cid[1:] != pc_cid[:-1]
    static_t[starts] = False  # a block head's transition is dynamic
    chain = sim._class_chain(hw_b)
    have_hw = bool(hw_b.any())

    if icache is not None:
        fetch = CODE_BASE + np.arange(size, dtype=np.int64) * WORD_BYTES
        line = fetch >> icache.config.offset_bits
        run_head = np.ones(size, dtype=bool)
        run_head[1:] = line[1:] != line[:-1]
        run_head[starts] = True
        head_pcs = np.flatnonzero(run_head)
        ih_n = np.bincount(block_of_pc[head_pcs], minlength=nblk)
        ih_off = np.cumsum(ih_n) - ih_n
        ih_addr = fetch[head_pcs].astype(np.int32)
        ibatch = BatchCache.from_cache(icache)
    if dcache is not None:
        data_pcs, d_write, nd, d_off = _data_tables(opcode, block_of_pc,
                                                    nblk)
        dbatch = BatchCache.from_cache(dcache)
        daddrs = _int32_view(record.daddrs)

    # -- one pass over the block sequence, a slice at a time -------------
    bseq = _int32_view(record.bseq)
    block_dtype = np.min_scalar_type(max(nblk - 1, 0))
    bcount = np.zeros(nblk, dtype=np.int64)
    carry_cid = class_id["nop"]
    in_hw = False
    hw_entries = 0
    stores = 0
    d_pos = 0
    # Misses and head transitions: (pcs, execution indices, column).
    events: List[tuple] = []

    def charge(pcs: np.ndarray, executions: np.ndarray, column: int) -> None:
        events.append((pcs.astype(np.int32), executions.astype(np.int32),
                       column))

    for j0 in range(0, len(bseq), SLICE_BLOCKS):
        s = bseq[j0:j0 + SLICE_BLOCKS]
        n = len(s)
        # Execution index of every slice position within its block.
        order = np.argsort(s.astype(block_dtype), kind="stable")
        ranked = s[order]
        rank = np.empty(n, dtype=np.int64)
        rank[order] = (np.arange(n, dtype=np.int64)
                       - np.searchsorted(ranked, ranked))
        k_of = bcount[s] + rank
        bcount += np.bincount(s, minlength=nblk)

        hw_seq = hw_b[s]
        if have_hw:
            entered = hw_seq.copy()
            entered[1:] &= ~hw_seq[:-1]
            entered[0] &= not in_hw
            hw_entries += int(np.count_nonzero(entered))
            in_hw = bool(hw_seq[-1])
            sw_pos = np.flatnonzero(~hw_seq)
        else:
            sw_pos = np.arange(n, dtype=np.int64)
        sw_blk = s[sw_pos]

        # Class transitions at block heads, over the chained blocks.
        chained = np.flatnonzero(chain[s])
        if len(chained):
            chained_blk = s[chained]
            before = np.empty(len(chained), dtype=np.int32)
            before[0] = carry_cid
            before[1:] = last_cid[chained_blk[:-1]]
            moved = (first_cid[chained_blk] != before) & ~hw_b[chained_blk]
            carry_cid = int(last_cid[chained_blk[-1]])
            at = chained[moved]
            charge(starts[s[at]], k_of[at], _T)

        if icache is not None and len(sw_blk):
            lengths = ih_n[sw_blk]
            index = _gather(ih_off[sw_blk], lengths)
            missed = ibatch.consume_vector(ih_addr[index])
            if len(missed):
                which = np.searchsorted(np.cumsum(lengths), missed,
                                        side="right")
                charge(head_pcs[index[missed]], k_of[sw_pos[which]], _I)

        if dcache is not None:
            lengths = nd[s]
            count = int(lengths.sum())
            slots = _gather(d_off[s], lengths)
            addresses = daddrs[d_pos:d_pos + count]
            d_pos += count
            owner = np.repeat(np.arange(n, dtype=np.int64), lengths)
            if have_hw:
                keep = ~hw_seq[owner]
                slots, addresses, owner = (slots[keep], addresses[keep],
                                           owner[keep])
            writes = d_write[slots]
            stores += int(np.count_nonzero(writes))
            missed = dbatch.consume_vector(addresses, writes)
            if len(missed):
                charge(data_pcs[slots[missed]], k_of[owner[missed]], _D)

    # -- per-pc integer counters -----------------------------------------
    sw_pc = ~pc_hw
    counts = bcount[block_of_pc] * sw_pc
    taken = np.array(record.taken, dtype=np.int64) * sw_pc
    if events:
        ev_pc = np.concatenate([pcs for pcs, _, _ in events])
        ev_k = np.concatenate([ks for _, ks, _ in events])
        ev_col = np.concatenate([np.full(len(pcs), col, dtype=np.int8)
                                 for pcs, _, col in events])
    else:
        ev_pc = ev_k = np.zeros(0, dtype=np.int32)
        ev_col = np.zeros(0, dtype=np.int8)
    i_pen = icache.config.miss_penalty if icache is not None else 0
    d_pen = dcache.config.miss_penalty if dcache is not None else 0
    i_miss = np.bincount(ev_pc[ev_col == _I], minlength=size)
    d_miss = np.bincount(ev_pc[ev_col == _D], minlength=size)
    extra_cycles = (TAKEN_BRANCH_PENALTY * taken + i_pen * i_miss
                    + d_pen * d_miss)
    i_misses = int(i_miss.sum())
    d_misses = int(d_miss.sum())
    taken_branches = int(taken.sum())
    cycles = (int(np.dot(np.array(sim._cycles, dtype=np.int64), counts))
              + TAKEN_BRANCH_PENALTY * taken_branches)
    instructions = int(np.dot(bcount, blen))
    hw_instructions = int(np.dot(bcount[hw_b], blen[hw_b]))

    # -- per-pc float addends, summed in execution order -----------------
    stall_nj = sim.energy_model.stall_nj
    addend = np.array([i_pen * stall_nj,
                       sim.energy_model.overhead_nj("alu", "mul"),
                       d_pen * stall_nj])
    extra_nj = np.zeros(size)
    # Addends per pc and kind.  When all of a pc's addends are one
    # constant, their order cannot matter: the sum is that of m copies.
    per_kind = np.stack([i_miss,
                         np.bincount(ev_pc[ev_col == _T], minlength=size)
                         + static_t * counts,
                         d_miss])
    kinds = np.count_nonzero(per_kind, axis=0)
    single = np.flatnonzero(kinds == 1)
    column = np.argmax(per_kind[:, single] > 0, axis=0)
    copies = per_kind[column, single]
    for col in (_I, _T, _D):
        chosen = column == col
        if chosen.any():
            m = copies[chosen]
            sums = np.add.accumulate(np.full(int(m.max()), addend[col]))
            extra_nj[single[chosen]] = sums[m - 1]
    # The rest mix kinds: sum their [i, t, d] x executions matrices.
    mixed = kinds > 1
    keep = mixed[ev_pc]
    ev_pc, ev_k, ev_col = ev_pc[keep], ev_k[keep], ev_col[keep]
    by_pc = np.argsort(ev_pc, kind="stable")
    ev_pc, ev_k, ev_col = ev_pc[by_pc], ev_k[by_pc], ev_col[by_pc]
    for b in np.unique(block_of_pc[mixed]).tolist():
        start = int(starts[b])
        end = start + int(blen[b])
        lo, hi = np.searchsorted(ev_pc, (start, end))
        rows = np.flatnonzero(mixed[start:end]) + start
        extra_nj[rows] = _sum_addends(
            rows, int(bcount[b]), static_t, addend,
            ev_pc[lo:hi], ev_k[lo:hi], ev_col[lo:hi])

    # -- the memory system -----------------------------------------------
    if icache is not None:
        ibatch.finish(icache)
        # The rest of each same-line run hit the line its head made MRU.
        rest = int(np.dot(bcount * ~hw_b, blen - ih_n))
        icache.reads += rest
        icache.read_hits += rest
        words = icache.config.line_words * i_misses
        if memory_model is not None:
            memory_model.refill(words)
        if bus is not None:
            bus.read_words(words)
    if dcache is not None:
        dbatch.finish(dcache)
        words = dcache.config.line_words * d_misses
        if memory_model is not None:
            memory_model.refill(words)
            memory_model.word_writes += stores  # write-through
        if bus is not None:
            bus.read_words(words)
            bus.write_words(stores)

    return Priced(
        counts=counts.tolist(),
        extra_cycles=extra_cycles.tolist(),
        extra_nj=extra_nj.tolist(),
        cycles=cycles,
        stall_cycles=i_pen * i_misses + d_pen * d_misses,
        instructions=instructions,
        taken_branches=taken_branches,
        hw_instructions=hw_instructions,
        hw_entries=hw_entries,
        in_hw=in_hw,
        prev_class=class_names[carry_cid])


def _sum_addends(rows: np.ndarray, executions: int, static_t: np.ndarray,
                 addend: np.ndarray, ev_pc: np.ndarray, ev_k: np.ndarray,
                 ev_col: np.ndarray) -> np.ndarray:
    """Sequential sums of each row pc's ``[i, t, d] x executions`` addends.

    ``rows`` are pcs of one block (``executions`` runs each); the events
    are that block's misses and head transitions, sorted by pc.  Windows
    of executions carry the running sum, so memory stays bounded.
    """
    width = max(1, _WINDOW_ELEMENTS // (3 * len(rows)))
    row_of = np.searchsorted(rows, ev_pc)
    static_rows = static_t[rows]
    total = np.zeros(len(rows))
    for k0 in range(0, executions, width):
        k1 = min(executions, k0 + width)
        window = np.zeros((len(rows), k1 - k0, 3))
        window[static_rows, :, _T] = addend[_T]
        inside = (ev_k >= k0) & (ev_k < k1)
        window[row_of[inside], ev_k[inside] - k0, ev_col[inside]] = \
            addend[ev_col[inside]]
        flat = window.reshape(len(rows), 3 * (k1 - k0))
        # Carry the running sum in as the first addition of the window.
        flat[:, 0] += total
        total = np.add.accumulate(flat, axis=1)[:, -1]
    return total


class RecordReferences:
    """The software-side memory references of an execution record.

    Exactly what the reference interpreter traces running the record's
    execution with hardware-shadow pcs ``is_hw``: per software block
    execution, each instruction's fetch, followed for a ``LW``/``SW`` by
    its data reference; hardware-shadow blocks add nothing.  The source
    of a :class:`~repro.mem.trace.MemoryTrace` view.
    """

    def __init__(self, record, is_hw: List[bool]) -> None:
        self.record = record
        opcode = [instr.opcode for instr in record.image.instructions]
        self._starts, self._blen, block_of_pc = _block_tables(record.blocks)
        nblk = len(record.blocks)
        self._data_pcs, self._d_write, self._nd, self._d_off = \
            _data_tables(opcode, block_of_pc, nblk)
        self._sw = ~np.array(is_hw, dtype=bool)[self._starts]
        # A data reference follows its own fetch and its block's earlier
        # fetches and data references.
        owner = block_of_pc[self._data_pcs]
        self._d_at = (self._data_pcs - self._starts[owner] + 1
                      + np.arange(len(owner)) - self._d_off[owner])
        self._nw = np.bincount(owner[self._d_write], minlength=nblk)

    def counts(self):
        """(instruction fetches, data reads, data writes)."""
        runs = np.bincount(_int32_view(self.record.bseq),
                           minlength=len(self._blen)) * self._sw
        return (int(np.dot(runs, self._blen)),
                int(np.dot(runs, self._nd - self._nw)),
                int(np.dot(runs, self._nw)))

    def __len__(self) -> int:
        return sum(self.counts())

    def streams(self):
        """``(fetches, data, writes, data_at)``, as
        :meth:`MemoryTrace.streams <repro.mem.trace.MemoryTrace.streams>`
        documents them."""
        bseq = _int32_view(self.record.bseq)
        sw = self._sw[bseq]
        sw_seq = bseq[sw]
        pcs = _gather(self._starts[sw_seq], self._blen[sw_seq])
        lengths = self._nd[bseq]
        slots = _gather(self._d_off[bseq], lengths)
        owner = np.repeat(np.arange(len(bseq), dtype=np.int64), lengths)
        per_run = np.where(sw, self._blen[bseq] + lengths, 0)
        first_event = np.cumsum(per_run) - per_run
        keep = sw[owner]
        slots, owner = slots[keep], owner[keep]
        return (CODE_BASE + pcs * WORD_BYTES,
                _int32_view(self.record.daddrs)[keep],
                self._d_write[slots],
                first_event[owner] + self._d_at[slots])

    def events(self) -> List[tuple]:
        """The ``(Access, address)`` event list, in trace order."""
        fetches, data, writes, data_at = self.streams()
        kinds = np.zeros(len(fetches) + len(data), dtype=np.int8)
        kinds[data_at] = np.where(writes, Access.WRITE, Access.READ)
        addresses = np.empty(len(kinds), dtype=np.int64)
        addresses[data_at] = data
        addresses[kinds == Access.IFETCH] = fetches
        members = tuple(Access)
        return [(members[kind], address) for kind, address
                in zip(kinds.tolist(), addresses.tolist())]
