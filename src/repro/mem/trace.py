"""Memory-reference traces (the paper's "trace tool", WARTS-style).

The paper's cache/memory models are "fed with the output of a cache
profiler that itself is preceded by a trace tool".  This module defines
the trace record format, a compact in-memory trace, and save/load in a
simple dinero-like text format::

    i 0x00000040        # instruction fetch
    r 0x00010008        # data read
    w 0x000ffff0        # data write

Recording is on the simulator's hot path, so next to the one-at-a-time
:meth:`MemoryTrace.record` there is :meth:`MemoryTrace.record_batch`
(one ``list.extend`` per run of fetches — the compiled ISS engine
records its precomputed per-block fetch batches the same way) and
:meth:`MemoryTrace.counts` tallies kinds in a single C-level
:class:`collections.Counter` pass.  Both leave the stored event sequence
byte-identical to per-event recording;
``tests/golden/test_golden_values.py`` and the engine-equivalence tests
pin the exact event order.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, List, Tuple


class Access(enum.IntEnum):
    """Reference kinds, ordered as in classic dinero traces."""

    IFETCH = 0
    READ = 1
    WRITE = 2


_KIND_CHAR = {Access.IFETCH: "i", Access.READ: "r", Access.WRITE: "w"}
_CHAR_KIND = {v: k for k, v in _KIND_CHAR.items()}

#: One trace event: (kind, byte address).
TraceEvent = Tuple[Access, int]


@dataclass
class MemoryTrace:
    """An ordered sequence of memory references."""

    events: List[TraceEvent] = field(default_factory=list)

    def record(self, kind: Access, address: int) -> None:
        self.events.append((kind, address))

    def record_batch(self, events: Iterable[TraceEvent]) -> None:
        """Append many events in one C-level ``list.extend``.

        The compiled ISS engine precomputes the (static) fetch-event runs
        of each basic block as constant tuples and records them with a
        single call instead of one :meth:`record` per instruction.  Event
        order is exactly the per-reference order of the reference model.
        """
        self.events.extend(events)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def counts(self) -> Tuple[int, int, int]:
        """(instruction fetches, data reads, data writes).

        Any kind that is neither IFETCH nor READ counts as a write, as in
        the original per-event loop.
        """
        tally = Counter(kind for kind, _ in self.events)
        fetches = tally.get(Access.IFETCH, 0)
        reads = tally.get(Access.READ, 0)
        return fetches, reads, len(self.events) - fetches - reads

    def footprint_bytes(self, granularity: int = 4) -> int:
        """Distinct bytes touched, at ``granularity``-byte resolution."""
        if granularity <= 0:
            raise ValueError(f"granularity must be positive: {granularity}")
        lines = {address // granularity for _, address in self.events}
        return len(lines) * granularity

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def dump(self, stream: IO[str]) -> None:
        """Write the dinero-like text format."""
        for kind, address in self.events:
            stream.write(f"{_KIND_CHAR[kind]} {address:#010x}\n")

    @classmethod
    def load(cls, stream: IO[str]) -> "MemoryTrace":
        """Parse the dinero-like text format (``#`` comments allowed).

        Addresses must be non-negative, as the ISS guarantees (it faults
        on a negative one before recording it).
        """
        trace = cls()
        for line_number, line in enumerate(stream, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            try:
                kind_char, address_text = text.split()
                address = int(address_text, 0)
                if address < 0:
                    raise ValueError(f"negative address {address_text}")
                trace.record(_CHAR_KIND[kind_char.lower()], address)
            except (ValueError, KeyError) as exc:
                raise ValueError(
                    f"bad trace record on line {line_number}: {line!r}"
                ) from exc
        return trace
