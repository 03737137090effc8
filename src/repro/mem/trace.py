"""Memory-reference traces (the paper's "trace tool", WARTS-style).

The paper's cache/memory models are "fed with the output of a cache
profiler that itself is preceded by a trace tool".  This module defines
the trace record format, a compact in-memory trace, and save/load in a
simple dinero-like text format::

    i 0x00000040        # instruction fetch
    r 0x00010008        # data read
    w 0x000ffff0        # data write

A :class:`MemoryTrace` is one of two things:

* an **event list** of ``(Access, address)`` tuples — what the reference
  interpreter records one reference at a time, :meth:`MemoryTrace.load`
  parses and tests build;
* a **view** of an execution record.  The compiled ISS keeps only its
  :class:`~repro.isa.simcompile.ExecutionRecord`, and the static program
  plus the record determine every software-side reference
  (:class:`repro.isa.pricing.RecordReferences`).  A view's length, kind
  counts and replay arrays (:meth:`MemoryTrace.streams`) are computed
  from block counts and the record's data addresses; its event list is
  built only when something iterates it (the reference replay,
  :meth:`MemoryTrace.dump`, the fuzz oracle), and from then on that list
  is the trace.

Both hold the reference event order exactly;
``tests/mem/test_record_trace.py``, the engine-equivalence tests and the
fuzz oracle compare a view's events with the reference interpreter's,
event for event.
"""

from __future__ import annotations

import enum
from collections import Counter
from itertools import chain
from typing import IO, Iterator, List, Optional, Tuple


class Access(enum.IntEnum):
    """Reference kinds, ordered as in classic dinero traces."""

    IFETCH = 0
    READ = 1
    WRITE = 2


_KIND_CHAR = {Access.IFETCH: "i", Access.READ: "r", Access.WRITE: "w"}
_CHAR_KIND = {v: k for k, v in _KIND_CHAR.items()}

#: One trace event: (kind, byte address).
TraceEvent = Tuple[Access, int]


class MemoryTrace:
    """An ordered sequence of memory references.

    It starts as an event list (``events``, empty by default); an empty
    one becomes a view through :meth:`append_view`.
    """

    def __init__(self, events: Optional[List[TraceEvent]] = None) -> None:
        #: The event list; ``None`` while a view has not needed one.
        self._events = [] if events is None else events
        #: The view's :class:`~repro.isa.pricing.RecordReferences`.
        self._source = None

    @property
    def events(self) -> List[TraceEvent]:
        """The event list, built from the view's source on first use."""
        if self._events is None:
            self._events = self._source.events()
        return self._events

    def record(self, kind: Access, address: int) -> None:
        self.events.append((kind, address))

    def append_view(self, source) -> None:
        """Append the references of ``source``, a
        :class:`~repro.isa.pricing.RecordReferences`: an empty event-list
        trace becomes a view of it, any other trace lists them."""
        if self._events is not None and not self._events:
            self._events, self._source = None, source
        else:
            self.events.extend(source.events())

    def __len__(self) -> int:
        if self._events is None:
            return len(self._source)
        return len(self._events)

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
        if self._events is None:
            return self._source.counts()
        tally = Counter(kind for kind, _ in self._events)
        fetches = tally.get(Access.IFETCH, 0)
        reads = tally.get(Access.READ, 0)
        return fetches, reads, len(self._events) - fetches - reads

    def streams(self):
        """The trace as replay arrays ``(fetches, data, writes, data_at)``.

        ``fetches`` holds the instruction-fetch addresses and ``data``
        the data addresses, each in trace order; ``writes`` flags the
        data references that are not reads and ``data_at`` gives each
        data reference's position in the trace.  A view derives them
        from its record; an event list takes one ``np.fromiter``.
        """
        if self._events is None:
            return self._source.streams()
        import numpy as np

        flat = np.fromiter(chain.from_iterable(self._events),
                           dtype=np.int64,
                           count=2 * len(self._events)).reshape(-1, 2)
        kinds, addresses = flat[:, 0], flat[:, 1]
        data_at = np.flatnonzero(kinds != Access.IFETCH)
        return (addresses[kinds == Access.IFETCH], addresses[data_at],
                kinds[data_at] != Access.READ, data_at)

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
