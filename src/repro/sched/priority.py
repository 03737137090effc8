"""Scheduling priorities: ASAP / ALAP times, mobility, path height.

All functions operate on the intra-block data-dependence DAG produced by
:func:`repro.ir.cdfg.build_data_dependence_graph`, whose program-order keys
are a topological order; latencies come from the technology's
:func:`~repro.tech.resources.operation_latency`.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.ir.cdfg import DDG
from repro.ir.ops import Operation
from repro.tech.resources import operation_latency

#: Maps an operation to its latency in cycles.  The default uses the
#: kind-based technology latency; callers may pass a context-aware function
#: (e.g. shared-memory LOAD/STORE latency for oversized arrays).
LatencyFn = Callable[[Operation], int]


def default_latency(op: Operation) -> int:
    return operation_latency(op.kind)


def asap_schedule(ddg: DDG,
                  latency_of: Optional[LatencyFn] = None) -> Dict[Operation, int]:
    """Earliest start time of each operation (unconstrained resources)."""
    latency_of = latency_of or default_latency
    start = dict.fromkeys(ddg, 0)
    for op, succs in ddg.items():
        finish = start[op] + latency_of(op)
        for succ in succs:
            start[succ] = max(start[succ], finish)
    return start


def alap_schedule(ddg: DDG, deadline: int = 0,
                  latency_of: Optional[LatencyFn] = None) -> Dict[Operation, int]:
    """Latest start times against ``deadline`` (default: the ASAP makespan)."""
    latency_of = latency_of or default_latency
    if deadline <= 0:
        asap = asap_schedule(ddg, latency_of)
        deadline = max(
            (asap[op] + latency_of(op) for op in ddg), default=0)
    start: Dict[Operation, int] = {}
    for op in reversed(ddg):
        latest = deadline - latency_of(op)
        for succ in ddg[op]:
            latest = min(latest, start[succ] - latency_of(op))
        start[op] = latest
    return start


def mobility(ddg: DDG,
             latency_of: Optional[LatencyFn] = None) -> Dict[Operation, int]:
    """Mobility (ALAP - ASAP): zero-mobility ops are on the critical path."""
    asap = asap_schedule(ddg, latency_of)
    alap = alap_schedule(ddg, latency_of=latency_of)
    return {op: alap[op] - asap[op] for op in ddg}


def path_height(ddg: DDG,
                latency_of: Optional[LatencyFn] = None) -> Dict[Operation, int]:
    """Longest latency-weighted path from each operation to any sink —
    the classic list-scheduling priority (higher = schedule first)."""
    latency_of = latency_of or default_latency
    height: Dict[Operation, int] = {}
    for op in reversed(ddg):
        tail = max((height[succ] for succ in ddg[op]), default=0)
        height[op] = latency_of(op) + tail
    return height
