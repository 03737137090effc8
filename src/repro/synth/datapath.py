"""RTL datapath construction from a scheduled + bound cluster.

The datapath is the classic HLS result: one functional unit per bound
resource instance, operand registers for every value that crosses a control
step boundary (lifetime-packed, so values with disjoint lifetimes share a
register), and input multiplexers on units executing more than one
operation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.ir.ops import Operation, OpKind
from repro.sched.binding import BindingResult
from repro.sched.list_scheduler import Schedule
from repro.tech.library import TechnologyLibrary
from repro.tech.resources import ResourceKind

#: GEQ of one 2-to-1 32-bit multiplexer leg.
MUX_LEG_GEQ = 56
#: Beyond this many legs a unit's operands come from a shared operand bus
#: (tri-state/AND-OR structure) instead of dedicated muxes — the usual HLS
#: datapath style for heavily shared units.
MAX_MUX_LEGS_PER_UNIT = 16
#: Register GEQ comes from the library's REGISTER resource spec.


@dataclass
class Datapath:
    """Structural summary of the synthesized datapath.

    Attributes:
        units: bound resource instances, (kind, index) keyed usage.
        register_count: 32-bit registers (lifetime-packed temporaries plus
            one architectural register per named value the cluster defines).
        mux_legs: total 2:1-equivalent mux legs on unit inputs.
        geq: total datapath hardware effort (units + registers + muxes).
    """

    units: Dict[Tuple[ResourceKind, int], int]
    register_count: int
    mux_legs: int
    geq: int


def max_live_registers(schedule: Schedule) -> int:
    """Max simultaneously-live cross-step values in one block's schedule.

    Public so :mod:`repro.verify` can recompute the lifetime-packing bound
    and audit ``Datapath.register_count`` against it (``synth.registers``
    in ``docs/VALIDATION.md``).
    """
    if schedule.ddg is None or not schedule.entries:
        return 0
    start = {e.op: e.start for e in schedule.entries}
    end = {e.op: e.end for e in schedule.entries}
    lifetimes: List[Tuple[int, int]] = []
    for op, succs in schedule.ddg.items():
        if op not in end:
            continue
        consumers = [start[succ] for succ in succs if succ in start]
        if not consumers:
            continue
        last_use = max(consumers)
        if last_use > end[op]:
            lifetimes.append((end[op], last_use))
    if not lifetimes:
        return 0
    peak = 0
    for step in range(schedule.makespan + 1):
        live = sum(1 for s, e in lifetimes if s <= step < e)
        peak = max(peak, live)
    return peak


#: Backward-compatible alias (pre-verify internal name).
_max_live_registers = max_live_registers


def _architectural_registers(
        schedules: Mapping[str, Schedule],
        block_ops: Optional[Mapping[str, List[Operation]]] = None) -> int:
    """Values that must survive across control blocks: defined in one block
    and used in another (or arriving as cluster inputs).  Block-local
    values are covered by the lifetime-packed temporary registers.

    ``block_ops`` supplies the blocks' *full* operation lists (including
    CONST/MOV, which the schedules drop as wires) so that hardwired
    constants are not mistaken for register-backed cluster inputs.
    """
    defined_in: Dict[str, str] = {}
    used_in: Dict[str, set] = {}
    wired: set = set()
    if block_ops is not None:
        for ops in block_ops.values():
            for op in ops:
                if op.kind is OpKind.CONST and op.result is not None:
                    wired.add(op.result.name)
    for block, schedule in schedules.items():
        for entry in schedule.entries:
            if entry.op.result is not None:
                defined_in.setdefault(entry.op.result.name, block)
            for value in entry.op.uses:
                used_in.setdefault(value.name, set()).add(block)
    cross = 0
    for name, blocks in used_in.items():
        if name in wired:
            continue
        def_block = defined_in.get(name)
        if def_block is None:
            cross += 1  # cluster input: needs an input register
        elif blocks - {def_block}:
            cross += 1
    return cross


def build_datapath(schedules: Mapping[str, Schedule],
                   binding: BindingResult,
                   library: TechnologyLibrary,
                   block_ops: Optional[Mapping[str, List[Operation]]] = None,
                   ) -> Datapath:
    """Assemble the datapath structure for a bound cluster.

    ``block_ops`` optionally carries the full (pre-scheduling) operation
    lists so constant wires are not charged as registers.
    """
    units: Dict[Tuple[ResourceKind, int], int] = {}
    ops_per_unit: Dict[Tuple[ResourceKind, int], int] = {}
    for op, (kind, index) in binding.assignment.items():
        key = (kind, index)
        ops_per_unit[key] = ops_per_unit.get(key, 0) + 1
        units[key] = library.spec(kind).geq

    # Operand muxes: a unit executing m > 1 operations needs (m-1) mux legs
    # on each of its two operand ports, saturating at the shared-operand-bus
    # threshold.
    mux_legs = sum(min(2 * (count - 1), MAX_MUX_LEGS_PER_UNIT)
                   for count in ops_per_unit.values() if count > 1)

    temp_registers = max((max_live_registers(s) for s in schedules.values()),
                         default=0)
    register_count = temp_registers + _architectural_registers(schedules,
                                                               block_ops)

    register_geq = library.spec(ResourceKind.REGISTER).geq
    geq = (sum(units.values())
           + register_count * register_geq
           + mux_legs * MUX_LEG_GEQ)
    return Datapath(units=units, register_count=register_count,
                    mux_legs=mux_legs, geq=geq)
