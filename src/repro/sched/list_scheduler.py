"""Resource-constrained list scheduling (paper Fig. 1 line 8).

Schedules the datapath operations of one basic block onto a designer-given
:class:`~repro.tech.resources.ResourceSet`.  Control steps are ASIC clock
cycles; a multi-cycle operation occupies one instance of its resource for
its whole latency.  Priority is latency-weighted path height (critical path
first), the standard "simple list schedule".

Control operations (branch/jump/return) never occupy a datapath resource:
the controller FSM realizes them, so they are excluded before scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.ir.cdfg import DDG, build_data_dependence_graph
from repro.ir.ops import CONTROL_KINDS, Operation, OpKind
from repro.sched.priority import default_latency, path_height
from repro.tech.resources import (
    ResourceKind,
    ResourceSet,
    compatible_resources,
)


class ScheduleError(Exception):
    """Raised when a block cannot be scheduled on a resource set."""


#: Kinds that synthesize to wires/literals, not datapath resources:
#: constants are hardwired and copies are routing.
_WIRE_KINDS = frozenset({OpKind.CONST, OpKind.MOV})

#: A block's reduced dependence DAG and its path-height priorities.
BlockGraph = Tuple[DDG, Dict[Operation, int]]


@dataclass(frozen=True)
class ScheduledOp:
    """One scheduled operation: start step, latency, executing resource kind."""

    op: Operation
    start: int
    latency: int
    resource: ResourceKind

    @property
    def end(self) -> int:
        """First step after the operation completes."""
        return self.start + self.latency


@dataclass
class Schedule:
    """Result of list-scheduling one basic block.

    Attributes:
        entries: scheduled operations (in nondecreasing start order).
        makespan: number of control steps (block latency in ASIC cycles).
        resource_set: the allocation scheduled against.
    """

    entries: List[ScheduledOp]
    makespan: int
    resource_set: ResourceSet
    by_step: Dict[int, List[ScheduledOp]] = field(default_factory=dict)
    #: The reduced dependence DAG (:func:`hw_dependence_graph`); may be
    #: shared with other schedules of the block, so read-only.
    ddg: Optional[DDG] = None

    def __post_init__(self) -> None:
        if not self.by_step:
            for entry in self.entries:
                self.by_step.setdefault(entry.start, []).append(entry)

    @property
    def op_count(self) -> int:
        return len(self.entries)

    def ops_active_in(self, step: int) -> List[ScheduledOp]:
        """Operations whose execution covers control step ``step``."""
        return [e for e in self.entries if e.start <= step < e.end]

    def violations(self) -> List[str]:
        """All capacity/dependence infeasibilities, as human-readable strings.

        Unlike :meth:`verify` (which raises on the first problem), this
        collects every violation — :mod:`repro.verify` turns each into a
        structured finding (``sched.capacity`` / ``sched.precedence`` in
        ``docs/VALIDATION.md``).  An empty list means the schedule is legal.
        """
        problems: List[str] = []
        usage: Dict[Tuple[int, ResourceKind], int] = {}
        flagged: set = set()
        for entry in self.entries:
            for step in range(entry.start, entry.end):
                key = (step, entry.resource)
                usage[key] = usage.get(key, 0) + 1
                if (usage[key] > self.resource_set.count(entry.resource)
                        and key not in flagged):
                    flagged.add(key)
                    problems.append(
                        f"over-subscribed {entry.resource.value} at step {step}")
        if self.ddg is not None:
            finish = {e.op: e.end for e in self.entries}
            start = {e.op: e.start for e in self.entries}
            for src, succs in self.ddg.items():
                for dst in succs:
                    if start[dst] < finish[src]:
                        problems.append(
                            f"dependence violated: {src!r} -> {dst!r}")
        return problems

    def verify(self) -> None:
        """Check resource-capacity and dependence feasibility."""
        problems = self.violations()
        if problems:
            raise ScheduleError(problems[0])


def datapath_ops(ops: Iterable[Operation]) -> List[Operation]:
    """Operations that occupy a datapath resource when synthesized:
    control flow goes to the FSM, constants/copies become wires."""
    return [op for op in ops
            if op.kind not in CONTROL_KINDS and op.kind not in _WIRE_KINDS]


def hw_dependence_graph(ops: Iterable[Operation]) -> DDG:
    """Data-dependence DAG over the schedulable (datapath) operations.

    Built over all non-control operations, then CONST/MOV nodes are
    contracted away, in program order: their consumers inherit the
    producers' dependences with zero latency (a wire), as ``flow`` edges.
    """
    ddg = build_data_dependence_graph(
        op for op in ops if op.kind not in CONTROL_KINDS)
    preds: Dict[Operation, Dict[Operation, None]] = {op: {} for op in ddg}
    for op, succs in ddg.items():
        for succ in succs:
            preds[succ][op] = None
    for op in [op for op in ddg if op.kind in _WIRE_KINDS]:
        succs = ddg.pop(op)
        for succ in succs:
            del preds[succ][op]
        for pred in preds.pop(op):
            del ddg[pred][op]
            for succ in succs:
                if pred is not succ:
                    ddg[pred][succ] = "flow"
                    preds[succ][pred] = None
    return ddg


def block_graph(ops: Iterable[Operation],
                latency_of=None) -> BlockGraph:
    """The reduced dependence DAG of a block and its path heights.

    Both depend only on the operations and their latencies, never on the
    resource set, so a caller scheduling one block on several sets may
    build this once and pass it to every :func:`list_schedule` call.
    """
    ddg = hw_dependence_graph(ops)
    return ddg, path_height(ddg, latency_of or default_latency)


def _indegrees(ddg: DDG) -> Dict[Operation, int]:
    indegree = dict.fromkeys(ddg, 0)
    for succs in ddg.values():
        for succ in succs:
            indegree[succ] += 1
    return indegree


def list_schedule(ops: Iterable[Operation],
                  resource_set: ResourceSet,
                  latency_of=None,
                  chaining: Optional["ChainingModel"] = None,
                  graph: Optional[BlockGraph] = None) -> Schedule:
    """Schedule the datapath operations of one block.

    Args:
        ops: the block's operations in program order.
        resource_set: the designer allocation to schedule against.
        latency_of: optional ``Operation -> cycles`` override (used to give
            LOAD/STORE on oversized arrays their shared-memory latency).
        chaining: optional operator-chaining model; when given, dependent
            single-cycle operations may share a control step as long as
            their combinational delays fit the clock period (see
            :class:`ChainingModel`).
        graph: the block's :func:`block_graph` under the same
            ``latency_of``, when the caller keeps one; it is only read.

    Raises :class:`ScheduleError` if some operation has no compatible
    resource in ``resource_set`` (the designer's allocation cannot execute
    the cluster — the partitioner then skips this (cluster, set) pair).
    """
    from repro.obs import get_tracer
    tracer = get_tracer()
    tracer.count("sched.list_schedule.calls")
    if chaining is not None:
        return _list_schedule_chained(ops, resource_set, latency_of,
                                      chaining, graph)
    ops = list(ops)
    body = datapath_ops(ops)
    tracer.count("sched.ops_scheduled", len(body))
    for op in body:
        if not resource_set.can_execute(op.kind):
            raise ScheduleError(
                f"no resource in set {resource_set.name!r} executes "
                f"{op.kind.value}")
    if not body:
        return Schedule(entries=[], makespan=0, resource_set=resource_set)

    latency_of = latency_of or default_latency

    ddg, priority = graph or block_graph(ops, latency_of)
    indegree = _indegrees(ddg)
    ready: List[Operation] = [op for op in body if indegree[op] == 0]
    # Earliest step each op may start (dependence-driven).
    earliest: Dict[Operation, int] = {op: 0 for op in body}
    # resource kind -> list of instance-free-at step counters.
    busy_until: Dict[ResourceKind, List[int]] = {
        kind: [0] * count for kind, count in resource_set.items()
    }

    entries: List[ScheduledOp] = []
    scheduled: Dict[Operation, ScheduledOp] = {}
    step = 0
    remaining = len(body)
    guard = 0
    while remaining > 0:
        guard += 1
        if guard > 10_000_000:  # pragma: no cover - defensive
            raise ScheduleError("scheduler failed to converge")
        # Ready ops whose dependence time has come, best priority first.
        # Ties broken by op_id for determinism.
        candidates = sorted(
            (op for op in ready if earliest[op] <= step),
            key=lambda op: (-priority[op], op.op_id))
        for op in candidates:
            placed = False
            for kind in compatible_resources(op.kind):
                instances = busy_until.get(kind)
                if not instances:
                    continue
                for index, free_at in enumerate(instances):
                    if free_at <= step:
                        latency = latency_of(op)
                        instances[index] = step + latency
                        entry = ScheduledOp(op=op, start=step, latency=latency,
                                            resource=kind)
                        entries.append(entry)
                        scheduled[op] = entry
                        ready.remove(op)
                        remaining -= 1
                        placed = True
                        break
                if placed:
                    break
            if placed:
                for succ in ddg[op]:
                    indegree[succ] -= 1
                    earliest[succ] = max(earliest[succ], scheduled[op].end)
                    if indegree[succ] == 0:
                        ready.append(succ)
        step += 1

    makespan = max(e.end for e in entries)
    return Schedule(entries=entries, makespan=makespan,
                    resource_set=resource_set, ddg=ddg)


@dataclass(frozen=True)
class ChainingModel:
    """Operator-chaining parameters.

    Attributes:
        clock_ns: target control-step period.  Defaults (0.0) to the
            slowest instantiated resource's cycle time, resolved at
            schedule time from the resource set.
        delay_of_ns: combinational delay per resource kind (defaults to the
            technology ``t_cyc_ns`` of the kind executing the op).
    """

    clock_ns: float = 0.0

    def resolve_clock(self, resource_set: ResourceSet, library) -> float:
        if self.clock_ns > 0:
            return self.clock_ns
        return max(library.spec(kind).t_cyc_ns
                   for kind in resource_set.kinds())


def _list_schedule_chained(ops: Iterable[Operation],
                           resource_set: ResourceSet,
                           latency_of,
                           chaining: ChainingModel,
                           graph: Optional[BlockGraph]) -> Schedule:
    """List scheduling with operator chaining.

    Dependent single-cycle operations may share a control step as long as
    the accumulated combinational delay along the chain stays within the
    clock period.  Multi-cycle operations (multiplies, divides, memory)
    are chain *breakers*: they neither chain after a producer in the same
    step nor feed a consumer in their final step.
    """
    from repro.tech.library import cmos6_library

    library = cmos6_library()
    clock_ns = chaining.resolve_clock(resource_set, library)
    latency_of = latency_of or default_latency

    ops = list(ops)
    body = datapath_ops(ops)
    for op in body:
        if not resource_set.can_execute(op.kind):
            raise ScheduleError(
                f"no resource in set {resource_set.name!r} executes "
                f"{op.kind.value}")
    if not body:
        return Schedule(entries=[], makespan=0, resource_set=resource_set)

    ddg, priority = graph or block_graph(ops, latency_of)
    indegree = _indegrees(ddg)
    ready: List[Operation] = [op for op in body if indegree[op] == 0]

    # Dependence availability: (step, intra-step chain delay in ns).
    avail_step: Dict[Operation, int] = {op: 0 for op in body}
    avail_delay: Dict[Operation, float] = {op: 0.0 for op in body}
    busy_until: Dict[ResourceKind, List[int]] = {
        kind: [0] * count for kind, count in resource_set.items()
    }

    entries: List[ScheduledOp] = []
    finish_step: Dict[Operation, int] = {}
    finish_delay: Dict[Operation, float] = {}
    step = 0
    remaining = len(body)
    guard = 0
    progressed = True
    while remaining > 0:
        guard += 1
        if guard > 10_000_000:  # pragma: no cover - defensive
            raise ScheduleError("chained scheduler failed to converge")
        if not progressed:
            step += 1
        progressed = False
        # Repeated passes at the same step let a consumer chain behind a
        # producer placed earlier in this very step.
        candidates = sorted(
            (op for op in ready if avail_step[op] <= step),
            key=lambda op: (-priority[op], op.op_id))
        for op in candidates:
            latency = latency_of(op)
            start_delay = avail_delay[op] if avail_step[op] == step else 0.0
            delay_ns = library.spec(compatible_resources(op.kind)[0]).t_cyc_ns
            chainable = latency == 1 and start_delay + delay_ns <= clock_ns
            if start_delay > 0.0 and not chainable:
                # Cannot extend the chain: wait for the next step.
                if avail_step[op] == step:
                    avail_step[op] = step + 1
                    avail_delay[op] = 0.0
                continue
            placed = False
            for kind in compatible_resources(op.kind):
                instances = busy_until.get(kind)
                if not instances:
                    continue
                for index, free_at in enumerate(instances):
                    if free_at <= step:
                        instances[index] = step + latency
                        entries.append(ScheduledOp(op=op, start=step,
                                                   latency=latency,
                                                   resource=kind))
                        finish_step[op] = step + latency
                        if latency == 1:
                            finish_delay[op] = start_delay + delay_ns
                        else:
                            finish_delay[op] = clock_ns  # chain breaker
                        ready.remove(op)
                        remaining -= 1
                        placed = True
                        progressed = True
                        break
                if placed:
                    break
            if placed:
                for succ in ddg[op]:
                    indegree[succ] -= 1
                    # The consumer may chain in the producer's last step
                    # when the producer is single-cycle.
                    if latency == 1 and finish_delay[op] < clock_ns:
                        succ_step = finish_step[op] - 1
                        succ_delay = finish_delay[op]
                    else:
                        succ_step = finish_step[op]
                        succ_delay = 0.0
                    if (succ_step, succ_delay) > (avail_step[succ],
                                                  avail_delay[succ]):
                        avail_step[succ] = succ_step
                        avail_delay[succ] = succ_delay
                    if indegree[succ] == 0:
                        ready.append(succ)

    makespan = max(e.end for e in entries)
    return Schedule(entries=entries, makespan=makespan,
                    resource_set=resource_set, ddg=None)
