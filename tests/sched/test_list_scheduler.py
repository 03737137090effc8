"""Resource-constrained list-scheduler tests."""

import pytest

from repro.ir.ops import Operation, OpKind, Value
from repro.lang import compile_source
from repro.sched.list_scheduler import (
    ScheduleError,
    datapath_ops,
    hw_dependence_graph,
    list_schedule,
)
from repro.tech.resources import ResourceKind, ResourceSet


def v(name):
    return Value(name)


def independent_adds(count):
    ops = []
    for i in range(count):
        ops.append(Operation(OpKind.CONST, result=v(f"c{i}"), const=i))
        ops.append(Operation(OpKind.ADD, result=v(f"a{i}"),
                             operands=(v(f"c{i}"), v(f"c{i}"))))
    return ops


def alus(n):
    return ResourceSet(f"alu{n}", {ResourceKind.ALU: n})


# ---------------------------------------------------------------------------
# Filtering and dependence graph
# ---------------------------------------------------------------------------

def test_datapath_ops_excludes_control_and_wires():
    ops = [
        Operation(OpKind.CONST, result=v("c"), const=1),
        Operation(OpKind.MOV, result=v("m"), operands=(v("c"),)),
        Operation(OpKind.ADD, result=v("a"), operands=(v("m"), v("m"))),
        Operation(OpKind.JUMP),
    ]
    body = datapath_ops(ops)
    assert [op.kind for op in body] == [OpKind.ADD]


def test_wire_contraction_preserves_transitive_deps():
    c = Operation(OpKind.CONST, result=v("c"), const=1)
    add = Operation(OpKind.ADD, result=v("a"), operands=(v("c"), v("c")))
    mov = Operation(OpKind.MOV, result=v("m"), operands=(v("a"),))
    mul = Operation(OpKind.MUL, result=v("p"), operands=(v("m"), v("m")))
    ddg = hw_dependence_graph([c, add, mov, mul])
    assert list(ddg) == [add, mul]
    assert ddg[add] == {mul: "flow"}


# ---------------------------------------------------------------------------
# Scheduling behaviour
# ---------------------------------------------------------------------------

def test_serial_on_one_alu():
    schedule = list_schedule(independent_adds(4), alus(1))
    schedule.verify()
    assert schedule.makespan == 4
    starts = sorted(e.start for e in schedule.entries)
    assert starts == [0, 1, 2, 3]


def test_parallel_on_two_alus():
    schedule = list_schedule(independent_adds(4), alus(2))
    schedule.verify()
    assert schedule.makespan == 2


def test_dependences_respected():
    c = Operation(OpKind.CONST, result=v("c"), const=1)
    a = Operation(OpKind.ADD, result=v("a"), operands=(v("c"), v("c")))
    b = Operation(OpKind.ADD, result=v("b"), operands=(v("a"), v("a")))
    schedule = list_schedule([c, a, b], alus(2))
    schedule.verify()
    start = {e.op: e.start for e in schedule.entries}
    assert start[b] >= start[a] + 1


def test_multicycle_op_blocks_resource():
    rs = ResourceSet("m1", {ResourceKind.MULTIPLIER: 1})
    ops = []
    for i in range(2):
        ops.append(Operation(OpKind.CONST, result=v(f"c{i}"), const=i))
        ops.append(Operation(OpKind.MUL, result=v(f"m{i}"),
                             operands=(v(f"c{i}"), v(f"c{i}"))))
    schedule = list_schedule(ops, rs)
    schedule.verify()
    assert schedule.makespan == 4  # two 2-cycle muls serialized


def test_compare_falls_back_to_alu():
    rs = alus(1)  # no comparator in the set
    c = Operation(OpKind.CONST, result=v("c"), const=1)
    cmp_op = Operation(OpKind.LT, result=v("lt"), operands=(v("c"), v("c")))
    schedule = list_schedule([c, cmp_op], rs)
    entry = next(e for e in schedule.entries if e.op is cmp_op)
    assert entry.resource is ResourceKind.ALU


def test_comparator_preferred_when_available():
    rs = ResourceSet("s", {ResourceKind.ALU: 1, ResourceKind.COMPARATOR: 1})
    c = Operation(OpKind.CONST, result=v("c"), const=1)
    cmp_op = Operation(OpKind.LT, result=v("lt"), operands=(v("c"), v("c")))
    schedule = list_schedule([c, cmp_op], rs)
    entry = next(e for e in schedule.entries if e.op is cmp_op)
    assert entry.resource is ResourceKind.COMPARATOR


def test_unexecutable_op_raises():
    with pytest.raises(ScheduleError):
        list_schedule([
            Operation(OpKind.CONST, result=v("c"), const=1),
            Operation(OpKind.MUL, result=v("m"), operands=(v("c"), v("c"))),
        ], alus(2))


def test_empty_block():
    schedule = list_schedule([Operation(OpKind.JUMP)], alus(1))
    assert schedule.makespan == 0
    assert schedule.entries == []


def test_critical_path_prioritized():
    # A long serial chain plus independent ops on one ALU: the makespan
    # should equal the chain length (chain ops never wait on fillers).
    ops = []
    ops.append(Operation(OpKind.CONST, result=v("x0"), const=1))
    for i in range(5):
        ops.append(Operation(OpKind.ADD, result=v(f"x{i+1}"),
                             operands=(v(f"x{i}"), v(f"x{i}"))))
    for i in range(3):
        ops.append(Operation(OpKind.CONST, result=v(f"f{i}"), const=i))
        ops.append(Operation(OpKind.ADD, result=v(f"g{i}"),
                             operands=(v(f"f{i}"), v(f"f{i}"))))
    schedule = list_schedule(ops, alus(2))
    schedule.verify()
    assert schedule.makespan == 5


def test_schedule_deterministic():
    ops1 = independent_adds(6)
    s1 = list_schedule(ops1, alus(2))
    s2 = list_schedule(ops1, alus(2))
    assert [(e.op.op_id, e.start) for e in s1.entries] == \
        [(e.op.op_id, e.start) for e in s2.entries]


def test_custom_latency_function_respected():
    c = Operation(OpKind.CONST, result=v("i"), const=0)
    load = Operation(OpKind.LOAD, result=v("x"), operands=(v("i"),), symbol="big")
    rs = ResourceSet("m", {ResourceKind.MEMPORT: 1, ResourceKind.ALU: 1})
    slow = lambda op: 16 if op.kind is OpKind.LOAD else 1
    schedule = list_schedule([c, load], rs, latency_of=slow)
    entry = next(e for e in schedule.entries if e.op is load)
    assert entry.latency == 16
    assert schedule.makespan == 16


def test_verify_catches_capacity_violation():
    schedule = list_schedule(independent_adds(3), alus(1))
    # Corrupt: move everything to step 0.
    from repro.sched.list_scheduler import Schedule, ScheduledOp
    bad = Schedule(
        entries=[ScheduledOp(op=e.op, start=0, latency=e.latency,
                             resource=e.resource) for e in schedule.entries],
        makespan=1, resource_set=schedule.resource_set)
    with pytest.raises(ScheduleError):
        bad.verify()


def test_real_program_blocks_schedule(resource_sets):
    src = """
    func f(a: int[64], n: int) -> int {
        var s: int = 0;
        for i in 0 .. n { s = s + a[i] * (i + 1); }
        return s;
    }
    """
    cdfg = compile_source(src, entry="f").cdfgs["f"]
    rs = resource_sets[2]  # medium (has a multiplier)
    for block in cdfg.blocks.values():
        schedule = list_schedule(block.ops, rs)
        schedule.verify()
