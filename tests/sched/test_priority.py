"""ASAP/ALAP/mobility/height priority tests."""

import pytest

from repro.ir.cdfg import build_data_dependence_graph
from repro.ir.ops import Operation, OpKind, Value
from repro.sched.priority import (
    alap_schedule,
    asap_schedule,
    mobility,
    path_height,
)


def v(name):
    return Value(name)


def chain():
    """c1 -> add -> mul -> sub (serial chain)."""
    c1 = Operation(OpKind.CONST, result=v("c"), const=1)
    add = Operation(OpKind.ADD, result=v("a"), operands=(v("c"), v("c")))
    mul = Operation(OpKind.MUL, result=v("m"), operands=(v("a"), v("a")))
    sub = Operation(OpKind.SUB, result=v("s"), operands=(v("m"), v("a")))
    ops = [c1, add, mul, sub]
    return ops, build_data_dependence_graph(ops)


def test_asap_respects_latency():
    (c1, add, mul, sub), ddg = chain()[0], chain()[1]
    ops, ddg = chain()
    c1, add, mul, sub = ops
    asap = asap_schedule(ddg)
    assert asap[c1] == 0
    assert asap[add] == 1          # const latency 1
    assert asap[mul] == 2
    assert asap[sub] == 4          # mul latency 2


def test_alap_deadline_defaults_to_asap_makespan():
    ops, ddg = chain()
    asap = asap_schedule(ddg)
    alap = alap_schedule(ddg)
    for op in ops:
        assert alap[op] >= asap[op]
    # The chain is fully serial: no slack anywhere.
    assert all(alap[op] == asap[op] for op in ops)


def test_mobility_zero_on_critical_path():
    ops, ddg = chain()
    assert all(m == 0 for m in mobility(ddg).values())


def test_mobility_positive_off_critical_path():
    c1 = Operation(OpKind.CONST, result=v("c"), const=1)
    long1 = Operation(OpKind.MUL, result=v("m"), operands=(v("c"), v("c")))
    long2 = Operation(OpKind.MUL, result=v("n"), operands=(v("m"), v("m")))
    side = Operation(OpKind.ADD, result=v("a"), operands=(v("c"), v("c")))
    join = Operation(OpKind.ADD, result=v("j"), operands=(v("n"), v("a")))
    ddg = build_data_dependence_graph([c1, long1, long2, side, join])
    mob = mobility(ddg)
    assert mob[long1] == 0 and mob[long2] == 0
    assert mob[side] > 0


def test_path_height_decreases_along_edges():
    ops, ddg = chain()
    height = path_height(ddg)
    for src, succs in ddg.items():
        for dst in succs:
            assert height[src] > height[dst]


def test_path_height_of_sink_is_own_latency():
    ops, ddg = chain()
    sub = ops[-1]
    assert path_height(ddg)[sub] == 1


def test_custom_latency_function():
    ops, ddg = chain()
    flat = lambda op: 1
    asap = asap_schedule(ddg, flat)
    assert asap[ops[-1]] == 3  # all unit latency


def test_empty_graph():
    empty = build_data_dependence_graph([])
    assert empty == {}
    assert asap_schedule(empty) == {}
    assert alap_schedule(empty) == {}
    assert path_height(empty) == {}
