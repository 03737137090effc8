"""CDFG structure and dependence-graph tests."""

import pytest

from repro.ir.cdfg import BasicBlock, CDFG, IRError, build_data_dependence_graph
from repro.ir.ops import Operation, OpKind, Value


def v(name):
    return Value(name)


def make_diamond():
    """entry -> (then|else) -> merge"""
    cdfg = CDFG("f")
    entry = cdfg.add_block("entry")
    then = cdfg.add_block("then")
    other = cdfg.add_block("else")
    merge = cdfg.add_block("merge")
    entry.append(Operation(OpKind.CONST, result=v("c"), const=1))
    entry.append(Operation(OpKind.BRANCH, operands=(v("c"),)))
    then.append(Operation(OpKind.JUMP))
    other.append(Operation(OpKind.JUMP))
    merge.append(Operation(OpKind.RETURN))
    cdfg.add_edge("entry", "then", "true")
    cdfg.add_edge("entry", "else", "false")
    cdfg.add_edge("then", "merge", "jump")
    cdfg.add_edge("else", "merge", "jump")
    return cdfg


# ---------------------------------------------------------------------------
# BasicBlock
# ---------------------------------------------------------------------------

def test_block_append_after_terminator_rejected():
    block = BasicBlock("b")
    block.append(Operation(OpKind.RETURN))
    with pytest.raises(IRError):
        block.append(Operation(OpKind.NOP))


def test_block_body_excludes_terminator():
    block = BasicBlock("b")
    block.append(Operation(OpKind.NOP))
    block.append(Operation(OpKind.JUMP))
    assert len(block.body) == 1
    assert block.terminator.kind is OpKind.JUMP


# ---------------------------------------------------------------------------
# CDFG structure
# ---------------------------------------------------------------------------

def test_first_block_is_entry():
    cdfg = CDFG("f")
    cdfg.add_block("b0")
    assert cdfg.entry == "b0"


def test_duplicate_block_rejected():
    cdfg = CDFG("f")
    cdfg.add_block("b")
    with pytest.raises(IRError):
        cdfg.add_block("b")


def test_edge_to_unknown_block_rejected():
    cdfg = CDFG("f")
    cdfg.add_block("b")
    with pytest.raises(IRError):
        cdfg.add_edge("b", "nope")


def test_bad_edge_kind_rejected():
    cdfg = make_diamond()
    with pytest.raises(IRError):
        cdfg.add_edge("then", "else", "sideways")


def test_diamond_verifies():
    make_diamond().verify()


def test_branch_targets():
    cdfg = make_diamond()
    taken, fall = cdfg.branch_targets("entry")
    assert (taken, fall) == ("then", "else")


def test_verify_rejects_branch_with_one_successor():
    cdfg = CDFG("f")
    a = cdfg.add_block("a")
    b = cdfg.add_block("b")
    a.append(Operation(OpKind.CONST, result=v("c"), const=0))
    a.append(Operation(OpKind.BRANCH, operands=(v("c"),)))
    b.append(Operation(OpKind.RETURN))
    cdfg.add_edge("a", "b", "true")
    with pytest.raises(IRError):
        cdfg.verify()


def test_verify_rejects_return_with_successor():
    cdfg = CDFG("f")
    a = cdfg.add_block("a")
    b = cdfg.add_block("b")
    a.append(Operation(OpKind.RETURN))
    b.append(Operation(OpKind.RETURN))
    cdfg.add_edge("a", "b", "fall")
    with pytest.raises(IRError):
        cdfg.verify()


def test_verify_rejects_unreachable_block():
    cdfg = CDFG("f")
    a = cdfg.add_block("a")
    cdfg.add_block("island")
    a.append(Operation(OpKind.RETURN))
    cdfg.blocks["island"].append(Operation(OpKind.RETURN))
    with pytest.raises(IRError):
        cdfg.verify()


def test_verify_rejects_undeclared_array():
    cdfg = CDFG("f")
    a = cdfg.add_block("a")
    idx = v("i")
    a.append(Operation(OpKind.CONST, result=idx, const=0))
    a.append(Operation(OpKind.LOAD, result=v("x"), operands=(idx,), symbol="arr"))
    a.append(Operation(OpKind.RETURN))
    with pytest.raises(IRError):
        cdfg.verify()


def test_declare_array_rejects_nonpositive():
    cdfg = CDFG("f")
    with pytest.raises(IRError):
        cdfg.declare_array("a", 0)


def test_reverse_postorder_starts_at_entry():
    cdfg = make_diamond()
    order = cdfg.reverse_postorder()
    assert order[0] == "entry"
    assert order[-1] == "merge"
    assert set(order) == set(cdfg.blocks)


def test_natural_loop_detection():
    cdfg = CDFG("f")
    entry = cdfg.add_block("entry")
    header = cdfg.add_block("header")
    body = cdfg.add_block("body")
    exit_ = cdfg.add_block("exit")
    entry.append(Operation(OpKind.JUMP))
    header.append(Operation(OpKind.CONST, result=v("c"), const=1))
    header.append(Operation(OpKind.BRANCH, operands=(v("c"),)))
    body.append(Operation(OpKind.JUMP))
    exit_.append(Operation(OpKind.RETURN))
    cdfg.add_edge("entry", "header", "jump")
    cdfg.add_edge("header", "body", "true")
    cdfg.add_edge("header", "exit", "false")
    cdfg.add_edge("body", "header", "jump")
    loops = cdfg.natural_loops()
    assert loops == [("header", frozenset({"header", "body"}))]


def cfg_of(*edges, entry="entry"):
    """A CFG with the given (src, dst) edges, added in order; only the
    graph shape matters here, so blocks stay empty."""
    cdfg = CDFG("f")
    cdfg.add_block(entry)
    for src, dst in edges:
        for name in (src, dst):
            if name not in cdfg.blocks:
                cdfg.add_block(name)
        cdfg.add_edge(src, dst, "jump")
    return cdfg


def test_reverse_postorder_follows_successor_insertion_order():
    # The depth-first walk takes successors in the order their edges were
    # added, so swapping the two entry edges swaps the arms.
    first_x = cfg_of(("entry", "x"), ("entry", "y"), ("x", "z"), ("y", "z"))
    assert first_x.postorder() == ["z", "x", "y", "entry"]
    assert first_x.reverse_postorder() == ["entry", "y", "x", "z"]
    first_y = cfg_of(("entry", "y"), ("entry", "x"), ("x", "z"), ("y", "z"))
    assert first_y.reverse_postorder() == ["entry", "x", "y", "z"]


def test_reverse_postorder_skips_unreachable_blocks():
    cdfg = cfg_of(("entry", "a"), ("island", "a"))
    assert cdfg.reverse_postorder() == ["entry", "a"]


def test_immediate_dominators_of_a_diamond():
    assert make_diamond().immediate_dominators() == {
        "entry": "entry", "then": "entry", "else": "entry",
        "merge": "entry"}


def test_natural_loops_of_nested_loops():
    cdfg = cfg_of(("entry", "outer"), ("outer", "inner"), ("outer", "exit"),
                  ("inner", "body"), ("inner", "latch"), ("body", "inner"),
                  ("latch", "outer"))
    assert cdfg.natural_loops() == [
        ("inner", frozenset({"inner", "body"})),
        ("outer", frozenset({"outer", "inner", "body", "latch"})),
    ]


def test_natural_loops_merge_two_back_edges_of_one_header():
    cdfg = cfg_of(("entry", "h"), ("h", "a"), ("h", "exit"), ("a", "b"),
                  ("a", "c"), ("b", "h"), ("c", "h"))
    assert cdfg.natural_loops() == [("h", frozenset({"h", "a", "b", "c"}))]


def test_natural_loops_self_loop():
    cdfg = cfg_of(("entry", "h"), ("h", "h"), ("h", "exit"))
    assert cdfg.natural_loops() == [("h", frozenset({"h"}))]


def test_irreducible_two_entry_cycle_is_no_natural_loop():
    # a and b form a cycle entered at both: neither dominates the other,
    # so neither edge of the cycle is a back edge.
    cdfg = cfg_of(("entry", "a"), ("entry", "b"), ("a", "b"), ("b", "a"))
    assert cdfg.immediate_dominators() == {
        "entry": "entry", "a": "entry", "b": "entry"}
    assert cdfg.natural_loops() == []


def test_remove_block_drops_its_edges():
    cdfg = make_diamond()
    cdfg.remove_block("else")
    assert "else" not in cdfg.blocks
    assert cdfg.successors("entry") == ["then"]
    assert cdfg.predecessors("merge") == ["then"]
    assert cdfg.reverse_postorder() == ["entry", "then", "merge"]


def test_op_count():
    assert make_diamond().op_count == 5


# ---------------------------------------------------------------------------
# Data-dependence graph
# ---------------------------------------------------------------------------

def test_flow_dependence():
    a = Operation(OpKind.CONST, result=v("a"), const=1)
    b = Operation(OpKind.ADD, result=v("b"), operands=(v("a"), v("a")))
    ddg = build_data_dependence_graph([a, b])
    assert ddg[a] == {b: "flow"}


def test_output_dependence():
    a = Operation(OpKind.CONST, result=v("x"), const=1)
    b = Operation(OpKind.CONST, result=v("x"), const=2)
    ddg = build_data_dependence_graph([a, b])
    assert ddg[a][b] == "output"


def test_anti_dependence():
    a = Operation(OpKind.CONST, result=v("x"), const=1)
    read = Operation(OpKind.ADD, result=v("y"), operands=(v("x"), v("x")))
    redefine = Operation(OpKind.CONST, result=v("x"), const=2)
    ddg = build_data_dependence_graph([a, read, redefine])
    assert redefine in ddg[read]
    assert ddg[read][redefine] == "anti"


def test_store_load_dependence_same_symbol():
    i = Operation(OpKind.CONST, result=v("i"), const=0)
    store = Operation(OpKind.STORE, operands=(v("i"), v("i")), symbol="a")
    load = Operation(OpKind.LOAD, result=v("x"), operands=(v("i"),), symbol="a")
    ddg = build_data_dependence_graph([i, store, load])
    assert load in ddg[store]
    assert ddg[store][load] == "mem"


def test_no_dependence_between_different_symbols():
    i = Operation(OpKind.CONST, result=v("i"), const=0)
    store = Operation(OpKind.STORE, operands=(v("i"), v("i")), symbol="a")
    load = Operation(OpKind.LOAD, result=v("x"), operands=(v("i"),), symbol="b")
    ddg = build_data_dependence_graph([i, store, load])
    assert load not in ddg[store]


def test_load_store_war_on_memory():
    i = Operation(OpKind.CONST, result=v("i"), const=0)
    load = Operation(OpKind.LOAD, result=v("x"), operands=(v("i"),), symbol="a")
    store = Operation(OpKind.STORE, operands=(v("i"), v("x")), symbol="a")
    ddg = build_data_dependence_graph([i, load, store])
    assert store in ddg[load]


def test_store_store_ordering():
    i = Operation(OpKind.CONST, result=v("i"), const=0)
    s1 = Operation(OpKind.STORE, operands=(v("i"), v("i")), symbol="a")
    s2 = Operation(OpKind.STORE, operands=(v("i"), v("i")), symbol="a")
    ddg = build_data_dependence_graph([i, s1, s2])
    assert s2 in ddg[s1]


def test_ddg_is_acyclic():
    from graphlib import TopologicalSorter
    ops = [
        Operation(OpKind.CONST, result=v("a"), const=1),
        Operation(OpKind.ADD, result=v("b"), operands=(v("a"), v("a"))),
        Operation(OpKind.ADD, result=v("a"), operands=(v("b"), v("b"))),
        Operation(OpKind.MUL, result=v("c"), operands=(v("a"), v("b"))),
    ]
    ddg = build_data_dependence_graph(ops)
    preds = {op: {src for src in ddg if op in ddg[src]} for op in ddg}
    # static_order raises graphlib.CycleError on a cycle.
    assert list(TopologicalSorter(preds).static_order()) == ops
    # Keys are program order and every edge points forward.
    assert list(ddg) == ops
    assert all(ops.index(src) < ops.index(dst)
               for src in ddg for dst in ddg[src])
