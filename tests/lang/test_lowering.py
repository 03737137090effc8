"""Lowering (AST -> CDFG) unit tests."""

import pytest

from repro.ir.ops import OpKind
from repro.lang import compile_source


def lower(source: str, func: str = "f"):
    return compile_source(source, entry="f").cdfgs[func]


def ops_of(cdfg):
    return list(cdfg.all_ops())


def kinds_of(cdfg):
    return [op.kind for op in cdfg.all_ops()]


def test_straight_line_lowering():
    cdfg = lower("func f(x: int) -> int { var y: int = x + 1; return y; }")
    cdfg.verify()
    assert OpKind.ADD in kinds_of(cdfg)
    assert OpKind.RETURN in kinds_of(cdfg)
    assert len(cdfg.blocks) == 1


def test_if_creates_diamond():
    cdfg = lower("func f(x: int) -> int { var y: int = 0; "
                 "if x { y = 1; } else { y = 2; } return y; }")
    cdfg.verify()
    # entry, then, else, merge
    assert len(cdfg.blocks) == 4
    branch_blocks = [b for b in cdfg.blocks.values()
                     if b.terminator and b.terminator.kind is OpKind.BRANCH]
    assert len(branch_blocks) == 1
    taken, fall = cdfg.branch_targets(branch_blocks[0].name)
    assert taken is not None and fall is not None


def test_if_without_else_false_edge_to_merge():
    cdfg = lower("func f(x: int) -> int { var y: int = 0; "
                 "if x { y = 1; } return y; }")
    cdfg.verify()
    assert len(cdfg.blocks) == 3


def test_while_loop_structure():
    cdfg = lower("func f(n: int) -> int { var i: int = 0; "
                 "while i < n { i = i + 1; } return i; }")
    cdfg.verify()
    loops = cdfg.natural_loops()
    assert len(loops) == 1


def test_for_loop_structure():
    cdfg = lower("func f(n: int) -> int { var s: int = 0; "
                 "for i in 0 .. n { s = s + i; } return s; }")
    cdfg.verify()
    loops = cdfg.natural_loops()
    assert len(loops) == 1
    header, body = loops[0]
    # for-loop: header, body, latch all inside the loop
    assert len(body) == 3


def test_for_bound_evaluated_once():
    cdfg = lower("func f(n: int) -> int { var s: int = 0; "
                 "for i in 0 .. n * 2 { s = s + 1; } return s; }")
    # the bound multiply lives in the preheader (entry), not the loop
    loops = cdfg.natural_loops()
    _, body = loops[0]
    loop_kinds = [op.kind for name in body for op in cdfg.blocks[name].ops]
    assert OpKind.MUL not in loop_kinds


def test_break_jumps_to_exit():
    cdfg = lower("func f() -> int { var i: int = 0; while 1 { "
                 "i = i + 1; if i > 3 { break; } } return i; }")
    cdfg.verify()


def test_continue_jumps_to_latch():
    cdfg = lower("func f(n: int) -> int { var s: int = 0; for i in 0 .. n { "
                 "if i % 2 { continue; } s = s + i; } return s; }")
    cdfg.verify()


def test_nested_loops():
    cdfg = lower("func f(n: int) -> int { var s: int = 0; "
                 "for i in 0 .. n { for j in 0 .. n { s = s + 1; } } "
                 "return s; }")
    cdfg.verify()
    assert len(cdfg.natural_loops()) == 2


def test_unreachable_code_pruned():
    cdfg = lower("func f() -> int { return 1; }")
    cdfg.verify()
    assert len(cdfg.blocks) == 1


def test_unreachable_blocks_and_their_edges_pruned():
    # The loop body returns, so the loop's latch is never reached; it is
    # pruned with its edge back to the header.
    cdfg = lower("func f(n: int) -> int { for i in 0 .. n { return i; } "
                 "return 0; }")
    cdfg.verify()
    assert not any(name.startswith("forlatch") for name in cdfg.blocks)
    assert set(cdfg.reverse_postorder()) == set(cdfg.blocks)
    for name in cdfg.blocks:
        assert set(cdfg.successors(name)) <= set(cdfg.blocks)
        assert set(cdfg.predecessors(name)) <= set(cdfg.blocks)


def test_implicit_return_for_void():
    cdfg = lower("func f() { }")
    returns = [op for op in cdfg.all_ops() if op.kind is OpKind.RETURN]
    assert len(returns) == 1
    assert returns[0].operands == ()


def test_implicit_zero_return_for_int():
    cdfg = lower("func f() -> int { var x: int = 1; }")
    returns = [op for op in cdfg.all_ops() if op.kind is OpKind.RETURN]
    assert len(returns) == 1
    assert len(returns[0].operands) == 1


def test_local_array_declared_in_cdfg():
    cdfg = lower("func f() -> int { var buf: int[32]; buf[0] = 1; "
                 "return buf[0]; }")
    assert cdfg.arrays["buf"] == 32


def test_scalar_global_lowered_to_memory():
    program = compile_source(
        "global s: int; func f() { s = s + 1; }", entry="f")
    cdfg = program.cdfgs["f"]
    kinds = kinds_of(cdfg)
    assert OpKind.LOAD in kinds and OpKind.STORE in kinds
    assert program.global_arrays["__g_s"] == 1


def test_call_lowering_separates_scalar_and_array_args():
    program = compile_source(
        "func g(a: int[4], x: int) -> int { return a[x]; }"
        "func f(b: int[4]) -> int { return g(b, 2); }", entry="f")
    calls = [op for op in program.cdfgs["f"].all_ops()
             if op.kind is OpKind.CALL]
    assert len(calls) == 1
    assert calls[0].array_args == ("b",)
    assert len(calls[0].operands) == 1


def test_logical_and_lowered_branchless():
    cdfg = lower("func f(a: int, b: int) -> int { return a && b; }")
    kinds = kinds_of(cdfg)
    assert OpKind.AND in kinds
    # operands are normalized to booleans with NE
    assert kinds.count(OpKind.NE) == 2


def test_logical_not_lowered_to_eq_zero():
    cdfg = lower("func f(a: int) -> int { return !a; }")
    assert OpKind.EQ in kinds_of(cdfg)


def test_comparison_operands_not_renormalized():
    cdfg = lower("func f(a: int, b: int) -> int { return (a < b) && (a > 0); }")
    kinds = kinds_of(cdfg)
    # comparisons already produce 0/1: no extra NE
    assert OpKind.NE not in kinds


def test_branch_condition_feeds_terminator():
    cdfg = lower("func f(x: int) -> int { if x > 2 { return 1; } return 0; }")
    for name, block in cdfg.blocks.items():
        term = block.terminator
        if term is not None and term.kind is OpKind.BRANCH:
            cond = term.operands[0]
            defs = [op for op in block.body if op.result == cond]
            assert defs and defs[0].kind is OpKind.GT
            return
    pytest.fail("no branch block found")
