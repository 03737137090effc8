"""Lowering: BDL AST -> per-function CDFGs (paper Fig. 1, step 1).

Scalars become IR :class:`~repro.ir.ops.Value` names; arrays become LOAD/STORE
symbols.  Scalar globals are lowered as size-1 arrays so cross-function state
flows through memory, matching how a compiler would place them.  Logical
``&&``/``||``/``!`` are lowered non-short-circuit via comparisons and bitwise
ops (documented BDL semantics).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.ir.cdfg import CDFG, BasicBlock
from repro.ir.ops import Operation, OpKind, Value
from repro.lang import ast_nodes as ast
from repro.lang.semantics import SemanticError, Signature, check_program

_BINARY_KINDS = {
    "+": OpKind.ADD, "-": OpKind.SUB, "*": OpKind.MUL, "/": OpKind.DIV,
    "%": OpKind.MOD, "<<": OpKind.SHL, ">>": OpKind.SHR, "&": OpKind.AND,
    "|": OpKind.OR, "^": OpKind.XOR, "==": OpKind.EQ, "!=": OpKind.NE,
    "<": OpKind.LT, "<=": OpKind.LE, ">": OpKind.GT, ">=": OpKind.GE,
}


class _FuncLowerer:
    """Lowers one function body into a fresh CDFG."""

    def __init__(self, func: ast.FuncDecl, signatures: Dict[str, Signature],
                 global_arrays: Dict[str, int], scalar_globals: Dict[str, str]) -> None:
        self.func = func
        self.signatures = signatures
        self.global_arrays = global_arrays
        self.scalar_globals = scalar_globals  # name -> backing symbol
        self.cdfg = CDFG(func.name, params=[p.name for p in func.params])
        self._temp_counter = 0
        self._block_counter = 0
        self._array_sizes: Dict[str, int] = {}
        # (break_target, continue_target) stack for loops
        self._loop_stack: List[tuple] = []
        self.current: Optional[BasicBlock] = None

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _new_temp(self) -> Value:
        value = Value(f"t{self._temp_counter}")
        self._temp_counter += 1
        return value

    def _new_block(self, hint: str) -> BasicBlock:
        name = f"{hint}{self._block_counter}"
        self._block_counter += 1
        return self.cdfg.add_block(name)

    def _emit(self, op: Operation) -> Operation:
        assert self.current is not None
        return self.current.append(op)

    def _is_array(self, name: str) -> bool:
        return name in self._array_sizes

    def _seal_with_jump(self, target: BasicBlock) -> None:
        """Terminate the current block with a jump unless already terminated."""
        if self.current is not None and self.current.terminator is None:
            self._emit(Operation(OpKind.JUMP))
            self.cdfg.add_edge(self.current.name, target.name, "jump")

    # ------------------------------------------------------------------
    # Entry
    # ------------------------------------------------------------------

    def lower(self) -> CDFG:
        for symbol, size in self.global_arrays.items():
            self.cdfg.declare_array(symbol, size)
        for param in self.func.params:
            if param.array_size is not None:
                self.cdfg.declare_array(param.name, param.array_size)
                self._array_sizes[param.name] = param.array_size
        self.current = self._new_block("entry")
        for stmt in self.func.body:
            self._lower_stmt(stmt)
            if self.current is None:
                break
        if self.current is not None and self.current.terminator is None:
            # Implicit return (void functions, or int functions where every
            # path the programmer cares about already returned).
            if self.func.returns_value:
                zero = self._new_temp()
                self._emit(Operation(OpKind.CONST, result=zero, const=0))
                self._emit(Operation(OpKind.RETURN, operands=(zero,)))
            else:
                self._emit(Operation(OpKind.RETURN))
        self._prune_unreachable()
        self.cdfg.verify()
        return self.cdfg

    def _prune_unreachable(self) -> None:
        reachable = set(self.cdfg.postorder())
        for name in list(self.cdfg.blocks):
            if name not in reachable:
                self.cdfg.remove_block(name)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _lower_stmt(self, stmt: ast.Stmt) -> None:
        if self.current is None:
            return  # unreachable code after break/continue/return
        if isinstance(stmt, ast.VarDecl):
            if stmt.array_size is not None:
                self.cdfg.declare_array(stmt.name, stmt.array_size)
                self._array_sizes[stmt.name] = stmt.array_size
            elif stmt.init is not None:
                self._eval_into(stmt.init, Value(stmt.name))
        elif isinstance(stmt, ast.Assign):
            if stmt.name in self.scalar_globals:
                value = self._eval(stmt.value)
                index = self._emit_const(0)
                self._emit(Operation(OpKind.STORE, operands=(index, value),
                                     symbol=self.scalar_globals[stmt.name]))
            else:
                self._eval_into(stmt.value, Value(stmt.name))
        elif isinstance(stmt, ast.StoreStmt):
            index = self._eval(stmt.index)
            value = self._eval(stmt.value)
            self._emit(Operation(OpKind.STORE, operands=(index, value),
                                 symbol=stmt.base))
        elif isinstance(stmt, ast.If):
            self._lower_if(stmt)
        elif isinstance(stmt, ast.While):
            self._lower_while(stmt)
        elif isinstance(stmt, ast.ForRange):
            self._lower_for(stmt)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                value = self._eval(stmt.value)
                self._emit(Operation(OpKind.RETURN, operands=(value,)))
            else:
                self._emit(Operation(OpKind.RETURN))
            self.current = None
        elif isinstance(stmt, ast.Break):
            break_target, _ = self._loop_stack[-1]
            self._emit(Operation(OpKind.JUMP))
            self.cdfg.add_edge(self.current.name, break_target.name, "jump")
            self.current = None
        elif isinstance(stmt, ast.Continue):
            _, continue_target = self._loop_stack[-1]
            self._emit(Operation(OpKind.JUMP))
            self.cdfg.add_edge(self.current.name, continue_target.name, "jump")
            self.current = None
        elif isinstance(stmt, ast.ExprStmt):
            self._eval(stmt.expr, want_result=False)
        else:  # pragma: no cover - exhaustive
            raise SemanticError(f"cannot lower {type(stmt).__name__}", stmt.line)

    def _lower_if(self, stmt: ast.If) -> None:
        cond = self._eval(stmt.cond)
        cond_block = self.current
        then_block = self._new_block("then")
        merge_block = self._new_block("endif")
        self._emit(Operation(OpKind.BRANCH, operands=(cond,)))
        self.cdfg.add_edge(cond_block.name, then_block.name, "true")

        if stmt.else_body:
            else_block = self._new_block("else")
            self.cdfg.add_edge(cond_block.name, else_block.name, "false")
            self.current = else_block
            for inner in stmt.else_body:
                self._lower_stmt(inner)
            self._seal_with_jump(merge_block)
        else:
            self.cdfg.add_edge(cond_block.name, merge_block.name, "false")

        self.current = then_block
        for inner in stmt.then_body:
            self._lower_stmt(inner)
        self._seal_with_jump(merge_block)
        self.current = merge_block

    def _lower_while(self, stmt: ast.While) -> None:
        header = self._new_block("while")
        body = self._new_block("loopbody")
        exit_block = self._new_block("loopexit")
        self._seal_with_jump(header)

        self.current = header
        cond = self._eval(stmt.cond)
        self._emit(Operation(OpKind.BRANCH, operands=(cond,)))
        self.cdfg.add_edge(header.name, body.name, "true")
        self.cdfg.add_edge(header.name, exit_block.name, "false")

        self._loop_stack.append((exit_block, header))
        self.current = body
        for inner in stmt.body:
            self._lower_stmt(inner)
        self._seal_with_jump(header)
        self._loop_stack.pop()
        self.current = exit_block

    def _lower_for(self, stmt: ast.ForRange) -> None:
        loop_var = Value(stmt.var)
        self._eval_into(stmt.lo, loop_var)
        bound = self._eval(stmt.hi)
        # Pin the bound in a named value so the header re-reads a stable name
        # (the bound expression is evaluated once, before the loop).
        bound_var = self._new_temp()
        self._emit(Operation(OpKind.MOV, result=bound_var, operands=(bound,)))

        header = self._new_block("for")
        body = self._new_block("forbody")
        latch = self._new_block("forlatch")
        exit_block = self._new_block("forexit")
        self._seal_with_jump(header)

        self.current = header
        cond = self._new_temp()
        self._emit(Operation(OpKind.LT, result=cond, operands=(loop_var, bound_var)))
        self._emit(Operation(OpKind.BRANCH, operands=(cond,)))
        self.cdfg.add_edge(header.name, body.name, "true")
        self.cdfg.add_edge(header.name, exit_block.name, "false")

        self._loop_stack.append((exit_block, latch))
        self.current = body
        for inner in stmt.body:
            self._lower_stmt(inner)
        self._seal_with_jump(latch)
        self._loop_stack.pop()

        self.current = latch
        one = self._emit_const(1)
        self._emit(Operation(OpKind.ADD, result=loop_var, operands=(loop_var, one)))
        self._emit(Operation(OpKind.JUMP))
        self.cdfg.add_edge(latch.name, header.name, "jump")
        self.current = exit_block

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def _emit_const(self, value: int) -> Value:
        temp = self._new_temp()
        self._emit(Operation(OpKind.CONST, result=temp, const=value))
        return temp

    def _eval(self, expr: ast.Expr, want_result: bool = True) -> Optional[Value]:
        """Evaluate ``expr`` into a fresh temp (or existing name)."""
        if isinstance(expr, ast.IntLit):
            return self._emit_const(expr.value)
        if isinstance(expr, ast.NameRef):
            if expr.name in self.scalar_globals:
                index = self._emit_const(0)
                temp = self._new_temp()
                self._emit(Operation(OpKind.LOAD, result=temp, operands=(index,),
                                     symbol=self.scalar_globals[expr.name]))
                return temp
            return Value(expr.name)
        target = self._new_temp() if want_result else None
        return self._eval_complex(expr, target)

    def _eval_into(self, expr: ast.Expr, target: Value) -> None:
        """Evaluate ``expr`` writing the result directly into ``target``."""
        if isinstance(expr, ast.IntLit):
            self._emit(Operation(OpKind.CONST, result=target, const=expr.value))
            return
        if isinstance(expr, ast.NameRef):
            source = self._eval(expr)
            self._emit(Operation(OpKind.MOV, result=target, operands=(source,)))
            return
        self._eval_complex(expr, target)

    def _eval_complex(self, expr: ast.Expr,
                      target: Optional[Value]) -> Optional[Value]:
        """Lower Index/Unary/Binary/Call with the result in ``target``."""
        if isinstance(expr, ast.Index):
            index = self._eval(expr.index)
            self._emit(Operation(OpKind.LOAD, result=target, operands=(index,),
                                 symbol=expr.base))
            return target
        if isinstance(expr, ast.Unary):
            operand = self._eval(expr.operand)
            if expr.op == "-":
                self._emit(Operation(OpKind.NEG, result=target, operands=(operand,)))
            elif expr.op == "~":
                self._emit(Operation(OpKind.NOT, result=target, operands=(operand,)))
            else:  # '!': x == 0
                zero = self._emit_const(0)
                self._emit(Operation(OpKind.EQ, result=target,
                                     operands=(operand, zero)))
            return target
        if isinstance(expr, ast.Binary):
            if expr.op in ("&&", "||"):
                left_bool = self._boolify(expr.left)
                right_bool = self._boolify(expr.right)
                kind = OpKind.AND if expr.op == "&&" else OpKind.OR
                self._emit(Operation(kind, result=target,
                                     operands=(left_bool, right_bool)))
                return target
            left = self._eval(expr.left)
            right = self._eval(expr.right)
            self._emit(Operation(_BINARY_KINDS[expr.op], result=target,
                                 operands=(left, right)))
            return target
        if isinstance(expr, ast.Call):
            return self._lower_call(expr, target)
        raise SemanticError(f"cannot lower {type(expr).__name__}", expr.line)

    def _boolify(self, expr: ast.Expr) -> Value:
        """Normalize an int expression to 0/1 (for &&/||)."""
        if isinstance(expr, ast.Binary) and expr.op in (
                "==", "!=", "<", "<=", ">", ">=", "&&", "||"):
            return self._eval(expr)
        value = self._eval(expr)
        zero = self._emit_const(0)
        result = self._new_temp()
        self._emit(Operation(OpKind.NE, result=result, operands=(value, zero)))
        return result

    def _lower_call(self, expr: ast.Call,
                    target: Optional[Value]) -> Optional[Value]:
        sig = self.signatures[expr.callee]
        scalar_args: List[Value] = []
        array_args: List[str] = []
        for arg, is_array in zip(expr.args, sig.param_is_array):
            if is_array:
                assert isinstance(arg, ast.NameRef)
                array_args.append(arg.name)
            else:
                scalar_args.append(self._eval(arg))
        result = target if sig.returns_value else None
        self._emit(Operation(OpKind.CALL, result=result,
                             operands=tuple(scalar_args), symbol=expr.callee,
                             array_args=tuple(array_args)))
        return result


def lower_program(module: ast.Module) -> Dict[str, CDFG]:
    """Check and lower a whole module; returns ``{function name: CDFG}``."""
    signatures = check_program(module)
    global_arrays: Dict[str, int] = {}
    scalar_globals: Dict[str, str] = {}
    for decl in module.globals_:
        if decl.array_size is not None:
            global_arrays[decl.name] = decl.array_size
        else:
            # Scalar globals live in memory as one-element arrays.
            symbol = f"__g_{decl.name}"
            scalar_globals[decl.name] = symbol
            global_arrays[symbol] = 1
    cdfgs: Dict[str, CDFG] = {}
    for func in module.funcs:
        lowerer = _FuncLowerer(func, signatures, global_arrays, scalar_globals)
        cdfgs[func.name] = lowerer.lower()
    return cdfgs
