"""CDFG interpreter — functional reference and profiler.

The paper obtains ``#ex_times`` (how often each control step's block runs)
"through profiling" (footnote 14).  This interpreter executes the lowered
CDFGs directly, so its per-block execution counts map one-to-one onto the
blocks the scheduler and the cluster decomposition work with.  It also
records a memory-reference trace usable by the cache models when an
ASIC-side cluster is simulated functionally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.ir.cdfg import CDFG
from repro.ir.ops import Operation, OpKind, Value
from repro.lang.program import Program

_MASK32 = 0xFFFFFFFF


def wrap32(value: int) -> int:
    """Wrap to signed 32-bit two's complement."""
    value &= _MASK32
    if value & 0x80000000:
        value -= 1 << 32
    return value


def _c_div(a: int, b: int) -> int:
    if b == 0:
        raise InterpError("division by zero")
    quotient = abs(a) // abs(b)
    return -quotient if (a < 0) != (b < 0) else quotient


def _c_mod(a: int, b: int) -> int:
    return a - b * _c_div(a, b)


class InterpError(Exception):
    """Raised on runtime errors (bad index, div-by-zero, fuel exhausted)."""


@dataclass
class ExecutionProfile:
    """Dynamic statistics of one program run.

    Attributes:
        block_counts: ``(function, block) -> times entered``.
        op_counts: ``op kind -> dynamic executions`` over the whole run.
        call_counts: callee name -> number of invocations.
        steps: total operations executed.
        result: entry function return value.
    """

    block_counts: Dict[Tuple[str, str], int] = field(default_factory=dict)
    op_counts: Dict[OpKind, int] = field(default_factory=dict)
    call_counts: Dict[str, int] = field(default_factory=dict)
    steps: int = 0
    result: Optional[int] = None

    def block_count(self, function: str, block: str) -> int:
        return self.block_counts.get((function, block), 0)

    def executions_of(self, function: str, cdfg: CDFG) -> Dict[str, int]:
        """Per-block execution counts for one function."""
        return {name: self.block_counts.get((function, name), 0)
                for name in cdfg.blocks}


#: A memory trace event: (is_write, symbol, element_index).
TraceEvent = Tuple[bool, str, int]


def check_workload(program: Program,
                   args: Optional[Sequence[int]] = None,
                   globals_init: Optional[Mapping[str, Sequence[int]]] = None
                   ) -> None:
    """Reject a workload binding the program cannot run, before running it.

    Globals are checked first (``KeyError`` for an unknown name,
    ``ValueError`` for a length that differs from the declaration), then
    the entry function (:class:`InterpError` for array parameters or a
    wrong argument count; skipped when ``args`` is None).  The
    interpreter and the flow's ISS-based profiling share these checks,
    so both reject the same bindings with the same messages.
    """
    for name, values in (globals_init or {}).items():
        symbol = name if name in program.global_arrays else f"__g_{name}"
        size = program.global_arrays.get(symbol)
        if size is None:
            raise KeyError(f"unknown global {name!r}")
        if len(values) != size:
            raise ValueError(
                f"global {name!r} has {size} elements, got {len(values)}")
    if args is None:
        return
    entry = program.entry
    signature = program.signatures[entry]
    if any(signature.param_is_array):
        raise InterpError(
            f"entry {entry!r} takes array parameters; bind globals instead")
    if len(args) != len(signature.param_names):
        raise InterpError(
            f"entry {entry!r} expects {len(signature.param_names)} args, "
            f"got {len(args)}")


class Interpreter:
    """Executes a compiled :class:`~repro.lang.program.Program`.

    Args:
        program: the program to run.
        max_steps: fuel limit (operations); :class:`InterpError` when hit.
        trace_hook: optional callback receiving every LOAD/STORE event.
    """

    def __init__(self, program: Program, max_steps: int = 200_000_000,
                 trace_hook: Optional[Callable[[TraceEvent], None]] = None) -> None:
        self.program = program
        self.max_steps = max_steps
        self.trace_hook = trace_hook
        self.globals: Dict[str, List[int]] = {
            symbol: [0] * size for symbol, size in program.global_arrays.items()
        }
        self.profile = ExecutionProfile()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def set_global(self, name: str, values: List[int]) -> None:
        """Initialize a global array (or scalar global by bare name)."""
        check_workload(self.program, globals_init={name: values})
        symbol = name if name in self.globals else f"__g_{name}"
        self.globals[symbol][:] = [wrap32(v) for v in values]

    def get_global(self, name: str) -> List[int]:
        symbol = name if name in self.globals else f"__g_{name}"
        return list(self.globals[symbol])

    def run(self, *args: int) -> int:
        """Execute the entry function with scalar arguments; return its value."""
        check_workload(self.program, args)
        entry = self.program.entry
        signature = self.program.signatures[entry]
        scalars = {name: wrap32(value)
                   for name, value in zip(signature.param_names, args)}
        result = self._call(entry, scalars, {})
        self.profile.result = result
        return 0 if result is None else result

    # ------------------------------------------------------------------
    # Execution engine
    # ------------------------------------------------------------------

    def _array_storage(self, frame_arrays: Dict[str, List[int]],
                       symbol: str) -> List[int]:
        storage = frame_arrays.get(symbol)
        if storage is None:
            storage = self.globals.get(symbol)
        if storage is None:
            raise InterpError(f"unknown array symbol {symbol!r}")
        return storage

    def _call(self, func_name: str, scalars: Dict[str, int],
              bound_arrays: Dict[str, List[int]]) -> Optional[int]:
        cdfg = self.program.cdfgs[func_name]
        self.profile.call_counts[func_name] = (
            self.profile.call_counts.get(func_name, 0) + 1)
        frame_arrays: Dict[str, List[int]] = dict(bound_arrays)
        # Local arrays (declared in the CDFG but neither parameters-bound
        # nor globals) are allocated fresh per activation.
        param_arrays = set(bound_arrays)
        for symbol, size in cdfg.arrays.items():
            if symbol in param_arrays or symbol in self.program.global_arrays:
                continue
            frame_arrays[symbol] = [0] * size

        env: Dict[Value, int] = {Value(n): v for n, v in scalars.items()}
        block_counts = self.profile.block_counts
        op_counts = self.profile.op_counts
        block_name = cdfg.entry

        while True:
            key = (func_name, block_name)
            block_counts[key] = block_counts.get(key, 0) + 1
            block = cdfg.blocks[block_name]
            for op in block.ops:
                self.profile.steps += 1
                if self.profile.steps > self.max_steps:
                    raise InterpError(f"fuel exhausted after {self.max_steps} steps")
                op_counts[op.kind] = op_counts.get(op.kind, 0) + 1
                kind = op.kind

                if kind is OpKind.BRANCH:
                    taken, not_taken = cdfg.branch_targets(block_name)
                    block_name = taken if env[op.operands[0]] != 0 else not_taken
                    break
                if kind is OpKind.JUMP:
                    block_name = cdfg.successors(block_name)[0]
                    break
                if kind is OpKind.RETURN:
                    if op.operands:
                        return env[op.operands[0]]
                    return None

                if kind is OpKind.CONST:
                    env[op.result] = wrap32(op.const)
                elif kind is OpKind.MOV:
                    env[op.result] = env[op.operands[0]]
                elif kind is OpKind.LOAD:
                    storage = self._array_storage(frame_arrays, op.symbol)
                    index = env[op.operands[0]]
                    if not 0 <= index < len(storage):
                        raise InterpError(
                            f"load index {index} out of range for "
                            f"{op.symbol!r}[{len(storage)}] in {func_name}")
                    env[op.result] = storage[index]
                    if self.trace_hook is not None:
                        self.trace_hook((False, op.symbol, index))
                elif kind is OpKind.STORE:
                    storage = self._array_storage(frame_arrays, op.symbol)
                    index = env[op.operands[0]]
                    if not 0 <= index < len(storage):
                        raise InterpError(
                            f"store index {index} out of range for "
                            f"{op.symbol!r}[{len(storage)}] in {func_name}")
                    storage[index] = env[op.operands[1]]
                    if self.trace_hook is not None:
                        self.trace_hook((True, op.symbol, index))
                elif kind is OpKind.CALL:
                    result = self._dispatch_call(op, env, frame_arrays)
                    if op.result is not None:
                        env[op.result] = 0 if result is None else result
                elif kind is OpKind.NOP:
                    pass
                else:
                    env[op.result] = self._alu(kind, op, env)
            else:
                # Fallthrough block (no terminator executed a break above).
                successors = cdfg.successors(block_name)
                if not successors:
                    return None
                block_name = successors[0]

    def _dispatch_call(self, op: Operation, env: Dict[Value, int],
                       frame_arrays: Dict[str, List[int]]) -> Optional[int]:
        signature = self.program.signatures[op.symbol]
        scalar_values = [env[v] for v in op.operands]
        scalar_iter = iter(scalar_values)
        array_iter = iter(op.array_args)
        callee_scalars: Dict[str, int] = {}
        callee_arrays: Dict[str, List[int]] = {}
        for pname, is_array in zip(signature.param_names, signature.param_is_array):
            if is_array:
                caller_symbol = next(array_iter)
                callee_arrays[pname] = self._array_storage(frame_arrays,
                                                           caller_symbol)
            else:
                callee_scalars[pname] = next(scalar_iter)
        return self._call(op.symbol, callee_scalars, callee_arrays)

    @staticmethod
    def _alu(kind: OpKind, op: Operation, env: Dict[Value, int]) -> int:
        a = env[op.operands[0]]
        b = env[op.operands[1]] if len(op.operands) > 1 else 0
        if kind is OpKind.ADD:
            return wrap32(a + b)
        if kind is OpKind.SUB:
            return wrap32(a - b)
        if kind is OpKind.MUL:
            return wrap32(a * b)
        if kind is OpKind.DIV:
            return wrap32(_c_div(a, b))
        if kind is OpKind.MOD:
            return wrap32(_c_mod(a, b))
        if kind is OpKind.NEG:
            return wrap32(-a)
        if kind is OpKind.AND:
            return wrap32(a & b)
        if kind is OpKind.OR:
            return wrap32(a | b)
        if kind is OpKind.XOR:
            return wrap32(a ^ b)
        if kind is OpKind.NOT:
            return wrap32(~a)
        if kind is OpKind.SHL:
            return wrap32(a << (b & 31))
        if kind is OpKind.SHR:
            return wrap32((a & _MASK32) >> (b & 31))
        if kind is OpKind.EQ:
            return int(a == b)
        if kind is OpKind.NE:
            return int(a != b)
        if kind is OpKind.LT:
            return int(a < b)
        if kind is OpKind.LE:
            return int(a <= b)
        if kind is OpKind.GT:
            return int(a > b)
        if kind is OpKind.GE:
            return int(a >= b)
        raise InterpError(f"cannot execute {kind}")
