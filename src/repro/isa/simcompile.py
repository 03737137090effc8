"""Per-image compilation of SL32 programs into a cache-free recorder.

This is the fetch/decode memoisation layer behind the fast path of
:class:`repro.isa.simulator.Simulator`.  The reference interpreter decodes
every *dynamic* instruction: each iteration re-reads the opcode, walks an
``if/elif`` dispatch chain, and re-indexes half a dozen parallel arrays.
For the workloads of the paper's Table 1 that is hundreds of thousands of
dispatches over a few hundred *static* instructions — so we decode each
static instruction exactly once per image instead:

* the program is split into basic blocks (leaders = entry pc, pc 0,
  branch/call targets, fall-throughs of control transfers, and every
  ``image.attribution`` boundary, so any hardware-block set is a union
  of whole blocks);
* each block is translated to one specialised Python function with the
  operands and immediates baked in as literals (``exec`` of generated
  source — the "precomputed dispatch table" is simply ``funcs[pc]``);
* a tiny driver loop then jumps block to block: ``pc = funcs[pc](regs)``.

Record mode
-----------
The generated code models no cache, memory, bus or energy: it executes
the program and writes an :class:`ExecutionRecord` —

* each block appends its index to the block sequence ``bseq``;
* each ``LW``/``SW`` appends its byte address to ``daddrs``;
* each taken conditional branch bumps ``taken[pc]``.

Everything the paper's Fig. 5 flow charges for — cycles, instruction
energies, class transitions, i- and d-cache misses, memory and bus
traffic — is a function of that record, the static program and the
hardware/software partition, so one execution prices any
(partition, cache geometry) pair after the fact
(:meth:`repro.isa.simulator.Simulator.price`, :mod:`repro.isa.pricing`).
The memory-reference trace is one more function of it: a
trace-collecting run keeps only its record, and its
:class:`~repro.mem.trace.MemoryTrace` is a view of the record's
software-side references (:class:`repro.isa.pricing.RecordReferences`),
so the generated code has no side channel and does not depend on the
trace.

Jumps into the middle of a block (e.g. a ``RET`` through a hand-crafted
``r31``) cannot be ruled out statically, so the driver *deoptimises*: the
simulator prices the record so far into its memory system (and lists its
references into an attached trace) and resumes in the reference
interpreter, which is always correct.

``tests/golden/test_golden_values.py`` pins the end-to-end outputs of all
bundled apps and ``tests/isa/test_engine_equivalence.py`` cross-checks
the recorder plus pricing against the reference interpreter;
``repro.verify`` audits the cross-layer invariants at runtime.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

from repro.isa.image import MEMORY_BYTES
from repro.isa.instructions import Opcode, WORD_BYTES

#: Generated lines per compiled unit.  Blocks are compiled in groups of
#: about this size rather than as one module, which bounds the
#: compiler's transient memory on large images.
_UNIT_LINES = 256

#: Control-transfer opcodes: a basic block ends at (and includes) one.
_CTRL = frozenset((Opcode.BNZ, Opcode.BEZ, Opcode.JMP, Opcode.CALL,
                   Opcode.RET, Opcode.HALT))

_BINOPS = {
    Opcode.ADD: "+", Opcode.SUB: "-", Opcode.MUL: "*",
    Opcode.AND: "&", Opcode.OR: "|", Opcode.XOR: "^",
}
_CMPOPS = {
    Opcode.SLT: "<", Opcode.SLE: "<=", Opcode.SGT: ">",
    Opcode.SGE: ">=", Opcode.SEQ: "==", Opcode.SNE: "!=",
}

_MASK32 = 0xFFFFFFFF


def _wrap32(value: int) -> int:
    value &= _MASK32
    return value - (1 << 32) if value & 0x80000000 else value


def _wrap_expr(expr: str) -> str:
    """Branch-free two's-complement wrap, identical to ``_wrap32``."""
    return f"((({expr}) & 4294967295 ^ 2147483648) - 2147483648)"


@dataclass
class ExecutionRecord:
    """What one cache-free execution of an image leaves behind.

    ``bseq`` and ``daddrs`` are int32 arrays (every block index and data
    address fits), so a record costs 4 bytes per executed block and per
    data reference.  A record is *complete* once the program halted; one
    cut short by a fault or a deoptimisation cannot be priced.
    """

    #: The image executed; a record prices only that image.
    image: Any = None
    #: ``(start, end)`` pc range of every basic block, by block index.
    blocks: List[Tuple[int, int]] = field(default_factory=list)
    #: Block index of every executed block, in execution order.
    bseq: array = field(default_factory=lambda: array("i"))
    #: Byte address of every executed ``LW``/``SW``, in execution order.
    daddrs: array = field(default_factory=lambda: array("i"))
    #: Taken conditional branches per pc.
    taken: List[int] = field(default_factory=list)
    #: ``r1`` at ``HALT``.
    result: int = 0
    complete: bool = False

    @property
    def nbytes(self) -> int:
        """Bytes held by ``bseq`` and ``daddrs``."""
        return (self.bseq.itemsize * len(self.bseq)
                + self.daddrs.itemsize * len(self.daddrs))


class CompiledProgram:
    """One image compiled to block closures.

    ``bind(bseq_append, daddr_append, taken)`` points every closure at a
    fresh record before a run; ``st`` holds the fuel left.  The code
    depends only on the image and on ``fuel``, the limit its
    fuel-exhausted error names.
    """

    __slots__ = ("funcs", "blocks", "size", "st", "bind", "fuel", "source")

    def __init__(self, funcs: List[Optional[Callable]],
                 blocks: List[Tuple[int, int]], size: int, st: List[int],
                 bind: Callable, fuel: int, source: str) -> None:
        self.funcs = funcs
        self.blocks = blocks
        self.size = size
        self.st = st
        self.bind = bind
        self.fuel = fuel
        self.source = source


def _find_blocks(opcode, target_arr, attribution, entry: int,
                 size: int) -> List[Tuple[int, int]]:
    """Split the image into ``(start, end)`` basic blocks."""
    if size == 0:
        return []
    leaders = {0}
    if 0 <= entry < size:
        leaders.add(entry)
    for p in range(size):
        op = opcode[p]
        if op in _CTRL:
            if p + 1 < size:
                leaders.add(p + 1)
            if op in (Opcode.BNZ, Opcode.BEZ, Opcode.JMP, Opcode.CALL):
                target = target_arr[p]
                if 0 <= target < size:
                    leaders.add(target)
    for p in range(1, size):
        if attribution[p] != attribution[p - 1]:
            leaders.add(p)
    ordered = sorted(leaders)
    blocks = []
    for index, start in enumerate(ordered):
        limit = ordered[index + 1] if index + 1 < len(ordered) else size
        end = start
        while end < limit:
            end += 1
            if opcode[end - 1] in _CTRL:
                break
        blocks.append((start, end))
    return blocks


def compile_program(sim) -> CompiledProgram:
    """Compile ``sim``'s image for its fuel limit."""
    from repro.isa.simulator import SimError

    opcode = sim._opcode
    rd_arr, rs1_arr, rs2_arr = sim._rd, sim._rs1, sim._rs2
    imm_arr, target_arr = sim._imm, sim._target
    size = len(opcode)
    fuel = sim.max_instructions
    word_shift = WORD_BYTES.bit_length() - 1
    assert (1 << word_shift) == WORD_BYTES

    blocks = _find_blocks(opcode, target_arr, sim.image.attribution,
                          sim.image.entry_pc, size)

    # Per block: its function's lines.
    emitted: List[List[str]] = []

    def emit(depth: int, text: str) -> None:
        body.append("    " * depth + text)

    for bidx, (start, end) in enumerate(blocks):
        body: List[str] = []
        emitted.append(body)
        emit(1, f"def _b{start}(regs):")
        emit(2, f"st[0] -= {end - start}")
        emit(2, "if st[0] < 0:")
        emit(3, f'raise SimError("fuel exhausted after {fuel} instructions")')
        emit(2, f"bs({bidx})")

        for p in range(start, end):
            op = opcode[p]
            if op in _CTRL:
                continue  # control transfer emitted after the block body
            dst = f"regs[{rd_arr[p] or 32}]"
            a = f"regs[{rs1_arr[p]}]"
            b = f"regs[{rs2_arr[p]}]"
            imm = imm_arr[p]
            if op in _BINOPS:
                emit(2, f"{dst} = {_wrap_expr(f'{a} {_BINOPS[op]} {b}')}")
            elif op in _CMPOPS:
                emit(2, f"{dst} = 1 if {a} {_CMPOPS[op]} {b} else 0")
            elif op is Opcode.ADDI:
                emit(2, f"{dst} = {_wrap_expr(f'{a} + ({imm})')}")
            elif op is Opcode.LI:
                emit(2, f"{dst} = {_wrap32(imm)}")
            elif op is Opcode.MOV:
                emit(2, f"{dst} = {a}")
            elif op is Opcode.LW:
                emit(2, f"_a = {a} + ({imm})" if imm else f"_a = {a}")
                emit(2, f"if _a < 0 or _a >= {MEMORY_BYTES}:")
                emit(3, 'raise SimError(f"load fault at pc '
                        f'{p}: address {{_a:#x}}")')
                emit(2, f"{dst} = memory[_a >> {word_shift}]")
                emit(2, "da(_a)")
            elif op is Opcode.SW:
                emit(2, f"_a = {a} + ({imm})" if imm else f"_a = {a}")
                emit(2, f"if _a < 0 or _a >= {MEMORY_BYTES}:")
                emit(3, 'raise SimError(f"store fault at pc '
                        f'{p}: address {{_a:#x}}")')
                emit(2, f"memory[_a >> {word_shift}] = {b}")
                emit(2, "da(_a)")
            elif op is Opcode.NOT:
                emit(2, f"{dst} = {_wrap_expr(f'~{a}')}")
            elif op is Opcode.NEG:
                emit(2, f"{dst} = {_wrap_expr(f'-{a}')}")
            elif op is Opcode.SLL:
                emit(2, f"{dst} = {_wrap_expr(f'{a} << ({b} & 31)')}")
            elif op is Opcode.SRL:
                emit(2, f"{dst} = "
                        f"{_wrap_expr(f'({a} & 4294967295) >> ({b} & 31)')}")
            elif op is Opcode.SLLI:
                emit(2, f"{dst} = {_wrap_expr(f'{a} << {imm & 31}')}")
            elif op in (Opcode.DIV, Opcode.REM):
                what = "division" if op is Opcode.DIV else "modulo"
                emit(2, f"_d = {b}")
                emit(2, "if _d == 0:")
                emit(3, f'raise SimError("{what} by zero at pc {p}")')
                emit(2, f"_n = {a}")
                emit(2, "_q = abs(_n) // abs(_d)")
                emit(2, "if (_n < 0) != (_d < 0):")
                emit(3, "_q = -_q")
                if op is Opcode.DIV:
                    emit(2, f"{dst} = {_wrap_expr('_q')}")
                else:
                    emit(2, f"{dst} = {_wrap_expr('_n - _d * _q')}")
            elif op is Opcode.NOP:
                pass
            else:  # pragma: no cover - decode is exhaustive
                raise ValueError(f"cannot compile {op}")

        last = end - 1
        op = opcode[last]
        if op in (Opcode.BNZ, Opcode.BEZ):
            relation = "!=" if op is Opcode.BNZ else "=="
            emit(2, f"if regs[{rs1_arr[last]}] {relation} 0:")
            emit(3, f"tk[{last}] += 1")
            emit(3, f"return {target_arr[last]}")
            emit(2, f"return {end}")
        elif op is Opcode.JMP:
            emit(2, f"return {target_arr[last]}")
        elif op is Opcode.CALL:
            emit(2, f"regs[31] = {end}")
            emit(2, f"return {target_arr[last]}")
        elif op is Opcode.RET:
            emit(2, "return regs[31]")
        elif op is Opcode.HALT:
            emit(2, "return None")
        else:
            emit(2, f"return {end}")

    # Each unit's closures share its own record cells; ``bind`` sets all.
    units: List[List[int]] = [[]]
    unit_lines = 0
    for bidx, body in enumerate(emitted):
        if units[-1] and unit_lines + len(body) > _UNIT_LINES:
            units.append([])
            unit_lines = 0
        units[-1].append(bidx)
        unit_lines += len(body)

    st = [0]
    funcs: List[Optional[Callable]] = [None] * size
    binds: List[Callable] = []
    sources: List[str] = []
    for unit in units:
        lines = [
            "def _build(st, memory, SimError):",
            "    bs = da = tk = None",
            "    def _bind(bseq_append, daddr_append, taken):",
            "        nonlocal bs, da, tk",
            "        bs, da, tk = bseq_append, daddr_append, taken",
        ]
        for bidx in unit:
            lines.extend(emitted[bidx])
        lines.append("    return {%s}, _bind" % ", ".join(
            f"{blocks[bidx][0]}: _b{blocks[bidx][0]}" for bidx in unit))
        source = "\n".join(lines) + "\n"
        namespace: dict = {}
        exec(compile(source, "<repro-simcompile>", "exec"), namespace)
        unit_funcs, bind = namespace["_build"](st, sim.memory, SimError)
        for start, fn in unit_funcs.items():
            funcs[start] = fn
        binds.append(bind)
        sources.append(source)

    def bind_all(bseq_append, daddr_append, taken) -> None:
        for bind in binds:
            bind(bseq_append, daddr_append, taken)

    return CompiledProgram(funcs, blocks, size, st, bind_all, fuel,
                           "".join(sources))
