"""Linking: per-function code -> one executable SL32 program image.

The image fixes the memory map (code / globals / stack), resolves CALL
targets and function-local branch targets to absolute instruction indices,
and records an instruction -> (function, block) attribution table so the
simulator can charge cycles and energy to individual CDFG blocks — which is
how the flow obtains ``E_μP,c_i`` (paper Fig. 1 line 12), the μP energy
attributable to one cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.isa.codegen import CodeGenerator
from repro.isa.instructions import Instruction, Opcode, WORD_BYTES
from repro.lang.program import Program

#: Memory map (byte addresses).
CODE_BASE = 0x0000_0000
GLOBALS_BASE = 0x0001_0000
STACK_TOP = 0x0010_0000
MEMORY_BYTES = STACK_TOP


class LinkError(Exception):
    """Raised when a program cannot be linked."""


@dataclass
class ProgramImage:
    """A linked, executable SL32 program.

    Attributes:
        name: program label.
        instructions: flat instruction list; index == pc.
        entry_pc: where execution starts (the ``call main; halt`` stub).
        function_ranges: function -> (start, end) instruction indices.
        symbol_addresses: global array symbol -> byte address.
        attribution: per-instruction ``(function, block)`` labels.
        frame_sizes: function -> frame bytes.
        labels: function -> ``{label: pc}`` in layout order:
            ``__function_entry``, the IR blocks, ``__epilogue``.  A block
            that lowers to no instructions shares its pc with the next
            label.
        symbol_sizes: global array symbol -> element count.
    """

    name: str
    instructions: List[Instruction]
    entry_pc: int
    function_ranges: Dict[str, Tuple[int, int]]
    symbol_addresses: Dict[str, int]
    attribution: List[Tuple[str, str]]
    frame_sizes: Dict[str, int] = field(default_factory=dict)
    labels: Dict[str, Dict[str, int]] = field(default_factory=dict)
    symbol_sizes: Dict[str, int] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.instructions)

    def function_of(self, pc: int) -> Optional[str]:
        for name, (start, end) in self.function_ranges.items():
            if start <= pc < end:
                return name
        return None

    def disassemble(self, function: Optional[str] = None) -> str:
        """Human-readable listing (optionally one function)."""
        lines = []
        if function is not None:
            start, end = self.function_ranges[function]
        else:
            start, end = 0, len(self.instructions)
        for pc in range(start, end):
            func, block = self.attribution[pc]
            lines.append(f"{pc:6d}  [{func}:{block}]  {self.instructions[pc]!r}")
        return "\n".join(lines)


def layout_globals(program: Program) -> Dict[str, int]:
    """Assign byte addresses to global arrays, starting at GLOBALS_BASE."""
    layout: Dict[str, int] = {}
    address = GLOBALS_BASE
    for symbol in sorted(program.global_arrays):
        layout[symbol] = address
        address += program.global_arrays[symbol] * WORD_BYTES
        if address >= STACK_TOP:
            raise LinkError(
                f"global data overflows the memory map at {symbol!r}")
    return layout


def link_program(program: Program) -> ProgramImage:
    """Compile and link ``program`` into an executable image."""
    global_layout = layout_globals(program)
    function_code = CodeGenerator(program, global_layout).generate()

    instructions: List[Instruction] = []
    attribution: List[Tuple[str, str]] = []
    function_ranges: Dict[str, Tuple[int, int]] = {}
    frame_sizes: Dict[str, int] = {}
    labels: Dict[str, Dict[str, int]] = {}

    # Entry stub.
    stub_call = Instruction(Opcode.CALL, target=program.entry)
    instructions.append(stub_call)
    attribution.append(("__stub", "__stub"))
    instructions.append(Instruction(Opcode.HALT))
    attribution.append(("__stub", "__stub"))

    for name in sorted(function_code):
        code = function_code[name]
        base = len(instructions)
        function_ranges[name] = (base, base + code.size)
        frame_sizes[name] = code.frame_size
        # label_index is insertion-ordered, i.e. in layout order.
        labels[name] = {label: base + pos
                        for label, pos in code.label_index.items()}

        # Block attribution from label positions.
        boundaries = sorted(
            (pos, label) for label, pos in code.label_index.items()
            if not label.startswith("__") or label == "__epilogue"
        )
        block_of_local: List[str] = []
        current = "__prologue"
        boundary_iter = iter(boundaries + [(code.size + 1, "__end")])
        next_pos, next_label = next(boundary_iter)
        for local in range(code.size):
            while local >= next_pos and next_label != "__end":
                current = next_label
                next_pos, next_label = next(boundary_iter)
            block_of_local.append(current)

        for local, instr in enumerate(code.instructions):
            if instr.opcode in (Opcode.BEZ, Opcode.BNZ, Opcode.JMP):
                if not isinstance(instr.target, int):
                    raise LinkError(f"unresolved branch in {name}")
                instr.target += base
            instructions.append(instr)
            attribution.append((name, block_of_local[local]))

    # Resolve CALL targets.
    for instr in instructions:
        if instr.opcode is Opcode.CALL:
            callee = instr.target
            if callee not in function_ranges:
                raise LinkError(f"call to unknown function {callee!r}")
            instr.target = function_ranges[callee][0]

    return ProgramImage(
        name=program.name,
        instructions=instructions,
        entry_pc=0,
        function_ranges=function_ranges,
        symbol_addresses=global_layout,
        attribution=attribution,
        frame_sizes=frame_sizes,
        labels=labels,
        symbol_sizes=dict(program.global_arrays),
    )
