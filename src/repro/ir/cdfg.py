"""Control/data-flow graph (the paper's ``G = {V, E}``).

A :class:`CDFG` is the unit the partitioner works on: a CFG of basic blocks,
where each block carries straight-line :class:`~repro.ir.ops.Operation` lists.
Operation-level data dependences are derived on demand with
:func:`build_data_dependence_graph` — that DAG is what the list scheduler
consumes (paper Fig. 1, line 8).

Both graphs are plain insertion-ordered dicts: the CFG maps each block to
``{successor: edge kind}``, the DDG each operation to ``{successor: dep
kind}``.  Iteration follows insertion order, so every traversal here is
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.ir.ops import Operation, OpKind, Value

#: An intra-block data-dependence DAG: operation -> {successor: dep kind}.
#: Keys are in program order, which is a topological order (every edge
#: points forward).
DDG = Dict[Operation, Dict[Operation, str]]


class IRError(Exception):
    """Raised for structurally invalid IR."""


@dataclass
class BasicBlock:
    """A maximal straight-line sequence of operations.

    The final operation may be a terminator (BRANCH/JUMP/RETURN); a block
    without a terminator falls through to its single successor.
    """

    name: str
    ops: List[Operation] = field(default_factory=list)

    def append(self, op: Operation) -> Operation:
        if self.ops and self.ops[-1].is_terminator:
            raise IRError(f"block {self.name} already terminated")
        self.ops.append(op)
        return op

    @property
    def terminator(self) -> Optional[Operation]:
        if self.ops and self.ops[-1].is_terminator:
            return self.ops[-1]
        return None

    @property
    def body(self) -> List[Operation]:
        """Operations excluding the terminator."""
        if self.terminator is not None:
            return self.ops[:-1]
        return list(self.ops)

    def __iter__(self) -> Iterator[Operation]:
        return iter(self.ops)

    def __len__(self) -> int:
        return len(self.ops)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<BasicBlock {self.name}: {len(self.ops)} ops>"


class CDFG:
    """Control/data-flow graph for one function.

    Attributes:
        name: function name.
        params: formal parameter names (scalars or array symbols).
        arrays: array symbol -> element count, for every array the function
            touches (locals and parameters alike).
        entry: name of the entry block.
    """

    def __init__(self, name: str, params: Optional[List[str]] = None) -> None:
        self.name = name
        self.params: List[str] = list(params or [])
        self.arrays: Dict[str, int] = {}
        self.blocks: Dict[str, BasicBlock] = {}
        self.entry: Optional[str] = None
        #: block -> {successor: edge kind}, and block -> {predecessor: None}.
        self._succ: Dict[str, Dict[str, str]] = {}
        self._pred: Dict[str, Dict[str, None]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_block(self, name: str) -> BasicBlock:
        if name in self.blocks:
            raise IRError(f"duplicate block name {name!r}")
        block = BasicBlock(name)
        self.blocks[name] = block
        self._succ[name] = {}
        self._pred[name] = {}
        if self.entry is None:
            self.entry = name
        return block

    def add_edge(self, src: str, dst: str, kind: str = "fall") -> None:
        """Connect two blocks; ``kind`` is 'true', 'false', 'jump' or 'fall'."""
        if src not in self.blocks or dst not in self.blocks:
            raise IRError(f"edge {src}->{dst} references unknown block")
        if kind not in ("true", "false", "jump", "fall"):
            raise IRError(f"bad edge kind {kind!r}")
        self._succ[src][dst] = kind
        self._pred[dst][src] = None

    def remove_block(self, name: str) -> None:
        """Delete a block together with its incoming and outgoing edges."""
        del self.blocks[name]
        for succ in self._succ.pop(name):
            del self._pred[succ][name]
        for pred in self._pred.pop(name):
            del self._succ[pred][name]

    def declare_array(self, symbol: str, size: int) -> None:
        if size <= 0:
            raise IRError(f"array {symbol!r} must have positive size, got {size}")
        self.arrays[symbol] = size

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def successors(self, block: str) -> List[str]:
        return list(self._succ[block])

    def predecessors(self, block: str) -> List[str]:
        return list(self._pred[block])

    def edge_kind(self, src: str, dst: str) -> str:
        return self._succ[src][dst]

    def branch_targets(self, block: str) -> Tuple[Optional[str], Optional[str]]:
        """(taken, not-taken) successors of a BRANCH-terminated block."""
        taken = fall = None
        for succ, kind in self._succ[block].items():
            if kind == "true":
                taken = succ
            elif kind == "false":
                fall = succ
        return taken, fall

    def all_ops(self) -> Iterator[Operation]:
        for block in self.blocks.values():
            yield from block.ops

    @property
    def op_count(self) -> int:
        return sum(len(b) for b in self.blocks.values())

    def postorder(self) -> List[str]:
        """The blocks reachable from the entry in depth-first post-order,
        visiting successors in edge-insertion order."""
        if self.entry is None:
            return []
        order: List[str] = []
        seen = {self.entry}
        stack = [(self.entry, iter(self._succ[self.entry]))]
        while stack:
            node, succs = stack[-1]
            for succ in succs:
                if succ not in seen:
                    seen.add(succ)
                    stack.append((succ, iter(self._succ[succ])))
                    break
            else:
                stack.pop()
                order.append(node)
        return order

    def reverse_postorder(self) -> List[str]:
        """Blocks in reverse post-order from the entry (a topological-ish
        order that visits definitions before uses for reducible CFGs)."""
        order = self.postorder()
        order.reverse()
        return order

    def immediate_dominators(self) -> Dict[str, str]:
        """Immediate dominator of every block reachable from the entry
        (the entry maps to itself), by Cooper, Harvey and Kennedy's
        iterative algorithm ("A Simple, Fast Dominance Algorithm")."""
        order = self.postorder()
        if not order:
            return {}
        index = {block: i for i, block in enumerate(order)}
        idom = {self.entry: self.entry}

        def intersect(a: str, b: str) -> str:
            while a != b:
                while index[a] < index[b]:
                    a = idom[a]
                while index[b] < index[a]:
                    b = idom[b]
            return a

        changed = True
        while changed:
            changed = False
            for block in reversed(order[:-1]):
                new = None
                for pred in self._pred[block]:
                    if pred in idom:
                        new = pred if new is None else intersect(pred, new)
                if idom.get(block) != new:
                    idom[block] = new
                    changed = True
        return idom

    def natural_loops(self) -> List[Tuple[str, frozenset]]:
        """Detect natural loops: (header, body-block-set) per back edge.

        A back edge ``t -> h`` is one whose head dominates its tail.  Loops
        sharing a header are merged.
        """
        idom = self.immediate_dominators()

        def dominates(a: str, b: str) -> bool:
            node = b
            while True:
                if node == a:
                    return True
                parent = idom.get(node)
                if parent is None or parent == node:
                    return False
                node = parent

        loops: Dict[str, set] = {}
        for tail, succs in self._succ.items():
            for head in succs:
                if dominates(head, tail):
                    body = loops.setdefault(head, {head})
                    stack = [tail]
                    while stack:
                        node = stack.pop()
                        if node in body:
                            continue
                        body.add(node)
                        stack.extend(self._pred[node])
        return [(h, frozenset(b)) for h, b in sorted(loops.items())]

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def verify(self) -> None:
        """Check structural invariants; raise :class:`IRError` on violation."""
        if self.entry is None:
            raise IRError(f"function {self.name} has no entry block")
        for name, block in self.blocks.items():
            term = block.terminator
            succs = self.successors(name)
            if term is None:
                if len(succs) > 1:
                    raise IRError(f"fallthrough block {name} has {len(succs)} successors")
            elif term.kind is OpKind.RETURN:
                if succs:
                    raise IRError(f"return block {name} has successors")
            elif term.kind is OpKind.JUMP:
                if len(succs) != 1:
                    raise IRError(f"jump block {name} must have 1 successor")
            elif term.kind is OpKind.BRANCH:
                if len(succs) != 2:
                    raise IRError(f"branch block {name} must have 2 successors")
                kinds = sorted(self.edge_kind(name, s) for s in succs)
                if kinds != ["false", "true"]:
                    raise IRError(f"branch block {name} needs true+false edges, got {kinds}")
            for op in block.ops:
                if op.is_memory and op.symbol not in self.arrays:
                    raise IRError(
                        f"{op!r} in {name} references undeclared array {op.symbol!r}"
                    )
        unreachable = set(self.blocks) - set(self.postorder())
        if unreachable:
            raise IRError(f"unreachable blocks: {sorted(unreachable)}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<CDFG {self.name}: {len(self.blocks)} blocks, {self.op_count} ops>"


def build_data_dependence_graph(ops: Iterable[Operation]) -> DDG:
    """Build the intra-block data-dependence DAG used by the list scheduler.

    Edges:
      * RAW (``flow``): definition -> use of the same :class:`Value`;
      * WAR / WAW (``anti`` / ``output``): ordering edges so a later
        redefinition never overtakes earlier readers/writers;
      * memory (``mem``): program-order edges between LOAD/STORE pairs on the
        same array symbol where at least one is a STORE.

    Nodes are :class:`Operation` objects (hashed by ``op_id``), in
    program order.  A pair with several dependences keeps the kind found
    last.
    """
    ddg: DDG = {}
    last_def: Dict[Value, Operation] = {}
    readers: Dict[Value, List[Operation]] = {}
    last_store: Dict[str, Operation] = {}
    loads_since_store: Dict[str, List[Operation]] = {}

    for op in ops:
        ddg[op] = {}
        for value in op.uses:
            definition = last_def.get(value)
            if definition is not None:
                ddg[definition][op] = "flow"
            readers.setdefault(value, []).append(op)
        if op.result is not None:
            prev = last_def.get(op.result)
            if prev is not None and prev is not op:
                ddg[prev][op] = "output"
            for reader in readers.get(op.result, ()):
                if reader is not op:
                    ddg[reader][op] = "anti"
            last_def[op.result] = op
            readers[op.result] = []
        if op.kind is OpKind.LOAD:
            store = last_store.get(op.symbol)
            if store is not None:
                ddg[store][op] = "mem"
            loads_since_store.setdefault(op.symbol, []).append(op)
        elif op.kind is OpKind.STORE:
            store = last_store.get(op.symbol)
            if store is not None:
                ddg[store][op] = "mem"
            for load in loads_since_store.get(op.symbol, ()):
                ddg[load][op] = "mem"
            last_store[op.symbol] = op
            loads_since_store[op.symbol] = []
    return ddg
