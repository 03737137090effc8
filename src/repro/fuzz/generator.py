"""Seeded random BDL program generator — valid by construction.

Every program this module emits compiles and runs to completion on the
reference interpreter without faults, by construction:

* array sizes are powers of two and every index is either a loop
  variable whose range is contained in the array bounds or an arbitrary
  expression masked with ``& (size - 1)`` (non-negative in two's
  complement, so always in range);
* divisors are non-zero by construction — a non-zero literal, an
  ``(expr | 1)`` odd value, or ``((expr & 7) + 1)``;
* shift amounts are literals in ``0..31`` or ``(expr & 31)`` (both
  executors mask register shift amounts to 5 bits anyway);
* ``while`` loops always follow the counted pattern ``t = K; while
  t > 0 { t = t - 1; ... }`` with the decrement *before* any generated
  ``continue``, so they terminate regardless of the generated body;
* helper functions are generated before ``main`` and may only call
  earlier helpers — the call graph is a DAG, so no recursion;
* a dynamic *trip budget* bounds the product of nested loop trip counts
  (and the cost of calls inside loops), keeping every program well under
  the interpreter's fuel limit.

The generator is deterministic for a fixed :class:`GeneratorConfig` and
seed — it draws only from its own ``random.Random``.  Knobs cover size,
depth, loop shapes and the operator mix; the campaign's coverage signal
(:mod:`repro.fuzz.coverage`) retunes the operator weights between
programs to reach op kinds the corpus has not yet exercised.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

#: Binary operators an expression may use, with their default weights.
#: Comparison and logical operators appear both here (as value-producing
#: operators) and as branch conditions.
DEFAULT_OP_WEIGHTS: Dict[str, int] = {
    "+": 10, "-": 10, "*": 6, "&": 4, "|": 4, "^": 4,
    "<<": 3, ">>": 3, "/": 3, "%": 3,
    "<": 2, "<=": 2, ">": 2, ">=": 2, "==": 2, "!=": 2,
    "&&": 1, "||": 1,
}

#: Array sizes the generator may declare (powers of two only, so masked
#: indices are in bounds by construction).
ARRAY_SIZES = (8, 16, 32)


@dataclass
class GeneratorConfig:
    """Size/depth/shape knobs for :class:`ProgramGenerator`."""

    #: Maximum statements per block (before nesting).
    max_block_stmts: int = 5
    #: Maximum expression depth.
    max_expr_depth: int = 3
    #: Maximum loop-nesting depth.
    max_loop_depth: int = 3
    #: Maximum structural (if/loop) nesting depth; beyond it blocks emit
    #: only flat statements, so recursion is bounded by construction.
    max_stmt_depth: int = 5
    #: Inclusive bounds of a counted loop's trip count.
    min_trips: int = 1
    max_trips: int = 12
    #: Total dynamic-iteration budget for one function (product of
    #: nested trips accumulates against this).
    trip_budget: int = 4_000
    #: Number of helper functions to generate (0..n drawn uniformly).
    max_helpers: int = 2
    #: Number of global arrays / scalars.
    max_global_arrays: int = 3
    max_global_scalars: int = 2
    #: Number of scalar parameters of ``main`` (0..n).
    max_main_params: int = 3
    #: Operator weights (missing operators get weight 0).
    op_weights: Dict[str, int] = field(
        default_factory=lambda: dict(DEFAULT_OP_WEIGHTS))

    def with_op_weights(self, weights: Dict[str, int]) -> "GeneratorConfig":
        merged = dict(self.op_weights)
        merged.update(weights)
        return replace(self, op_weights=merged)


@dataclass
class FuzzProgram:
    """One generated (or shrunken) test case: source plus its workload."""

    name: str
    source: str
    args: Tuple[int, ...] = ()
    globals_init: Dict[str, List[int]] = field(default_factory=dict)
    seed: Optional[int] = None

    @property
    def source_lines(self) -> int:
        """Non-blank source lines (the shrinker's size metric)."""
        return sum(1 for line in self.source.splitlines() if line.strip())


class _FuncScope:
    """Names visible while generating one function body."""

    def __init__(self) -> None:
        self.scalars: List[str] = []
        #: name -> element count.
        self.arrays: Dict[str, int] = {}
        self.next_var = 0
        self.next_loop = 0

    def fresh_var(self) -> str:
        name = f"v{self.next_var}"
        self.next_var += 1
        return name

    def fresh_loop_var(self) -> str:
        name = f"i{self.next_loop}"
        self.next_loop += 1
        return name


@dataclass
class _Helper:
    """Signature of an already-generated helper function."""

    name: str
    scalar_params: int
    array_param_size: Optional[int]  # element count or None
    #: Estimated dynamic cost of one invocation (interpreter steps).
    cost: int


class ProgramGenerator:
    """Generates :class:`FuzzProgram` instances from a seeded RNG."""

    def __init__(self, seed: int,
                 config: Optional[GeneratorConfig] = None) -> None:
        self.seed = seed
        self.config = config or GeneratorConfig()
        self._rng = random.Random(seed)
        self._count = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def generate(self, index: Optional[int] = None) -> FuzzProgram:
        """Generate program ``index`` (default: the next one in sequence).

        A program's shape depends only on ``(seed, index, config)``, so an
        explicit ``index`` lets a campaign swap in a re-weighted generator
        mid-run (coverage steering) without replaying earlier programs.
        """
        if index is None:
            index = self._count
        self._count = index + 1
        # Derive an independent per-program RNG so a program's shape
        # depends only on (seed, index), not on how much entropy earlier
        # programs consumed — this is what makes corpus entries
        # re-generable from their recorded seed alone.
        rng = random.Random((self.seed << 20) ^ index)
        return _Builder(rng, self.config, f"fuzz_{self.seed}_{index}",
                        seed=index).build()


class _Builder:
    """Builds one program; throwaway, holds per-program state."""

    def __init__(self, rng: random.Random, config: GeneratorConfig,
                 name: str, seed: int) -> None:
        self.rng = rng
        self.config = config
        self.name = name
        self.seed = seed
        self.lines: List[str] = []
        self.globals_arrays: Dict[str, int] = {}
        self.globals_scalars: List[str] = []
        self.helpers: List[_Helper] = []
        self._op_pool: List[str] = []
        for op, weight in config.op_weights.items():
            self._op_pool.extend([op] * max(0, weight))
        if not self._op_pool:
            self._op_pool = ["+"]

    # -- entry ----------------------------------------------------------

    def build(self) -> FuzzProgram:
        rng = self.rng
        cfg = self.config
        for index in range(rng.randint(1, max(1, cfg.max_global_arrays))):
            size = rng.choice(ARRAY_SIZES)
            self.globals_arrays[f"G{index}"] = size
            self.lines.append(f"global G{index}: int[{size}];")
        for index in range(rng.randint(0, cfg.max_global_scalars)):
            self.globals_scalars.append(f"gs{index}")
            self.lines.append(f"global gs{index}: int;")
        for index in range(rng.randint(0, cfg.max_helpers)):
            self._emit_helper(index)
        main_params = rng.randint(0, cfg.max_main_params)
        self._emit_main(main_params)
        args = tuple(rng.randint(-1000, 1000) for _ in range(main_params))
        globals_init = {
            name: [rng.randint(-256, 256) for _ in range(size)]
            for name, size in self.globals_arrays.items()
        }
        return FuzzProgram(name=self.name, source="\n".join(self.lines) + "\n",
                           args=args, globals_init=globals_init,
                           seed=self.seed)

    # -- functions ------------------------------------------------------

    def _emit_helper(self, index: int) -> None:
        rng = self.rng
        scalar_params = rng.randint(1, 2)
        array_size = rng.choice(ARRAY_SIZES) if rng.random() < 0.5 else None
        params = [f"p{j}: int" for j in range(scalar_params)]
        if array_size is not None:
            params.append(f"ap: int[{array_size}]")
        name = f"helper{index}"
        self.lines.append(f"func {name}({', '.join(params)}) -> int {{")
        scope = _FuncScope()
        scope.scalars.extend(f"p{j}" for j in range(scalar_params))
        scope.scalars.extend(self.globals_scalars)
        if array_size is not None:
            scope.arrays["ap"] = array_size
        scope.arrays.update(self.globals_arrays)
        # Helpers get a small budget so calls inside loops stay cheap;
        # they may call earlier helpers only (DAG call graph).
        cost = self._emit_body(scope, depth=1, loop_depth=0,
                               budget=200, callables=list(self.helpers))
        self.lines.append(f"    return {self._expr(scope, 2)};")
        self.lines.append("}")
        self.helpers.append(_Helper(name=name, scalar_params=scalar_params,
                                    array_param_size=array_size,
                                    cost=cost + 20))

    def _emit_main(self, param_count: int) -> None:
        params = ", ".join(f"a{j}: int" for j in range(param_count))
        self.lines.append(f"func main({params}) -> int {{")
        scope = _FuncScope()
        scope.scalars.extend(f"a{j}" for j in range(param_count))
        scope.scalars.extend(self.globals_scalars)
        scope.arrays.update(self.globals_arrays)
        # A couple of local arrays bias toward cluster-forming loop nests.
        for _ in range(self.rng.randint(0, 2)):
            name = scope.fresh_var()
            size = self.rng.choice(ARRAY_SIZES)
            scope.arrays[name] = size
            self.lines.append(f"    var {name}: int[{size}];")
        self._emit_body(scope, depth=1, loop_depth=0,
                        budget=self.config.trip_budget,
                        callables=list(self.helpers))
        self.lines.append(f"    return {self._expr(scope, 3)};")
        self.lines.append("}")

    # -- statements -----------------------------------------------------

    def _emit_body(self, scope: _FuncScope, depth: int, loop_depth: int,
                   budget: int, callables: List[_Helper],
                   in_loop: bool = False) -> int:
        """Emit one block's statements; return estimated dynamic cost.

        BDL scoping is function-level, but a variable declared inside a
        conditional block is only *defined* on paths that executed the
        declaration — so later code may not reference it.  Truncating the
        scope on exit keeps every generated reference defined on every
        path (names stay unique via the fresh-variable counter, so the
        truncation never enables a duplicate declaration).
        """
        rng = self.rng
        cost = 0
        visible = len(scope.scalars)
        for _ in range(rng.randint(1, self.config.max_block_stmts)):
            cost += self._emit_stmt(scope, depth, loop_depth,
                                    budget - cost, callables, in_loop)
        if depth > 1:
            # A function's top-level block (depth 1) runs start to finish,
            # so its declarations stay visible for the return expression.
            del scope.scalars[visible:]
        return cost

    def _emit_stmt(self, scope: _FuncScope, depth: int, loop_depth: int,
                   budget: int, callables: List[_Helper],
                   in_loop: bool) -> int:
        rng = self.rng
        pad = "    " * depth
        roll = rng.random()
        # Loops get likelier when there is budget and depth to spend —
        # nested loops over arrays are exactly the cluster shapes the
        # partitioner feeds on.
        can_nest = depth < self.config.max_stmt_depth
        can_loop = (can_nest and loop_depth < self.config.max_loop_depth
                    and budget >= 32)
        if can_loop and roll < 0.28:
            return self._emit_loop(scope, depth, loop_depth, budget,
                                   callables)
        if can_nest and roll < 0.42:
            return self._emit_if(scope, depth, loop_depth, budget,
                                 callables, in_loop)
        if roll < 0.52 and scope.arrays:
            name, size = rng.choice(sorted(scope.arrays.items()))
            index = self._index_expr(scope, size)
            self.lines.append(
                f"{pad}{name}[{index}] = {self._expr(scope, 2)};")
            return 3
        if roll < 0.60 and callables and budget >= 64:
            helper = rng.choice(callables)
            call = self._call_expr(scope, helper)
            if call is not None:
                target = self._writable_scalar(scope)
                if target is None:
                    target = scope.fresh_var()
                    self.lines.append(f"{pad}var {target}: int = {call};")
                    scope.scalars.append(target)
                else:
                    self.lines.append(f"{pad}{target} = {call};")
                return helper.cost
        if in_loop and roll < 0.64:
            word = "continue" if rng.random() < 0.5 else "break"
            self.lines.append(f"{pad}if {self._cond(scope)} {{")
            self.lines.append(f"{pad}    {word};")
            self.lines.append(f"{pad}}}")
            return 3
        if roll < 0.80 or not scope.scalars:
            name = scope.fresh_var()
            self.lines.append(
                f"{pad}var {name}: int = {self._expr(scope, 2)};")
            scope.scalars.append(name)
            return 2
        target = self._writable_scalar(scope)
        if target is None:  # pragma: no cover - scalars checked above
            return 0
        self.lines.append(f"{pad}{target} = {self._expr(scope, 2)};")
        return 2

    def _writable_scalar(self, scope: _FuncScope) -> Optional[str]:
        # Loop variables (i*) are never assigned — they drive termination.
        names = [n for n in scope.scalars if not n.startswith("i")]
        if not names:
            return None
        return self.rng.choice(names)

    def _emit_loop(self, scope: _FuncScope, depth: int, loop_depth: int,
                   budget: int, callables: List[_Helper]) -> int:
        rng = self.rng
        pad = "    " * depth
        trips = rng.randint(self.config.min_trips,
                            min(self.config.max_trips, max(1, budget // 16)))
        inner_budget = max(8, budget // max(1, trips))
        if rng.random() < 0.25:
            # Counted while loop: decrement first, so generated
            # continue/break cannot prevent termination.
            counter = scope.fresh_var()
            self.lines.append(f"{pad}var {counter}: int = {trips};")
            self.lines.append(f"{pad}while {counter} > 0 {{")
            self.lines.append(f"{pad}    {counter} = {counter} - 1;")
            cost = self._emit_body(scope, depth + 1, loop_depth + 1,
                                   inner_budget, callables, in_loop=True)
            self.lines.append(f"{pad}}}")
            scope.scalars.append(counter)
            return trips * (cost + 3) + 2
        var = scope.fresh_loop_var()
        lo = rng.randint(0, 4)
        self.lines.append(f"{pad}for {var} in {lo} .. {lo + trips} {{")
        scope.scalars.append(var)
        cost = self._emit_body(scope, depth + 1, loop_depth + 1,
                               inner_budget, callables, in_loop=True)
        self.lines.append(f"{pad}}}")
        return trips * (cost + 2) + 1

    def _emit_if(self, scope: _FuncScope, depth: int, loop_depth: int,
                 budget: int, callables: List[_Helper],
                 in_loop: bool) -> int:
        pad = "    " * depth
        self.lines.append(f"{pad}if {self._cond(scope)} {{")
        cost = self._emit_body(scope, depth + 1, loop_depth, budget // 2,
                               callables, in_loop)
        if self.rng.random() < 0.5:
            self.lines.append(f"{pad}}} else {{")
            cost += self._emit_body(scope, depth + 1, loop_depth,
                                    budget // 2, callables, in_loop)
        self.lines.append(f"{pad}}}")
        return cost + 1

    # -- expressions ----------------------------------------------------

    def _cond(self, scope: _FuncScope) -> str:
        op = self.rng.choice(["<", "<=", ">", ">=", "==", "!="])
        return (f"{self._expr(scope, 1)} {op} {self._expr(scope, 1)}")

    def _atom(self, scope: _FuncScope, indices: int) -> str:
        """A scalar, a literal or (while ``indices`` > 0) an array read."""
        rng = self.rng
        roll = rng.random()
        if roll < 0.45 and scope.scalars:
            return rng.choice(scope.scalars)
        if roll < 0.60 and scope.arrays and indices > 0:
            name, size = rng.choice(sorted(scope.arrays.items()))
            return f"{name}[{self._index_expr(scope, size, indices)}]"
        return str(rng.randint(-512, 512))

    def _index_expr(self, scope: _FuncScope, size: int,
                    indices: Optional[int] = None) -> str:
        """An index provably in ``[0, size)``.

        ``indices`` is how many levels of array reads nested inside
        indices the enclosing expression may still use (at most
        ``max_expr_depth``); a computed index spends one, so such chains
        stay bounded.
        """
        if indices is None:
            indices = self.config.max_expr_depth
        rng = self.rng
        # A loop variable with a range inside the array is usable as-is.
        loop_vars = [n for n in scope.scalars if n.startswith("i")]
        if loop_vars and rng.random() < 0.5:
            var = rng.choice(loop_vars)
            # In-body values stay below lo + trips, but the variable
            # survives the loop holding exactly lo + trips (at most
            # 4 + max_trips), so unmasked use needs size strictly above
            # that; mask everything else.
            hi = 4 + self.config.max_trips
            if hi < size:
                return var
            return f"({var} & {size - 1})"
        return f"({self._expr(scope, 1, indices - 1)} & {size - 1})"

    def _expr(self, scope: _FuncScope, depth: int,
              indices: Optional[int] = None) -> str:
        if indices is None:
            indices = self.config.max_expr_depth
        rng = self.rng
        if depth <= 0 or rng.random() < 0.30:
            if rng.random() < 0.15:
                op = rng.choice(["-", "~", "!"])
                return f"({op}{self._atom(scope, indices)})"
            return self._atom(scope, indices)
        op = rng.choice(self._op_pool)
        left = self._expr(scope, depth - 1, indices)
        if op in ("/", "%"):
            return (f"({left} {op} "
                    f"{self._divisor(scope, depth - 1, indices)})")
        if op in ("<<", ">>"):
            if rng.random() < 0.5:
                return f"({left} {op} {rng.randint(0, 31)})"
            shift = self._expr(scope, depth - 1, indices)
            return f"({left} {op} ({shift} & 31))"
        right = self._expr(scope, depth - 1, indices)
        return f"({left} {op} {right})"

    def _divisor(self, scope: _FuncScope, depth: int, indices: int) -> str:
        """An expression that cannot evaluate to zero."""
        rng = self.rng
        roll = rng.random()
        if roll < 0.4:
            mag = rng.randint(1, 64)
            return str(mag if rng.random() < 0.8 else -mag)
        if roll < 0.7:
            return f"(({self._expr(scope, depth, indices)} & 7) + 1)"
        return f"({self._expr(scope, depth, indices)} | 1)"

    def _call_expr(self, scope: _FuncScope, helper: _Helper) -> Optional[str]:
        args = [self._expr(scope, 1) for _ in range(helper.scalar_params)]
        if helper.array_param_size is not None:
            candidates = sorted(
                name for name, size in scope.arrays.items()
                if size == helper.array_param_size)
            if not candidates:
                return None
            args.append(self.rng.choice(candidates))
        return f"{helper.name}({', '.join(args)})"
