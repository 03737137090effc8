"""Profiling on the ISS: ``#ex_times`` from the initial design's run.

The paper obtains ``#ex_times`` "through profiling" (footnote 14) and
runs the application once on the ISS for the initial design (Fig. 5).
:func:`profile_from_sim` reads the :class:`ExecutionProfile` the
partitioner consumes off that one run, so no second execution pass is
needed:

* a block's entries are the count at its label pc (every instruction of
  a basic block executes once per entry);
* a function's calls are the count at its first pc;
* ``steps`` and ``op_counts`` are entries times the block's static ops;
* ``result`` is ``r1`` when the entry function returns a value.

A JUMP-only block laid out directly before its successor lowers to no
instructions and shares its pc with the next label, so its count cannot
be read off a pc.  Such counts are solved exactly from flow conservation
on the CFG (entries = inflow over predecessor edges), with the edges
known from non-empty blocks and from the not-taken ``JMP`` that follows
a ``BNZ``.  A count the equations leave undetermined raises
:class:`ProfileError`; it is never guessed.

:func:`profile_app` is the flow's shared front half — compile, link,
``evaluate_initial``, derive the profile — used by every caller that
needs a profiled application.  The CDFG interpreter stays the semantic
reference: ``repro fuzz`` checks the two profiles equal field by field.

Only the pricing of that front half depends on the technology node and
the cache geometry: the program, its image, its cache-free execution
record and the profile do not.  Given a :class:`BoundedMemo`,
:func:`profile_app` keeps the :class:`ProfiledApp` under the workload's
content (:func:`workload_key`), so one program under many nodes or
geometries is executed once while it stays in the memo and is only
priced again.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.ir.cdfg import CDFG
from repro.ir.ops import OpKind
from repro.isa.image import ProgramImage, link_program
from repro.isa.instructions import Opcode
from repro.isa.simulator import SimResult
from repro.lang.interp import ExecutionProfile, check_workload
from repro.lang.program import Program
from repro.obs import NullTracer, Tracer
from repro.power.system import SystemRun, evaluate_initial
from repro.tech.library import TechnologyLibrary

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.core.flow import AppSpec
    from repro.isa.simcompile import ExecutionRecord


class ProfileError(Exception):
    """The ISS run does not determine the execution profile."""


#: A linear form over unknown counts: (constant, {unknown: coefficient}).
_Form = Tuple[int, Dict[Tuple[str, str], int]]


def _block_entries(function: str, cdfg: CDFG, image: ProgramImage,
                   counts: List[int], calls: int) -> Dict[str, int]:
    """Entries of every laid-out block of one function."""
    labels = image.labels[function]
    layout = [(name, pc) for name, pc in labels.items()
              if not name.startswith("__")]
    ends = [pc for _name, pc in layout[1:]] + [labels["__epilogue"]]
    entries: Dict[str, Optional[int]] = {}
    not_taken: Dict[str, int] = {}
    for (block, start), end in zip(layout, ends):
        if start == end:
            entries[block] = None
            continue
        entries[block] = counts[start]
        terminator = cdfg.blocks[block].terminator
        if (terminator is not None and terminator.kind is OpKind.BRANCH
                and image.instructions[end - 1].opcode is Opcode.JMP):
            not_taken[block] = counts[end - 1]
    if None in entries.values():
        _solve_empty_blocks(function, cdfg, entries, not_taken, calls)
    return entries


def _solve_empty_blocks(function: str, cdfg: CDFG,
                        entries: Dict[str, Optional[int]],
                        not_taken: Dict[str, int], calls: int) -> None:
    """Fill the ``None`` entries by flow conservation, in place.

    Unknowns are the entries of empty blocks and the taken share of a
    branch whose not-taken edge falls through (no ``JMP`` to count).
    One equation per block: entries = inflow (+ calls at the entry).
    Equations with a single unknown are solved until none is left.
    """
    def count_form(block: str) -> _Form:
        known = entries.get(block, 0)
        return (0, {("entries", block): 1}) if known is None else (known, {})

    def edge_form(src: str, dst: str) -> _Form:
        total = entries.get(src, 0)
        terminator = cdfg.blocks[src].terminator
        if total is None or terminator is None \
                or terminator.kind is not OpKind.BRANCH:
            return count_form(src)  # a single successor takes it all
        taken, fall = cdfg.branch_targets(src)
        if src in not_taken:
            fell = not_taken[src]
            return (fell, {}) if dst == fall else (total - fell, {})
        if dst == taken:
            return 0, {("taken", src): 1}
        return total, {("taken", src): -1}

    equations: List[_Form] = []
    for block in entries:
        const, terms = count_form(block)
        terms = dict(terms)
        if block == cdfg.entry:
            const -= calls
        for pred in cdfg.predecessors(block):
            if pred not in entries:
                continue  # not laid out: unreachable, never runs
            pred_const, pred_terms = edge_form(pred, block)
            const -= pred_const
            for unknown, coef in pred_terms.items():
                terms[unknown] = terms.get(unknown, 0) - coef
        equations.append((const, {u: c for u, c in terms.items() if c}))

    solved: Dict[Tuple[str, str], int] = {}
    progress = True
    while progress:
        progress = False
        for const, terms in equations:
            open_terms = [(u, c) for u, c in terms.items()
                          if u not in solved]
            if len(open_terms) != 1:
                continue
            (unknown, coef), = open_terms
            rest = const + sum(c * solved[u] for u, c in terms.items()
                               if u in solved)
            if rest % coef:
                raise ProfileError(
                    f"{function}: flow conservation has no integer "
                    f"solution for {unknown[1]!r}")
            solved[unknown] = -rest // coef
            progress = True
    missing = sorted(block for block, known in entries.items()
                     if known is None and ("entries", block) not in solved)
    if missing:
        raise ProfileError(
            f"{function}: flow conservation leaves the entries of "
            f"zero-instruction block(s) {', '.join(missing)} undetermined")
    for block, known in entries.items():
        if known is None:
            entries[block] = solved[("entries", block)]


def profile_from_sim(program: Program, image: ProgramImage,
                     sim: SimResult) -> ExecutionProfile:
    """The execution profile of ``program`` read off one ISS run of it.

    ``image`` must be ``program`` linked, and ``sim`` an unpartitioned
    run of that image (hardware-shadow pcs carry no counts).  Equal,
    field for field, to the profile of the same workload on the CDFG
    interpreter.
    """
    if sim.hw_instructions:
        raise ProfileError("profiling needs an unpartitioned ISS run")
    counts = sim.pc_counts
    profile = ExecutionProfile()
    for function in sorted(program.cdfgs):
        calls = counts[image.function_ranges[function][0]]
        if not calls:
            continue
        profile.call_counts[function] = calls
        cdfg = program.cdfgs[function]
        entries = _block_entries(function, cdfg, image, counts, calls)
        for block, times in entries.items():
            if not times:
                continue
            profile.block_counts[(function, block)] = times
            ops = cdfg.blocks[block].ops
            profile.steps += times * len(ops)
            for op in ops:
                profile.op_counts[op.kind] = (
                    profile.op_counts.get(op.kind, 0) + times)
    if program.signatures[program.entry].returns_value:
        profile.result = sim.result
    return profile


@dataclass
class ProfiledApp:
    """The flow's front half for one application, priced at one node.

    One kept in a :class:`BoundedMemo` is shared by every flow that hits
    it, across threads: read-only.
    """

    program: Program
    image: ProgramImage
    initial: SystemRun
    profile: ExecutionProfile
    #: The ``flow.initial`` execution, for pricing partitioned designs.
    record: Optional["ExecutionRecord"] = None


class BoundedMemo:
    """A thread-safe map that keeps its most recently used entries.

    It keeps at most :attr:`_max_entries` entries whose declared sizes
    (``put(..., nbytes=)``) total at most :attr:`_max_bytes`, evicting
    the least recently used past either bound; a value larger than
    :attr:`_max_bytes` on its own is not kept.  Holds executed front
    halves (an engine's, shared by the service's per-node engines, sized
    by their execution records) and the explore workers' sweep contexts.
    """

    #: A front half of a bundled application at scale 1 holds
    #: 0.12-0.8 MB, of which 0.04-0.4 MB is its execution record.
    _max_entries = 16
    #: A record costs 4 bytes per executed block and data reference, so
    #: a long run (a large ``scale``, a long-running ``source``) can be
    #: far larger; all twelve bundled programs at scale 1 need 2.7 MB.
    _max_bytes = 32 << 20

    def __init__(self) -> None:
        self._entries: "OrderedDict[str, Tuple[object, int]]" = \
            OrderedDict()
        self._nbytes = 0
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: str):
        """The entry under ``key`` (now the most recent), or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            return entry[0]

    def put(self, key: str, value, nbytes: int = 0) -> None:
        """Store ``value``, which holds ``nbytes``, evicting the least
        recently used entries past the bounds."""
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._nbytes -= old[1]
            if nbytes > self._max_bytes:
                return
            self._entries[key] = (value, nbytes)
            self._nbytes += nbytes
            while (len(self._entries) > self._max_entries
                   or self._nbytes > self._max_bytes):
                self._nbytes -= self._entries.popitem(last=False)[1][1]


def workload_key(app: "AppSpec") -> str:
    """Content key of one execution: the program (name, source,
    ``optimize``) and its workload (args, globals).

    The library, the cache geometry and ``model_caches`` are left out:
    the execution record is cache-free and prices under any of them.
    """
    digest = hashlib.sha256()
    for part in (app.name, app.source, str(app.optimize),
                 repr(tuple(app.args)),
                 repr(sorted((name, tuple(values))
                             for name, values in app.globals_init.items()))):
        digest.update(part.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


def profile_app(app: "AppSpec", library: TechnologyLibrary,
                tracer: Optional[Tracer] = None,
                collect_trace: bool = False,
                fronts: Optional[BoundedMemo] = None) -> ProfiledApp:
    """Compile, link, evaluate the initial ("I") design, and profile it.

    The workload binding is checked first with the interpreter's own
    checks (:func:`~repro.lang.interp.check_workload`), so a bad binding
    fails with the same message it always did.  Spans: ``flow.compile``,
    ``flow.initial`` (``isa.link``, then the ISS's ``isa.compile``,
    ``isa.execute`` and ``isa.price``), ``flow.profile`` (the
    derivation).  The execution
    record is kept so the partitioned design is priced, not run again.

    With ``fronts``, a workload already executed is only priced under
    ``library`` and the app's caches (``explore.front.hits``; the
    ``flow.initial`` span then holds one ``isa.price``), and a new one is
    executed and kept within the memo's bounds
    (``explore.front.misses``).  ``collect_trace`` attaches the trace of
    the record priced, either way.
    """
    tracer = tracer or NullTracer()
    if fronts is None:
        return _execute_app(app, library, tracer, collect_trace)
    key = workload_key(app)
    front = fronts.get(key)
    if front is None:
        tracer.count("explore.front.misses")
        front = _execute_app(app, library, tracer, collect_trace)
        if front.record is not None:
            fronts.put(key, front, nbytes=front.record.nbytes)
        return front
    tracer.count("explore.front.hits")
    with tracer.span("flow.initial"):
        initial = evaluate_initial(
            front.image, library, icache_cfg=app.icache,
            dcache_cfg=app.dcache, model_caches=app.model_caches,
            collect_trace=collect_trace, record=front.record)
    return replace(front, initial=initial)


def _execute_app(app: "AppSpec", library: TechnologyLibrary,
                 tracer: Tracer, collect_trace: bool) -> ProfiledApp:
    """The front half run from the source: one ISS execution."""
    from repro.isa.simcompile import ExecutionRecord

    with tracer.span("flow.compile"):
        program = app.compile()
    check_workload(program, app.args, app.globals_init)
    record = ExecutionRecord()
    with tracer.span("flow.initial"):
        image = link_program(program)
        initial = evaluate_initial(
            image, library, args=app.args, globals_init=app.globals_init,
            icache_cfg=app.icache, dcache_cfg=app.dcache,
            model_caches=app.model_caches, collect_trace=collect_trace,
            record=record)
    with tracer.span("flow.profile"):
        profile = profile_from_sim(program, image, initial.sim)
    return ProfiledApp(program=program, image=image, initial=initial,
                       profile=profile,
                       record=record if record.complete else None)
