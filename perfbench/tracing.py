"""Outside-in tracing: time calls into the program's public functions.

The benchmark measures the program without changing it.  :class:`Recorder`
wraps a public function or method and rebinds every ``from ... import``
alias of it across the loaded ``repro.*`` modules, so callers that imported
the name before the wrap reach the wrapper too.  :meth:`Recorder.unwrap_all`
restores every original binding.

Spans live in memory, one stack per thread (the server's event-loop and
lane threads interleave), and each records its parent and a request id:
the application for pass workloads, the job id for the service.  A span's
self time is its duration minus the time of its child spans.

:data:`LAYER_CALLS` names the calls timed for each layer; a layer the
program stops calling shows 0 calls rather than stale numbers.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

# Span slots (a span is a plain list: cheap to build inside the wrapper).
NAME, THREAD, START, END, PARENT, REQUEST, CHILD_S, COUNTS, ERROR = range(9)

#: Marker attribute set on every wrapper (tests look for leftovers).
WRAPPER_MARK = "__perfbench_original__"


class Recorder:
    """Collects spans from wrapped calls; owns every wrap it installs."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.recording = True
        #: Request id given to root spans that do not name their own.
        self.request: Optional[str] = None
        #: ``id(PartitionRequest)`` -> job id, filled as jobs are submitted.
        self.job_ids: Dict[int, str] = {}
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrapper(self, fn: Callable, name: str, observe: Optional[Callable],
                 request_of: Optional[Callable]) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.recording:
                return fn(*args, **kwargs)
            stack = recorder._stack()
            parent = stack[-1] if stack else None
            if parent is not None:
                request = parent[REQUEST]
            elif request_of is not None:
                request = request_of(recorder, args)
            else:
                request = recorder.request
            span = [name, threading.get_ident(), 0.0, 0.0, parent, request,
                    0.0, None, None]
            stack.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent[CHILD_S] += span[END] - span[START]
                recorder.spans.append(span)
            if observe is not None:
                observe(recorder, span, args, result)
            return result

        setattr(wrapper, WRAPPER_MARK, fn)
        return wrapper

    def wrap(self, owner: Any, attr: str, name: str,
             observe: Optional[Callable] = None,
             request_of: Optional[Callable] = None) -> None:
        """Time calls to ``owner.attr`` as spans called ``name``.

        ``owner`` is a module or a class.  Every loaded ``repro.*``
        module attribute bound to the same function is rebound too.
        ``observe(recorder, span, args, result)`` may attach counts to
        the span (``span[COUNTS]``) or set its request id after the call;
        ``request_of(recorder, args)`` names the request of a root span.
        """
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        wrapper = self._wrapper(original, name, observe, request_of)
        targets = [owner]
        for mod_name, module in list(sys.modules.items()):
            if module is owner or module is None or not (
                    mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            if any(value is original for value in vars(module).values()):
                targets.append(module)
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is original:
                    setattr(target, key, wrapper)
                    self._patches.append((target, key, original))

    def unwrap_all(self) -> None:
        """Restore every binding :meth:`wrap` replaced."""
        while self._patches:
            target, key, original = self._patches.pop()
            setattr(target, key, original)


def _counts(span: list, **values: int) -> None:
    span[COUNTS] = values


def _observe_interp(_recorder, span, args, _result):
    _counts(span, steps=args[0].profile.steps)


def _observe_sim(_recorder, span, _args, result):
    _counts(span, instructions=result.instructions)


def _observe_replay(_recorder, span, args, _result):
    _counts(span, events=len(args[0]))


def _observe_system_run(_recorder, span, _args, result):
    trace = result.stats.trace if result.stats is not None else None
    _counts(span, trace_events=len(trace) if trace is not None else 0)


def _observe_prepare(_recorder, span, _args, result):
    _counts(span, decomposed=len(result.all_clusters),
            preselected=len(result.preselected))


def _observe_decide(_recorder, span, args, result):
    _counts(span, decided=len(args[1]), kept=len(result.candidates))


def _observe_submit(recorder, span, _args, result):
    job, created = result
    recorder.job_ids[id(job.request)] = job.id
    span[REQUEST] = job.id
    _counts(span, coalesced=0 if created else 1)


def _evaluated_job(recorder, args):
    return recorder.job_ids.get(id(args[1]))


def _observe_journal(_recorder, span, args, _result):
    span[REQUEST] = args[1].get("id")


#: (module, class or None, attribute, span name, observer[, request_of])
#: per timed call.
LAYER_CALLS = (
    ("repro.core.flow", "AppSpec", "compile", "lang.compile", None),
    ("repro.lang.interp", "Interpreter", "run", "lang.interp",
     _observe_interp),
    ("repro.isa.image", None, "link_program", "isa.link", None),
    ("repro.isa.simulator", "Simulator", "run", "isa.sim", _observe_sim),
    ("repro.mem.profiler", None, "replay", "mem.replay", _observe_replay),
    ("repro.power.system", None, "evaluate_initial", "power.initial",
     _observe_system_run),
    ("repro.power.system", None, "evaluate_partitioned", "power.partitioned",
     _observe_system_run),
    ("repro.core.partitioner", "Partitioner", "prepare", "cluster.prepare",
     _observe_prepare),
    ("repro.sched.list_scheduler", None, "list_schedule", "sched.schedule",
     None),
    ("repro.sched.binding", None, "bind_schedule", "sched.bind", None),
    ("repro.core.partitioner", "Partitioner", "evaluate_candidate",
     "core.evaluate", None),
    ("repro.core.partitioner", "Partitioner", "decide", "core.decide",
     _observe_decide),
    ("repro.core.explore", "ExplorationEngine", "sweep", "core.sweep", None),
    ("repro.core.checkpoint", "PersistentEvaluationCache", "put",
     "core.checkpoint", None),
    ("repro.synth.datapath", None, "build_datapath", "synth", None),
    ("repro.synth.fsm", None, "build_controller", "synth", None),
    ("repro.synth.netlist", None, "expand_netlist", "synth", None),
    ("repro.synth.gatesim", None, "estimate_gate_energy", "synth", None),
    ("repro.synth.rtl_sim", None, "simulate_asic", "synth", None),
    ("repro.verify.verifier", None, "verify_flow_result", "verify", None),
    ("repro.verify.verifier", None, "verify_candidate", "verify", None),
    ("repro.service.core", "ServiceCore", "evaluate", "service.evaluate",
     None, _evaluated_job),
    ("repro.service.jobs", "JobManager", "submit", "service.submit",
     _observe_submit),
    ("repro.service.journal", "JobJournal", "append", "service.journal",
     _observe_journal),
)

#: Modules that import the wrapped names.  Loaded before wrapping, so each
#: alias exists when :meth:`Recorder.wrap` looks for it and
#: :meth:`Recorder.unwrap_all` can restore it (a module first imported
#: while the wrappers are in place would keep them).
CALLER_MODULES = ("repro.cli", "repro.core", "repro.mem.explore",
                  "repro.service", "repro.verify")


def install(recorder: Recorder) -> Recorder:
    """Wrap every call in :data:`LAYER_CALLS`; returns ``recorder``."""
    for module_name in CALLER_MODULES:
        importlib.import_module(module_name)
    for module_name, class_name, attr, name, *hooks in LAYER_CALLS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        recorder.wrap(owner, attr, name, *hooks)
    return recorder


def span_records(spans: List[list]) -> List[Dict[str, Any]]:
    """Spans as JSON-able records; ``parent`` is the parent's index."""
    index = {id(span): i for i, span in enumerate(spans)}
    return [{"name": s[NAME], "thread": s[THREAD], "start": s[START],
             "end": s[END],
             "parent": index[id(s[PARENT])] if s[PARENT] else None,
             "request": s[REQUEST], "child_s": s[CHILD_S],
             "counts": s[COUNTS], "error": s[ERROR]}
            for s in spans]


def layer_totals(records: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, errors, self seconds and summed counts."""
    totals: Dict[str, Dict[str, float]] = {}
    for rec in records:
        entry = totals.setdefault(rec["name"], {"calls": 0, "errors": 0,
                                                "self_s": 0.0})
        entry["calls"] += 1
        entry["errors"] += 1 if rec["error"] else 0
        entry["self_s"] += rec["end"] - rec["start"] - rec["child_s"]
        for key, value in (rec["counts"] or {}).items():
            entry[key] = entry.get(key, 0) + value
    return totals
