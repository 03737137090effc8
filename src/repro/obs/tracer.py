"""Hierarchical timers, counters and trace export.

The flow and the exploration engine are instrumented with two primitives:

* **spans** — nested wall-clock timers opened with :meth:`Tracer.span`;
  spans with the same name under the same parent aggregate (``calls`` is
  incremented, ``total_s`` accumulates), so a six-app ``table1`` run yields
  one ``flow.run`` node with ``calls == 6`` rather than six siblings;
* **counters** — flat monotonic integers bumped with :meth:`Tracer.count`
  (e.g. ``explore.cache.hits``); see ``docs/OBSERVABILITY.md`` for the
  counter registry.

A tracer serializes to the versioned trace JSON schema (:data:`TRACE_SCHEMA_VERSION`)::

    {
      "schema": "repro-trace",
      "version": 1,
      "label": "explore ckey",
      "counters": {"explore.cache.hits": 12, ...},
      "root": {"name": "<root>", "calls": 1, "total_s": 1.25,
               "children": [{"name": "flow.run", ...}, ...]}
    }

Worker processes cannot share the parent's tracer; they run under their own
:class:`Tracer` (see :func:`use_tracer`) and ship their counters and span
totals back for merging via :meth:`Tracer.merge_counters` /
:meth:`Tracer.record`.

One tracer may be shared by several *threads* (the service's evaluation
thread counts into the tracer whose counters its event-loop thread
reads for ``/v1/metrics``): counter and span-tree updates are
serialized by an internal lock, and each thread gets its own span
*stack* rooted at the shared tree, so concurrent spans aggregate instead
of corrupting each other's nesting.

The *current tracer* (:func:`get_tracer` / :func:`use_tracer`) lets deep
layers (scheduler, pre-selection) bump counters without threading a tracer
argument through every call.  It is **thread-local**: installing a tracer
on one thread never leaks into another thread mid-evaluation.  The
default is a :class:`NullTracer` whose operations are no-ops.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

#: Current version of the trace JSON schema.
TRACE_SCHEMA_VERSION = 1

#: The ``schema`` tag every trace file carries.
TRACE_SCHEMA_NAME = "repro-trace"


class SpanNode:
    """One node of the span tree: a named timer aggregated over calls."""

    __slots__ = ("name", "calls", "total_s", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.total_s = 0.0
        #: name -> SpanNode, in first-seen order (deterministic).
        self.children: Dict[str, "SpanNode"] = {}

    def child(self, name: str) -> "SpanNode":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = SpanNode(name)
        return node

    @property
    def self_s(self) -> float:
        """Time not attributed to any child span."""
        return max(0.0, self.total_s - sum(c.total_s
                                           for c in self.children.values()))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "calls": self.calls,
            "total_s": round(self.total_s, 6),
            "children": [c.to_dict() for c in self.children.values()],
        }


class Tracer:
    """Hierarchical span timer + counter collection.

    Args:
        label: human-readable tag stored in the trace file.
        clock: monotonic time source (injectable for tests).
    """

    def __init__(self, label: str = "",
                 clock=time.perf_counter) -> None:
        self.label = label
        self._clock = clock
        self.root = SpanNode("<root>")
        self.root.calls = 1
        self.counters: Dict[str, int] = {}
        #: Named JSON-able payloads riding along in the trace file
        #: (e.g. a ``repro-verify`` report under ``"verification"``).
        self.attachments: Dict[str, Any] = {}
        #: Serializes counter and span-tree mutations across threads.
        self._lock = threading.Lock()
        #: Per-thread span stack; every thread's stack is rooted at the
        #: shared tree, so concurrent threads aggregate into one tree.
        self._local = threading.local()
        self._started = clock()

    def _stack(self) -> List[SpanNode]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [self.root]
        return stack

    # -- spans ---------------------------------------------------------

    @contextmanager
    def span(self, name: str) -> Iterator[SpanNode]:
        """Time a nested region; same-named siblings aggregate."""
        stack = self._stack()
        with self._lock:
            node = stack[-1].child(name)
            node.calls += 1
        stack.append(node)
        start = self._clock()
        try:
            yield node
        finally:
            elapsed = self._clock() - start
            with self._lock:
                node.total_s += elapsed
            stack.pop()

    def record(self, name: str, seconds: float, calls: int = 1) -> None:
        """Attribute externally measured time (e.g. from a worker process)
        to a child of the current span."""
        with self._lock:
            node = self._stack()[-1].child(name)
            node.calls += calls
            node.total_s += seconds

    # -- counters ------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        """Increment counter ``name`` by ``n``."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def merge_counters(self, counters: Dict[str, int]) -> None:
        """Fold a worker's counter snapshot into this tracer."""
        with self._lock:
            for name, value in counters.items():
                self.counters[name] = self.counters.get(name, 0) + value

    # -- attachments ---------------------------------------------------

    def attach(self, name: str, payload: Any) -> None:
        """Embed a JSON-able payload in the exported trace under
        ``attachments[name]`` (e.g. a verification report)."""
        self.attachments[name] = payload

    # -- export --------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        self.root.total_s = self._clock() - self._started
        data = {
            "schema": TRACE_SCHEMA_NAME,
            "version": TRACE_SCHEMA_VERSION,
            "label": self.label,
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "root": self.root.to_dict(),
        }
        if self.attachments:
            data["attachments"] = dict(self.attachments)
        return data

    def write(self, path: str) -> None:
        """Serialize the trace to ``path`` as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=False)
            fh.write("\n")

    def format_summary(self, top: int = 12) -> str:
        """A terminal-friendly digest: hottest spans + all counters."""
        data = self.to_dict()
        lines = []
        flat: List[tuple] = []

        def walk(node: Dict[str, Any], depth: int) -> None:
            flat.append((depth, node))
            for child in node["children"]:
                walk(child, depth + 1)

        for child in data["root"]["children"]:
            walk(child, 0)
        lines.append("timers:")
        for depth, node in flat[:top]:
            lines.append(f"  {'  ' * depth}{node['name']:32s} "
                         f"{node['total_s']:8.3f}s x{node['calls']}")
        if data["counters"]:
            lines.append("counters:")
            for name, value in data["counters"].items():
                lines.append(f"  {name:40s} {value:>10d}")
        return "\n".join(lines)


class NullTracer(Tracer):
    """A tracer whose operations cost (almost) nothing and record nothing."""

    def __init__(self) -> None:
        super().__init__(label="null")

    @contextmanager
    def span(self, name: str) -> Iterator[Optional[SpanNode]]:
        yield None

    def record(self, name: str, seconds: float, calls: int = 1) -> None:
        pass

    def count(self, name: str, n: int = 1) -> None:
        pass

    def merge_counters(self, counters: Dict[str, int]) -> None:
        pass

    def attach(self, name: str, payload: Any) -> None:
        pass


#: Shared fallback when no tracer is installed on the calling thread.
_NULL = NullTracer()

#: Thread-local current tracer, used by layers too deep to thread one into.
_CURRENT = threading.local()


def get_tracer() -> Tracer:
    """The calling thread's current tracer (a :class:`NullTracer` by
    default)."""
    return getattr(_CURRENT, "tracer", _NULL)


@contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer`` as the current tracer for the dynamic extent.

    Thread-local: threads that share one (lock-protected) tracer each
    install it on their own thread without racing each other's
    restore."""
    previous = getattr(_CURRENT, "tracer", _NULL)
    _CURRENT.tracer = tracer
    try:
        yield tracer
    finally:
        _CURRENT.tracer = previous


# ---------------------------------------------------------------------------
# Trace file loading / validation
# ---------------------------------------------------------------------------

def load_trace(path: str) -> Dict[str, Any]:
    """Load and validate a trace file; raises :class:`ValueError` on a
    malformed trace."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    validate_trace(data)
    return data


def validate_trace(data: Any) -> None:
    """Check ``data`` against the trace JSON schema (raises ValueError)."""
    if not isinstance(data, dict):
        raise ValueError("trace must be a JSON object")
    if data.get("schema") != TRACE_SCHEMA_NAME:
        raise ValueError(f"not a {TRACE_SCHEMA_NAME} file: "
                         f"schema={data.get('schema')!r}")
    if data.get("version") != TRACE_SCHEMA_VERSION:
        raise ValueError(f"unsupported trace version {data.get('version')!r}")
    if not isinstance(data.get("label"), str):
        raise ValueError("trace 'label' must be a string")
    counters = data.get("counters")
    if not isinstance(counters, dict):
        raise ValueError("trace 'counters' must be an object")
    for name, value in counters.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"counter {name!r} must be an integer")
    attachments = data.get("attachments")
    if attachments is not None and not isinstance(attachments, dict):
        raise ValueError("trace 'attachments' must be an object")
    _validate_span(data.get("root"), path="root")


def _validate_span(node: Any, path: str) -> None:
    if not isinstance(node, dict):
        raise ValueError(f"{path}: span must be an object")
    if not isinstance(node.get("name"), str):
        raise ValueError(f"{path}: span 'name' must be a string")
    calls = node.get("calls")
    if not isinstance(calls, int) or isinstance(calls, bool) or calls < 0:
        raise ValueError(f"{path}: span 'calls' must be a non-negative int")
    total = node.get("total_s")
    if not isinstance(total, (int, float)) or total < 0:
        raise ValueError(f"{path}: span 'total_s' must be a non-negative "
                         f"number")
    children = node.get("children")
    if not isinstance(children, list):
        raise ValueError(f"{path}: span 'children' must be a list")
    for i, child in enumerate(children):
        _validate_span(child, path=f"{path}.children[{i}]")
