"""The request/response evaluation kernel behind partitioning-as-a-service.

This module refactors what ``repro run`` did imperatively into a typed,
validated, digest-keyed API the long-lived server (and anything else)
can call:

* :class:`PartitionRequest` — one workload to partition: a bundled
  application name *or* raw BDL source, plus the designer knobs the wire
  schema exposes (``scale``, ``optimize``, ``tech``).  Construction from
  untrusted JSON goes through :meth:`PartitionRequest.from_dict`, which
  validates every field and rejects unknown keys with a
  :class:`RequestError` naming the offending field.  Two requests with
  the same semantic content have the same :meth:`digest` — the key the
  whole service tier coalesces on.
* :class:`PartitionResult` — the flow outcome flattened to the versioned
  ``repro-service`` wire shape (:data:`RESULT_FIELDS`), including the
  exact ``summary`` text ``repro run`` prints, so byte-level equivalence
  with the CLI path is directly checkable.
* :class:`ServiceCore` — the evaluation kernel: one shared
  :class:`~repro.core.explore.EvaluationCache` (persistent when the
  server runs with ``--checkpoint``) and one shared memo of executed
  programs feeding one lazily built
  :class:`~repro.core.explore.ExplorationEngine` per technology node.
  Every evaluation runs under the :mod:`repro.verify` flow audit; a
  result with ERROR findings is **refused** (:class:`VerificationRejected`)
  rather than served — the service never returns an unverified result.

The wire contract (field names, job states, error semantics) is
documented in ``docs/SERVICE.md`` and pinned against this module by the
doc-drift tests.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.core.checkpoint import checkpoint_context_key
from repro.core.explore import EvaluationCache, ExplorationEngine
from repro.core.flow import AppSpec, FlowResult
from repro.core.partitioner import PartitionConfig
from repro.core.profile import BoundedMemo, workload_key
from repro.lang import Interpreter
from repro.obs import NullTracer, Tracer, use_tracer
from repro.power.system import SystemRun

#: The ``schema`` tag of every service request and result payload.
SERVICE_SCHEMA_NAME = "repro-service"

#: Current version of the service wire schema.  Version 2 added the
#: evaluation-lane field on job descriptors, the durable job journal and
#: the ``/v1/jobs/{id}/events`` streaming endpoint (``docs/SERVICE.md``).
SERVICE_SCHEMA_VERSION = 2

#: Every key a ``POST /v1/jobs`` request body may carry.
REQUEST_FIELDS = ("schema", "version", "app", "source", "name", "args",
                  "globals", "scale", "optimize", "tech", "client")

#: Every key of a finished job's ``result`` object.
RESULT_FIELDS = ("schema", "version", "request_digest", "app", "tech",
                 "accepted", "best", "initial", "partitioned",
                 "savings_percent", "time_change_percent", "asic_cells",
                 "functional_match", "verified", "findings", "summary",
                 "elapsed_s")

#: Keys of the ``initial`` / ``partitioned`` system-run sub-objects.
SYSTEM_RUN_FIELDS = ("icache_nj", "dcache_nj", "mem_nj", "up_core_nj",
                     "asic_core_nj", "bus_nj", "total_energy_nj",
                     "up_cycles", "asic_cycles", "total_cycles", "result")

#: Keys of the ``best`` sub-object (present when a candidate won).
BEST_FIELDS = ("cluster", "resource_set", "utilization", "objective",
               "invocations")


class RequestError(ValueError):
    """A request payload failed validation; ``field`` names the culprit."""

    def __init__(self, message: str, field: Optional[str] = None) -> None:
        super().__init__(message)
        self.field = field


class VerificationRejected(RuntimeError):
    """An evaluation finished but its invariant audit found ERRORs.

    The service's verify gate: such a result is never served (and the
    engine already refused to memoize it — ``verify.cache_rejected``).
    """


def _require(condition: bool, message: str,
             field: Optional[str] = None) -> None:
    if not condition:
        raise RequestError(message, field=field)


def _int_list(value: Any, field_name: str) -> Tuple[int, ...]:
    _require(isinstance(value, (list, tuple)),
             f"{field_name!r} must be a list of integers", field_name)
    for item in value:
        _require(isinstance(item, int) and not isinstance(item, bool),
                 f"{field_name!r} must contain only integers", field_name)
    return tuple(value)


@dataclass(frozen=True)
class PartitionRequest:
    """One validated partitioning request (the ``repro-service`` input).

    Exactly one of ``app`` (a bundled application name) and ``source``
    (raw BDL text) is set.  ``tech`` is always a registered technology
    node; ``client`` is the fairness identity the admission controller
    budgets per (defaults to ``"anonymous"``).
    """

    app: Optional[str] = None
    source: Optional[str] = None
    name: Optional[str] = None
    args: Tuple[int, ...] = ()
    globals_init: Tuple[Tuple[str, Tuple[int, ...]], ...] = ()
    scale: int = 1
    optimize: bool = False
    tech: str = "cmos6-800nm"
    client: str = "anonymous"

    @staticmethod
    def from_dict(data: Any,
                  default_tech: Optional[str] = None) -> "PartitionRequest":
        """Validate an untrusted JSON payload into a request.

        Raises :class:`RequestError` (with ``field`` set) on the first
        violation; unknown keys are rejected so client typos fail loudly
        instead of being silently ignored.
        """
        from repro.apps import ALL_APPS
        from repro.tech import REFERENCE_NODE, tech_names

        _require(isinstance(data, dict), "request body must be a JSON "
                 "object")
        unknown = sorted(set(data) - set(REQUEST_FIELDS))
        _require(not unknown,
                 f"unknown request field(s): {', '.join(unknown)}; "
                 f"allowed: {', '.join(REQUEST_FIELDS)}",
                 unknown[0] if unknown else None)
        if "schema" in data:
            _require(data["schema"] == SERVICE_SCHEMA_NAME,
                     f"schema must be {SERVICE_SCHEMA_NAME!r}", "schema")
        if "version" in data:
            _require(data["version"] == SERVICE_SCHEMA_VERSION,
                     f"unsupported version {data['version']!r} (this "
                     f"server speaks {SERVICE_SCHEMA_VERSION})", "version")

        app = data.get("app")
        source = data.get("source")
        _require((app is None) != (source is None),
                 "exactly one of 'app' and 'source' is required",
                 "app" if app is not None else "source")
        if app is not None:
            _require(isinstance(app, str) and app in ALL_APPS,
                     f"unknown application {app!r}; choose from "
                     f"{sorted(ALL_APPS)}", "app")
            for banned in ("args", "globals", "name"):
                _require(banned not in data,
                         f"{banned!r} is only valid with 'source' "
                         f"(bundled applications carry their own "
                         f"workload binding)", banned)
        else:
            _require(isinstance(source, str) and source.strip(),
                     "'source' must be non-empty BDL text", "source")

        name = data.get("name", "request")
        _require(isinstance(name, str) and name, "'name' must be a "
                 "non-empty string", "name")
        args = _int_list(data.get("args", ()), "args")
        raw_globals = data.get("globals", {})
        _require(isinstance(raw_globals, dict),
                 "'globals' must map names to integer lists", "globals")
        globals_init = tuple(sorted(
            (str(g_name), _int_list(values, "globals"))
            for g_name, values in raw_globals.items()))

        scale = data.get("scale", 1)
        _require(isinstance(scale, int) and not isinstance(scale, bool)
                 and scale >= 1, "'scale' must be a positive integer",
                 "scale")
        optimize = data.get("optimize", False)
        _require(isinstance(optimize, bool), "'optimize' must be a "
                 "boolean", "optimize")
        tech = data.get("tech", default_tech or REFERENCE_NODE)
        _require(isinstance(tech, str) and tech in tech_names(),
                 f"unknown technology node {tech!r}; choose from: "
                 f"{', '.join(tech_names())}", "tech")
        client = data.get("client", "anonymous")
        _require(isinstance(client, str) and client, "'client' must be a "
                 "non-empty string", "client")

        return PartitionRequest(
            app=app, source=source, name=None if app else name,
            args=args, globals_init=globals_init, scale=scale,
            optimize=optimize, tech=tech, client=client)

    def to_app(self) -> AppSpec:
        """Materialize the workload this request describes."""
        if self.app is not None:
            from repro.apps import app_by_name
            spec = app_by_name(self.app, scale=self.scale)
            if self.optimize:
                spec.optimize = True
            return spec
        return AppSpec(
            name=self.name or "request", source=self.source or "",
            description="service request",
            args=self.args,
            globals_init={g_name: list(values)
                          for g_name, values in self.globals_init},
            optimize=self.optimize)

    def library(self):
        """The technology library the request prices against."""
        from repro.tech import tech_by_name
        return tech_by_name(self.tech).library()

    def digest(self) -> str:
        """Content digest of everything the evaluation depends on.

        Reuses :func:`~repro.core.checkpoint.checkpoint_context_key` —
        the same key that pins checkpoint ownership — so two requests
        coalesce exactly when a checkpointed sweep would consider them
        the same workload × library × config triple.
        """
        app = self.to_app()
        return checkpoint_context_key(
            app, self.library(), app.config or PartitionConfig())

    def workload_label(self) -> str:
        return self.app if self.app is not None else (self.name or
                                                      "request")

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "schema": SERVICE_SCHEMA_NAME,
            "version": SERVICE_SCHEMA_VERSION,
            "scale": self.scale,
            "optimize": self.optimize,
            "tech": self.tech,
            "client": self.client,
        }
        if self.app is not None:
            data["app"] = self.app
        else:
            data["source"] = self.source
            data["name"] = self.name
            data["args"] = list(self.args)
            data["globals"] = {g_name: list(values)
                               for g_name, values in self.globals_init}
        return data


def _system_run_dict(run: Optional[SystemRun]) -> Optional[Dict[str, Any]]:
    if run is None:
        return None
    e = run.energy
    return {
        "icache_nj": e.icache_nj, "dcache_nj": e.dcache_nj,
        "mem_nj": e.mem_nj, "up_core_nj": e.up_core_nj,
        "asic_core_nj": e.asic_core_nj, "bus_nj": e.bus_nj,
        "total_energy_nj": run.total_energy_nj,
        "up_cycles": run.up_cycles, "asic_cycles": run.asic_cycles,
        "total_cycles": run.total_cycles, "result": run.result,
    }


@dataclass
class PartitionResult:
    """The service-facing projection of one finished flow run."""

    request: PartitionRequest
    flow: FlowResult
    elapsed_s: float = 0.0
    digest: str = ""

    def to_dict(self) -> Dict[str, Any]:
        """The versioned wire shape (:data:`RESULT_FIELDS`, exactly)."""
        flow = self.flow
        best = None
        if flow.best is not None:
            best = {
                "cluster": flow.best.cluster.name,
                "resource_set": flow.best.resource_set.name,
                "utilization": flow.best.utilization,
                "objective": flow.best.objective,
                "invocations": flow.best.invocations,
            }
        verification = flow.verification
        findings = (verification.counts() if verification is not None
                    else None)
        return {
            "schema": SERVICE_SCHEMA_NAME,
            "version": SERVICE_SCHEMA_VERSION,
            "request_digest": self.digest,
            "app": self.request.workload_label(),
            "tech": self.request.tech,
            "accepted": flow.accepted,
            "best": best,
            "initial": _system_run_dict(flow.initial),
            "partitioned": _system_run_dict(flow.partitioned),
            "savings_percent": flow.energy_savings_percent,
            "time_change_percent": flow.time_change_percent,
            "asic_cells": flow.asic_cells,
            "functional_match": flow.functional_match,
            "verified": (verification is not None
                         and not verification.has_errors),
            "findings": findings,
            "summary": flow.summary(),
            "elapsed_s": round(self.elapsed_s, 6),
        }


class ServiceCore:
    """The evaluation kernel every served job runs through.

    Args:
        jobs: worker processes per exploration engine (``1`` = in-process
            sweeps, the default — the service still parallelizes across
            jobs via its own queue).
        cache: shared :class:`EvaluationCache`; pass a
            :class:`~repro.core.checkpoint.PersistentEvaluationCache` to
            make the cache tier survive restarts (``repro serve
            --checkpoint``).
        tracer: observability sink shared by every engine; the server's
            ``/v1/metrics`` endpoint exposes its counters.
        verify: run the flow-level invariant audit on every evaluation
            (default True — the service's verify gate).  An audit with
            ERROR findings raises :class:`VerificationRejected`.
        timeout / retries: per-candidate fault-tolerance knobs forwarded
            to the engines (see :class:`ExplorationEngine`).
        fronts: the executed front halves every engine shares (a
            :class:`~repro.core.profile.BoundedMemo`; one is created if
            omitted), so a program the server has executed is only
            priced at another node or lane while the memo keeps it.

    One engine is built lazily per technology node; all of them share
    ``cache``, ``fronts`` and ``tracer`` (cache keys embed the library
    digest, so nodes never alias; a front half is node-free).
    :meth:`evaluate` is serialized by an internal lock: the engine and
    its process pool are not thread-safe, and one job-tier
    evaluation-lane thread is the intended caller.  Parallelism across
    lanes comes from :meth:`spawn` — one sibling kernel per extra lane,
    each with its own engines but the *same* (thread-safe) cache, front
    halves and tracer, so coalescing, metrics and the checkpoint journal
    stay whole-server while evaluations proceed concurrently.
    """

    def __init__(self, jobs: int = 1,
                 cache: Optional[EvaluationCache] = None,
                 tracer: Optional[Tracer] = None,
                 verify: bool = True,
                 timeout: Optional[float] = None,
                 retries: int = 2,
                 fronts: Optional[BoundedMemo] = None) -> None:
        self.jobs = jobs
        self.cache = cache if cache is not None else EvaluationCache()
        self.fronts = fronts if fronts is not None else BoundedMemo()
        self.tracer = tracer or NullTracer()
        self.verify = verify
        self.timeout = timeout
        self.retries = retries
        self._engines: Dict[str, ExplorationEngine] = {}
        self._lock = threading.Lock()
        self.evaluations = 0

    def _engine(self, tech: str,
                request: PartitionRequest) -> ExplorationEngine:
        engine = self._engines.get(tech)
        if engine is None:
            engine = ExplorationEngine(
                library=request.library(), jobs=self.jobs,
                cache=self.cache, tracer=self.tracer, verify=self.verify,
                timeout=self.timeout, retries=self.retries,
                fronts=self.fronts)
            self._engines[tech] = engine
        return engine

    def spawn(self) -> "ServiceCore":
        """A sibling kernel for one more evaluation lane.

        The sibling builds its own per-tech engines (each lane thread
        owns its engines and process pools outright, so the coalescing
        and verify-gate invariants hold per digest without cross-lane
        locking) while sharing this kernel's cache, front halves,
        tracer and fault-tolerance knobs — a cache fill or eviction on
        any lane is visible to all of them, and ``/v1/metrics`` stays one
        sink.
        """
        return ServiceCore(jobs=self.jobs, cache=self.cache,
                           tracer=self.tracer, verify=self.verify,
                           timeout=self.timeout, retries=self.retries,
                           fronts=self.fronts)

    def evaluate(self, request: PartitionRequest,
                 progress=None) -> PartitionResult:
        """Run one request through the flow, verify-gated.

        Bit-identical to the ``repro run`` CLI path for the same
        request: both go through ``ExplorationEngine.run_flow`` with the
        same library, config and cache semantics.  ``progress`` is an
        optional ``callback(done, total)`` forwarded to the engine's
        sweep-progress hook for the lifetime of this evaluation (the
        job tier streams it to ``/v1/jobs/{id}/events`` subscribers).

        A ``source`` request first runs once on the CDFG interpreter:
        the flow profiles on the ISS, which cannot see an out-of-range
        array index, so untrusted programs are validated on the
        reference semantics (bundled applications skip this).  A
        program in :attr:`fronts` got there through a flow after it
        passed, so it is not run again for another node; one that
        failed never reaches a flow and fails on every resubmission.
        """
        with self._lock:
            tracer = self.tracer
            started = time.perf_counter()
            digest = request.digest()
            app = request.to_app()
            if request.source is not None \
                    and self.fronts.get(workload_key(app)) is None:
                interp = Interpreter(app.compile())
                for name, values in app.globals_init.items():
                    interp.set_global(name, values)
                interp.run(*app.args)
            engine = self._engine(request.tech, request)
            engine.progress = progress
            try:
                with use_tracer(tracer), tracer.span("service.evaluate"):
                    flow_result = engine.run_flow(app)
            finally:
                engine.progress = None
            self.evaluations += 1
            tracer.count("service.evaluations")
            verification = flow_result.verification
            if self.verify and (verification is None
                                or verification.has_errors):
                tracer.count("service.verify.rejected")
                detail = ("no verification report attached"
                          if verification is None else
                          f"{verification.counts()['error']} ERROR "
                          f"finding(s)")
                raise VerificationRejected(
                    f"evaluation of {request.workload_label()!r} failed "
                    f"the verify gate: {detail}")
            return PartitionResult(
                request=request, flow=flow_result, digest=digest,
                elapsed_s=time.perf_counter() - started)

    def close(self) -> None:
        """Reap every engine's worker pool."""
        with self._lock:
            for engine in self._engines.values():
                engine.close()
            self._engines.clear()

    def __enter__(self) -> "ServiceCore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
