"""Parallel design-space exploration with result caching.

The Fig. 1 search is an embarrassingly parallel sweep: every pre-selected
cluster is evaluated against every designer resource set, and each
(cluster, resource set) evaluation — list schedule, binding, ``U_R``/GEQ
metrics, transfer estimate, objective — is a pure function of its inputs.
:class:`ExplorationEngine` exploits both properties:

* **parallelism** — pair evaluations fan out across a
  ``ProcessPoolExecutor`` (``jobs`` workers), and whole applications fan
  out the same way for Table-1-style sweeps (:meth:`run_flows`);
* **memoization** — every outcome is stored in an :class:`EvaluationCache`
  under a *stable content key* (cluster digest × resource set × library ×
  workload), so repeated candidates — ``table1`` after ``run``,
  cache-adaptation sweeps, benchmark reruns — are never re-scheduled;
  and each workload's executed front half is kept in
  :attr:`ExplorationEngine.fronts`, so one program swept at many nodes
  or cache geometries executes once;
* **fault tolerance** — worker processes are treated as fallible.  Every
  pair evaluation carries an optional per-candidate ``timeout``; a
  failed, hung or killed worker triggers a bounded retry with
  exponential backoff (``retries``/``backoff_s``); a
  ``BrokenProcessPool`` tears the dead pool down, rebuilds it and
  requeues every in-flight pair (``explore.pool.rebuilds``); and after
  ``max_pool_rebuilds`` rebuilds — or a pair exhausting its retries —
  the remaining pairs degrade to in-process serial evaluation
  (``explore.degraded``).  Because every evaluation is a pure function
  and outcomes are reassembled in canonical sweep order, recovery never
  changes the decision: it is still bit-identical to the serial path.
  Each recovery path is deterministically testable through the
  :class:`~repro.core.faults.FaultPlan` hook (worker-side kill / hang /
  raise scripts, ``repro explore --inject-fault``).  Completed outcomes
  survive process death when the engine is given a
  :class:`~repro.core.checkpoint.PersistentEvaluationCache`: every
  outcome is journaled to disk the moment it is audited-and-accepted,
  which is what makes ``repro explore --checkpoint DIR`` / ``--resume``
  kill-safe.

Cache keys are built exclusively from sorted content digests
(:func:`candidate_cache_key`), never from ``id()``, ``hash()`` or set
iteration order, so they are identical across worker processes regardless
of ``PYTHONHASHSEED``.

Determinism: the engine evaluates exactly the pairs
:meth:`~repro.core.partitioner.Partitioner.prepare` enumerates, reassembles
outcomes in canonical sweep order, and hands them to
:meth:`~repro.core.partitioner.Partitioner.decide`, so parallel and serial
sweeps produce bit-identical
:class:`~repro.core.partitioner.PartitionDecision` objects (covered by
``tests/core/test_explore.py`` on all six bundled applications).  The
engine at ``jobs=1`` is the only serial sweep: a plain
:class:`~repro.core.flow.LowPowerFlow`, the multi-core iteration and the
baseline selectors all evaluate their grids through it.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import pickle
import threading
import time
import warnings
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.faults import FaultPlan
from repro.core.flow import AppSpec, FlowResult, LowPowerFlow
from repro.core.partitioner import (
    CandidateEvaluation,
    PartitionConfig,
    PartitionDecision,
    Partitioner,
    SweepPrep,
)
from repro.core.profile import BoundedMemo, profile_app
from repro.lang.interp import ExecutionProfile
from repro.lang.program import Program
from repro.mem.cache import CacheConfig
from repro.obs import NullTracer, Tracer, get_tracer, use_tracer
from repro.power.system import SystemRun
from repro.sched.list_scheduler import ScheduleError
from repro.tech.library import TechnologyLibrary, cmos6_library
from repro.tech.resources import ResourceSet


# ---------------------------------------------------------------------------
# Stable content digests (cache-key components)
# ---------------------------------------------------------------------------

def _sha(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def resource_set_digest(resource_set: ResourceSet) -> str:
    """Stable hash of a resource set's name and sorted instance counts."""
    counts = ",".join(f"{kind.value}={count}" for kind, count in
                      sorted(resource_set.items(),
                             key=lambda item: item[0].value))
    return _sha("resource_set", resource_set.name, counts)


def library_digest(library: TechnologyLibrary) -> str:
    """Stable hash of every technology constant, resources sorted by kind."""
    specs = ";".join(
        f"{kind.value}:{spec.geq}:{spec.energy_active_pj}:"
        f"{spec.energy_idle_pj}:{spec.t_cyc_ns}"
        for kind, spec in sorted(library.resources.items(),
                                 key=lambda item: item[0].value))
    scalars = ";".join(
        f"{name}={getattr(library, name)}"
        for name in sorted(vars(library))
        if name != "resources")
    return _sha("library", library.name, specs, scalars)


def config_digest(config: PartitionConfig) -> str:
    """Stable hash of the designer inputs (incl. every resource set)."""
    obj = config.objective
    return _sha(
        "config",
        str(config.n_max_clusters),
        str(config.min_cluster_dynamic_ops),
        str(config.use_chaining),
        f"{obj.f_energy}:{obj.g_hardware}:{obj.geq_normalizer}:{obj.geq_cap}",
        *[resource_set_digest(rs) for rs in config.resource_sets],
    )


def profile_digest(profile: ExecutionProfile) -> str:
    """Stable hash of the profiled workload (sorted counts)."""
    blocks = ";".join(f"{fn}.{bl}={count}" for (fn, bl), count in
                      sorted(profile.block_counts.items()))
    calls = ";".join(f"{name}={count}" for name, count in
                     sorted(profile.call_counts.items()))
    return _sha("profile", blocks, calls, str(profile.steps),
                str(profile.result))


def program_digest(program: Program) -> str:
    """Stable hash of the full lowered program (via the IR printer)."""
    from repro.ir.printer import format_program
    return _sha("program", program.name, format_program(program))


def initial_run_digest(initial: SystemRun) -> str:
    """Stable hash of the initial ("I") evaluation the search prices
    against."""
    e = initial.energy
    return _sha(
        "initial",
        f"{e.icache_nj}:{e.dcache_nj}:{e.mem_nj}:{e.up_core_nj}:{e.bus_nj}",
        f"{initial.up_cycles}:{initial.result}:{initial.up_utilization}",
        f"{initial.icache_hit_rate}:{initial.dcache_hit_rate}",
    )


def sweep_context_digest(program: Program, profile: ExecutionProfile,
                         initial: SystemRun, library: TechnologyLibrary,
                         config: PartitionConfig) -> str:
    """Everything a candidate evaluation depends on besides the pair."""
    return _sha("sweep", program_digest(program), profile_digest(profile),
                initial_run_digest(initial), library_digest(library),
                config_digest(config))


def candidate_cache_key(context_digest: str, cluster, resource_set:
                        ResourceSet,
                        hw_clusters: FrozenSet[str] = frozenset()) -> str:
    """The memoization key of one (cluster, resource set) evaluation."""
    return _sha("candidate", context_digest, cluster.digest(),
                resource_set_digest(resource_set),
                ",".join(sorted(hw_clusters)))


# ---------------------------------------------------------------------------
# Result cache
# ---------------------------------------------------------------------------

class EvaluationCache:
    """Keyed memoization of candidate evaluations (and schedule failures).

    Values are either a :class:`CandidateEvaluation` or the rejection
    string of a deterministic :class:`ScheduleError` — both replayable.
    Share one instance across flows/sweeps to pool their results; the
    key embeds workload, library and config digests, so unrelated sweeps
    never collide.

    With ``max_entries`` set the cache is a bounded **LRU** tier: a hit
    refreshes its key, an insert past the bound evicts the least recently
    used entry (``cache.evictions`` counter, :attr:`evictions`).
    Eviction order depends only on the get/put sequence, never on hash
    order, so bounded runs stay deterministic.

    One instance may be shared across threads (the service tier shares a
    cache between N evaluation lanes): every operation runs under an
    internal re-entrant lock, so the LRU pop+reinsert and the eviction
    scan never interleave.
    """

    def __init__(self, max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(
                f"max_entries must be >= 1 or None, got {max_entries}")
        self._entries: Dict[str, object] = {}
        #: RLock, not Lock: the persistent subclass journals inside the
        #: same critical section its base-class ``put`` already holds.
        self._mutex = threading.RLock()
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._mutex:
            return len(self._entries)

    def get(self, key: str):
        """Return the cached outcome or ``None``; counts the hit/miss."""
        with self._mutex:
            outcome = self._entries.get(key)
            if outcome is None:
                self.misses += 1
            else:
                self.hits += 1
                if self.max_entries is not None:
                    # LRU refresh: move the hit key to the recent end
                    # (dicts preserve insertion order, so pop+reinsert
                    # is O(1)).
                    self._entries[key] = self._entries.pop(key)
            return outcome

    def put(self, key: str, outcome) -> None:
        with self._mutex:
            if self.max_entries is not None \
                    and len(self._entries) >= self.max_entries \
                    and key not in self._entries:
                # LRU eviction: the least recently touched key goes first.
                oldest = next(iter(self._entries))
                del self._entries[oldest]
                self.evictions += 1
                get_tracer().count("cache.evictions")
            self._entries[key] = outcome

    def clear(self) -> None:
        with self._mutex:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when idle)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def stats(self) -> Dict[str, object]:
        with self._mutex:
            return {"entries": len(self._entries), "hits": self.hits,
                    "misses": self.misses, "evictions": self.evictions,
                    "hit_rate": round(self.hit_rate, 4)}


# ---------------------------------------------------------------------------
# Worker-side machinery (module level: picklable by reference)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AppPayload:
    """A picklable, hashable description of one application workload."""

    name: str
    source: str
    description: str
    optimize: bool
    args: Tuple[int, ...]
    globals_init: Tuple[Tuple[str, Tuple[int, ...]], ...]
    icache: Optional[CacheConfig]
    dcache: Optional[CacheConfig]
    model_caches: bool

    @staticmethod
    def from_app(app: AppSpec) -> "AppPayload":
        return AppPayload(
            name=app.name, source=app.source, description=app.description,
            optimize=app.optimize, args=tuple(app.args),
            globals_init=tuple(sorted(
                (name, tuple(values))
                for name, values in app.globals_init.items())),
            icache=app.icache, dcache=app.dcache,
            model_caches=app.model_caches)

    def to_app(self, config: Optional[PartitionConfig] = None) -> AppSpec:
        return AppSpec(
            name=self.name, source=self.source, description=self.description,
            args=self.args,
            globals_init={name: list(values)
                          for name, values in self.globals_init},
            config=config, icache=self.icache, dcache=self.dcache,
            model_caches=self.model_caches, optimize=self.optimize)

    def digest(self) -> str:
        globals_part = ";".join(
            f"{name}=" + ",".join(str(v) for v in values)
            for name, values in self.globals_init)
        return _sha("app", self.name, self.source, str(self.optimize),
                    ",".join(str(a) for a in self.args), globals_part,
                    repr(self.icache), repr(self.dcache),
                    str(self.model_caches))


@dataclass
class _SweepContext:
    """Per-process reconstruction of one app's sweep inputs."""

    program: Program
    profile: ExecutionProfile
    initial: SystemRun
    partitioner: Partitioner
    prep: SweepPrep
    clusters_by_name: Dict[str, object]


#: Per-worker-process memos: executed front halves by workload, so one
#: program executes once per worker at any number of nodes, and sweep
#: contexts by (payload, library, config) digest.
_WORKER_FRONTS = BoundedMemo()
_WORKER_CONTEXTS = BoundedMemo()


def _build_sweep_context(payload: AppPayload, library: TechnologyLibrary,
                         config: PartitionConfig) -> _SweepContext:
    front = profile_app(payload.to_app(), library, fronts=_WORKER_FRONTS)
    partitioner = Partitioner(front.program, library, config)
    prep = partitioner.prepare(front.profile)
    return _SweepContext(
        program=front.program, profile=front.profile,
        initial=front.initial, partitioner=partitioner, prep=prep,
        clusters_by_name={c.name: c for c in prep.preselected})


def _get_sweep_context(payload: AppPayload, library: TechnologyLibrary,
                       config: PartitionConfig) -> _SweepContext:
    key = _sha("ctx", payload.digest(), library_digest(library),
               config_digest(config))
    ctx = _WORKER_CONTEXTS.get(key)
    if ctx is None:
        ctx = _build_sweep_context(payload, library, config)
        _WORKER_CONTEXTS.put(key, ctx)
    return ctx


def _worker_evaluate_pair(payload: AppPayload, library: TechnologyLibrary,
                          config: PartitionConfig,
                          hw_names: Tuple[str, ...],
                          pair: Tuple[str, int],
                          seq: int = 0,
                          attempt: int = 0,
                          verify: bool = False,
                          fault_plan: Optional[FaultPlan] = None,
                          shm_threshold: Optional[int] = None):
    """Evaluate one (cluster name, resource-set index) pair in a worker.

    Returns ``(pair, outcome, counters, seconds, audit)`` where outcome
    is a :class:`CandidateEvaluation` or a rejection string, and audit is
    the worker-side :class:`~repro.verify.VerificationReport` (``None``
    when ``verify`` is off or the pair was rejected).  With
    ``shm_threshold`` set, a result pickling to at least that many bytes
    comes back as a :class:`_ShmResult` shared-memory ticket instead
    (the engine unpacks it in :meth:`ExplorationEngine._absorb`).

    ``seq`` is the engine's deterministic dispatch sequence number and
    ``attempt`` the zero-based retry count; an injected ``fault_plan``
    consults both to decide whether this call should deliberately kill,
    hang or fail the worker (testing the engine's recovery paths).
    """
    if fault_plan is not None:
        fault_plan.fire(seq, attempt)
    started = time.perf_counter()
    ctx = _get_sweep_context(payload, library, config)
    cluster_name, rs_index = pair
    cluster = ctx.clusters_by_name[cluster_name]
    resource_set = config.resource_sets[rs_index]
    tracer = Tracer()
    audit = None
    with use_tracer(tracer):
        try:
            outcome: object = ctx.partitioner.evaluate_candidate(
                cluster, resource_set, ctx.profile, ctx.initial,
                hw_clusters=frozenset(hw_names),
                chain=ctx.prep.chains[cluster.function])
        except ScheduleError as exc:
            outcome = str(exc)
        if verify and not isinstance(outcome, str):
            from repro.verify import verify_candidate
            audit = verify_candidate(outcome, library)
    return _pack_result((pair, outcome, tracer.counters,
                         time.perf_counter() - started, audit),
                        shm_threshold)


def _worker_run_flow(library: TechnologyLibrary,
                     config: Optional[PartitionConfig],
                     payload: AppPayload,
                     verify: bool = False,
                     shm_threshold: Optional[int] = None):
    """Run one application's complete flow in a worker process."""
    started = time.perf_counter()
    tracer = Tracer()
    with use_tracer(tracer):
        flow = LowPowerFlow(library=library, config=config, verify=verify)
        result = flow.run(payload.to_app())
    return _pack_result((payload.name, result, tracer.counters,
                         time.perf_counter() - started), shm_threshold)


def _pool_context():
    """Prefer ``fork`` (cheap, inherits ``sys.path``); fall back to the
    platform default elsewhere."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


# ---------------------------------------------------------------------------
# Zero-copy result transport (shared memory)
# ---------------------------------------------------------------------------

#: Results whose pickle is at least this large ride back to the parent in
#: a shared-memory segment instead of the executor's result pipe; smaller
#: ones aren't worth a segment round-trip.  Candidate evaluations with
#: schedules/traces routinely pickle to hundreds of KiB, and the pipe
#: both copies the bytes twice (write + read) and chunks them through a
#: small kernel buffer under the executor's management-thread lock.
SHM_MIN_RESULT_BYTES = 64 * 1024


class _ShmResult:
    """Ticket for a worker result parked in a shared-memory segment.

    Only this tiny handle crosses the executor pipe; the parent attaches
    to ``name``, unpickles ``size`` bytes straight out of the mapping
    (no intermediate copy), then unlinks the segment.
    """

    __slots__ = ("name", "size")

    def __init__(self, name: str, size: int) -> None:
        self.name = name
        self.size = size


def _pack_result(result, threshold: Optional[int]):
    """Worker-side: move a large result into a shared-memory segment.

    Falls back to returning ``result`` unchanged (plain pipe transport)
    when ``threshold`` is ``None``, the pickle is small, or the segment
    cannot be created — the transport is an optimisation, never a new
    failure mode.
    """
    if threshold is None:
        return result
    data = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    if len(data) < threshold:
        return result
    try:
        from multiprocessing import shared_memory
        segment = shared_memory.SharedMemory(create=True, size=len(data))
    except Exception:  # pragma: no cover - /dev/shm exhausted/absent
        return result
    segment.buf[:len(data)] = data
    name = segment.name
    registered = getattr(segment, "_name", name)
    segment.close()
    # Ownership passes to the parent (which unlinks after reading), so
    # the worker's resource tracker must forget the segment or it would
    # unlink it out from under the parent when the worker exits
    # (bpo-39959).
    try:
        from multiprocessing import resource_tracker
        resource_tracker.unregister(registered, "shared_memory")
    except Exception:  # pragma: no cover - tracker variants
        pass
    return _ShmResult(name, len(data))


def _unpack_result(result, tracer):
    """Parent-side: redeem a :class:`_ShmResult` ticket, if one arrived."""
    if not isinstance(result, _ShmResult):
        return result
    from multiprocessing import shared_memory
    segment = shared_memory.SharedMemory(name=result.name)
    try:
        # pickle.loads accepts the memoryview directly: the result is
        # deserialized straight out of the shared mapping, zero-copy.
        payload = pickle.loads(segment.buf[:result.size])
    finally:
        segment.close()
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - double unlink race
            pass
    tracer.count("explore.shm.results")
    tracer.count("explore.shm.bytes", result.size)
    return payload


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

@dataclass
class _ParallelTask:
    """One in-flight pair evaluation's engine-side bookkeeping.

    ``seq`` is the deterministic dispatch sequence number (canonical
    sweep order, stable across runs — what :class:`FaultPlan` scripts
    key on); ``index`` the pair's position in the sweep grid; ``key``
    its cache key; ``pair`` the picklable (cluster name, resource-set
    index) sent to workers; ``attempt`` the retries consumed so far.
    """

    seq: int
    index: int
    key: str
    pair: Tuple[str, int]
    attempt: int = 0


@dataclass
class ExploreReport:
    """One application's sweep outcome plus exploration bookkeeping."""

    app: AppSpec
    decision: PartitionDecision
    initial: SystemRun
    elapsed_s: float
    cache_stats: Dict[str, int] = field(default_factory=dict)


class ExplorationEngine:
    """Fans candidate evaluations over a process pool, memoizing results.

    Args:
        library: technology data (defaults to CMOS6).
        config: designer inputs shared by sweeps without an app-specific
            config.
        jobs: worker processes; ``1`` evaluates in-process (still cached).
        cache: shared :class:`EvaluationCache` (one is created if omitted;
            pass your own to pool results across engines/flows).
        tracer: observability sink (defaults to a :class:`NullTracer`).
        verify: audit every computed candidate with
            :func:`repro.verify.verify_candidate` *before* it may enter
            the cache — an evaluation with ERROR findings is still
            returned (the decision stage sees it) but never memoized, so
            a corrupted result cannot be fanned out to later sweeps.
            Findings accumulate on :attr:`verification`.
        timeout: per-candidate evaluation timeout in seconds (``None``
            waits forever).  A pair exceeding it is treated as a hung
            worker: the pool is torn down and rebuilt, the pair retried.
        retries: re-submissions a pair may consume after failures
            (worker exceptions, timeouts, pool breaks) before it
            degrades to in-process serial evaluation.
        backoff_s: base of the exponential retry backoff — attempt
            ``n`` sleeps ``backoff_s * 2**(n-1)`` before resubmitting.
        max_pool_rebuilds: pool rebuilds tolerated per sweep; one more
            failure degrades every remaining pair to in-process serial
            evaluation (the sweep still completes, bit-identically).
        fault_plan: deterministic worker-fault script
            (:class:`~repro.core.faults.FaultPlan`) for testing the
            recovery paths; production sweeps leave it ``None``.
        fronts: shared :class:`~repro.core.profile.BoundedMemo` of
            executed front halves (one is created if omitted).
            :meth:`explore` and :meth:`run_flow` execute each workload
            once and price it again at any node or cache geometry.

    Worker results pickling to at least :data:`SHM_MIN_RESULT_BYTES` ride
    back in a shared-memory segment, with only a tiny ticket through the
    executor pipe (``explore.shm.*`` counters); smaller ones take the
    pipe.  Either way the results and decisions are identical.

    The engine keeps its worker pool alive across sweeps — use it as a
    context manager or call :meth:`close` to reap the workers.  A pool
    that broke mid-sweep is dropped and transparently rebuilt, so one
    engine stays usable across failures.
    """

    def __init__(self, library: Optional[TechnologyLibrary] = None,
                 config: Optional[PartitionConfig] = None,
                 jobs: int = 1,
                 cache: Optional[EvaluationCache] = None,
                 tracer: Optional[Tracer] = None,
                 verify: bool = False,
                 timeout: Optional[float] = None,
                 retries: int = 2,
                 backoff_s: float = 0.05,
                 max_pool_rebuilds: int = 3,
                 fault_plan: Optional[FaultPlan] = None,
                 fronts: Optional[BoundedMemo] = None) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if max_pool_rebuilds < 0:
            raise ValueError(
                f"max_pool_rebuilds must be >= 0, got {max_pool_rebuilds}")
        self.library = library or cmos6_library()
        self.config = config
        self.jobs = jobs
        self.cache = cache if cache is not None else EvaluationCache()
        self.fronts = fronts if fronts is not None else BoundedMemo()
        self.tracer = tracer or NullTracer()
        self.verify = verify
        self.timeout = timeout
        self.retries = retries
        self.backoff_s = backoff_s
        self.max_pool_rebuilds = max_pool_rebuilds
        self.fault_plan = fault_plan
        #: Pickled-size floor for shared-memory result transport.  Tests
        #: lower this to force small results through the shared-memory
        #: path.
        self._shm_threshold = SHM_MIN_RESULT_BYTES
        #: Accumulated candidate-audit findings (``verify=True`` only).
        self.verification = None
        if verify:
            from repro.verify import VerificationReport
            self.verification = VerificationReport(label="explore")
        #: Optional ``callback(done, total)`` invoked as candidate
        #: outcomes land during a sweep (cache hits count as already
        #: done).  Advisory only: a raising callback is dropped after
        #: one ``explore.progress.errors`` count, never retried, and can
        #: never change a decision.  The service tier threads job
        #: progress events through this hook.
        self.progress = None
        self._progress_done = 0
        self._progress_total = 0
        self._pool: Optional[ProcessPoolExecutor] = None
        #: Monotonic dispatch sequence: pairs are numbered in canonical
        #: sweep order, which is what makes FaultPlan scripts stable.
        self._dispatch_seq = 0
        self._warned_no_app = False

    # -- lifecycle -----------------------------------------------------

    def __enter__(self) -> "ExplorationEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        # Cleanup must run on error paths too (a Ctrl-C mid-sweep used
        # to leak live workers); returning False propagates exc_info.
        self.close()
        return False

    def close(self) -> None:
        if self._pool is not None:
            # cancel_futures: queued-but-unstarted pairs are dropped so
            # the workers can exit instead of draining a dead sweep.
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs, mp_context=_pool_context())
        return self._pool

    def _teardown_pool(self) -> None:
        """Drop a broken/hung pool so the next use builds a fresh one.

        Worker processes are terminated outright: after a
        ``BrokenProcessPool`` they are already dead or doomed, and after
        a timeout the survivor is presumed hung — waiting on either
        would stall the sweep indefinitely.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception:  # pragma: no cover - already-reaped races
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    # -- candidate sweep ----------------------------------------------

    def sweep(self, partitioner: Partitioner, profile: ExecutionProfile,
              initial: SystemRun, app: Optional[AppSpec] = None,
              hw_clusters: FrozenSet[str] = frozenset()
              ) -> PartitionDecision:
        """Run the Fig. 1 search: prepare, evaluate the grid, decide.

        This is the one sweep loop.  ``jobs`` only changes *who* computes
        each pair, never the sweep order or the decision.  ``app`` is
        required for multi-process evaluation (workers rebuild the
        workload from its payload); without it the sweep degrades to
        cached in-process evaluation.
        """
        tracer = self.tracer
        config = partitioner.config
        with use_tracer(tracer), tracer.span("explore.sweep"):
            prep = partitioner.prepare(profile)
            pairs = prep.pairs(config.resource_sets)
            outcomes = self.evaluate_pairs(
                partitioner, profile, initial, pairs, prep.chains,
                hw_clusters=hw_clusters, app=app)
            ordered = [(cluster, resource_set, outcomes[i])
                       for i, (cluster, resource_set) in enumerate(pairs)]
            return partitioner.decide(ordered, prep, initial)

    def evaluate_pairs(self, partitioner: Partitioner,
                       profile: ExecutionProfile, initial: SystemRun,
                       pairs: List[Tuple[object, ResourceSet]],
                       chains: Dict[str, List[object]],
                       hw_clusters: FrozenSet[str] = frozenset(),
                       app: Optional[AppSpec] = None) -> List[object]:
        """Evaluate (cluster, resource set) pairs through the cache.

        Returns one outcome per pair, in pair order: a
        :class:`CandidateEvaluation` or a schedule-rejection string.  The
        caller keeps all filtering/ranking, so any sweep shape (the plain
        Fig. 1 grid, the multicore iteration's filtered grid) can ride on
        the same cache and worker pool.
        """
        tracer = self.tracer
        config = partitioner.config
        # The partitioner's library is authoritative: a sweep running a
        # non-default technology node (scenario tech axis, --tech) must
        # key its cache and audit its candidates against that node, not
        # the engine's default.
        context = sweep_context_digest(
            partitioner.program, profile, initial, partitioner.library,
            config)

        outcomes: List[object] = [None] * len(pairs)
        pending: List[Tuple[int, str]] = []  # (pair index, cache key)
        for index, (cluster, resource_set) in enumerate(pairs):
            key = candidate_cache_key(context, cluster, resource_set,
                                      hw_clusters)
            cached = self.cache.get(key)
            if cached is not None:
                outcomes[index] = cached
                tracer.count("explore.cache.hits")
            else:
                tracer.count("explore.cache.misses")
                pending.append((index, key))

        self._progress_total = len(pairs)
        self._progress_done = len(pairs) - len(pending)
        self._notify_progress()

        if pending:
            rejected: set = set()
            if self.jobs > 1 and app is None:
                # The caller asked for workers but gave the sweep no
                # AppSpec to rebuild the workload from — say so once
                # instead of silently ignoring --jobs.
                tracer.count("explore.degraded", len(pending))
                if not self._warned_no_app:
                    self._warned_no_app = True
                    warnings.warn(
                        f"ExplorationEngine(jobs={self.jobs}): sweep "
                        f"without an AppSpec cannot use worker processes; "
                        f"evaluating in-process serially",
                        RuntimeWarning, stacklevel=3)
            if self.jobs > 1 and app is not None:
                self._evaluate_parallel(partitioner, profile, initial,
                                        chains, app, config, hw_clusters,
                                        pairs, pending, outcomes, rejected)
            else:
                self._evaluate_serial(partitioner, profile, initial,
                                      hw_clusters, chains, pairs, pending,
                                      outcomes, rejected)
        return outcomes

    def _audit(self, outcome, index: int, rejected: set,
               library=None) -> None:
        """Worker-equivalent in-process candidate audit (``verify=True``)."""
        from repro.verify import verify_candidate
        report = verify_candidate(outcome, library or self.library)
        self.verification.extend(report)
        if report.has_errors:
            rejected.add(index)

    def _commit(self, index: int, key: str, outcome) -> None:
        """Memoize one finished outcome — immediately, so a persistent
        cache journals it before the sweep moves on (kill-safety)."""
        self.cache.put(key, outcome)

    def _notify_progress(self, advance: int = 0) -> None:
        """Advance the sweep progress count and fire :attr:`progress`."""
        self._progress_done += advance
        callback = self.progress
        if callback is None:
            return
        try:
            callback(self._progress_done, self._progress_total)
        except Exception:
            # Progress is advisory: a broken subscriber must not fail
            # (or even slow) the sweep, so it gets dropped, not retried.
            self.tracer.count("explore.progress.errors")
            self.progress = None

    def _evaluate_serial(self, partitioner: Partitioner,
                         profile: ExecutionProfile, initial: SystemRun,
                         hw_clusters: FrozenSet[str],
                         chains: Dict[str, List[object]],
                         pairs, pending, outcomes, rejected) -> None:
        tracer = self.tracer
        for index, key in pending:
            cluster, resource_set = pairs[index]
            try:
                with tracer.span("explore.evaluate"):
                    outcome: object = partitioner.evaluate_candidate(
                        cluster, resource_set, profile, initial,
                        hw_clusters=hw_clusters,
                        chain=chains[cluster.function])
                tracer.count("explore.evaluated")
                if self.verify:
                    self._audit(outcome, index, rejected,
                                library=partitioner.library)
            except ScheduleError as exc:
                outcome = str(exc)
            outcomes[index] = outcome
            self._notify_progress(1)
            if index in rejected:
                # Verification found a hard invariant violation: the
                # outcome still flows to the decision stage, but a
                # corrupted evaluation must never be memoized.
                tracer.count("verify.cache_rejected")
            else:
                self._commit(index, key, outcome)

    # -- fault-tolerant parallel fan-out -------------------------------

    def _absorb(self, task: "_ParallelTask", result,
                outcomes, rejected) -> None:
        """Fold one successful worker result into the sweep state."""
        tracer = self.tracer
        result = _unpack_result(result, tracer)
        _pair, outcome, counters, seconds, audit = result
        outcomes[task.index] = outcome
        self._notify_progress(1)
        tracer.merge_counters(counters)
        tracer.record("explore.evaluate", seconds)
        if not isinstance(outcome, str):
            tracer.count("explore.evaluated")
        if audit is not None and self.verification is not None:
            self.verification.extend(audit)
            if audit.has_errors:
                rejected.add(task.index)
        if task.index in rejected:
            tracer.count("verify.cache_rejected")
        else:
            self._commit(task.index, task.key, outcome)

    def _retry(self, task: "_ParallelTask", queue: List["_ParallelTask"],
               degraded: List["_ParallelTask"], bump: bool = True) -> None:
        """Requeue a failed task, or hand it to the serial fallback once
        its retry budget is spent.  ``bump=False`` requeues an innocent
        bystander (e.g. a pair queued behind a hung worker) without
        charging its budget."""
        if not bump:
            queue.append(task)
            return
        task.attempt += 1
        self.tracer.count("explore.retry.attempts")
        if task.attempt > self.retries:
            degraded.append(task)
            return
        if self.backoff_s > 0:
            time.sleep(self.backoff_s * (2 ** (task.attempt - 1)))
        queue.append(task)

    @staticmethod
    def _settled_ok(future: Future) -> bool:
        """True iff ``future`` completed with a result we can harvest."""
        if not future.done() or future.cancelled():
            return False
        try:
            return future.exception(timeout=0) is None
        except Exception:  # pragma: no cover - racing cancellation
            return False

    def _evaluate_parallel(self, partitioner: Partitioner,
                           profile: ExecutionProfile, initial: SystemRun,
                           chains: Dict[str, List[object]],
                           app: AppSpec, config: PartitionConfig,
                           hw_clusters: FrozenSet[str],
                           pairs, pending, outcomes, rejected) -> None:
        """Fan pending pairs over the worker pool, surviving failures.

        Tasks are submitted individually (not ``pool.map``) so each can
        carry its own timeout, be retried alone, and land in the cache
        the moment it completes.  Results are still written into
        ``outcomes`` by pair index, so completion order — scrambled by
        retries and rebuilds — never reaches ``decide()``.
        """
        tracer = self.tracer
        payload = AppPayload.from_app(app)
        rs_index = {id(rs): i for i, rs in enumerate(config.resource_sets)}
        queue: List[_ParallelTask] = []
        for index, key in pending:
            cluster, resource_set = pairs[index]
            queue.append(_ParallelTask(
                seq=self._dispatch_seq, index=index, key=key,
                pair=(cluster.name, rs_index[id(resource_set)])))
            self._dispatch_seq += 1
        func = partial(_worker_evaluate_pair, payload, partitioner.library,
                       config, tuple(sorted(hw_clusters)), verify=self.verify,
                       fault_plan=self.fault_plan,
                       shm_threshold=self._shm_threshold)
        rebuilds = 0
        degraded: List[_ParallelTask] = []
        with tracer.span("explore.evaluate.parallel"):
            while queue:
                if rebuilds > self.max_pool_rebuilds:
                    # The pool keeps dying: stop betting on it.
                    degraded.extend(queue)
                    queue = []
                    break
                pool = self._ensure_pool()
                submitted = [
                    (task, pool.submit(func, task.pair, task.seq,
                                       task.attempt))
                    for task in queue]
                queue = []
                for pos, (task, future) in enumerate(submitted):
                    try:
                        result = future.result(timeout=self.timeout)
                    except FuturesTimeoutError:
                        # Hung worker: charge the pair we were waiting
                        # on, salvage finished siblings, requeue the
                        # rest uncharged, and start a fresh pool.
                        tracer.count("explore.timeouts")
                        self._retry(task, queue, degraded)
                        for rest, rest_future in submitted[pos + 1:]:
                            if self._settled_ok(rest_future):
                                self._absorb(rest, rest_future.result(),
                                             outcomes, rejected)
                            else:
                                self._retry(rest, queue, degraded,
                                            bump=False)
                        self._teardown_pool()
                        tracer.count("explore.pool.rebuilds")
                        rebuilds += 1
                        break
                    except BrokenProcessPool:
                        # A worker died (OOM kill, crash): every
                        # in-flight pair is suspect, so all are charged
                        # one attempt and requeued on a rebuilt pool.
                        self._retry(task, queue, degraded)
                        for rest, rest_future in submitted[pos + 1:]:
                            if self._settled_ok(rest_future):
                                self._absorb(rest, rest_future.result(),
                                             outcomes, rejected)
                            else:
                                self._retry(rest, queue, degraded)
                        self._teardown_pool()
                        tracer.count("explore.pool.rebuilds")
                        rebuilds += 1
                        break
                    except Exception:
                        # The evaluation itself raised in the worker
                        # (the pool survives): plain bounded retry.
                        self._retry(task, queue, degraded)
                    else:
                        self._absorb(task, result, outcomes, rejected)
        if degraded:
            tracer.count("explore.degraded", len(degraded))
            warnings.warn(
                f"{len(degraded)} candidate evaluation(s) exhausted the "
                f"worker pool's fault tolerance; finishing them "
                f"in-process serially", RuntimeWarning, stacklevel=2)
            self._evaluate_serial(
                partitioner, profile, initial, hw_clusters, chains, pairs,
                [(t.index, t.key) for t in degraded], outcomes, rejected)

    # -- whole-application entry points -------------------------------

    def explore(self, app: AppSpec,
                library: Optional[TechnologyLibrary] = None
                ) -> ExploreReport:
        """Compile/profile/evaluate ``app`` and sweep its design space.

        ``library`` overrides the engine's default technology for this
        one sweep (the scenario tech axis); cache keys include the
        library digest, so sweeps at different nodes never alias.  A
        workload already in :attr:`fronts` is priced, not executed.
        """
        tracer = self.tracer
        library = library or self.library
        started = time.perf_counter()
        with use_tracer(tracer), tracer.span("explore.app"):
            config = app.config or self.config or PartitionConfig()
            front = profile_app(app, library, tracer, fronts=self.fronts)
            partitioner = Partitioner(front.program, library, config)
        decision = self.sweep(partitioner, front.profile, front.initial,
                              app=app)
        return ExploreReport(
            app=app, decision=decision, initial=front.initial,
            elapsed_s=time.perf_counter() - started,
            cache_stats=self.cache.stats())

    def run_flow(self, app: AppSpec) -> FlowResult:
        """One application's complete flow, sweeping through this engine
        (and executing ``app`` only if :attr:`fronts` lacks it)."""
        flow = LowPowerFlow(library=self.library, config=self.config,
                            tracer=self.tracer, engine=self,
                            verify=self.verify)
        return flow.run(app)

    def run_flows(self, apps: Sequence[AppSpec]) -> Dict[str, FlowResult]:
        """Run many applications' flows, one worker process per app.

        With ``jobs == 1`` the flows run in-process through the shared
        cache; either way results come back keyed by app name in input
        order, bit-identical to serial :meth:`LowPowerFlow.run` calls.
        """
        tracer = self.tracer
        if self.jobs <= 1:
            return {app.name: self.run_flow(app) for app in apps}
        payloads = [AppPayload.from_app(app) for app in apps]
        configs = {app.name: app.config or self.config for app in apps}
        pool = self._ensure_pool()
        results: Dict[str, FlowResult] = {}
        with use_tracer(tracer), tracer.span("explore.flows.parallel"):
            futures = [
                pool.submit(_worker_run_flow, self.library,
                            configs[payload.name], payload, self.verify,
                            self._shm_threshold)
                for payload in payloads]
            try:
                for future in futures:
                    name, result, counters, seconds = _unpack_result(
                        future.result(), tracer)
                    results[name] = result
                    tracer.merge_counters(counters)
                    tracer.record("flow.run", seconds)
            except BrokenProcessPool:
                # A worker died mid-flow.  Salvage every flow that did
                # finish, rebuild lazily, and recompute the rest
                # in-process — flows are pure, so the results are the
                # same ones the workers would have produced.
                for payload, future in zip(payloads, futures):
                    if payload.name in results:
                        continue
                    if self._settled_ok(future):
                        name, result, counters, seconds = _unpack_result(
                            future.result(), tracer)
                        results[name] = result
                        tracer.merge_counters(counters)
                        tracer.record("flow.run", seconds)
                self._teardown_pool()
                tracer.count("explore.pool.rebuilds")
                missing = [app for app in apps if app.name not in results]
                tracer.count("explore.degraded", len(missing))
                warnings.warn(
                    f"worker pool broke during run_flows; recomputing "
                    f"{len(missing)} flow(s) in-process",
                    RuntimeWarning, stacklevel=2)
                for app in missing:
                    results[app.name] = self.run_flow(app)
        return {app.name: results[app.name] for app in apps}
