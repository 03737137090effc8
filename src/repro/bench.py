"""Standing performance benchmark harness (``repro bench``).

The paper's inner loop (Fig. 1 lines 8-15) re-runs the SL32 instruction-set
simulator, the cache cores and the gate-level energy model for every
candidate, so those pure-Python paths dominate the wall-clock of
``explore``/``table1``.  This module pins them under a *standing* suite:

* **microbenchmarks** (``micro.*``) — steady-state ops/sec of the ISS,
  the set-associative cache, the trace-driven profiler replay and
  geometry sweep, and the gate-level energy evaluator;
* **end-to-end flows** (``e2e.*``) — wall seconds of the full Fig. 5 flow
  per application (the unit of ``table1``) and of an engine-backed
  ``explore`` sweep.

``run_suite`` repeats every benchmark, reports the **median** with a
dispersion figure (``(worst - best) / median``), and emits a versioned
``BENCH_<timestamp>.json`` carrying an environment fingerprint.
``compare`` checks a fresh report against a committed baseline
(``BENCH_baseline.json``) with a configurable regression threshold — the
machine-readable contract that makes speedups and regressions visible.
The schema is documented field by field in ``docs/PERFORMANCE.md``;
``tests/bench`` and ``tests/docs/test_doc_drift.py`` pin it.

Tracing: every benchmark runs under a ``bench.<name>`` span and the
harness bumps the ``bench.*`` counters of ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import gc
import json
import platform
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.obs import get_tracer

#: The ``schema`` tag every benchmark report carries.
BENCH_SCHEMA_NAME = "repro-bench"

#: Current version of the benchmark report JSON schema.
BENCH_SCHEMA_VERSION = 1

#: Default regression threshold: fail ``compare`` when a benchmark is
#: more than this fraction worse than the baseline.  Deliberately wide:
#: run-to-run variance on time-shared machines (CI runners, dev
#: containers) reaches tens of percent even comparing best-of-N runs,
#: while the regressions the gate exists to catch — losing one of the
#: documented optimisations — show up as 2-8x.  Pass ``--threshold``
#: for a stricter gate on a quiet dedicated machine.
DEFAULT_THRESHOLD = 0.5

#: Filename of the committed baseline at the repository root.
BASELINE_FILENAME = "BENCH_baseline.json"


# ---------------------------------------------------------------------------
# Suite definition
# ---------------------------------------------------------------------------


@dataclass
class BenchContext:
    """Shared setup state for one suite run.

    Heavy artifacts (a full flow result, a captured memory trace) are
    built once and reused by every benchmark that needs them; ``quick``
    shrinks iteration counts for CI smoke runs.
    """

    quick: bool = False
    jobs: int = 2
    _cache: Dict[str, Any] = field(default_factory=dict)

    def flow_result(self, app_name: str = "digs"):
        """A complete serial flow result for ``app_name`` (memoized)."""
        key = f"flow:{app_name}"
        if key not in self._cache:
            from repro.apps import app_by_name
            from repro.core import LowPowerFlow
            self._cache[key] = LowPowerFlow().run(app_by_name(app_name))
        return self._cache[key]

    def memory_trace(self, app_name: str = "digs"):
        """A captured memory-reference trace of the initial run (memoized)."""
        key = f"trace:{app_name}"
        if key not in self._cache:
            from repro.apps import app_by_name
            from repro.isa.image import link_program
            from repro.power.system import evaluate_initial
            from repro.tech import cmos6_library
            app = app_by_name(app_name)
            image = link_program(app.compile())
            run = evaluate_initial(
                image, cmos6_library(), args=app.args,
                globals_init=app.globals_init,
                icache_cfg=app.icache, dcache_cfg=app.dcache,
                collect_trace=True)
            self._cache[key] = run.stats.trace
        return self._cache[key]


@dataclass(frozen=True)
class BenchSpec:
    """One benchmark: a name, its unit, and a measurement closure."""

    name: str
    unit: str                    # "s" (lower is better) or "ops/s"
    higher_is_better: bool
    why: str                     # why this is a pinned hot path
    make: Callable[[BenchContext], Callable[[], Tuple[float, Dict[str, Any]]]]
    #: Switch the cyclic GC off around the timed region.  True for the
    #: micro-benchmarks: their ~10 ms windows are otherwise at the mercy
    #: of gen-2 passes over the suite's long-lived heap (memoized flow
    #: results, traces), which cost the same order as the whole repeat.
    #: End-to-end flows keep GC on — there it is part of the real cost.
    disable_gc: bool = False


def _bench_iss_engine(engine: str):
    """Bare SL32 ISS throughput (no caches, no trace): instructions/sec.

    ``engine="auto"`` measures the default compiled-block engine including
    its one-time per-instance compilation; ``engine="reference"`` pins the
    original interpreter so every report shows the engines' ratio.
    """
    def make(ctx: BenchContext):
        from repro.apps import app_by_name
        from repro.isa.image import link_program
        from repro.isa.simulator import Simulator
        from repro.tech import cmos6_library

        app = app_by_name("digs")
        image = link_program(app.compile())
        library = cmos6_library()

        def run_once():
            sim = Simulator(image, library, engine=engine)
            for name, values in app.globals_init.items():
                sim.set_global(name, values)
            start = time.perf_counter()
            result = sim.run(*app.args)
            elapsed = time.perf_counter() - start
            return result.instructions / elapsed, {
                "instructions": result.instructions, "engine": engine}

        return run_once
    return make


def _bench_cache(ctx: BenchContext):
    """Set-associative cache core: accesses/sec on a deterministic
    LCG-generated reference stream (3:1 read:write mix, > cache-size
    footprint so hits and misses both exercise)."""
    from repro.mem.cache import Cache, CacheConfig

    count = 50_000 if ctx.quick else 200_000
    stream: List[Tuple[int, bool]] = []
    state = 0xACE1
    for i in range(count):
        state = (state * 1103515245 + 12345) & 0xFFFFFFFF
        stream.append(((state >> 8) & 0x3FFC, i % 4 == 3))

    def run_once():
        cache = Cache(CacheConfig())
        access = cache.access
        start = time.perf_counter()
        for address, is_write in stream:
            access(address, is_write)
        elapsed = time.perf_counter() - start
        return count / elapsed, {"accesses": count,
                                 "hit_rate": cache.hit_rate}

    return run_once


def _replay_trace(ctx: BenchContext):
    """The digs trace the replay benchmarks share (first 60k events
    under ``quick``).  Importing the batched kernel here pays its lazy
    numpy import in set-up rather than in the first timed run."""
    import repro.mem.cache_batch  # noqa: F401
    from repro.mem.trace import MemoryTrace

    trace = ctx.memory_trace("digs")
    if ctx.quick and len(trace) > 60_000:
        trace = MemoryTrace(events=trace.events[:60_000])
    return trace


def _bench_profiler(ctx: BenchContext):
    """Trace-driven profiler replay (trace iteration + two cache cores):
    trace events/sec."""
    from repro.mem.profiler import replay
    from repro.power.system import default_cache_configs

    trace = _replay_trace(ctx)
    icfg, dcfg = default_cache_configs()

    def run_once():
        start = time.perf_counter()
        replay(trace, icfg, dcfg)
        elapsed = time.perf_counter() - start
        return len(trace) / elapsed, {"events": len(trace)}

    return run_once


def _bench_profiler_sweep(ctx: BenchContext):
    """Footnote-4 geometry sweep: the default 18-pair space over the digs
    trace in one ``profile_configs`` call — (events x pairs)/sec, so a
    return to one trace pass per pair reads as a several-fold drop."""
    from repro.mem.explore import default_search_space
    from repro.mem.profiler import profile_configs

    trace = _replay_trace(ctx)
    space = default_search_space()

    def run_once():
        start = time.perf_counter()
        profiles = profile_configs(trace, space)
        elapsed = time.perf_counter() - start
        return len(trace) * len(profiles) / elapsed, {
            "events": len(trace), "pairs": len(profiles)}

    return run_once


def _bench_cache_batch(ctx: BenchContext):
    """Batched trace-replay kernel (``engine="batch"``) on the digs
    trace: trace events/sec.  The micro.profiler.replay entry measures
    the profiler's default path; this one pins the batched kernel
    directly so a fallback regression (e.g. numpy silently absent)
    shows up even if the default path is rerouted."""
    from repro.mem.cache_batch import replay_batch
    from repro.power.system import default_cache_configs

    trace = _replay_trace(ctx)
    icfg, dcfg = default_cache_configs()

    def run_once():
        start = time.perf_counter()
        icache, dcache = replay_batch(trace, icfg, dcfg)
        elapsed = time.perf_counter() - start
        return len(trace) / elapsed, {
            "events": len(trace),
            "i_hit_rate": icache.hit_rate,
            "d_hit_rate": dcache.hit_rate}

    return run_once


def _bench_gatesim(ctx: BenchContext):
    """Gate-level switching-energy estimation: evaluations/sec of the
    winning digs core (netlist x binding x profile)."""
    from repro.synth.gatesim import estimate_gate_energy
    from repro.tech import cmos6_library

    result = ctx.flow_result("digs")
    best = result.decision.best
    library = cmos6_library()
    iterations = 200 if ctx.quick else 2_000

    def run_once():
        start = time.perf_counter()
        for _ in range(iterations):
            energy = estimate_gate_energy(
                result.netlist, best.binding, best.ex_times,
                best.metrics.total_cycles, library)
        elapsed = time.perf_counter() - start
        return iterations / elapsed, {
            "iterations": iterations, "total_nj": energy.total_nj}

    return run_once


def _bench_checkpoint_journal(ctx: BenchContext):
    """Journaled persistence overhead (``--checkpoint``): put+flush every
    record, then replay the journal cold — records/sec."""
    import os
    import shutil
    import tempfile

    from repro.core.checkpoint import PersistentEvaluationCache

    count = 500 if ctx.quick else 5_000
    payload = {"objective": 0.4217, "asic_cells": 12860,
               "vector": list(range(32))}

    def run_once():
        directory = tempfile.mkdtemp(prefix="bench-ckpt-")
        path = os.path.join(directory, "cache.journal")
        try:
            start = time.perf_counter()
            cache = PersistentEvaluationCache(path)
            for i in range(count):
                cache.put(f"key-{i:06d}", (i, payload))
            cache.close()
            replayed = PersistentEvaluationCache(path)
            replayed.close()
            elapsed = time.perf_counter() - start
            loaded = replayed.loaded
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        return (count + loaded) / elapsed, {
            "records": count, "replayed": loaded}

    return run_once


def _bench_flow(app_name: str):
    def make(ctx: BenchContext):
        from repro.apps import app_by_name
        from repro.core import LowPowerFlow

        def run_once():
            start = time.perf_counter()
            result = LowPowerFlow().run(app_by_name(app_name))
            elapsed = time.perf_counter() - start
            return elapsed, {"accepted": result.accepted}

        return run_once
    return make


def _bench_explore(ctx: BenchContext):
    """Engine-backed design-space sweep with worker processes and a cold
    evaluation cache: wall seconds."""
    from repro.apps import app_by_name
    from repro.core import EvaluationCache, ExplorationEngine

    def run_once():
        start = time.perf_counter()
        with ExplorationEngine(jobs=ctx.jobs,
                               cache=EvaluationCache()) as engine:
            report = engine.explore(app_by_name("digs"))
        elapsed = time.perf_counter() - start
        return elapsed, {"jobs": ctx.jobs,
                         "examined": report.decision.examined}

    return run_once


def _specs() -> List[BenchSpec]:
    from repro.apps import ALL_APPS
    specs = [
        BenchSpec("micro.iss", "ops/s", True,
                  "every candidate evaluation re-runs the SL32 ISS; its "
                  "dispatch loop is the single hottest path",
                  _bench_iss_engine("auto"), disable_gc=True),
        BenchSpec("micro.iss.reference", "ops/s", True,
                  "the reference interpreter the compiled engine is "
                  "checked against; the micro.iss ratio is the engine "
                  "speedup",
                  _bench_iss_engine("reference"), disable_gc=True),
        BenchSpec("micro.cache", "ops/s", True,
                  "each simulated reference crosses Cache.access; cache "
                  "modelling dominates the memory-system evaluation",
                  _bench_cache, disable_gc=True),
        BenchSpec("micro.profiler.replay", "ops/s", True,
                  "footnote-4 cache adaptation replays one trace through "
                  "many geometries; throughput bounds the sweep width",
                  _bench_profiler, disable_gc=True),
        BenchSpec("micro.profiler.sweep", "ops/s", True,
                  "cachesweep replays each trace across the whole default "
                  "geometry space; one pass per trace, not one per pair, "
                  "is what keeps the sweep cheap",
                  _bench_profiler_sweep, disable_gc=True),
        BenchSpec("micro.cache_batch", "ops/s", True,
                  "the chunked kernel behind profiler engine=batch; "
                  "pinned directly so a silent fallback (no numpy) "
                  "reads as a regression here, not a mystery elsewhere",
                  _bench_cache_batch, disable_gc=True),
        BenchSpec("micro.gatesim", "ops/s", True,
                  "Fig. 1 line 15 re-estimates gate-level energy per "
                  "synthesized candidate",
                  _bench_gatesim, disable_gc=True),
        BenchSpec("micro.checkpoint.journal", "ops/s", True,
                  "--checkpoint journals (and --resume replays) every "
                  "memoized outcome; this bounds its per-candidate "
                  "overhead",
                  _bench_checkpoint_journal, disable_gc=True),
    ]
    for name in sorted(ALL_APPS):
        specs.append(BenchSpec(
            f"e2e.table1.{name}", "s", False,
            "one full Fig. 5 flow — the unit of `repro table1`",
            _bench_flow(name)))
    specs.append(BenchSpec(
        "e2e.explore", "s", False,
        "the engine-backed sweep with worker processes and a cold cache "
        "— the unit of `repro explore --jobs N`",
        _bench_explore))
    return specs


def iter_specs(only: Optional[str] = None) -> List[BenchSpec]:
    """The pinned suite, optionally filtered by substring."""
    specs = _specs()
    if only:
        specs = [s for s in specs if only in s.name]
    return specs


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------


def environment_fingerprint() -> Dict[str, Any]:
    """Where the numbers came from — enough to judge comparability."""
    import os
    return {
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": _cpu_count(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", ""),
    }


def _cpu_count() -> int:
    import os
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def run_suite(specs: Iterable[BenchSpec], repeats: int = 3,
              ctx: Optional[BenchContext] = None,
              progress=None) -> Dict[str, Any]:
    """Run every benchmark ``repeats`` times; return the report dict."""
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    ctx = ctx or BenchContext()
    tracer = get_tracer()
    results: Dict[str, Any] = {}
    for spec in specs:
        tracer.count("bench.benchmarks")
        if progress is not None:
            progress(spec.name)
        with tracer.span(f"bench.{spec.name}"):
            run_once = spec.make(ctx)
            runs: List[float] = []
            meta: Dict[str, Any] = {}
            for _ in range(repeats):
                tracer.count("bench.runs")
                gc.collect()     # start each repeat with a clean heap
                if spec.disable_gc:
                    gc.disable()
                try:
                    value, meta = run_once()
                finally:
                    if spec.disable_gc:
                        gc.enable()
                runs.append(value)
        ordered = sorted(runs)
        median = ordered[len(ordered) // 2] if len(ordered) % 2 else \
            (ordered[len(ordered) // 2 - 1] + ordered[len(ordered) // 2]) / 2
        best = max(runs) if spec.higher_is_better else min(runs)
        worst = min(runs) if spec.higher_is_better else max(runs)
        results[spec.name] = {
            "unit": spec.unit,
            "higher_is_better": spec.higher_is_better,
            "median": median,
            "best": best,
            "worst": worst,
            "dispersion": (abs(worst - best) / median) if median else 0.0,
            "runs": runs,
            "meta": meta,
        }
    return {
        "schema": BENCH_SCHEMA_NAME,
        "version": BENCH_SCHEMA_VERSION,
        "created": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "repeats": repeats,
        "environment": environment_fingerprint(),
        "results": results,
    }


def default_report_filename(report: Dict[str, Any]) -> str:
    """``BENCH_<timestamp>.json`` from the report's own creation stamp."""
    stamp = report["created"].replace("-", "").replace(":", "")
    return f"BENCH_{stamp}.json"


def write_report(report: Dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_report(path: str) -> Dict[str, Any]:
    """Load and validate a benchmark report (raises ValueError)."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    validate_report(data)
    return data


def validate_report(data: Any) -> None:
    """Check ``data`` against the ``repro-bench`` schema (raises
    ValueError with the offending path)."""
    if not isinstance(data, dict):
        raise ValueError("bench report must be a JSON object")
    if data.get("schema") != BENCH_SCHEMA_NAME:
        raise ValueError(f"not a {BENCH_SCHEMA_NAME} file: "
                         f"schema={data.get('schema')!r}")
    if data.get("version") != BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported bench version {data.get('version')!r}")
    if not isinstance(data.get("created"), str):
        raise ValueError("bench 'created' must be a string timestamp")
    repeats = data.get("repeats")
    if not isinstance(repeats, int) or isinstance(repeats, bool) \
            or repeats < 1:
        raise ValueError("bench 'repeats' must be a positive int")
    if not isinstance(data.get("environment"), dict):
        raise ValueError("bench 'environment' must be an object")
    results = data.get("results")
    if not isinstance(results, dict):
        raise ValueError("bench 'results' must be an object")
    for name, entry in results.items():
        path = f"results[{name!r}]"
        if not isinstance(entry, dict):
            raise ValueError(f"{path}: must be an object")
        if entry.get("unit") not in ("s", "ops/s"):
            raise ValueError(f"{path}: unit must be 's' or 'ops/s'")
        if not isinstance(entry.get("higher_is_better"), bool):
            raise ValueError(f"{path}: higher_is_better must be a bool")
        for key in ("median", "best", "worst", "dispersion"):
            value = entry.get(key)
            if not isinstance(value, (int, float)) \
                    or isinstance(value, bool) or value < 0:
                raise ValueError(
                    f"{path}: '{key}' must be a non-negative number")
        runs = entry.get("runs")
        if not isinstance(runs, list) or not runs or not all(
                isinstance(r, (int, float)) and not isinstance(r, bool)
                and r >= 0 for r in runs):
            raise ValueError(
                f"{path}: 'runs' must be a non-empty list of numbers")
        if not isinstance(entry.get("meta"), dict):
            raise ValueError(f"{path}: 'meta' must be an object")


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


@dataclass
class Comparison:
    """One benchmark's current-vs-baseline verdict."""

    name: str
    unit: str
    baseline: float
    current: float
    #: > 1.0 means *faster* than baseline, < 1.0 slower, unit-normalized.
    speedup: float
    regressed: bool

    def format(self) -> str:
        verdict = "REGRESSED" if self.regressed else (
            "improved" if self.speedup > 1.05 else "ok")
        return (f"{self.name:24s} {self.baseline:14,.1f} -> "
                f"{self.current:14,.1f} {self.unit:6s} "
                f"{self.speedup:6.2f}x  {verdict}")


def compare(current: Dict[str, Any], baseline: Dict[str, Any],
            threshold: float = DEFAULT_THRESHOLD) -> List[Comparison]:
    """Compare two reports; a benchmark regresses when it is more than
    ``threshold`` (fraction) worse than the baseline.

    Each side is represented by its ``best`` run, not its median: on a
    time-shared machine, interference is one-sided (it only ever makes a
    run slower), so best-of-N is the lowest-variance estimator of true
    speed and the comparison does not flap when the scheduler lands on a
    different benchmark each run.  The median remains the headline
    statistic inside reports.
    """
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    tracer = get_tracer()
    comparisons: List[Comparison] = []
    for name, base in sorted(baseline["results"].items()):
        entry = current["results"].get(name)
        if entry is None:
            continue
        base_best, cur_best = base["best"], entry["best"]
        if base["higher_is_better"]:
            speedup = cur_best / base_best if base_best else 1.0
        else:
            speedup = base_best / cur_best if cur_best else 1.0
        regressed = speedup < 1.0 - threshold
        if regressed:
            tracer.count("bench.regressions")
        elif speedup > 1.0 + threshold:
            tracer.count("bench.improvements")
        comparisons.append(Comparison(
            name=name, unit=base["unit"], baseline=base_best,
            current=cur_best, speedup=speedup, regressed=regressed))
    return comparisons


def format_report(report: Dict[str, Any]) -> str:
    """Terminal-friendly digest of one report."""
    lines = [f"{'benchmark':24s} {'median':>14s} {'best':>14s} "
             f"{'disp':>6s}  unit"]
    for name, entry in sorted(report["results"].items()):
        lines.append(
            f"{name:24s} {entry['median']:14,.1f} {entry['best']:14,.1f} "
            f"{entry['dispersion'] * 100:5.1f}%  {entry['unit']}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# CLI entry (wired through ``repro bench`` and ``tools/bench.py``)
# ---------------------------------------------------------------------------


def run_bench_command(args) -> int:
    """Execute the ``repro bench`` subcommand (parsed argparse args)."""
    specs = iter_specs(args.only)
    if args.list:
        for spec in specs:
            print(f"{spec.name:24s} [{spec.unit:5s}] {spec.why}")
        return 0
    if not specs:
        print(f"no benchmarks match {args.only!r}", file=sys.stderr)
        return 1
    repeats = 1 if args.quick else args.repeats
    ctx = BenchContext(quick=args.quick, jobs=args.jobs)
    report = run_suite(
        specs, repeats=repeats, ctx=ctx,
        progress=lambda name: print(f"running {name} ...", file=sys.stderr))
    print(format_report(report))
    out_path = args.output or default_report_filename(report)
    write_report(report, out_path)
    print(f"report written to {out_path}", file=sys.stderr)

    if args.compare:
        try:
            baseline = load_report(args.compare)
        except (OSError, ValueError) as exc:
            print(f"cannot load baseline {args.compare}: {exc}",
                  file=sys.stderr)
            return 1
        comparisons = compare(report, baseline,
                              threshold=args.threshold / 100.0)
        print(f"\nvs {args.compare} "
              f"(threshold {args.threshold:.0f}%):")
        for comp in comparisons:
            print(f"  {comp.format()}")
        regressed = [c for c in comparisons if c.regressed]
        if regressed:
            print(f"{len(regressed)} benchmark(s) regressed",
                  file=sys.stderr)
            return 1
    return 0
