"""Experiment X7 — the parallel design-space exploration engine.

Measures the three claims :mod:`repro.core.explore` makes:

1. the parallel sweep returns **bit-identical** partitioning decisions to
   the serial one (determinism is asserted here, not just in the tests);
2. fanning the six-application sweep across worker processes yields a
   wall-clock speedup (>= 2x is asserted only on machines with at least
   four cores — single-core CI boxes still run the identity checks);
3. the memoization cache turns a repeated sweep into pure lookups.

Run with::

    PYTHONPATH=src pytest benchmarks/bench_parallel_explore.py --benchmark-only
"""

import os
import time

import pytest

from repro.apps import ALL_APPS, app_by_name
from repro.core import EvaluationCache, ExplorationEngine

#: Worker count for the parallel benchmarks (bounded: oversubscribing a
#: small box would just measure scheduler noise).
N_JOBS = max(2, min(4, os.cpu_count() or 1))

#: The >= 2x acceptance threshold only makes sense with enough cores.
SPEEDUP_CORES = 4


def _apps():
    return [app_by_name(name) for name in sorted(ALL_APPS)]


def _fingerprint(result):
    """The parts of a flow result that must match bit-for-bit."""
    decision = result.decision
    best = decision.best
    return (
        result.app.name,
        None if best is None else (best.cluster.name,
                                   best.resource_set.name,
                                   best.objective,
                                   best.asic_cells),
        tuple(sorted((c.cluster.name, c.resource_set.name, c.objective)
                     for c in decision.candidates)),
        tuple(sorted(decision.rejections)),
        result.initial.total_energy_nj,
        None if result.partitioned is None
        else result.partitioned.total_energy_nj,
        result.energy_savings_percent,
        result.time_change_percent,
    )


def _sweep(jobs, cache=None):
    with ExplorationEngine(jobs=jobs, cache=cache) as engine:
        results = engine.run_flows(_apps())
    return [_fingerprint(results[name]) for name in sorted(results)]


@pytest.fixture(scope="module")
def serial_reference():
    """One timed serial sweep shared by every benchmark in this module."""
    start = time.perf_counter()
    fingerprints = _sweep(jobs=1)
    return fingerprints, time.perf_counter() - start


@pytest.mark.benchmark(group="parallel-explore")
def bench_six_app_sweep_serial(benchmark, serial_reference):
    fingerprints, _ = serial_reference
    fresh = benchmark.pedantic(_sweep, args=(1,), rounds=1, iterations=1)
    assert fresh == fingerprints


@pytest.mark.benchmark(group="parallel-explore")
def bench_six_app_sweep_parallel(benchmark, serial_reference):
    serial_fps, serial_s = serial_reference
    parallel_fps = benchmark.pedantic(
        _sweep, args=(N_JOBS,), rounds=1, iterations=1)

    # Claim 1: bit-identical decisions, candidate landscapes and Table-1
    # numbers regardless of worker count.
    assert parallel_fps == serial_fps

    if benchmark.stats is None:
        return  # --benchmark-disable: nothing was timed, no speedup claim
    parallel_s = benchmark.stats.stats.mean
    speedup = serial_s / parallel_s if parallel_s else float("inf")
    benchmark.extra_info["jobs"] = N_JOBS
    benchmark.extra_info["cpu_count"] = os.cpu_count()
    benchmark.extra_info["serial_s"] = round(serial_s, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)

    # Claim 2: only enforceable where the hardware can deliver it.
    if (os.cpu_count() or 1) >= SPEEDUP_CORES and N_JOBS >= SPEEDUP_CORES:
        assert speedup >= 2.0, (
            f"expected >= 2x speedup with {N_JOBS} jobs on "
            f"{os.cpu_count()} cores, got {speedup:.2f}x")


@pytest.mark.benchmark(group="parallel-explore")
def bench_candidate_sweep_cold_cache(benchmark):
    app = app_by_name("ckey")

    def cold_sweep():
        with ExplorationEngine(cache=EvaluationCache()) as engine:
            return engine.explore(app)

    report = benchmark.pedantic(cold_sweep, rounds=3, iterations=1)
    assert report.cache_stats["hits"] == 0
    assert report.cache_stats["misses"] == report.decision.examined


@pytest.mark.benchmark(group="parallel-explore")
def bench_candidate_sweep_warm_cache(benchmark):
    app = app_by_name("ckey")
    cache = EvaluationCache()
    with ExplorationEngine(cache=cache) as engine:
        cold = engine.explore(app)  # populate

        def warm_sweep():
            return engine.explore(app)

        report = benchmark.pedantic(warm_sweep, rounds=3, iterations=1)

    # Claim 3: a repeated sweep is pure cache lookups, and the cached
    # decision is the same object-for-object landscape.
    assert report.cache_stats["misses"] == cold.decision.examined
    assert report.cache_stats["hits"] >= report.decision.examined
    assert _decision_fp(report.decision) == _decision_fp(cold.decision)
    benchmark.extra_info["pairs"] = report.decision.examined
    benchmark.extra_info["entries"] = report.cache_stats["entries"]


def _decision_fp(decision):
    best = decision.best
    return (
        None if best is None else (best.cluster.name,
                                   best.resource_set.name,
                                   best.objective),
        tuple(sorted((c.cluster.name, c.resource_set.name, c.objective)
                     for c in decision.candidates)),
        tuple(sorted(decision.rejections)),
    )
