"""A trace is a view of the execution record.

A trace-collecting compiled run keeps only its
:class:`~repro.isa.simcompile.ExecutionRecord`; its
:class:`~repro.mem.trace.MemoryTrace` is a view of the record's
software-side references.  These tests hold the view to the reference
interpreter's per-event trace, check that the statistics and the replay
arrays never build the event list, and pin the geometry sweep's two
array-level shortcuts (same-line run heads of the i-stream, and the
narrow sort dtype) against the scalar per-event replay.
"""

import random

import numpy as np
import pytest

from repro.apps import app_by_name
from repro.fuzz.oracle import derived_partition
from repro.isa.image import link_program
from repro.isa.simcompile import ExecutionRecord
from repro.isa.simulator import Simulator
from repro.mem.cache import CacheConfig
from repro.mem.cache_batch import (
    BatchCache,
    DEFAULT_CHUNK_EVENTS,
    replay_batch,
    replay_sweep,
)
from repro.mem.explore import explore_cache_profiles
from repro.mem.profiler import replay
from repro.mem.trace import Access, MemoryTrace
from repro.power.system import default_cache_configs, evaluate_initial
from repro.tech.library import cmos6_library
from tests.mem.test_cache_batch import (
    assert_identical,
    assert_profiles_identical,
    fuzz_trace,
    reference_profiles,
    scalar_replay,
)

#: The bundled apps that model a memory system (ckey does not).
MEMORY_APPS = ("3d", "MPG", "digs", "engine", "trick")


def _run(image, app, trace, hw_blocks=None, engine="auto", record=None):
    sim = Simulator(image, cmos6_library(), trace=trace, hw_blocks=hw_blocks,
                    engine=engine)
    for name, values in app.globals_init.items():
        sim.set_global(name, values)
    return sim.run(*app.args, record=record)


@pytest.mark.parametrize("app_name", MEMORY_APPS)
def test_view_events_equal_the_reference_interpreter(app_name):
    """Plain and under the fuzz oracle's derived partition, the view's
    events are the reference interpreter's, event for event, and are
    :class:`Access` members (the scalar replay dispatches on identity)."""
    app = app_by_name(app_name)
    image = link_program(app.compile())
    record = ExecutionRecord()
    plain = MemoryTrace()
    _run(image, app, plain, record=record)
    assert plain._events is None
    partitioned = MemoryTrace()
    Simulator(image, cmos6_library(), trace=partitioned,
              hw_blocks=derived_partition(image)).price(record)
    for hw_blocks, view in ((None, plain),
                            (derived_partition(image), partitioned)):
        reference = MemoryTrace()
        _run(image, app, reference, hw_blocks=hw_blocks, engine="reference")
        counts = view.counts()
        assert len(view) == len(reference.events) == sum(counts)
        assert view._events is None
        events = view.events
        assert events == reference.events
        assert counts == reference.counts()
        assert {type(kind) for kind, _ in events} == {Access}
        del events, reference


def test_statistics_and_replays_build_no_event_list():
    """The cachesweep operation (trace-collecting initial run, the
    18-geometry sweep) and the profiler's replay read the view's arrays;
    they equal the same calls on the listed events."""
    library = cmos6_library()
    app = app_by_name("3d")
    run = evaluate_initial(link_program(app.compile()), library,
                           args=app.args, globals_init=app.globals_init,
                           icache_cfg=app.icache, dcache_cfg=app.dcache,
                           collect_trace=True)
    trace = run.stats.trace
    profiles = explore_cache_profiles(trace)
    icfg, dcfg = default_cache_configs()
    own = replay(trace, app.icache or icfg, app.dcache or dcfg)
    size, counts = len(trace), trace.counts()
    assert trace._events is None
    assert counts == run.stats.trace_counts == (
        run.stats.icache.reads, run.stats.dcache.reads,
        run.stats.dcache.writes)
    assert own.icache.snapshot() == run.stats.icache
    assert own.dcache.snapshot() == run.stats.dcache

    listed = MemoryTrace(events=list(trace.events))
    assert trace._events is not None
    assert len(listed) == size
    assert listed.counts() == counts
    assert_profiles_identical(profiles, explore_cache_profiles(listed))
    assert_profiles_identical([own], [replay(listed, own.icache_cfg,
                                             own.dcache_cfg)])


def test_pricing_into_a_trace_that_holds_events_appends():
    """A trace that already holds references lists the next run's."""
    app = app_by_name("3d")
    image = link_program(app.compile())
    trace = MemoryTrace()
    record = ExecutionRecord()
    _run(image, app, trace, record=record)
    first = len(trace)
    Simulator(image, cmos6_library(), trace=trace).price(record)
    assert len(trace) == 2 * first
    assert trace.events[first:] == trace.events[:first]


# ---------------------------------------------------------------------------
# replay_sweep's array shortcuts vs the scalar per-event replay
# ---------------------------------------------------------------------------

#: Pairs mixing 16-, 32- and 64-byte lines: the i-stream is cut to run
#: heads once per line size, and every i-cache must see its own cut.
MIXED_LINES = [
    (CacheConfig(1024, 16, 2, 8), CacheConfig(512, 32, 2, 8)),
    (CacheConfig(1024, 32, 1, 8), CacheConfig(512, 16, 1, 8)),
    (CacheConfig(2048, 64, 2, 8), CacheConfig(1024, 64, 4, 8)),
    (CacheConfig(256, 32, 4, 12), CacheConfig(256, 16, 2, 6)),
    (CacheConfig(128, 64, 1, 8), CacheConfig(2048, 32, 1, 8)),
]


@pytest.mark.parametrize("seed,count,chunks", [
    (0, 600, (1, 7, DEFAULT_CHUNK_EVENTS)),
    (1, 3000, (7, DEFAULT_CHUNK_EVENTS)),
])
def test_run_heads_equal_the_uncompressed_replay(seed, count, chunks):
    trace = fuzz_trace(seed, count)
    want = reference_profiles(trace, MIXED_LINES)
    for chunk in chunks:
        caches = replay_sweep(trace, MIXED_LINES, chunk_events=chunk)
        for (icache, dcache), profile in zip(caches, want):
            assert_identical(profile.icache, icache)
            assert_identical(profile.dcache, dcache)


def test_run_heads_of_a_long_sequential_fetch_stream():
    """Long same-line runs crossing chunk bounds: only heads replay."""
    events = []
    for start in (0x0, 0x400, 0x0, 0x7f0, 0x400):
        events += [(Access.IFETCH, start + 4 * i) for i in range(90)]
        events.append((Access.READ, 0x10000 + start))
    trace = MemoryTrace(events=events)
    want = reference_profiles(trace, MIXED_LINES)
    for chunk in (1, 5, 64, DEFAULT_CHUNK_EVENTS):
        caches = replay_sweep(trace, MIXED_LINES, chunk_events=chunk)
        for (icache, _dcache), profile in zip(caches, want):
            assert_identical(profile.icache, icache)


@pytest.mark.parametrize("num_sets,dtype", [(1 << 16, np.uint16),
                                            (1 << 17, np.uint32)])
def test_sort_dtype_boundary(num_sets, dtype):
    """Set indices sort in the narrowest unsigned dtype that holds them;
    the widest index of each dtype replays as the scalar loop does."""
    rng = random.Random(num_sets)
    for assoc in (1, 2):
        cfg = CacheConfig(num_sets * 16 * assoc, 16, assoc, 8)
        assert BatchCache(cfg)._sort_dtype == dtype
        span = 4 * cfg.size_bytes
        events = []
        for _ in range(4000):
            kind = rng.choice((Access.IFETCH, Access.READ, Access.WRITE))
            if rng.random() < 0.3:
                # The last and first sets, under several tags.
                line = rng.choice((num_sets - 1, 0)) \
                    + num_sets * rng.randrange(3)
                address = line * 16 + 4 * rng.randrange(4)
            else:
                address = rng.randrange(0, span, 4)
            events.append((kind, address))
        trace = MemoryTrace(events=events)
        ref_i, ref_d = scalar_replay(trace, cfg, cfg)
        icache, dcache = replay_batch(trace, cfg, cfg, chunk_events=997)
        assert_identical(ref_i, icache)
        assert_identical(ref_d, dcache)
