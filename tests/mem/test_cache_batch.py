"""Differential suite: batched cache kernel vs the scalar reference.

Every test drives the same trace through the scalar ``Cache.access``
loop and the batched kernel and requires **bit-identical** results:
every independently counted :class:`CacheStats` field, the derived
stall/memory-traffic numbers and the final MRU tag-store state
(``set_contents()``); tests that drive :class:`BatchCache` directly also
require the stream positions of its read misses.  The ``closed_form``
axis runs each case twice: with the kernel's default
dispatch (the closed form takes read-only streams of 1-2-way caches)
and with the general run loop forced onto every stream.  The one-pass
geometry sweep (``replay_sweep``, behind ``profile_configs``) is held to
the same contract against a per-pair reference replay.
"""

import dataclasses
import random

import numpy as np
import pytest

from repro.mem.cache import Cache, CacheConfig
from repro.mem.cache_batch import (
    BatchCache,
    DEFAULT_CHUNK_EVENTS,
    replay_batch,
    replay_sweep,
)
from repro.mem.explore import default_search_space, explore_cache_profiles
from repro.mem.profiler import (
    MEM_ENGINES,
    CacheProfile,
    profile_configs,
    replay,
)
from repro.mem.trace import Access, MemoryTrace
from repro.obs import Tracer, use_tracer

CLOSED_FORM = [False, True]

#: The fuzz oracle's cache geometries (repro.fuzz CACHE_GEOMETRIES)
#: plus degenerate shapes: two-set and single-set caches stress the
#: chunk-boundary carried-state fixups hardest.
GEOMETRIES = [
    (CacheConfig(2048, 16, 2, 8), CacheConfig(1024, 16, 2, 8)),
    (CacheConfig(512, 16, 1, 6), CacheConfig(256, 16, 1, 6)),
    (CacheConfig(256, 8, 4, 12), CacheConfig(128, 8, 4, 12)),
    (CacheConfig(64, 16, 2, 8), CacheConfig(32, 16, 2, 8)),
    (CacheConfig(16, 16, 1, 8), CacheConfig(64, 16, 4, 8)),
]


#: Sweep spaces beyond the default one: repeated pairs, pairs sharing
#: only their i-cache or only their d-cache, and one geometry serving as
#: both the i-cache and the d-cache (the streams must stay separate).
SPACES = {
    "default": default_search_space(),
    "repeated": [GEOMETRIES[0], GEOMETRIES[1], GEOMETRIES[0],
                 GEOMETRIES[2], GEOMETRIES[0]],
    "shared-i": [(GEOMETRIES[0][0], dcfg) for _, dcfg in GEOMETRIES],
    "shared-d": [(icfg, GEOMETRIES[0][1]) for icfg, _ in GEOMETRIES],
    "crossed": [(GEOMETRIES[0][0], GEOMETRIES[0][0]),
                (GEOMETRIES[0][1], GEOMETRIES[0][0]),
                (GEOMETRIES[0][0], GEOMETRIES[0][1])],
}


def scalar_replay(trace, icfg, dcfg):
    """The reference model: one Cache.access per event."""
    icache, dcache = Cache(icfg, "icache"), Cache(dcfg, "dcache")
    for kind, address in trace:
        if kind is Access.IFETCH:
            icache.access(address)
        elif kind is Access.READ:
            dcache.access(address)
        else:
            dcache.access(address, is_write=True)
    return icache, dcache


def assert_identical(reference, batched):
    assert batched.snapshot() == reference.snapshot()
    assert batched.set_contents() == reference.set_contents()


def assert_profiles_identical(got, want):
    """Field for field: configs, both caches (counters and tag store),
    stalls and memory traffic."""
    assert len(got) == len(want)
    for got_profile, want_profile in zip(got, want):
        for field in dataclasses.fields(CacheProfile):
            value = getattr(got_profile, field.name)
            expected = getattr(want_profile, field.name)
            if isinstance(expected, Cache):
                assert_identical(expected, value)
            else:
                assert value == expected, field.name


def reference_profiles(trace, space):
    """The oracle: an independent scalar replay per pair."""
    return [replay(trace, icfg, dcfg, engine="reference")
            for icfg, dcfg in space]


def use_kernel(closed_form, monkeypatch):
    """Without ``closed_form``, route every stream through the run loop."""
    if not closed_form:
        monkeypatch.setattr(
            BatchCache, "_consume_read_runs_lru2",
            lambda self, sets, tags: self._consume_runs(sets, tags, None))


def sweep_profiles(trace, space, closed_form, monkeypatch):
    """``profile_configs`` on the batched engine."""
    use_kernel(closed_form, monkeypatch)
    return profile_configs(trace, space, engine="batch")


def scalar_read_misses(events, cfg, cache=None):
    """Stream positions of the read misses of a scalar replay."""
    cache = cache or Cache(cfg)
    return [i for i, (address, is_write) in enumerate(events)
            if not cache.access(address, is_write) and not is_write]


def fuzz_trace(seed, count, kinds=(Access.IFETCH,) * 4 + (Access.READ,) * 2
               + (Access.WRITE,)):
    """A seeded trace mixing loop-like locality with random conflicts."""
    rng = random.Random(seed)
    events = []
    pc = 0
    for _ in range(count):
        kind = rng.choice(kinds)
        if kind is Access.IFETCH and rng.random() < 0.8:
            # mostly sequential fetch with occasional branches
            pc = (pc + 4) & 0xFFFC if rng.random() < 0.9 else \
                rng.randrange(0, 0x4000) & 0xFFFC
            address = pc
        else:
            base = rng.choice([0, 0x400, 0x10000])
            span = rng.choice([64, 2048, 65536])
            address = (base + rng.randrange(0, span)) & 0xFFFFFC
        events.append((kind, address))
    return MemoryTrace(events=events)


# ---------------------------------------------------------------------------
# Differential: fuzz traces x geometries x chunk boundaries x engines
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("closed_form", CLOSED_FORM)
@pytest.mark.parametrize("geometry", range(len(GEOMETRIES)))
def test_fuzz_traces_bit_identical(geometry, closed_form, monkeypatch):
    use_kernel(closed_form, monkeypatch)
    icfg, dcfg = GEOMETRIES[geometry]
    for seed in range(3):
        trace = fuzz_trace(seed, 4000)
        ref_i, ref_d = scalar_replay(trace, icfg, dcfg)
        for chunk in (1, 7, 997, DEFAULT_CHUNK_EVENTS):
            icache, dcache = replay_batch(trace, icfg, dcfg,
                                          chunk_events=chunk)
            assert_identical(ref_i, icache)
            assert_identical(ref_d, dcache)


@pytest.mark.parametrize("closed_form", CLOSED_FORM)
@pytest.mark.parametrize("geometry", range(len(GEOMETRIES)))
def test_read_miss_positions_match_scalar(geometry, closed_form,
                                          monkeypatch):
    """Each chunk reports exactly the positions where a scalar replay
    of the same stream read-missed, for int32 and int64 streams."""
    use_kernel(closed_form, monkeypatch)
    for cfg in GEOMETRIES[geometry]:
        for seed, kinds in ((0, (Access.IFETCH,)),
                            (1, (Access.READ,) * 3 + (Access.WRITE,))):
            trace = fuzz_trace(seed, 1500, kinds=kinds)
            events = [(address, kind is Access.WRITE)
                      for kind, address in trace]
            want = scalar_read_misses(events, cfg)
            for dtype in (np.int32, np.int64):
                for chunk in (1, 13, 500, len(events)):
                    batch = BatchCache(cfg)
                    got = []
                    for start in range(0, len(events), chunk):
                        part = events[start:start + chunk]
                        addresses = np.array([a for a, _ in part],
                                             dtype=dtype)
                        writes = np.array([w for _, w in part], dtype=bool)
                        missed = batch.consume_vector(
                            addresses, writes if writes.any() else None)
                        assert list(missed) == sorted(missed)
                        got.extend(start + int(i) for i in missed)
                    assert got == want


@pytest.mark.parametrize("geometry", range(len(GEOMETRIES)))
def test_warm_start_continues_the_cache(geometry):
    """``from_cache`` + ``finish(cache)`` equals more scalar accesses on
    the same (already warm) Cache object, counters and tag store."""
    for cfg in GEOMETRIES[geometry]:
        head = [(address, kind is Access.WRITE)
                for kind, address in fuzz_trace(3, 700)]
        tail = [(address, kind is Access.WRITE)
                for kind, address in fuzz_trace(4, 700)]
        reference, warm = Cache(cfg), Cache(cfg)
        for address, is_write in head:
            reference.access(address, is_write)
            warm.access(address, is_write)
        want = scalar_read_misses(tail, cfg, reference)
        batch = BatchCache.from_cache(warm)
        missed = batch.consume_vector(
            np.array([a for a, _ in tail], dtype=np.int64),
            np.array([w for _, w in tail], dtype=bool))
        assert batch.finish(warm) is warm
        assert missed.tolist() == want
        assert_identical(reference, warm)


@pytest.mark.parametrize("closed_form", CLOSED_FORM)
@pytest.mark.parametrize("space", sorted(SPACES))
def test_sweep_bit_identical_to_per_pair_reference(space, closed_form,
                                                   monkeypatch):
    """One pass over the whole space equals a reference replay per pair,
    at every chunk size, with each distinct cache replayed once."""
    pairs = SPACES[space]
    # Chunks of 1 cost one numpy call per event per cache: short trace.
    for seed, count, chunks in ((0, 600, (1, 7, DEFAULT_CHUNK_EVENTS)),
                                (1, 3000, (7, DEFAULT_CHUNK_EVENTS))):
        trace = fuzz_trace(seed, count)
        want = reference_profiles(trace, pairs)
        for chunk in chunks:
            tracer = Tracer()
            with use_tracer(tracer):
                use_kernel(closed_form, monkeypatch)
                caches = replay_sweep(trace, pairs, chunk_events=chunk)
            assert len(caches) == len(pairs)
            for (icache, dcache), profile in zip(caches, want):
                assert_identical(profile.icache, icache)
                assert_identical(profile.dcache, dcache)
            distinct = (len({icfg for icfg, _ in pairs})
                        + len({dcfg for _, dcfg in pairs}))
            assert tracer.counters["mem.batch.caches"] == distinct
            assert tracer.counters["mem.batch.replays"] == 1
            assert tracer.counters["mem.batch.events"] == count
        assert_profiles_identical(
            sweep_profiles(trace, pairs, closed_form, monkeypatch), want)


@pytest.mark.parametrize("closed_form", CLOSED_FORM)
@pytest.mark.parametrize("space", ["repeated", "shared-i", "crossed"])
def test_sweep_profiles_share_no_cache(space, closed_form, monkeypatch):
    """Accessing one profile's caches leaves every other profile with the
    same geometry unchanged: each profile owns its Cache objects."""
    trace = fuzz_trace(4, 800)
    profiles = sweep_profiles(trace, SPACES[space], closed_form,
                              monkeypatch)
    caches = [cache for p in profiles for cache in (p.icache, p.dcache)]
    assert len({id(cache) for cache in caches}) == len(caches)
    before = [(c.snapshot(), c.set_contents()) for c in caches]
    touched = profiles[0]
    for address in range(0, 1 << 16, 0x40):  # misses and fills galore
        touched.icache.access(address)
        touched.dcache.access(address)
    for cache, (stats, contents) in zip(caches, before):
        if cache is touched.icache or cache is touched.dcache:
            assert (cache.snapshot(), cache.set_contents()) != (stats,
                                                                contents)
        else:
            assert cache.snapshot() == stats
            assert cache.set_contents() == contents


@pytest.mark.parametrize("closed_form", CLOSED_FORM)
def test_empty_space(closed_form, monkeypatch):
    use_kernel(closed_form, monkeypatch)
    trace = fuzz_trace(2, 50)
    tracer = Tracer()
    with use_tracer(tracer):
        assert replay_sweep(trace, []) == []
        for engine in MEM_ENGINES:
            assert profile_configs(trace, [], engine=engine) == []
            assert explore_cache_profiles(trace, space=[],
                                          engine=engine) == []
    assert not any(name.startswith("mem.batch") for name in tracer.counters)


@pytest.mark.parametrize("closed_form", CLOSED_FORM)
def test_chunk_boundary_edge_cases(closed_form, monkeypatch):
    use_kernel(closed_form, monkeypatch)
    icfg, dcfg = GEOMETRIES[0]
    trace = fuzz_trace(42, 100)
    ref_i, ref_d = scalar_replay(trace, icfg, dcfg)
    # chunk size 1, chunk exactly the trace, chunk larger than the trace
    for chunk in (1, len(trace), len(trace) + 13, 10 ** 9):
        icache, dcache = replay_batch(trace, icfg, dcfg, chunk_events=chunk)
        assert_identical(ref_i, icache)
        assert_identical(ref_d, dcache)


@pytest.mark.parametrize("closed_form", CLOSED_FORM)
def test_empty_trace(closed_form, monkeypatch):
    use_kernel(closed_form, monkeypatch)
    icfg, dcfg = GEOMETRIES[0]
    icache, dcache = replay_batch(MemoryTrace(), icfg, dcfg)
    assert icache.accesses == 0 and dcache.accesses == 0
    assert icache.set_contents() == Cache(icfg).set_contents()


@pytest.mark.parametrize("closed_form", CLOSED_FORM)
@pytest.mark.parametrize("kinds", [
    (Access.IFETCH,),            # read-only i-stream (vector fast path)
    (Access.READ,),              # read-only d-stream
    (Access.WRITE,),             # write-only (no-write-allocate only)
    (Access.READ, Access.WRITE),
])
def test_single_kind_streams(kinds, closed_form, monkeypatch):
    use_kernel(closed_form, monkeypatch)
    for icfg, dcfg in GEOMETRIES[:3]:
        trace = fuzz_trace(7, 1500, kinds=kinds)
        ref_i, ref_d = scalar_replay(trace, icfg, dcfg)
        icache, dcache = replay_batch(trace, icfg, dcfg, chunk_events=64)
        assert_identical(ref_i, icache)
        assert_identical(ref_d, dcache)


@pytest.mark.parametrize("assoc,size", [(1, 32), (2, 64)])
def test_carried_state_across_chunks_lru2(assoc, size):
    """Adversarial cross-chunk sequences for the closed-form read path.

    Tiny caches (1-2 sets) with chunk sizes 1..8 force every run to
    interact with carried per-set state, including the tricky case
    where a chunk's first run hits the carried MRU and the second run
    must then hit the carried LRU.
    """
    cfg = CacheConfig(size, 16, assoc, 8)
    lines = [0x000, 0x010, 0x020, 0x030, 0x100, 0x110]
    rng = random.Random(assoc)
    for trial in range(20):
        events = [(Access.IFETCH, rng.choice(lines) + 4 * rng.randrange(4))
                  for _ in range(40)]
        # Explicit MRU-hit-then-LRU-hit pattern at every boundary parity:
        events += [(Access.IFETCH, a) for a in
                   (0x000, 0x010, 0x000, 0x000, 0x010, 0x020, 0x010, 0x020)]
        trace = MemoryTrace(events=events)
        reference = Cache(cfg)
        want = scalar_read_misses([(a, False) for _, a in trace], cfg,
                                  reference)
        for chunk in range(1, 9):
            batch = BatchCache(cfg)
            got = []
            for start in range(0, len(events), chunk):
                addresses = np.array(
                    [a for _, a in events[start:start + chunk]],
                    dtype=np.int64)
                got.extend(start + int(i)
                           for i in batch.consume_vector(addresses))
            assert_identical(reference, batch.finish())
            assert got == want


def test_golden_digs_trace_bit_identical(digs_trace):
    """The batched kernel reproduces a real application's golden trace."""
    icfg, dcfg = CacheConfig(2048, 16, 2, 8), CacheConfig(1024, 16, 2, 8)
    reference = replay(digs_trace, icfg, dcfg, engine="reference")
    icache, dcache = replay_batch(digs_trace, icfg, dcfg)
    assert_identical(reference.icache, icache)
    assert_identical(reference.dcache, dcache)


@pytest.mark.parametrize("closed_form", CLOSED_FORM)
@pytest.mark.parametrize("app_name", ["3d", "digs"])
def test_golden_traces_default_space_bit_identical(app_name, closed_form,
                                                   golden_traces,
                                                   golden_references,
                                                   monkeypatch):
    """A real application's trace, swept over the default space in one
    pass, equals a reference replay per pair field for field."""
    assert_profiles_identical(
        sweep_profiles(golden_traces[app_name], SPACES["default"],
                       closed_form, monkeypatch),
        golden_references[app_name])


@pytest.fixture(scope="module")
def golden_traces():
    from repro.apps import app_by_name
    from repro.isa.image import link_program
    from repro.power.system import evaluate_initial
    from repro.tech.library import cmos6_library

    traces = {}
    for name in ("3d", "digs"):
        app = app_by_name(name)
        run = evaluate_initial(link_program(app.compile()), cmos6_library(),
                               args=app.args, globals_init=app.globals_init,
                               collect_trace=True)
        traces[name] = run.stats.trace
    return traces


@pytest.fixture(scope="module")
def digs_trace(golden_traces):
    return golden_traces["digs"]


@pytest.fixture(scope="module")
def golden_references(golden_traces):
    """Per-pair reference profiles over the default space, computed once
    for both kernel dispatches."""
    return {name: reference_profiles(trace, SPACES["default"])
            for name, trace in golden_traces.items()}


# ---------------------------------------------------------------------------
# Profiler engine selector
# ---------------------------------------------------------------------------

def test_replay_engines_identical():
    icfg, dcfg = GEOMETRIES[0]
    trace = fuzz_trace(3, 3000)
    reference = replay(trace, icfg, dcfg, engine="reference")
    for engine in ("auto", "batch"):
        profile = replay(trace, icfg, dcfg, engine=engine)
        assert_identical(reference.icache, profile.icache)
        assert_identical(reference.dcache, profile.dcache)
        assert profile.stall_cycles == reference.stall_cycles
        assert profile.memory_word_reads == reference.memory_word_reads
        assert profile.memory_word_writes == reference.memory_word_writes


def test_replay_rejects_unknown_engine():
    with pytest.raises(ValueError, match="unknown engine"):
        replay(MemoryTrace(), GEOMETRIES[0][0], GEOMETRIES[0][1],
               engine="warp")
    assert MEM_ENGINES == ("auto", "batch", "reference")


def test_unknown_engine_rejected_even_for_an_empty_space():
    with pytest.raises(ValueError, match="unknown engine"):
        profile_configs(MemoryTrace(), [], engine="bogus")
    with pytest.raises(ValueError, match="unknown engine"):
        explore_cache_profiles(MemoryTrace(), space=[], engine="bogus")


def test_profile_configs_engine_passthrough():
    trace = fuzz_trace(9, 800)
    space = GEOMETRIES[:2]
    batched = profile_configs(trace, space, engine="batch")
    reference = profile_configs(trace, space, engine="reference")
    for got, want in zip(batched, reference):
        assert got.icache.snapshot() == want.icache.snapshot()
        assert got.dcache.snapshot() == want.dcache.snapshot()
        assert got.stall_cycles == want.stall_cycles


def test_explore_cache_profiles_sweep():
    trace = fuzz_trace(11, 500)
    profiles = explore_cache_profiles(trace)
    assert len(profiles) == len(default_search_space())
    reference = explore_cache_profiles(trace, engine="reference")
    for got, want in zip(profiles, reference):
        assert got.icache.snapshot() == want.icache.snapshot()
        assert got.stall_cycles == want.stall_cycles


# ---------------------------------------------------------------------------
# Argument checks and observability
# ---------------------------------------------------------------------------

def test_replay_batch_rejects_bad_chunk():
    with pytest.raises(ValueError, match="chunk_events"):
        replay_batch(MemoryTrace(), GEOMETRIES[0][0], GEOMETRIES[0][1],
                     chunk_events=0)


def test_counters_emitted():
    tracer = Tracer()
    trace = fuzz_trace(5, 100)
    with use_tracer(tracer):
        replay_batch(trace, *GEOMETRIES[0], chunk_events=30)
    assert tracer.counters["mem.batch.replays"] == 1
    assert tracer.counters["mem.batch.caches"] == 2
    assert tracer.counters["mem.batch.chunks"] == 4
    assert tracer.counters["mem.batch.events"] == 100


@pytest.mark.parametrize("engine", MEM_ENGINES)
def test_sweep_counters_and_span(engine):
    """Counters are per sweep: the default space's 18 pairs are one
    replay of 12 distinct caches over the trace, timed by one mem.replay
    span; the reference engine replays per pair and counts nothing."""
    tracer = Tracer()
    trace = fuzz_trace(5, 100)
    with use_tracer(tracer):
        explore_cache_profiles(trace, engine=engine)
    span = tracer.root.children["mem.replay"]
    assert span.calls == 1 and not span.children
    counters = dict(tracer.counters)
    if engine == "reference":
        assert counters == {}
    else:
        assert counters == {"mem.batch.replays": 1, "mem.batch.caches": 12,
                            "mem.batch.chunks": 1, "mem.batch.events": 100}
