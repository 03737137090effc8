"""The content-keyed front half: one execution per program, priced anew.

``profile_app(..., fronts=memo)`` keeps a workload's compiled program,
image, complete execution record and profile under its content
(:func:`~repro.core.profile.workload_key`) and only prices the record at
any other technology node or cache geometry.  The memo is a
least-recently-used :class:`~repro.core.profile.BoundedMemo`, bounded
by entries and by the bytes of the kept execution records, which also
bounds the explore workers' sweep contexts.
"""

import dataclasses
from dataclasses import asdict

import pytest

from repro.apps import app_by_name
from repro.core import PartitionConfig, profile_app
from repro.core import explore
from repro.core.explore import AppPayload
from repro.core.profile import BoundedMemo, workload_key
from repro.mem.cache import CacheConfig
from repro.obs import Tracer, use_tracer
from repro.tech import cmos6_library, tech_by_name, tech_names


# ---------------------------------------------------------------------------
# The memo
# ---------------------------------------------------------------------------

def _memo(monkeypatch, entries=None, nbytes=None):
    """A memo with lowered bounds."""
    memo = BoundedMemo()
    if entries is not None:
        monkeypatch.setattr(memo, "_max_entries", entries)
    if nbytes is not None:
        monkeypatch.setattr(memo, "_max_bytes", nbytes)
    return memo


def test_bound_evicts_the_least_recently_used(monkeypatch):
    memo = _memo(monkeypatch, entries=2)
    memo.put("a", 1)
    memo.put("b", 2)
    assert memo.get("a") == 1  # refreshes "a": "b" is now the oldest
    memo.put("c", 3)
    assert len(memo) == 2
    assert memo.get("b") is None
    assert memo.get("a") == 1 and memo.get("c") == 3
    memo.put("a", 4)  # overwriting keeps the size
    assert len(memo) == 2 and memo.get("a") == 4


def test_byte_bound_evicts_the_least_recently_used(monkeypatch):
    memo = _memo(monkeypatch, nbytes=10)
    memo.put("a", 1, nbytes=4)
    memo.put("b", 2, nbytes=4)
    memo.put("c", 3, nbytes=4)  # 12 bytes: "a" goes
    assert memo.get("a") is None
    assert memo.get("b") == 2 and memo.get("c") == 3
    memo.put("b", 4, nbytes=1)  # overwriting releases the old size
    memo.put("d", 5, nbytes=5)
    assert len(memo) == 3
    memo.put("e", 6, nbytes=11)  # larger than the bound: not kept
    assert memo.get("e") is None
    assert len(memo) == 3
    memo.put("c", 7, nbytes=11)  # nor is an oversized overwrite
    assert memo.get("c") is None
    assert memo.get("b") == 4 and memo.get("d") == 5


# ---------------------------------------------------------------------------
# The key
# ---------------------------------------------------------------------------

def test_key_ignores_node_caches_and_config():
    app = app_by_name("digs")
    other = dataclasses.replace(
        app, icache=CacheConfig(size_bytes=4096, line_bytes=16,
                                associativity=4, miss_penalty=8),
        model_caches=False, config=PartitionConfig(n_max_clusters=1),
        description="elsewhere")
    assert workload_key(other) == workload_key(app)


@pytest.mark.parametrize("change", [
    {"name": "digs2"},
    {"optimize": True},
    {"source": app_by_name("digs").source + "\n"},
], ids=["name", "optimize", "source"])
def test_key_follows_the_program(change):
    app = app_by_name("digs")
    assert workload_key(dataclasses.replace(app, **change)) \
        != workload_key(app)


def test_key_follows_the_workload():
    assert workload_key(app_by_name("ckey", scale=2)) \
        != workload_key(app_by_name("ckey"))
    app = app_by_name("digs")
    name, values = next(iter(app.globals_init.items()))
    changed = dict(app.globals_init, **{name: [1] + list(values[1:])})
    assert workload_key(dataclasses.replace(app, globals_init=changed)) \
        != workload_key(app)
    assert workload_key(dataclasses.replace(app, args=(1,))) \
        != workload_key(app)


# ---------------------------------------------------------------------------
# profile_app on the memo
# ---------------------------------------------------------------------------

def test_hit_prices_the_kept_record_at_another_node():
    app = app_by_name("digs")
    memo = BoundedMemo()
    tracer = Tracer()
    nodes = [tech_by_name(name).library() for name in tech_names()]
    with use_tracer(tracer):
        shared = [profile_app(app, library, tracer, fronts=memo)
                  for library in nodes]
    assert tracer.counters["isa.executions"] == 1
    assert tracer.counters["explore.front.misses"] == 1
    assert tracer.counters["explore.front.hits"] == len(nodes) - 1
    for library, front in zip(nodes, shared):
        alone = profile_app(app, library)
        assert asdict(front.initial.sim) == asdict(alone.initial.sim)
        assert front.initial.energy == alone.initial.energy
        assert front.profile == alone.profile
        assert front.program is shared[0].program
        assert front.record is shared[0].record


def test_hit_prices_another_cache_geometry():
    app = app_by_name("digs")
    memo = BoundedMemo()
    profile_app(app, cmos6_library(), fronts=memo)
    resized = dataclasses.replace(
        app, dcache=CacheConfig(size_bytes=4096, line_bytes=32,
                                associativity=4, miss_penalty=8))
    tracer = Tracer()
    with use_tracer(tracer):
        hit = profile_app(resized, cmos6_library(), tracer, fronts=memo)
    assert "isa.executions" not in tracer.counters
    assert tracer.counters["explore.front.hits"] == 1
    alone = profile_app(resized, cmos6_library())
    assert asdict(hit.initial.sim) == asdict(alone.initial.sim)
    assert hit.initial.stats.dcache == alone.initial.stats.dcache
    assert hit.initial.energy == alone.initial.energy


def test_evicted_front_is_executed_again(monkeypatch):
    memo = _memo(monkeypatch, entries=1)
    tracer = Tracer()
    with use_tracer(tracer):
        for name in ("ckey", "digs", "ckey"):
            profile_app(app_by_name(name), cmos6_library(), tracer,
                        fronts=memo)
    assert tracer.counters["isa.executions"] == 3
    assert tracer.counters["explore.front.misses"] == 3
    assert len(memo) == 1


def test_records_past_the_byte_bound_are_not_kept(monkeypatch):
    small, large = app_by_name("ckey"), app_by_name("ckey", scale=4)
    memo = BoundedMemo()
    record = profile_app(small, cmos6_library(), fronts=memo).record
    # Room for the scale-1 record, not for the scale-4 one (4x longer).
    monkeypatch.setattr(memo, "_max_bytes", 2 * record.nbytes)
    tracer = Tracer()
    with use_tracer(tracer):
        scaled = [profile_app(large, library, tracer, fronts=memo)
                  for library in (cmos6_library(),
                                  tech_by_name("cmos6-45nm").library())]
        profile_app(small, cmos6_library(), tracer, fronts=memo)
    assert scaled[0].record.nbytes > 2 * record.nbytes
    assert tracer.counters["isa.executions"] == 2
    assert tracer.counters["explore.front.misses"] == 2
    assert tracer.counters["explore.front.hits"] == 1
    assert len(memo) == 1
    assert memo.get(workload_key(large)) is None


def test_trace_collecting_runs_use_the_memo():
    """A trace is a view of the priced record, so a trace-collecting run
    on a kept front half only prices it."""
    memo = BoundedMemo()
    app = app_by_name("digs")
    plain = profile_app(app, cmos6_library(), fronts=memo)
    tracer = Tracer()
    with use_tracer(tracer):
        traced = profile_app(app, cmos6_library(), tracer,
                             collect_trace=True, fronts=memo)
    assert "isa.executions" not in tracer.counters
    assert tracer.counters["explore.front.hits"] == 1
    assert plain.initial.stats.trace is None
    trace = traced.initial.stats.trace
    assert trace.counts() == traced.initial.stats.trace_counts == (
        plain.initial.stats.icache.reads, plain.initial.stats.dcache.reads,
        plain.initial.stats.dcache.writes)
    assert traced.initial.sim.cycles == plain.initial.sim.cycles


# ---------------------------------------------------------------------------
# Explore workers' sweep contexts
# ---------------------------------------------------------------------------

@pytest.fixture
def worker_memos(monkeypatch):
    """Fresh worker-side memos, as in a newly forked worker."""
    monkeypatch.setattr(explore, "_WORKER_FRONTS", BoundedMemo())
    monkeypatch.setattr(explore, "_WORKER_CONTEXTS", BoundedMemo())


def test_worker_executes_one_payload_once_at_five_nodes(worker_memos):
    payload = AppPayload.from_app(app_by_name("ckey"))
    config = PartitionConfig()
    tracer = Tracer()
    with use_tracer(tracer):
        contexts = [explore._get_sweep_context(
                        payload, tech_by_name(name).library(), config)
                    for name in tech_names()]
    assert len(contexts) == 5
    assert tracer.counters["isa.executions"] == 1
    assert len(explore._WORKER_CONTEXTS) == 5
    assert all(ctx.program is contexts[0].program for ctx in contexts)
    assert len({id(ctx.initial) for ctx in contexts}) == 5


def test_worker_contexts_evict_least_recently_used(worker_memos,
                                                   monkeypatch):
    monkeypatch.setattr(explore, "_WORKER_CONTEXTS",
                        _memo(monkeypatch, entries=2))
    payload = AppPayload.from_app(app_by_name("ckey"))
    config = PartitionConfig()
    a, b, c = (tech_by_name(name).library() for name in tech_names()[:3])
    tracer = Tracer()
    with use_tracer(tracer):
        ctx_a = explore._get_sweep_context(payload, a, config)
        ctx_b = explore._get_sweep_context(payload, b, config)
        assert explore._get_sweep_context(payload, a, config) is ctx_a
        ctx_c = explore._get_sweep_context(payload, c, config)  # evicts b
        assert explore._get_sweep_context(payload, a, config) is ctx_a
        assert explore._get_sweep_context(payload, c, config) is ctx_c
        rebuilt = explore._get_sweep_context(payload, b, config)
    assert rebuilt is not ctx_b
    assert len(explore._WORKER_CONTEXTS) == 2
    # The rebuild priced the kept front half: still one execution.
    assert tracer.counters["isa.executions"] == 1
