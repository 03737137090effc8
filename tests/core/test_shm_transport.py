"""Zero-copy shared-memory result transport for exploration workers.

Large worker results ride a shared-memory segment back to the engine
(only a tiny ticket crosses the executor pipe); the transport must be
invisible in every observable — decisions, counters merged from
workers, cache contents — and must never leak segments.
"""

import os

from repro.apps import app_by_name
from repro.core.explore import (
    ExplorationEngine,
    SHM_MIN_RESULT_BYTES,
    _ShmResult,
    _pack_result,
    _unpack_result,
)
from repro.obs import Tracer


def _decision_fingerprint(report):
    decision = report.decision
    best = decision.best
    return (
        None if best is None else (best.cluster.name,
                                   best.resource_set.name,
                                   best.objective),
        tuple(sorted((c.cluster.name, c.resource_set.name, c.objective)
                     for c in decision.candidates)),
        tuple(sorted(decision.rejections)),
    )


def _shm_segments():
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:  # pragma: no cover - non-POSIX
        return set()


# ---------------------------------------------------------------------------
# Pack/unpack round-trip (no workers involved)
# ---------------------------------------------------------------------------

def test_pack_result_below_threshold_passes_through():
    payload = ("pair", "outcome", {}, 0.1, None)
    assert _pack_result(payload, SHM_MIN_RESULT_BYTES) is payload


def test_pack_result_disabled_passes_through():
    payload = ("x",) * 10000
    assert _pack_result(payload, None) is payload


def test_pack_unpack_round_trip_and_counters():
    payload = {"big": list(range(5000)), "label": "result"}
    before = _shm_segments()
    ticket = _pack_result(payload, 1)
    assert isinstance(ticket, _ShmResult)
    assert ticket.size > 0
    tracer = Tracer()
    restored = _unpack_result(ticket, tracer)
    assert restored == payload
    assert tracer.counters["explore.shm.results"] == 1
    assert tracer.counters["explore.shm.bytes"] == ticket.size
    # the segment is unlinked after redemption — nothing left behind
    assert _shm_segments() - before == set()


def test_unpack_passes_plain_results_through():
    tracer = Tracer()
    payload = ("plain",)
    assert _unpack_result(payload, tracer) is payload
    assert "explore.shm.results" not in tracer.counters


# ---------------------------------------------------------------------------
# Engine integration
# ---------------------------------------------------------------------------

def test_shm_transport_decision_identical_to_serial():
    with ExplorationEngine(jobs=1) as engine:
        serial = engine.explore(app_by_name("ckey"))
    before = _shm_segments()
    tracer = Tracer()
    with ExplorationEngine(jobs=2, tracer=tracer) as engine:
        engine._shm_threshold = 1  # force every result through a segment
        parallel = engine.explore(app_by_name("ckey"))
    assert _decision_fingerprint(parallel) == _decision_fingerprint(serial)
    assert tracer.counters["explore.shm.results"] > 0
    assert tracer.counters["explore.shm.bytes"] > 0
    # worker counters still merge through the ticketed results
    assert tracer.counters.get("explore.evaluated", 0) > 0
    assert _shm_segments() - before == set()
