"""A program the server keeps is not executed again, whatever the node
or lane.

``ServiceCore`` hands one memo of executed front halves to every
per-node engine it builds and to every lane sibling it spawns.  A request
for a program the memo keeps only prices the kept execution record under
its own node, and its result must equal a fresh kernel's bit for bit.
"""

import json
import os
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core.explore import profile_digest, program_digest
from repro.core.profile import workload_key
from repro.obs import Tracer
from repro.service import PartitionRequest, ServiceCore
from repro.tech import REFERENCE_NODE, tech_names

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))
from capture_golden import FIXTURE_DIR, golden_view  # noqa: E402

#: Two bundled apps (one with caches modelled, one without) x every
#: node x both ``optimize`` values: 4 programs, 20 requests.
REQUESTS = [{"app": app, "optimize": optimize, "tech": tech}
            for app in ("ckey", "digs") for optimize in (False, True)
            for tech in tech_names()]


def _label(payload):
    return (payload["app"], payload["optimize"], payload["tech"])


def _wire(result):
    data = result.to_dict()
    data.pop("elapsed_s")
    return data


def _front(core, payload):
    app = PartitionRequest.from_dict(payload).to_app()
    return core.fronts.get(workload_key(app))


def _snapshot(front):
    record = front.record
    return (program_digest(front.program), profile_digest(front.profile),
            bytes(record.bseq), bytes(record.daddrs), list(record.taken),
            record.result)


@pytest.fixture(scope="module")
def fresh():
    """Every request on a kernel of its own: one execution each."""
    results = {}
    for payload in REQUESTS:
        with ServiceCore() as core:
            result = core.evaluate(PartitionRequest.from_dict(payload))
        results[_label(payload)] = (_wire(result), golden_view(result.flow))
    return results


@pytest.fixture(scope="module")
def shared():
    """Every request on one kernel: the reference node first (the four
    executions), then the other nodes (pricings of the kept records)."""
    tracer = Tracer("fronts")
    results = {}
    first = [p for p in REQUESTS if p["tech"] == REFERENCE_NODE]
    rest = [p for p in REQUESTS if p["tech"] != REFERENCE_NODE]
    with ServiceCore(tracer=tracer) as core:
        for payload in first:
            results[_label(payload)] = core.evaluate(
                PartitionRequest.from_dict(payload))
        before = {_label(p): _snapshot(_front(core, p)) for p in first}
        for payload in rest:
            results[_label(payload)] = core.evaluate(
                PartitionRequest.from_dict(payload))
        after = {_label(p): _snapshot(_front(core, p)) for p in first}
        fronts = {_label(p): _front(core, p) for p in REQUESTS}
    return tracer, results, before, after, fronts


def test_one_execution_per_distinct_program(shared):
    tracer, results, _before, _after, _fronts = shared
    counters = tracer.counters
    assert counters["service.evaluations"] == len(REQUESTS) == 20
    assert counters["isa.executions"] == 4
    assert counters["explore.front.misses"] == 4
    assert counters["explore.front.hits"] == 16


def test_results_equal_a_fresh_kernel(shared, fresh):
    _tracer, results, _before, _after, _fronts = shared
    for label, result in results.items():
        wire, golden = fresh[label]
        assert _wire(result) == wire, label
        assert golden_view(result.flow) == golden, label


def test_reference_results_equal_the_golden_fixtures(shared):
    _tracer, results, _before, _after, _fronts = shared
    for app in ("ckey", "digs"):
        want = json.loads((FIXTURE_DIR / f"{app}.json").read_text())
        assert golden_view(results[(app, False, REFERENCE_NODE)].flow) \
            == want


def test_hits_share_and_leave_the_front_half_unchanged(shared):
    _tracer, results, before, after, fronts = shared
    assert after == before
    for label, result in results.items():
        front = fronts[label]
        assert result.flow.program is front.program
        assert result.flow.image is front.image
        assert result.flow.profile is front.profile


def test_lane_siblings_share_fronts_under_thread_stress(fresh):
    """More lanes than cores, all starting at once on overlapping
    programs with a tiny switch interval: results stay bit-identical."""
    lanes = (os.cpu_count() or 1) + 2
    per_lane = 4
    deadline = time.monotonic() + 30.0
    tracer = Tracer("stress")
    primary = ServiceCore(tracer=tracer)
    cores = [primary] + [primary.spawn() for _ in range(lanes - 1)]
    start = threading.Barrier(lanes)
    mismatches, errors, done = [], [], []

    def lane(index, core):
        try:
            start.wait()
            offset = (3 * index) % len(REQUESTS)
            order = REQUESTS[offset:] + REQUESTS[:offset]
            for payload in order[:per_lane]:
                if time.monotonic() > deadline:
                    break
                result = core.evaluate(PartitionRequest.from_dict(payload))
                if _wire(result) != fresh[_label(payload)][0]:
                    mismatches.append(_label(payload))
                done.append(_label(payload))
        except Exception as exc:  # surfaced by the assertions below
            errors.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lane, args=(i, core))
                   for i, core in enumerate(cores)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for core in cores:
        core.close()
    assert not errors, errors
    assert not mismatches, mismatches
    assert len(done) >= lanes
    distinct = {(label[0], label[1]) for label in done}
    assert len(primary.fronts) == len(distinct)
    assert all(sibling.fronts is primary.fronts for sibling in cores)


def test_a_record_past_the_byte_bound_is_not_kept(monkeypatch):
    """A large-scale submission whose record exceeds the memo's byte
    bound is executed at every node and leaves nothing resident."""
    tracer = Tracer("bytes")
    with ServiceCore(tracer=tracer) as core:
        # Room for ckey's scale-1 record (38 KB), not for scale 4's.
        monkeypatch.setattr(core.fronts, "_max_bytes", 100_000)
        for scale, tech in ((4, "cmos6-800nm"), (4, "cmos6-45nm"),
                            (1, "cmos6-800nm"), (1, "cmos6-45nm")):
            core.evaluate(PartitionRequest.from_dict(
                {"app": "ckey", "scale": scale, "tech": tech}))
        assert len(core.fronts) == 1
    assert tracer.counters["isa.executions"] == 3
    assert tracer.counters["explore.front.hits"] == 1
