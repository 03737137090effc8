"""Concurrency soak: mixed clients over real HTTP, kill-and-recover.

The service-tier endurance tests: M client threads × K mixed requests
against one server must cost exactly one evaluation per unique digest
with every duplicate served the identical result; a saturated
server sheds fairly; and (slow tier) a SIGKILL with jobs still queued
must leave a journal from which the restarted server resolves every
pre-kill job id by polling alone.
"""

import signal
import subprocess
import threading
from pathlib import Path

import pytest

from repro.obs import Tracer
from repro.service import (
    JOB_JOURNAL_FILENAME,
    ServiceClient,
    ServiceCore,
    ServiceServer,
    build_request_payload,
    scan_job_journal,
)

from tests.service.conftest import spawn_server
from tests.service.test_server import serve_and_call


class HeldCore(ServiceCore):
    """A kernel whose evaluations wait until the test releases them.

    Lets a test hold every job pending for exactly as long as it needs,
    instead of betting that an evaluation outlasts a few HTTP round
    trips.
    """

    def __init__(self, release: threading.Event, **kwargs) -> None:
        super().__init__(**kwargs)
        self.release = release

    def evaluate(self, request, progress=None):
        assert self.release.wait(timeout=120), "test never released"
        return super().evaluate(request, progress)


class TestHttpSoak:
    def test_mixed_clients_coalesce_per_digest(self):
        """4 client threads × 4 workloads each (16 submissions, 4
        unique digests) over real HTTP against one server."""
        clients, spread = 4, 4
        tracer = Tracer("soak")
        server = ServiceServer(max_queue=64,
                               max_pending_per_client=32, tracer=tracer)

        def work(client):
            results = {}
            lock = threading.Lock()

            def one_client(name):
                for scale in range(1, spread + 1):
                    status, body, _ = client.submit(build_request_payload(
                        "ckey", scale=scale, client=name))
                    assert status == 202
                    with lock:
                        results.setdefault(body["id"], []).append(name)

            threads = [threading.Thread(target=one_client,
                                        args=(f"c{i}",))
                       for i in range(clients)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(results) == spread
            jobs = {job_id: client.wait(job_id, timeout_s=120)
                    for job_id in results}
            return jobs, client.metrics()

        jobs, metrics = serve_and_call(server, work, timeout_s=300)
        counters = metrics["counters"]
        assert counters["service.evaluations"] == spread, \
            "one evaluation per unique digest under mixed load"
        assert counters["service.jobs.submitted"] == spread
        assert counters["service.jobs.coalesced"] \
            == clients * spread - spread
        for job in jobs.values():
            assert job["state"] == "done"
            assert job["waiters"] == clients
            assert job["result"]["verified"] is True

    def test_saturation_sheds_fairly_over_http(self):
        release = threading.Event()
        server = ServiceServer(core=HeldCore(release), max_queue=8,
                               max_pending_per_client=1)

        def work(client):
            # Every job stays pending until all four POSTs are answered.
            try:
                flood = [client.submit(build_request_payload(
                    "ckey", scale=scale, client="flood"))
                    for scale in range(1, 4)]
                other = client.submit(build_request_payload(
                    "ckey", scale=9, client="other"))
            finally:
                release.set()
            return flood, other

        flood, other = serve_and_call(server, work, timeout_s=300)
        statuses = [status for status, _b, _h in flood]
        assert statuses[0] == 202
        assert statuses.count(429) == 2, \
            "the flooding client must be shed at its fairness bound"
        assert all(body["reason"] == "client"
                   for status, body, _h in flood if status == 429)
        assert other[0] == 202, "other clients must still be admitted"


#: ``repro serve`` whose every evaluation waits on an event nobody sets:
#: the server admits and journals jobs but never finishes one.
HELD_SERVE = f"""
import sys, threading
sys.path.insert(0, {str(Path(__file__).resolve().parents[2])!r})
import repro.service
from repro.cli import main
from tests.service.test_soak import HeldCore
release = threading.Event()
repro.service.ServiceCore = lambda **kwargs: HeldCore(release, **kwargs)
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.slow
def test_sigkill_mid_queue_jobs_resolve_after_restart(tmp_path):
    """The durable-jobs acceptance: SIGKILL with jobs still queued,
    restart, and every pre-kill job id resolves by polling alone."""
    checkpoint = tmp_path / "ckpt"
    # The first server holds its evaluations, so at the kill one job
    # sits in a held evaluation and the other two are queued.
    proc, port = spawn_server(tmp_path, "serve1.log",
                              checkpoint=checkpoint,
                              entry=("-c", HELD_SERVE))
    job_ids = []
    try:
        client = ServiceClient(port=port, timeout_s=30)
        for scale in (1, 2, 3):
            status, body, _ = client.submit(
                build_request_payload("ckey", scale=scale))
            assert status == 202
            job_ids.append(body["id"])
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=60)

    # One "submitted" record per job and no "finished" record: every
    # pre-kill job was still pending when the server died.
    scan = scan_job_journal(str(checkpoint / JOB_JOURNAL_FILENAME))
    assert scan["ok"] and scan["corrupt"] == 0 and scan["skipped"] == 0
    assert scan["records"] == len(job_ids)

    proc, port = spawn_server(tmp_path, "serve2.log",
                              checkpoint=checkpoint)
    try:
        client = ServiceClient(port=port, timeout_s=30)
        for job_id in job_ids:
            status, _job = client.job(job_id)
            assert status == 200, \
                f"pre-kill job {job_id} must be resurrected"
        for job_id in job_ids:
            job = client.wait(job_id, timeout_s=180)
            assert job["state"] == "done"
            assert job["result"]["verified"] is True
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:  # pragma: no cover - cleanup
            proc.kill()
            proc.wait(timeout=30)
