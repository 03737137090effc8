"""HTTP surface and the end-to-end coalescing acceptance criterion.

Routing, error mapping and backpressure are unit-tested through the
server's synchronous ``_route`` dispatcher (no sockets needed); the
acceptance tests then run a real asyncio server on an OS-assigned port
and prove over the wire that N concurrent identical submissions produce
exactly one underlying evaluation whose result is bit-identical to the
``repro run`` CLI path.
"""

import asyncio
import json
import threading

import pytest

from repro.cli import main
from repro.obs import Tracer
from repro.service import (
    ServiceClient,
    ServiceServer,
    build_request_payload,
)


def route(server, method, path, payload=None):
    body = json.dumps(payload).encode() if payload is not None else b""
    return server._route(method, path, body)


# ---------------------------------------------------------------------------
# Routing and error mapping (no sockets)
# ---------------------------------------------------------------------------

class TestRouting:
    def test_healthz_reports_schema(self):
        server = ServiceServer()
        status, body, _headers = route(server, "GET", "/v1/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["schema"] == "repro-service"
        assert body["version"] == 3
        assert set(body) == {"status", "schema", "version", "uptime_s"}

    def test_unknown_route_is_404(self):
        server = ServiceServer(tracer=Tracer("srv"))
        status, body, _ = route(server, "GET", "/v1/nonsense")
        assert status == 404
        assert "no route" in body["error"]
        assert server.tracer.counters["service.http.errors"] == 1

    def test_wrong_method_is_405(self):
        server = ServiceServer()
        assert route(server, "DELETE", "/v1/jobs")[0] == 405
        assert route(server, "POST", "/v1/jobs/j123")[0] == 405

    def test_malformed_json_is_400(self):
        server = ServiceServer()
        status, body, _ = server._route("POST", "/v1/jobs", b"{nope")
        assert status == 400
        assert "not valid JSON" in body["error"]

    def test_validation_error_is_400_naming_the_field(self):
        server = ServiceServer()
        status, body, _ = route(server, "POST", "/v1/jobs",
                                {"app": "no-such-app"})
        assert status == 400
        assert body["field"] == "app"
        assert "no-such-app" in body["error"]

    def test_unknown_job_is_404(self):
        server = ServiceServer()
        status, body, _ = route(server, "GET", "/v1/jobs/jdeadbeef")
        assert status == 404

    def test_submission_returns_202_descriptor(self):
        server = ServiceServer()
        status, body, _ = route(server, "POST", "/v1/jobs",
                                build_request_payload("ckey"))
        assert status == 202
        assert body["state"] == "queued"
        assert body["created"] is True
        assert body["id"].startswith("j")
        # identical resubmission: same id, not created, a second waiter
        status, again, _ = route(server, "POST", "/v1/jobs",
                                 build_request_payload("ckey"))
        assert status == 202
        assert again["id"] == body["id"]
        assert again["created"] is False
        assert again["waiters"] == 2

    def test_job_listing_omits_results(self):
        server = ServiceServer()
        route(server, "POST", "/v1/jobs", build_request_payload("ckey"))
        status, body, _ = route(server, "GET", "/v1/jobs")
        assert status == 200
        assert len(body["jobs"]) == 1
        assert body["jobs"][0]["result"] is None

    def test_backpressure_is_429_with_retry_after(self):
        # The manager's worker is not running, so queued jobs never
        # drain: the second distinct request overflows max_queue=1.
        server = ServiceServer(max_queue=1, max_pending_per_client=8,
                               tracer=Tracer("srv"))
        assert route(server, "POST", "/v1/jobs",
                     build_request_payload("ckey"))[0] == 202
        status, body, headers = route(
            server, "POST", "/v1/jobs",
            build_request_payload("ckey", scale=2))
        assert status == 429
        assert body["reason"] == "queue"
        assert headers["Retry-After"] == str(body["retry_after_s"])
        assert body["retry_after_s"] >= 1
        assert server.tracer.counters["service.rejected.queue"] == 1

    def test_per_client_fairness_is_429(self):
        server = ServiceServer(max_queue=8, max_pending_per_client=1)
        assert route(server, "POST", "/v1/jobs",
                     build_request_payload("ckey", client="flood"))[0] \
            == 202
        status, body, _ = route(
            server, "POST", "/v1/jobs",
            build_request_payload("ckey", scale=2, client="flood"))
        assert status == 429
        assert body["reason"] == "client"

    def test_metrics_shape(self):
        server = ServiceServer(tracer=Tracer("srv"))
        route(server, "POST", "/v1/jobs", build_request_payload("ckey"))
        status, body, _ = route(server, "GET", "/v1/metrics")
        assert status == 200
        assert body["schema"] == "repro-service"
        assert body["counters"]["service.jobs.submitted"] == 1
        assert set(body["cache"]) == {"entries", "hits", "misses",
                                      "evictions", "hit_rate"}
        assert body["jobs"]["states"]["queued"] == 1

    def test_events_route_unknown_job_is_404(self):
        server = ServiceServer()
        status, body, _ = route(server, "GET",
                                "/v1/jobs/jdeadbeef/events")
        assert status == 404
        assert "jdeadbeef" in body["error"]

    def test_events_route_wrong_method_is_405(self):
        server = ServiceServer()
        assert route(server, "POST", "/v1/jobs/j123/events")[0] == 405

    def test_events_path_parser(self):
        parse = ServiceServer._events_path_job
        assert parse("GET", "/v1/jobs/j123/events") == "j123"
        assert parse("POST", "/v1/jobs/j123/events") is None
        assert parse("GET", "/v1/jobs//events") is None
        assert parse("GET", "/v1/jobs/a/b/events") is None
        assert parse("GET", "/v1/jobs/j123") is None

    def test_default_tech_flows_into_requests(self):
        server = ServiceServer(default_tech="cmos6-45nm")
        status, body, _ = route(server, "POST", "/v1/jobs",
                                build_request_payload("ckey"))
        assert status == 202
        assert body["tech"] == "cmos6-45nm"


# ---------------------------------------------------------------------------
# End-to-end over real sockets
# ---------------------------------------------------------------------------

def serve_and_call(server, work, timeout_s=120.0):
    """Start ``server`` on an OS port, run ``work(client)`` in a thread."""

    async def scenario():
        await server.start()
        client = ServiceClient(port=server.port)
        try:
            return await asyncio.wait_for(
                asyncio.get_running_loop().run_in_executor(
                    None, work, client),
                timeout_s)
        finally:
            await server.close()

    return asyncio.run(scenario())


class TestEndToEnd:
    def test_concurrent_identical_posts_coalesce_to_one_evaluation(
            self, capsys):
        """The tentpole acceptance: N identical concurrent POSTs -> one
        job, one underlying evaluation, every waiter served the same
        verify-gated result, bit-identical to the CLI path."""
        assert main(["run", "ckey"]) == 0
        cli_stdout = capsys.readouterr().out

        fan_out = 6
        tracer = Tracer("e2e")
        server = ServiceServer(tracer=tracer)

        def work(client):
            responses = [None] * fan_out
            def post(index):
                responses[index] = client.submit(
                    build_request_payload("ckey", client=f"c{index}"))
            threads = [threading.Thread(target=post, args=(i,))
                       for i in range(fan_out)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            job_ids = {body["id"] for _status, body, _h in responses}
            assert all(status == 202 for status, _b, _h in responses)
            assert len(job_ids) == 1, "identical requests must coalesce"
            job = client.wait(job_ids.pop(), timeout_s=60)
            metrics = client.metrics()
            return job, metrics

        job, metrics = serve_and_call(server, work)
        assert job["state"] == "done"
        assert job["waiters"] == fan_out
        counters = metrics["counters"]
        assert counters["service.jobs.submitted"] == 1
        assert counters["service.jobs.coalesced"] == fan_out - 1
        assert counters["service.evaluations"] == 1, \
            "N identical submissions must cost exactly one evaluation"
        # served result == CLI output, and it passed the verify gate
        result = job["result"]
        assert result["verified"] is True
        assert result["summary"] + "\n" == cli_stdout

    def test_finished_job_resubmission_serves_cached_result(self):
        server = ServiceServer()

        def work(client):
            status, body, _ = client.submit(build_request_payload("ckey"))
            job = client.wait(body["id"], timeout_s=60)
            # resubmit after completion: the 202 carries the result
            status, again, _ = client.submit(build_request_payload("ckey"))
            return job, status, again

        job, status, again = serve_and_call(server, work)
        assert status == 202
        assert again["id"] == job["id"]
        assert again["state"] == "done"
        assert again["created"] is False
        assert again["result"] == job["result"]

    def test_event_stream_reports_lifecycle_over_http(self):
        """Streaming acceptance: the chunked event stream replays the
        job's history and follows it live through ``finished``, with
        sweep progress threaded up from the exploration engine."""
        server = ServiceServer(tracer=Tracer("stream"))

        def work(client):
            status, body, _ = client.submit(build_request_payload("ckey"))
            assert status == 202
            events = list(client.events(body["id"]))
            _status, job = client.job(body["id"])
            return events, job

        events, job = serve_and_call(server, work)
        kinds = [event["event"] for event in events]
        assert kinds[0] == "queued"
        assert kinds[-1] == "finished"
        assert "started" in kinds
        assert [event["seq"] for event in events] \
            == list(range(len(events)))
        progress = [e for e in events if e["event"] == "progress"]
        assert progress, "a real sweep must report progress"
        assert all(0 <= e["done"] <= e["total"] for e in progress)
        assert events[-1]["state"] == job["state"] == "done"

    def test_failed_evaluation_surfaces_as_failed_job(self):
        # An unpartitionable one-liner: compiles and runs, but the flow
        # cannot find a beneficial candidate -- the job must still
        # terminate (done or failed, never wedged) and report honestly.
        server = ServiceServer()
        payload = {
            "source": "func main() -> int { return 1; }",
            "name": "tiny",
        }

        def work(client):
            status, body, _ = client.submit(payload)
            assert status == 202
            return client.wait(body["id"], timeout_s=60)

        job = serve_and_call(server, work)
        assert job["state"] in ("done", "failed")
        if job["state"] == "done":
            assert job["result"]["accepted"] is False
