"""Job lifecycle: coalescing, admission control, fairness, eviction.

These tests drive :class:`JobManager` directly — submission is
synchronous, so admission and coalescing are testable without a running
event loop; the drain-loop tests run a real loop over a stub kernel so
they stay fast.
"""

import asyncio

import pytest

from repro.obs import Tracer
from repro.service import (
    AdmissionError,
    JobManager,
    PartitionRequest,
    job_id_for_digest,
)


class StubResult:
    def __init__(self, payload):
        self.payload = payload
        self.elapsed_s = 0.01

    def to_dict(self):
        return dict(self.payload)


class StubCore:
    """Stands in for ServiceCore: records calls, optionally fails."""

    def __init__(self, fail_on=()):
        self.calls = []
        self.fail_on = set(fail_on)

    def evaluate(self, request, progress=None):
        self.calls.append(request)
        label = request.workload_label()
        if label in self.fail_on:
            raise RuntimeError(f"stub failure for {label}")
        if progress is not None:
            progress(1, 1)
        return StubResult({"app": label, "verified": True})

    def close(self):
        pass


def request_for(app="ckey", **overrides):
    payload = {"app": app}
    payload.update(overrides)
    return PartitionRequest.from_dict(payload)


async def drain_until_finished(manager, *jobs, timeout_s=10.0):
    await manager.start()
    async def wait():
        while not all(job.finished for job in jobs):
            await asyncio.sleep(0.005)
    await asyncio.wait_for(wait(), timeout_s)


# ---------------------------------------------------------------------------
# Identity and coalescing
# ---------------------------------------------------------------------------

class TestCoalescing:
    def test_job_id_is_digest_derived(self):
        request = request_for()
        job_id = job_id_for_digest(request.digest())
        assert job_id == "j" + request.digest()[:16]
        manager = JobManager(StubCore())
        job, created = manager.submit(request)
        assert created is True
        assert job.id == job_id

    def test_identical_requests_coalesce_onto_one_job(self):
        tracer = Tracer("jobs")
        manager = JobManager(StubCore(), tracer=tracer)
        first, created_first = manager.submit(request_for())
        second, created_second = manager.submit(
            request_for(client="someone-else"))
        assert created_first and not created_second
        assert second is first
        assert first.waiters == 2
        assert tracer.counters["service.jobs.submitted"] == 1
        assert tracer.counters["service.jobs.coalesced"] == 1

    def test_distinct_workloads_get_distinct_jobs(self):
        manager = JobManager(StubCore())
        one, _ = manager.submit(request_for(scale=1))
        two, _ = manager.submit(request_for(scale=2))
        assert one.id != two.id

    def test_coalescing_bypasses_admission_bounds(self):
        # The queue and the client's share are both exhausted, but the
        # resubmission costs no evaluation, so it is always admitted.
        manager = JobManager(StubCore(), max_queue=1,
                             max_pending_per_client=1)
        job, _ = manager.submit(request_for())
        again, created = manager.submit(request_for())
        assert again is job and not created


# ---------------------------------------------------------------------------
# Admission control and fairness
# ---------------------------------------------------------------------------

class TestAdmission:
    def test_queue_bound_rejects_with_retry_after(self):
        tracer = Tracer("jobs")
        manager = JobManager(StubCore(), max_queue=2,
                             max_pending_per_client=8, tracer=tracer)
        manager.submit(request_for(scale=1))
        manager.submit(request_for(scale=2))
        with pytest.raises(AdmissionError) as excinfo:
            manager.submit(request_for(scale=3))
        assert excinfo.value.reason == "queue"
        assert excinfo.value.retry_after_s >= 1
        assert tracer.counters["service.rejected.queue"] == 1

    def test_client_share_rejects_before_queue_fills(self):
        tracer = Tracer("jobs")
        manager = JobManager(StubCore(), max_queue=8,
                             max_pending_per_client=1, tracer=tracer)
        manager.submit(request_for(scale=1, client="flooder"))
        with pytest.raises(AdmissionError) as excinfo:
            manager.submit(request_for(scale=2, client="flooder"))
        assert excinfo.value.reason == "client"
        assert tracer.counters["service.rejected.client"] == 1
        # another client still gets in
        job, created = manager.submit(request_for(scale=2, client="other"))
        assert created

    def test_default_client_share_is_a_quarter_of_the_queue(self):
        assert JobManager(StubCore(),
                          max_queue=64).max_pending_per_client == 16
        assert JobManager(StubCore(),
                          max_queue=2).max_pending_per_client == 1

    @pytest.mark.parametrize("kwargs", [
        {"max_queue": 0}, {"max_finished": 0},
    ])
    def test_nonpositive_bounds_rejected(self, kwargs):
        with pytest.raises(ValueError):
            JobManager(StubCore(), **kwargs)


# ---------------------------------------------------------------------------
# Execution: the drain loop
# ---------------------------------------------------------------------------

class TestExecution:
    def test_jobs_run_to_done_with_results(self):
        tracer = Tracer("jobs")
        core = StubCore()
        manager = JobManager(core, tracer=tracer)

        async def scenario():
            job, _ = manager.submit(request_for())
            await drain_until_finished(manager, job)
            await manager.close()
            return job

        job = asyncio.run(scenario())
        assert job.state == "done"
        assert job.result == {"app": "ckey", "verified": True}
        assert job.started_s is not None and job.finished_s is not None
        assert len(core.calls) == 1
        assert tracer.counters["service.jobs.completed"] == 1

    def test_kernel_failure_yields_failed_job(self):
        tracer = Tracer("jobs")
        manager = JobManager(StubCore(fail_on={"ckey"}), tracer=tracer)

        async def scenario():
            job, _ = manager.submit(request_for())
            await drain_until_finished(manager, job)
            await manager.close()
            return job

        job = asyncio.run(scenario())
        assert job.state == "failed"
        assert job.result is None
        assert "stub failure" in job.error
        assert tracer.counters["service.jobs.failed"] == 1

    def test_finished_jobs_are_evicted_past_the_bound(self):
        tracer = Tracer("jobs")
        manager = JobManager(StubCore(), max_finished=1, tracer=tracer)

        async def scenario():
            first, _ = manager.submit(request_for(scale=1))
            second, _ = manager.submit(request_for(scale=2))
            await drain_until_finished(manager, first, second)
            await manager.close()
            return first, second

        first, second = asyncio.run(scenario())
        assert manager.get(first.id) is None  # oldest evicted
        assert manager.get(second.id) is second
        assert tracer.counters["service.jobs.evicted"] == 1

    def test_descriptor_shape_matches_job_fields(self):
        from repro.service import JOB_FIELDS

        manager = JobManager(StubCore())
        job, _ = manager.submit(request_for())
        descriptor = job.to_dict()
        assert tuple(descriptor) == JOB_FIELDS
        without = job.to_dict(include_result=False)
        assert without["result"] is None

    def test_stats_counts_states(self):
        manager = JobManager(StubCore(), max_queue=4)
        manager.submit(request_for())
        stats = manager.stats()
        assert stats["states"] == {"queued": 1, "running": 0,
                                   "done": 0, "failed": 0}
        assert stats["max_queue"] == 4
        assert stats["retry_after_s"] >= 1
        assert set(stats) == {"states", "max_queue",
                              "max_pending_per_client", "retry_after_s"}


# ---------------------------------------------------------------------------
# Event streams
# ---------------------------------------------------------------------------

class TestEvents:
    def test_lifecycle_events_arrive_in_order(self):
        manager = JobManager(StubCore(), tracer=Tracer("jobs"))

        async def scenario():
            job, _ = manager.submit(request_for())
            events = []
            async for event in manager.events(job.id):
                events.append(event)
            await manager.close()
            return job, events

        async def run():
            await manager.start()
            return await scenario()

        job, events = asyncio.run(run())
        kinds = [event["event"] for event in events]
        assert kinds[0] == "queued"
        assert kinds[-1] == "finished"
        assert "started" in kinds
        assert [event["seq"] for event in events] == list(range(len(events)))
        assert all(event["id"] == job.id for event in events)

    def test_stream_on_finished_job_replays_history(self):
        manager = JobManager(StubCore())

        async def scenario():
            job, _ = manager.submit(request_for())
            await drain_until_finished(manager, job)
            events = []
            async for event in manager.events(job.id):
                events.append(event)
            await manager.close()
            return events

        events = asyncio.run(scenario())
        assert events[-1]["event"] == "finished"
        assert events[-1]["state"] == "done"

    def test_unknown_job_raises(self):
        manager = JobManager(StubCore())

        async def scenario():
            async for _event in manager.events("jdeadbeef"):
                pass

        with pytest.raises(KeyError):
            asyncio.run(scenario())

    def test_eviction_never_drops_a_job_with_waiters(self):
        # Regression: under a 1-entry finished-registry bound, a job
        # with an attached event-stream subscriber must survive
        # eviction even when it is the oldest finished job.
        tracer = Tracer("jobs")
        manager = JobManager(StubCore(), max_finished=1, tracer=tracer)

        async def scenario():
            first, _ = manager.submit(request_for(scale=1))
            await drain_until_finished(manager, first)

            stream = manager.events(first.id)
            opening = await stream.__anext__()  # hold mid-iteration
            assert opening["event"] == "queued"
            assert first.subscribers == 1

            second, _ = manager.submit(request_for(scale=2))
            third, _ = manager.submit(request_for(scale=3))
            await drain_until_finished(manager, second, third)

            # The subscribed job is skipped; eviction trims the rest.
            assert manager.get(first.id) is first
            await stream.aclose()
            assert first.subscribers == 0
            await manager.close()
            return second, third

        second, third = asyncio.run(scenario())
        # The subscribed job held the registry's only slot the whole
        # time, so the unsubscribed finished jobs bore the evictions.
        assert tracer.counters["service.jobs.evicted"] >= 2
        assert manager.get(second.id) is None
        assert manager.get(third.id) is None
