"""Async job lifecycle: admission, coalescing, streaming, durability.

:class:`JobManager` sits between the HTTP front-end and the
:class:`~repro.service.core.ServiceCore` kernel.  Its contract (documented
in ``docs/SERVICE.md``, pinned by the doc-drift tests):

* **Idempotent, digest-keyed jobs** — a job's id is derived from its
  request's content digest (``j<digest16>``), so submitting the same
  request twice yields the *same* job.  N concurrent identical
  submissions therefore produce exactly one underlying evaluation — one
  ``service.jobs.submitted``, N−1 ``service.jobs.coalesced`` — and once
  a job is ``done`` its result is served from the registry without
  re-evaluating (the candidate-level
  :class:`~repro.core.explore.EvaluationCache` additionally makes any
  forced re-evaluation replay as hits).
* **One evaluation worker** — one queue drained by one executor thread
  into the one :class:`ServiceCore`, so evaluations run one at a time
  in admission order and no two can miss the same program at once.
* **Admission control** — at most ``max_queue`` jobs may be queued; past
  that, submission raises :class:`AdmissionError` which the server maps
  to HTTP 429 with a ``Retry-After`` estimate
  (``service.rejected.queue``).
* **Per-client fairness** — one client may hold at most
  ``max_pending_per_client`` queued-or-running jobs (default: a quarter
  of the queue bound), so a single flooding client cannot starve the
  fleet (``service.rejected.client``).  Coalescing onto another
  client's in-flight job is always admitted: it costs no evaluation.
* **Bounded registry** — finished jobs are kept for polling and
  result-cache reuse, LRU-bounded by ``max_finished`` (evicted jobs
  return 404 on later polls; ``service.jobs.evicted``).  A finished job
  that still has attached event-stream subscribers is **never** evicted
  — eviction skips it until the last subscriber detaches, so a slow
  stream consumer cannot lose its terminal event to the LRU trim.
* **Durable jobs** — with a :class:`~repro.service.journal.JobJournal`
  attached, every admission and completion is journaled; on restart the
  manager replays it, so finished jobs answer polls with their original
  results and interrupted jobs are requeued
  (``service.journal.requeued``) through the persistent evaluation
  cache.
* **Event streams** — :meth:`events` yields a job's lifecycle
  transitions (:data:`EVENT_KINDS`: ``queued`` → ``started`` →
  ``progress``\\* → ``finished``) as they happen, ending after the
  terminal event; the server serves them as chunked JSON lines on
  ``GET /v1/jobs/{id}/events`` (``service.stream.*``).

Job states (:data:`JOB_STATES`): ``queued`` → ``running`` → ``done`` |
``failed``.  There are no other states and no transitions out of the two
terminal ones.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, AsyncIterator, Dict, List, Optional

from repro.obs import NullTracer, Tracer
from repro.service.core import PartitionRequest, ServiceCore
from repro.service.journal import JobJournal

#: The job lifecycle, in order; the last two are terminal.
JOB_STATES = ("queued", "running", "done", "failed")

#: Every key of a job descriptor as returned by the jobs endpoints
#: (``result`` is ``null`` until the job is ``done``; ``error`` until it
#: ``failed``).
JOB_FIELDS = ("id", "state", "request_digest", "app", "tech", "client",
              "submitted_s", "started_s", "finished_s", "waiters",
              "error", "result")

#: Event kinds a job's event stream may carry, in lifecycle order
#: (``progress`` repeats; ``finished`` is always last).
EVENT_KINDS = ("queued", "started", "progress", "finished")


class AdmissionError(RuntimeError):
    """The service is saturated; retry after ``retry_after_s`` seconds."""

    def __init__(self, message: str, retry_after_s: int,
                 reason: str) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s
        #: ``"queue"`` (global bound) or ``"client"`` (fairness bound).
        self.reason = reason


@dataclass
class Job:
    """One submitted request's lifecycle record."""

    id: str
    request: PartitionRequest
    digest: str
    state: str = "queued"
    submitted_s: float = field(default_factory=time.time)
    started_s: Optional[float] = None
    finished_s: Optional[float] = None
    #: Submissions that coalesced onto this job (1 = never coalesced).
    waiters: int = 1
    error: Optional[str] = None
    result: Optional[Dict[str, Any]] = None
    #: Published lifecycle events, append-only (drives :meth:`events`).
    events: List[Dict[str, Any]] = field(default_factory=list)
    #: Attached event-stream consumers; a finished job with subscribers
    #: is exempt from registry eviction until they detach.
    subscribers: int = 0

    @property
    def finished(self) -> bool:
        return self.state in ("done", "failed")

    def to_dict(self, include_result: bool = True) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "id": self.id,
            "state": self.state,
            "request_digest": self.digest,
            "app": self.request.workload_label(),
            "tech": self.request.tech,
            "client": self.request.client,
            "submitted_s": round(self.submitted_s, 3),
            "started_s": (round(self.started_s, 3)
                          if self.started_s is not None else None),
            "finished_s": (round(self.finished_s, 3)
                           if self.finished_s is not None else None),
            "waiters": self.waiters,
            "error": self.error,
            "result": self.result if include_result else None,
        }
        return data


def job_id_for_digest(digest: str) -> str:
    """The deterministic job id of a request digest (idempotency key)."""
    return f"j{digest[:16]}"


class JobManager:
    """Admission-controlled, coalescing job queue over one evaluation
    worker.

    One queue feeds one single-worker thread executor, which runs every
    evaluation on ``core`` so the blocking kernel never stalls the event
    loop; the kernel itself may still fan candidates across processes
    (``ServiceCore(jobs=N)``).

    Args:
        core: the kernel every job is evaluated on.
        journal: optional :class:`JobJournal` making jobs durable —
            replayed (and interrupted jobs requeued) on construction.
    """

    def __init__(self, core: ServiceCore,
                 max_queue: int = 64,
                 max_pending_per_client: Optional[int] = None,
                 max_finished: int = 256,
                 tracer: Optional[Tracer] = None,
                 journal: Optional[JobJournal] = None) -> None:
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if max_finished < 1:
            raise ValueError(
                f"max_finished must be >= 1, got {max_finished}")
        self.core = core
        self.max_queue = max_queue
        self.max_pending_per_client = (
            max_pending_per_client if max_pending_per_client is not None
            else max(1, max_queue // 4))
        self.max_finished = max_finished
        self.tracer = tracer or NullTracer()
        self.journal = journal
        #: job id -> Job, insertion-ordered (drives finished-LRU eviction).
        self._jobs: Dict[str, Job] = {}
        self._queue: "asyncio.Queue[Job]" = asyncio.Queue()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-eval")
        self._task: Optional[asyncio.Task] = None
        #: Rotating wake-up for event-stream subscribers (created lazily
        #: inside the running loop; see :meth:`_wake_subscribers`).
        self._event_signal: Optional[asyncio.Event] = None
        self._last_eval_s = 1.0
        self._replay_journal()

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(
                self._drain())

    async def close(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        self._executor.shutdown(wait=False)
        self.core.close()
        self._wake_subscribers()  # let streams observe the shutdown

    # -- durable state -------------------------------------------------

    def _replay_journal(self) -> None:
        """Rebuild the registry from the journal: finished jobs resolve
        polls directly; interrupted ones are requeued.

        Per job id, the first submission whose request parses wins, and
        it pairs with the last ``finished`` record after it, so the
        finish of an older, unreadable submission never ends a
        resubmitted job.
        """
        if self.journal is None:
            return
        # A finished record carries its job's whole result: once folded,
        # only the registry (bounded by max_finished) keeps it.
        records, self.journal.records = self.journal.records, []
        folded: Dict[str, List[Any]] = {}  # id -> [job, finished record]
        for record in records:
            job_id = record.get("id")
            if not isinstance(job_id, str):
                continue
            if record["event"] == "finished":
                if job_id in folded:
                    folded[job_id][1] = record
                continue
            if job_id in folded:
                continue
            try:
                request = PartitionRequest.from_dict(record.get("request"))
            except Exception:
                # A record from an incompatible schema (or a corrupted
                # request body): there is no job to rebuild from it.
                self.tracer.count("service.journal.skipped")
                continue
            job = Job(id=job_id, request=request,
                      digest=record.get("digest", request.digest()))
            if isinstance(record.get("submitted_s"), (int, float)):
                job.submitted_s = float(record["submitted_s"])
            folded[job_id] = [job, None]
        for job, finished in folded.values():
            self._jobs[job.id] = job
            if finished is not None \
                    and finished.get("state") in ("done", "failed"):
                job.state = finished["state"]
                job.error = finished.get("error")
                job.result = finished.get("result")
                for stamp in ("started_s", "finished_s"):
                    value = finished.get(stamp)
                    if isinstance(value, (int, float)):
                        setattr(job, stamp, float(value))
                # Synthesized terminal event: a post-restart stream
                # subscriber still gets closure.
                self._publish(job, "finished")
            else:
                # Queued or running at the kill: requeue.  Re-evaluation
                # replays out of the persistent evaluation cache, so
                # recovery costs cache hits, not sweeps.
                self._publish(job, "queued")
                self._queue.put_nowait(job)
                self.tracer.count("service.journal.requeued")
        self._evict_finished()

    def _record_submit(self, job: Job) -> None:
        if self.journal is not None:
            self.journal.append({
                "event": "submitted", "id": job.id, "digest": job.digest,
                "submitted_s": round(job.submitted_s, 3),
                "request": job.request.to_dict()})

    def _record_finish(self, job: Job) -> None:
        if self.journal is not None:
            self.journal.append({
                "event": "finished", "id": job.id, "state": job.state,
                "error": job.error, "result": job.result,
                "started_s": (round(job.started_s, 3)
                              if job.started_s is not None else None),
                "finished_s": (round(job.finished_s, 3)
                               if job.finished_s is not None else None)})

    # -- event streams -------------------------------------------------

    def _publish(self, job: Job, kind: str,
                 extra: Optional[Dict[str, Any]] = None) -> None:
        """Append one lifecycle event and wake every stream subscriber.

        Runs on the event-loop thread only (progress callbacks from the
        evaluation thread hop over via ``call_soon_threadsafe``), so the
        append and the wake-up need no lock.
        """
        event: Dict[str, Any] = {
            "seq": len(job.events), "id": job.id, "event": kind,
            "state": job.state, "ts": round(time.time(), 3)}
        if kind == "finished" and job.error is not None:
            event["error"] = job.error
        if extra:
            event.update(extra)
        job.events.append(event)
        self.tracer.count("service.stream.events")
        self._wake_subscribers()

    def _wake_subscribers(self) -> None:
        signal = self._event_signal
        if signal is not None:
            # Rotate: woken subscribers re-check their job, the next
            # waiter lazily creates a fresh signal.
            self._event_signal = None
            signal.set()

    async def events(self, job_id: str) -> AsyncIterator[Dict[str, Any]]:
        """Yield ``job_id``'s lifecycle events, live, until terminal.

        Replays the history first (a subscriber attaching after the job
        finished still sees every transition), then follows new events
        as they are published; the generator ends after the ``finished``
        event.  Raises :class:`KeyError` for an unknown id.  While at
        least one subscriber is attached the job is exempt from registry
        eviction.
        """
        job = self._jobs.get(job_id)
        if job is None:
            raise KeyError(job_id)
        job.subscribers += 1
        self.tracer.count("service.stream.subscribed")
        try:
            seq = 0
            while True:
                while seq < len(job.events):
                    event = job.events[seq]
                    seq += 1
                    yield event
                    if event["event"] == "finished":
                        return
                if self._event_signal is None:
                    self._event_signal = asyncio.Event()
                await self._event_signal.wait()
        finally:
            job.subscribers -= 1

    # -- submission ----------------------------------------------------

    def _pending(self) -> int:
        return sum(1 for job in self._jobs.values()
                   if job.state == "queued")

    def _pending_for(self, client: str) -> int:
        return sum(1 for job in self._jobs.values()
                   if not job.finished and job.request.client == client)

    def retry_after_s(self) -> int:
        """Backpressure hint: roughly how long the queue needs to drain."""
        backlog = self._pending() + 1
        return max(1, min(60, round(backlog * self._last_eval_s)))

    def submit(self, request: PartitionRequest) -> "tuple[Job, bool]":
        """Admit (or coalesce) one request; returns ``(job, created)``.

        Raises :class:`AdmissionError` when the queue or the client's
        fairness share is exhausted.  Must be called from the event-loop
        thread (it touches no locks).
        """
        tracer = self.tracer
        digest = request.digest()
        job_id = job_id_for_digest(digest)
        existing = self._jobs.get(job_id)
        if existing is not None:
            existing.waiters += 1
            tracer.count("service.jobs.coalesced")
            return existing, False
        if self._pending() >= self.max_queue:
            tracer.count("service.rejected.queue")
            raise AdmissionError(
                f"admission queue full ({self.max_queue} job(s) "
                f"queued); retry later", self.retry_after_s(), "queue")
        if self._pending_for(request.client) \
                >= self.max_pending_per_client:
            tracer.count("service.rejected.client")
            raise AdmissionError(
                f"client {request.client!r} already has "
                f"{self.max_pending_per_client} job(s) in flight; "
                f"retry later", self.retry_after_s(), "client")
        job = Job(id=job_id, request=request, digest=digest)
        self._jobs[job_id] = job
        tracer.count("service.jobs.submitted")
        self._record_submit(job)
        self._publish(job, "queued")
        self._queue.put_nowait(job)
        return job, True

    def get(self, job_id: str) -> Optional[Job]:
        return self._jobs.get(job_id)

    def jobs(self) -> "list[Job]":
        return list(self._jobs.values())

    def stats(self) -> Dict[str, Any]:
        by_state = {state: 0 for state in JOB_STATES}
        for job in self._jobs.values():
            by_state[job.state] += 1
        return {
            "states": by_state,
            "max_queue": self.max_queue,
            "max_pending_per_client": self.max_pending_per_client,
            "retry_after_s": self.retry_after_s(),
        }

    # -- execution -----------------------------------------------------

    def _evict_finished(self) -> None:
        """LRU-trim terminal jobs past ``max_finished`` (oldest first).

        Jobs with attached stream subscribers are skipped: evicting one
        would sever a live consumer from its terminal event (the
        lost-waiter race).  The registry may transiently exceed the
        bound by the number of subscribed jobs; they become evictable
        the moment their last subscriber detaches.
        """
        finished = [job for job in self._jobs.values() if job.finished]
        excess = len(finished) - self.max_finished
        if excess <= 0:
            return
        for job in finished:
            if excess <= 0:
                break
            if job.subscribers > 0:
                continue
            del self._jobs[job.id]
            excess -= 1
            self.tracer.count("service.jobs.evicted")

    def _on_progress(self, job: Job, done: int, total: int) -> None:
        """Publish one sweep-progress event (loop thread; see
        :meth:`_progress_callback`)."""
        if not job.finished:
            self._publish(job, "progress", {"done": done, "total": total})

    def _progress_callback(self, job: Job, loop: asyncio.AbstractEventLoop):
        """A ``progress(done, total)`` the kernel may call from the
        evaluation thread; events hop to the loop thread, ordered before
        the evaluation's own completion."""
        def progress(done: int, total: int) -> None:
            loop.call_soon_threadsafe(self._on_progress, job, done, total)
        return progress

    async def _drain(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            job = await self._queue.get()
            job.state = "running"
            job.started_s = time.time()
            self._publish(job, "started")
            progress = self._progress_callback(job, loop)
            try:
                result = await loop.run_in_executor(
                    self._executor, self.core.evaluate, job.request,
                    progress)
            except Exception as exc:  # kernel failures -> failed job
                job.error = f"{type(exc).__name__}: {exc}"
                job.state = "failed"
                self.tracer.count("service.jobs.failed")
            else:
                job.result = result.to_dict()
                job.state = "done"
                self.tracer.count("service.jobs.completed")
                self._last_eval_s = max(0.05, result.elapsed_s)
            finally:
                job.finished_s = time.time()
                self._record_finish(job)
                self._publish(job, "finished")
                self._evict_finished()
