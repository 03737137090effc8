"""The durable job journal: framing, corruption tolerance, replay.

Unit-level coverage for :mod:`repro.service.journal` plus the
:class:`JobManager` replay integration — finished jobs resolve polls
after a restart, interrupted jobs are requeued.
"""

import asyncio
import json
import struct

import pytest

from repro.obs import Tracer
from repro.service import (
    JOB_JOURNAL_FILENAME,
    JOB_JOURNAL_MAGIC,
    JOB_RECORD_KINDS,
    JobJournal,
    JobManager,
    PartitionRequest,
    ServiceServer,
    job_id_for_digest,
    scan_job_journal,
)
from repro.core.journal import RECORD_HEADER, record_digest

from tests.service.test_jobs import (
    StubCore,
    drain_until_finished,
    request_for,
)
from tests.service.test_server import serve_and_call


def frame(blob):
    return RECORD_HEADER.pack(len(blob), record_digest(blob)) + blob


def submitted_record(request, job_id=None, submitted_s=1.0):
    digest = request.digest()
    return {"event": "submitted",
            "id": job_id or job_id_for_digest(digest),
            "digest": digest, "submitted_s": submitted_s,
            "request": request.to_dict()}


def finished_record(job_id, result):
    return {"event": "finished", "id": job_id, "state": "done",
            "error": None, "result": result,
            "started_s": 1.5, "finished_s": 2.0}


def run_to_done(manager, *requests):
    async def scenario():
        jobs = [manager.submit(request)[0] for request in requests]
        await drain_until_finished(manager, *jobs)
        await manager.close()
        return jobs
    return asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Framing and replay
# ---------------------------------------------------------------------------

class TestFraming:
    def test_fresh_journal_writes_magic(self, tmp_path):
        path = tmp_path / JOB_JOURNAL_FILENAME
        with JobJournal(str(path)) as journal:
            assert journal.records == []
            assert journal.stats()["records"] == 0
        assert path.read_bytes() == JOB_JOURNAL_MAGIC

    def test_append_then_reopen_replays_in_order(self, tmp_path):
        path = str(tmp_path / "jobs.journal")
        records = [{"event": "submitted", "id": f"j{i}", "n": i}
                   for i in range(5)]
        with JobJournal(path) as journal:
            for record in records:
                journal.append(record)
            assert journal.appended == 5
        tracer = Tracer("journal")
        with JobJournal(path, tracer=tracer) as journal:
            assert journal.records == records
            assert journal.corrupt == 0 and journal.skipped == 0
        assert tracer.counters["service.journal.replayed"] == 5

    def test_torn_tail_is_truncated_away(self, tmp_path):
        path = tmp_path / "jobs.journal"
        with JobJournal(str(path)) as journal:
            journal.append({"event": "submitted", "id": "j1"})
            journal.append({"event": "finished", "id": "j1"})
        intact = path.stat().st_size
        # simulate a SIGKILL mid-append: half a record at the tail
        blob = json.dumps({"event": "finished", "id": "j2"}).encode()
        with open(path, "ab") as fh:
            fh.write(frame(blob)[:-4])
        tracer = Tracer("journal")
        with JobJournal(str(path), tracer=tracer) as journal:
            assert [r["id"] for r in journal.records] == ["j1", "j1"]
            assert journal.corrupt == 1
        assert path.stat().st_size == intact, "tail must be truncated"
        assert tracer.counters["service.journal.corrupt"] == 1
        # and a post-truncation append is replayable
        with JobJournal(str(path)) as journal:
            journal.append({"event": "submitted", "id": "j3"})
        assert len(JobJournal(str(path)).records) == 3

    def test_checksum_mismatch_stops_replay(self, tmp_path):
        path = tmp_path / "jobs.journal"
        with JobJournal(str(path)) as journal:
            journal.append({"event": "submitted", "id": "j1"})
        blob = json.dumps({"event": "finished", "id": "j1"}).encode()
        bad = RECORD_HEADER.pack(len(blob), b"\x00" * 8) + blob
        with open(path, "ab") as fh:
            fh.write(bad)
        journal = JobJournal(str(path))
        assert [r["id"] for r in journal.records] == ["j1"]
        assert journal.corrupt == 1
        journal.close()

    def test_magic_mismatch_resets_the_file(self, tmp_path):
        path = tmp_path / "jobs.journal"
        path.write_bytes(b"NOT-A-JOURNAL\n" + b"x" * 64)
        journal = JobJournal(str(path))
        assert journal.records == []
        assert journal.corrupt == 1
        journal.append({"event": "submitted", "id": "j1"})
        journal.close()
        assert path.read_bytes().startswith(JOB_JOURNAL_MAGIC)
        assert len(JobJournal(str(path)).records) == 1

    def test_intact_frame_with_bad_body_is_skipped_not_fatal(
            self, tmp_path):
        path = tmp_path / "jobs.journal"
        with JobJournal(str(path)) as journal:
            journal.append({"event": "submitted", "id": "j1"})
        with open(path, "ab") as fh:
            fh.write(frame(b"{not json"))           # undecodable body
            fh.write(frame(b'{"event": "bogus"}'))  # unknown kind
        with JobJournal(str(path)) as journal:
            journal.append({"event": "finished", "id": "j1"})
        journal = JobJournal(str(path))
        # the good record BEHIND the bad frames still replays
        assert [r["event"] for r in journal.records] \
            == ["submitted", "finished"]
        assert journal.skipped == 2 and journal.corrupt == 0
        journal.close()

    def test_scan_is_read_only(self, tmp_path):
        path = tmp_path / "jobs.journal"
        with JobJournal(str(path)) as journal:
            journal.append({"event": "submitted", "id": "j1"})
        with open(path, "ab") as fh:
            fh.write(b"torn")
        before = path.read_bytes()
        audit = scan_job_journal(str(path))
        assert audit == {"ok": True, "magic": JOB_JOURNAL_MAGIC,
                         "records": 1, "corrupt": 1, "skipped": 0,
                         "bytes_good": audit["bytes_good"],
                         "bytes_total": len(before)}
        assert path.read_bytes() == before, "scan must not rewrite"

    def test_record_kinds_are_pinned(self):
        assert JOB_RECORD_KINDS == ("submitted", "finished")


# ---------------------------------------------------------------------------
# Folding
# ---------------------------------------------------------------------------

class TestFolding:
    """The manager folds the replayed records per job id."""

    def replay(self, tmp_path, *records, tracer=None):
        path = str(tmp_path / "jobs.journal")
        with JobJournal(path) as journal:
            for record in records:
                journal.append(record)
        with JobJournal(path) as journal:
            return JobManager(StubCore(), tracer=tracer, journal=journal)

    def test_first_submit_and_last_finish_win(self, tmp_path):
        # the version-2 submission is unreadable: the first readable
        # one wins, and the version-2 finish before it is dropped
        request = request_for()
        job_id = job_id_for_digest(request.digest())
        tracer = Tracer("fold")
        manager = self.replay(
            tmp_path,
            *version2_records(request),
            submitted_record(request, submitted_s=3.0),
            finished_record(job_id, {"gen": 3}),
            submitted_record(request, submitted_s=4.0),
            finished_record(job_id, {"gen": 4}),
            tracer=tracer)
        job = manager.get(job_id)
        assert job.submitted_s == 3.0
        assert job.state == "done" and job.result == {"gen": 4}
        assert tracer.counters["service.journal.skipped"] == 1

    def test_finish_without_submit_is_dropped(self, tmp_path):
        request = request_for()
        job_id = job_id_for_digest(request.digest())
        tracer = Tracer("fold")
        manager = self.replay(
            tmp_path,
            finished_record("jorphan", {"gen": 0}),
            finished_record(job_id, {"gen": 0}),
            submitted_record(request),
            tracer=tracer)
        assert manager.get("jorphan") is None
        # the finish before the submission does not end it: requeued
        assert manager.get(job_id).state == "queued"
        assert tracer.counters["service.journal.requeued"] == 1


# ---------------------------------------------------------------------------
# Manager replay integration
# ---------------------------------------------------------------------------

class TestManagerReplay:
    def test_finished_jobs_resolve_polls_after_restart(self, tmp_path):
        path = str(tmp_path / "jobs.journal")
        with JobJournal(path) as journal:
            manager = JobManager(StubCore(), journal=journal)
            (job,) = run_to_done(manager, request_for())
        # a new process: fresh manager, fresh journal handle, same file
        core = StubCore()
        with JobJournal(path) as journal:
            revived = JobManager(core, journal=journal)
            again = revived.get(job.id)
            assert again is not None
            assert again.state == "done"
            assert again.result == job.result
            assert again.events[-1]["event"] == "finished"
            # folded records are dropped; only their count stays
            assert journal.records == []
            assert journal.stats()["records"] == 2
        assert core.calls == [], "replayed results must not re-evaluate"

    def test_interrupted_jobs_are_requeued_on_restart(self, tmp_path):
        path = str(tmp_path / "jobs.journal")
        request = request_for()
        with JobJournal(path) as journal:
            # submitted, never finished: the shape a SIGKILL leaves
            journal.append(submitted_record(request))
        core = StubCore()
        tracer = Tracer("replay")
        with JobJournal(path) as journal:
            manager = JobManager(core, tracer=tracer, journal=journal)
            job = manager.get(job_id_for_digest(request.digest()))
            assert job is not None and job.state == "queued"
            assert tracer.counters["service.journal.requeued"] == 1

            async def scenario():
                await drain_until_finished(manager, job)
                await manager.close()
            asyncio.run(scenario())
        assert job.state == "done"
        assert len(core.calls) == 1
        # the completion was journaled too: a third boot replays it done
        with JobJournal(path) as journal:
            third = JobManager(StubCore(), journal=journal)
            assert third.get(job.id).state == "done"

    def test_unreadable_request_is_skipped_not_fatal(self, tmp_path):
        path = str(tmp_path / "jobs.journal")
        good = request_for()
        with JobJournal(path) as journal:
            journal.append({"event": "submitted", "id": "jbad",
                            "digest": "0" * 64,
                            "request": {"app": "no-such-app"}})
            journal.append(submitted_record(good))
        tracer = Tracer("replay")
        with JobJournal(path) as journal:
            manager = JobManager(StubCore(), tracer=tracer,
                                 journal=journal)
            assert manager.get("jbad") is None
            assert manager.get(
                job_id_for_digest(good.digest())) is not None
        assert tracer.counters["service.journal.skipped"] == 1

    def test_submissions_and_finishes_are_journaled_live(self, tmp_path):
        path = str(tmp_path / "jobs.journal")
        tracer = Tracer("journal")
        with JobJournal(path, tracer=tracer) as journal:
            manager = JobManager(StubCore(), tracer=tracer,
                                 journal=journal)
            run_to_done(manager, request_for(scale=1),
                             request_for(scale=2))
        assert tracer.counters["service.journal.appended"] == 4
        audit = scan_job_journal(path)
        assert audit["ok"] and audit["records"] == 4


# ---------------------------------------------------------------------------
# Schema upgrade
# ---------------------------------------------------------------------------

def version2_records(request):
    """A job that finished under schema version 2, as that server
    journaled it: the request carried ``"version": 2`` and the finish
    record the evaluation-worker index under ``lane``."""
    digest = request.digest()
    job_id = job_id_for_digest(digest)
    return [
        {"event": "submitted", "id": job_id, "digest": digest,
         "submitted_s": 1.0,
         "request": {"schema": "repro-service", "version": 2,
                     "scale": 1, "optimize": False,
                     "tech": "cmos6-800nm", "client": "anonymous",
                     "app": "ckey"}},
        {"event": "finished", "id": job_id, "state": "done", "lane": 0,
         "error": None, "result": {"schema": "repro-service",
                                   "version": 2, "app": "ckey"},
         "started_s": 1.5, "finished_s": 2.0},
    ]


class TestSchemaUpgrade:
    def test_version2_journal_opens_and_resurrects_nothing(self, tmp_path):
        path = str(tmp_path / JOB_JOURNAL_FILENAME)
        request = request_for()
        job_id = job_id_for_digest(request.digest())
        with JobJournal(path) as journal:
            for record in version2_records(request):
                journal.append(record)

        tracer = Tracer("upgrade")
        core = StubCore()
        with JobJournal(path, tracer=tracer) as journal:
            assert len(journal.records) == 2
            assert journal.corrupt == 0 and journal.skipped == 0
            server = ServiceServer(core=core, journal=journal,
                                   tracer=tracer)
            assert server.manager.get(job_id) is None
            assert tracer.counters["service.journal.skipped"] == 1
            assert "service.journal.requeued" not in tracer.counters

            def work(client):
                health = client.healthz()
                status, _job = client.job(job_id)
                submit_status, body, _h = client.submit(request.to_dict())
                return health, status, submit_status, body, \
                    client.wait(body["id"], timeout_s=30)

            health, status, submit_status, body, job = serve_and_call(
                server, work)
        assert health["version"] == 3
        assert status == 404, "a version-2 job id does not survive"
        assert submit_status == 202 and body["created"] is True
        assert body["id"] == job_id
        assert job["state"] == "done"
        assert "lane" not in job
        assert len(core.calls) == 1


    def test_resubmitted_job_survives_the_next_restart(self, tmp_path):
        path = str(tmp_path / JOB_JOURNAL_FILENAME)
        request = request_for()
        job_id = job_id_for_digest(request.digest())
        with JobJournal(path) as journal:
            for record in version2_records(request):
                journal.append(record)
        with JobJournal(path) as journal:
            manager = JobManager(StubCore(), journal=journal)
            assert manager.get(job_id) is None
            (job,) = run_to_done(manager, request)

        tracer = Tracer("restart")
        core = StubCore()
        with JobJournal(path, tracer=tracer) as journal:
            revived = JobManager(core, tracer=tracer, journal=journal)
            again = revived.get(job_id)
        assert again is not None and again.state == "done"
        assert again.result == job.result
        assert tracer.counters["service.journal.skipped"] == 1
        assert core.calls == []
