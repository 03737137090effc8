"""Durable job state: the append-only, crash-tolerant job journal.

The evaluation checkpoint journal (``repro.core.checkpoint``) makes the
*cache tier* survive restarts; this module does the same for the *job
registry*, so a ``GET /v1/jobs/{id}`` poll outlives the server process
that accepted the submission.  :class:`JobJournal` records two event
kinds per job id:

* ``"submitted"`` — the validated request payload plus identity
  (id, digest, submission time), written the moment a job is admitted;
* ``"finished"`` — the terminal state (``done``/``failed``), timestamps
  and the full result object (or error string), written the moment the
  evaluation finishes.

On restart the :class:`~repro.service.jobs.JobManager` replays the
journal: finished jobs re-enter the registry directly (a pre-kill job id
resolves with its original result — no re-evaluation), and jobs that
were still queued or running when the server died are **requeued** —
their re-evaluation replays out of the persistent evaluation cache, so
recovery costs cache hits, not sweeps.

The file is a :class:`~repro.core.journal.Journal`, framed and read
exactly like ``cache.journal`` (magic line, then
``[4-byte LE length][8-byte SHA-256 prefix][blob]`` records), with JSON
blobs instead of pickles — job records are wire-shaped dicts already.
Opening truncates a torn or checksum-failing tail (what a ``kill -9``
can leave) back to the last intact record, and skips an intact record
whose body is not a job record (malformed JSON, an unknown kind): one
bad record must not orphan the jobs behind it.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.core.journal import Journal, scan
from repro.obs import NullTracer, Tracer

#: Magic first line of every job journal.
JOB_JOURNAL_MAGIC = b"REPRO-JOBJOURNAL v1\n"

#: Job-journal filename inside a service checkpoint directory (next to
#: the evaluation journal, ``cache.journal``).
JOB_JOURNAL_FILENAME = "jobs.journal"

#: The record kinds a job journal contains.
JOB_RECORD_KINDS = ("submitted", "finished")


def _decode_record(body: bytes) -> Dict[str, Any]:
    record = json.loads(body.decode("utf-8"))
    if not isinstance(record, dict) \
            or record.get("event") not in JOB_RECORD_KINDS:
        raise ValueError("not a job record")
    return record


class JobJournal:
    """Append-only journal of job submissions and completions.

    Args:
        path: journal file (created, with magic, if absent; an existing
            file is replayed and any corrupt tail truncated away).
        tracer: observability sink for the ``service.journal.*``
            counters (the server's shared tracer).

    Attributes:
        records: the records replayed from disk, in append order, until
            the :class:`~repro.service.jobs.JobManager` folds them into
            its registry and empties the list.
        loaded: how many records were replayed.
        corrupt: 1 when opening found a torn or checksum-failing tail,
            or no magic line, else 0.
        skipped: intact records that are not job records, ignored.
        appended: records written by this process since open.
    """

    def __init__(self, path: str,
                 tracer: Optional[Tracer] = None) -> None:
        self.path = path
        self.tracer = tracer or NullTracer()
        self.records: List[Dict[str, Any]] = []
        self.appended = 0
        self._journal = Journal(path, JOB_JOURNAL_MAGIC)
        found = self._journal.open(_decode_record, self.records.append)
        self.loaded = found["records"]
        self.corrupt = found["corrupt"]
        self.skipped = found["skipped"]
        self.tracer.count("service.journal.replayed", self.loaded)
        if self.corrupt:
            self.tracer.count("service.journal.corrupt", self.corrupt)
        if self.skipped:
            self.tracer.count("service.journal.skipped", self.skipped)

    def append(self, record: Dict[str, Any]) -> None:
        """Frame and append one record; flushed before returning so a
        SIGKILL loses at most the record being written."""
        self._journal.append(
            json.dumps(record, sort_keys=True).encode("utf-8"))
        self.appended += 1
        self.tracer.count("service.journal.appended")

    def stats(self) -> Dict[str, Any]:
        return {"path": self.path, "records": self.loaded,
                "appended": self.appended, "corrupt": self.corrupt,
                "skipped": self.skipped}

    def close(self) -> None:
        self._journal.close()

    def __enter__(self) -> "JobJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def scan_job_journal(path: str) -> Dict[str, Any]:
    """Read-only audit of a job journal: ``{ok, magic, records, skipped,
    corrupt, bytes_good, bytes_total}``, as
    :func:`repro.core.journal.scan` reports it — never truncates or
    rewrites."""
    return scan(path, JOB_JOURNAL_MAGIC, _decode_record,
                lambda record: None)
