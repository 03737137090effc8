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

The on-disk format mirrors ``cache.journal`` exactly (magic line, then
``[4-byte LE length][8-byte SHA-256 prefix][blob]`` records), with JSON
blobs instead of pickles — job records are wire-shaped dicts already.
Loading is corruption-tolerant: replay stops at the first truncated or
checksum-failing record (the torn tail a ``kill -9`` can leave) and the
file is truncated back to the last intact record, so new appends never
sit behind garbage.  A framed-but-unusable record (valid checksum,
malformed JSON body) is skipped, not fatal — one bad record must not
orphan the jobs behind it.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from typing import Any, Dict, List, Optional

from repro.obs import NullTracer, Tracer

#: Magic first line of every job journal.
JOB_JOURNAL_MAGIC = b"REPRO-JOBJOURNAL v1\n"

#: Job-journal filename inside a service checkpoint directory (next to
#: the evaluation journal, ``cache.journal``).
JOB_JOURNAL_FILENAME = "jobs.journal"

#: The record kinds a job journal contains.
JOB_RECORD_KINDS = ("submitted", "finished")

_RECORD_HEADER = struct.Struct("<I8s")


def _record_digest(blob: bytes) -> bytes:
    return hashlib.sha256(blob).digest()[:8]


class JobJournal:
    """Append-only journal of job submissions and completions.

    Args:
        path: journal file (created, with magic, if absent; an existing
            file is replayed and any corrupt tail truncated away).
        tracer: observability sink for the ``service.journal.*``
            counters (the server's shared tracer).

    Attributes:
        records: every intact record replayed from disk, in append
            order (empty for a fresh journal).
        corrupt: torn/checksum-failing tail records discarded on open.
        skipped: framed-but-unusable records ignored during replay.
        appended: records written by this process since open.
    """

    def __init__(self, path: str,
                 tracer: Optional[Tracer] = None) -> None:
        self.path = path
        self.tracer = tracer or NullTracer()
        self.records: List[Dict[str, Any]] = []
        self.corrupt = 0
        self.skipped = 0
        self.appended = 0
        self._open()
        self.tracer.count("service.journal.replayed", len(self.records))
        if self.corrupt:
            self.tracer.count("service.journal.corrupt", self.corrupt)
        if self.skipped:
            self.tracer.count("service.journal.skipped", self.skipped)

    # -- journal I/O ---------------------------------------------------

    def _open(self) -> None:
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        if not os.path.exists(self.path):
            with open(self.path, "wb") as fh:
                fh.write(JOB_JOURNAL_MAGIC)
        else:
            self._replay()
        self._journal = open(self.path, "ab")

    def _replay(self) -> None:
        """Load every intact record; truncate any corrupt tail."""
        with open(self.path, "rb") as fh:
            magic = fh.read(len(JOB_JOURNAL_MAGIC))
            if magic != JOB_JOURNAL_MAGIC:
                # Not a job journal (or a torn header): start over rather
                # than appending records a future load would skip.
                self.corrupt += 1
                with open(self.path, "wb") as out:
                    out.write(JOB_JOURNAL_MAGIC)
                return
            good_end = fh.tell()
            while True:
                header = fh.read(_RECORD_HEADER.size)
                if not header:
                    break  # clean EOF
                if len(header) < _RECORD_HEADER.size:
                    self.corrupt += 1
                    break
                length, digest = _RECORD_HEADER.unpack(header)
                blob = fh.read(length)
                if len(blob) < length or _record_digest(blob) != digest:
                    self.corrupt += 1
                    break
                good_end = fh.tell()
                try:
                    record = json.loads(blob.decode("utf-8"))
                except (UnicodeDecodeError, ValueError):
                    record = None
                if not isinstance(record, dict) \
                        or record.get("event") not in JOB_RECORD_KINDS:
                    # Intact frame, unusable body: skip it — the records
                    # behind it are still good.
                    self.skipped += 1
                    continue
                self.records.append(record)
        if self.corrupt:
            with open(self.path, "r+b") as fh:
                fh.truncate(good_end)

    def append(self, record: Dict[str, Any]) -> None:
        """Frame and append one record; flushed before returning so a
        SIGKILL loses at most the record being written."""
        blob = json.dumps(record, sort_keys=True).encode("utf-8")
        self._journal.write(
            _RECORD_HEADER.pack(len(blob), _record_digest(blob)))
        self._journal.write(blob)
        self._journal.flush()
        self.appended += 1
        self.tracer.count("service.journal.appended")

    # -- replay projection ---------------------------------------------

    def jobs_by_id(self) -> Dict[str, Dict[str, Any]]:
        """Fold the replayed records into per-job state.

        Returns id → ``{"submitted": record, "finished": record|None}``,
        in first-submission order.  A ``finished`` record whose
        ``submitted`` half was lost to corruption is dropped (there is
        no request left to describe the job); duplicate submissions of
        one id (a requeued job resubmitted after a second crash) keep
        the first submission and the *last* finish.
        """
        folded: Dict[str, Dict[str, Any]] = {}
        for record in self.records:
            job_id = record.get("id")
            if not isinstance(job_id, str):
                continue
            if record["event"] == "submitted":
                folded.setdefault(job_id,
                                  {"submitted": record, "finished": None})
            else:
                entry = folded.get(job_id)
                if entry is not None:
                    entry["finished"] = record
        return folded

    def stats(self) -> Dict[str, Any]:
        return {"path": self.path, "records": len(self.records),
                "appended": self.appended, "corrupt": self.corrupt,
                "skipped": self.skipped}

    def close(self) -> None:
        self._journal.close()

    def __enter__(self) -> "JobJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def scan_job_journal(path: str) -> Dict[str, Any]:
    """Read-only audit of a job journal: ``{ok, records, corrupt,
    skipped, bytes_good, bytes_total}`` — never truncates or rewrites."""
    records = 0
    corrupt = 0
    skipped = 0
    with open(path, "rb") as fh:
        magic = fh.read(len(JOB_JOURNAL_MAGIC))
        bytes_total = os.fstat(fh.fileno()).st_size
        if magic != JOB_JOURNAL_MAGIC:
            return {"ok": False, "records": 0, "corrupt": 1, "skipped": 0,
                    "bytes_good": 0, "bytes_total": bytes_total}
        good_end = fh.tell()
        while True:
            header = fh.read(_RECORD_HEADER.size)
            if not header:
                break
            if len(header) < _RECORD_HEADER.size:
                corrupt += 1
                break
            length, digest = _RECORD_HEADER.unpack(header)
            blob = fh.read(length)
            if len(blob) < length or _record_digest(blob) != digest:
                corrupt += 1
                break
            good_end = fh.tell()
            try:
                record = json.loads(blob.decode("utf-8"))
            except (UnicodeDecodeError, ValueError):
                record = None
            if not isinstance(record, dict) \
                    or record.get("event") not in JOB_RECORD_KINDS:
                skipped += 1
                continue
            records += 1
    return {"ok": True, "records": records, "corrupt": corrupt,
            "skipped": skipped, "bytes_good": good_end,
            "bytes_total": bytes_total}
