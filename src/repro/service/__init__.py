"""Partitioning-as-a-service: the request/response kernel and the
asyncio HTTP server over the exploration engine.

The wire contract — the versioned ``repro-service`` request/result
schema, the job lifecycle state machine, the backpressure and
cache-coalescing guarantees — is documented in ``docs/SERVICE.md`` and
pinned against this package by the doc-drift tests.  Layers:

* :mod:`repro.service.core` — :class:`PartitionRequest` →
  :class:`PartitionResult`, validated, digest-keyed, verify-gated.
* :mod:`repro.service.jobs` — admission control, request coalescing,
  per-client fairness, the one evaluation worker, event streams, the
  job state machine.
* :mod:`repro.service.journal` — the durable job journal: polls (and
  interrupted jobs) survive server restarts.
* :mod:`repro.service.server` — the stdlib-only asyncio HTTP front-end
  (``repro serve``).
* :mod:`repro.service.client` — the blocking poll/stream client
  (``repro submit``).
"""

from repro.service.core import (
    BEST_FIELDS,
    REQUEST_FIELDS,
    RESULT_FIELDS,
    SERVICE_SCHEMA_NAME,
    SERVICE_SCHEMA_VERSION,
    SYSTEM_RUN_FIELDS,
    PartitionRequest,
    PartitionResult,
    RequestError,
    ServiceCore,
    VerificationRejected,
)
from repro.service.jobs import (
    EVENT_KINDS,
    JOB_FIELDS,
    JOB_STATES,
    AdmissionError,
    Job,
    JobManager,
    job_id_for_digest,
)
from repro.service.journal import (
    JOB_JOURNAL_FILENAME,
    JOB_JOURNAL_MAGIC,
    JOB_RECORD_KINDS,
    JobJournal,
    scan_job_journal,
)
from repro.service.server import MAX_BODY_BYTES, ROUTES, ServiceServer
from repro.service.client import (
    EXIT_REJECTED,
    ServiceClient,
    ServiceUnreachable,
    build_request_payload,
)

__all__ = [
    "AdmissionError",
    "BEST_FIELDS",
    "EVENT_KINDS",
    "EXIT_REJECTED",
    "JOB_FIELDS",
    "JOB_JOURNAL_FILENAME",
    "JOB_JOURNAL_MAGIC",
    "JOB_RECORD_KINDS",
    "JOB_STATES",
    "Job",
    "JobJournal",
    "JobManager",
    "MAX_BODY_BYTES",
    "PartitionRequest",
    "PartitionResult",
    "REQUEST_FIELDS",
    "RESULT_FIELDS",
    "ROUTES",
    "RequestError",
    "SERVICE_SCHEMA_NAME",
    "SERVICE_SCHEMA_VERSION",
    "SYSTEM_RUN_FIELDS",
    "ServiceClient",
    "ServiceCore",
    "ServiceServer",
    "ServiceUnreachable",
    "VerificationRejected",
    "build_request_payload",
    "job_id_for_digest",
    "scan_job_journal",
]
