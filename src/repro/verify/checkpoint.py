"""The ``explore.checkpoint`` consistency check.

``repro explore --resume`` replays journaled candidate outcomes into the
sweep as cache hits — silently wrong results if the checkpoint directory
belongs to a different (application, library, config) triple or the
journal carries damaged records.  :func:`verify_checkpoint` audits a
checkpoint directory *read-only* (unlike
:class:`~repro.core.checkpoint.PersistentEvaluationCache`, whose loader
truncates corrupt tails) and reports findings under the registered
``explore.checkpoint`` check:

* missing/unreadable/mis-schema'd ``checkpoint.json`` — ERROR;
* context digest mismatch against the live sweep — ERROR (resuming would
  replay another workload's outcomes);
* missing journal, or a journal without this build's magic header
  (another ``REPRO-EVALCACHE`` version is named in the message) — ERROR;
* a corrupt journal tail — WARNING (the cache loader will truncate it;
  only the damaged suffix is lost);
* intact records whose pickle does not load — WARNING (the loader skips
  them, and ``--resume`` recomputes those candidates to the same
  decision);
* otherwise an INFO finding with the record/byte statistics.

The CLI runs this before every ``--resume`` and refuses to resume when
the report carries errors.
"""

from __future__ import annotations

from typing import Optional

from repro.verify.checks import _finding
from repro.verify.findings import Severity, VerificationReport


def verify_checkpoint(directory: str,
                      expected_context: Optional[str] = None
                      ) -> VerificationReport:
    """Audit a checkpoint directory without mutating it.

    Args:
        directory: the ``--checkpoint`` directory to inspect.
        expected_context: the live sweep's
            :func:`~repro.core.checkpoint.checkpoint_context_key`; when
            given, a stored context that differs is an ERROR.
    """
    import json
    import os

    from repro.core.checkpoint import (
        CHECKPOINT_SCHEMA_NAME,
        CHECKPOINT_SCHEMA_VERSION,
        JOURNAL_FILENAME,
        JOURNAL_MAGIC,
        META_FILENAME,
        scan_journal,
    )

    report = VerificationReport(label=f"checkpoint:{directory}")
    report.ran("explore.checkpoint")
    # Paths are probed directly — not through SweepCheckpoint, whose
    # constructor creates the directory, and verification must not
    # mutate (or create) its subject.
    meta_path = os.path.join(directory, META_FILENAME)
    journal_path = os.path.join(directory, JOURNAL_FILENAME)

    if not os.path.isdir(directory):
        report.add(_finding(
            "explore.checkpoint", Severity.ERROR,
            "checkpoint directory does not exist", subject=directory))
        return report

    try:
        with open(meta_path, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
        if not isinstance(meta, dict):
            meta = None
    except (OSError, ValueError):
        meta = None
    if meta is None:
        report.add(_finding(
            "explore.checkpoint", Severity.ERROR,
            "checkpoint.json is missing or unreadable", subject=directory))
    else:
        if meta.get("schema") != CHECKPOINT_SCHEMA_NAME:
            report.add(_finding(
                "explore.checkpoint", Severity.ERROR,
                f"unknown metadata schema {meta.get('schema')!r}",
                subject=directory, values={"schema": meta.get("schema")}))
        elif meta.get("version") != CHECKPOINT_SCHEMA_VERSION:
            report.add(_finding(
                "explore.checkpoint", Severity.ERROR,
                f"unsupported metadata version {meta.get('version')!r}",
                subject=directory, values={"version": meta.get("version")}))
        if expected_context is not None \
                and meta.get("context") != expected_context:
            report.add(_finding(
                "explore.checkpoint", Severity.ERROR,
                f"checkpoint belongs to app={meta.get('app')!r}, not the "
                f"sweep being resumed — resuming would replay another "
                f"workload's outcomes",
                subject=directory,
                values={"stored": meta.get("context"),
                        "expected": expected_context}))

    if not os.path.exists(journal_path):
        report.add(_finding(
            "explore.checkpoint", Severity.ERROR,
            "cache.journal is missing", subject=directory))
        return report
    try:
        scan = scan_journal(journal_path)
    except OSError as exc:
        report.add(_finding(
            "explore.checkpoint", Severity.ERROR,
            f"cache.journal is unreadable: {exc}", subject=directory))
        return report
    if not scan["ok"]:
        found = scan["magic"].decode("ascii", "replace").strip()
        wanted = JOURNAL_MAGIC.decode("ascii").strip()
        if found.startswith("REPRO-EVALCACHE "):
            problem = (f"cache.journal is a {found} journal; this build "
                       f"reads {wanted} only")
        else:
            problem = "cache.journal has no REPRO-EVALCACHE magic header"
        report.add(_finding(
            "explore.checkpoint", Severity.ERROR,
            f"{problem} — resume would discard it entirely",
            subject=directory,
            values={"bytes_total": scan["bytes_total"], "magic": found}))
        return report
    if scan["skipped"]:
        report.add(_finding(
            "explore.checkpoint", Severity.WARNING,
            f"{scan['skipped']} journaled record(s) cannot be read; "
            f"resume will recompute those candidates",
            subject=directory,
            values={"records": scan["records"],
                    "skipped": scan["skipped"]}))
    if scan["corrupt"]:
        report.add(_finding(
            "explore.checkpoint", Severity.WARNING,
            f"journal tail is corrupt after {scan['records']} intact "
            f"record(s); resume will truncate "
            f"{scan['bytes_total'] - scan['bytes_good']} byte(s)",
            subject=directory,
            values={"records": scan["records"],
                    "bytes_good": scan["bytes_good"],
                    "bytes_total": scan["bytes_total"]}))
    if not scan["skipped"] and not scan["corrupt"]:
        report.add(_finding(
            "explore.checkpoint", Severity.INFO,
            f"checkpoint intact: {scan['records']} journaled outcome(s), "
            f"{scan['bytes_total']} byte(s)",
            subject=directory,
            values={"records": scan["records"],
                    "bytes_total": scan["bytes_total"]}))
    return report
