"""Journaled on-disk evaluation cache and resumable sweep checkpoints.

The in-memory :class:`~repro.core.explore.EvaluationCache` makes repeated
sweeps cheap *within* a process; this module makes them cheap *across*
processes and crashes.  Two pieces:

* :class:`PersistentEvaluationCache` — an ``EvaluationCache`` whose every
  ``put`` is appended to an on-disk journal before the sweep continues,
  so a killed run loses at most the record being written.  The journal is
  a :class:`~repro.core.journal.Journal`: append-only, and read under
  that module's one corruption policy.  Opening truncates a torn or
  checksum-failing tail (what a ``kill -9`` can leave) back to the last
  intact record, so new appends never sit behind garbage, and skips an
  intact record whose pickle no longer loads, so that candidate alone is
  recomputed.
* :class:`SweepCheckpoint` — a directory bundling the journal with a
  ``checkpoint.json`` metadata file that pins *whose* results these are
  (application payload, technology library and designer config, all as
  content digests).  ``repro explore APP --checkpoint DIR`` writes one;
  ``--resume`` reloads it — after the ``explore.checkpoint`` consistency
  check (:func:`repro.verify.verify_checkpoint`) confirms the metadata
  matches the live sweep — and replays every journaled outcome as cache
  hits, reproducing the identical
  :class:`~repro.core.partitioner.PartitionDecision`.

Journal format (``cache.journal``)::

    REPRO-EVALCACHE v2\\n                      # magic line
    [4-byte LE length][8-byte SHA-256 prefix][pickle blob]   # repeated

Each blob is ``pickle.dumps((key, outcome))`` — outcomes are the same
:class:`~repro.core.partitioner.CandidateEvaluation` objects (or
rejection strings) that already cross process boundaries in parallel
sweeps, so picklability is an existing invariant, not a new one.  Keys
are the SHA-256 content digests of
:func:`~repro.core.explore.candidate_cache_key`, which embed workload,
library and config — a journal can therefore be shared across sweeps
without collisions, exactly like the in-memory cache.

The version in the magic line changes whenever the pickled classes do
(v2: the schedules' dependence graphs became plain dicts).  A journal of
another version loads nothing, as one corrupt record.
"""

from __future__ import annotations

import json
import os
import pickle
from typing import Any, Dict, List, Optional, Tuple

from repro.core.explore import (
    AppPayload,
    EvaluationCache,
    _sha,
    config_digest,
    library_digest,
)
from repro.core.journal import Journal, scan
from repro.core.partitioner import PartitionConfig
from repro.obs import get_tracer

#: Magic first line of every evaluation-cache journal.
JOURNAL_MAGIC = b"REPRO-EVALCACHE v2\n"

#: Journal filename inside a checkpoint directory.
JOURNAL_FILENAME = "cache.journal"

#: Metadata filename inside a checkpoint directory.
META_FILENAME = "checkpoint.json"

#: The ``schema`` tag of the checkpoint metadata file.
CHECKPOINT_SCHEMA_NAME = "repro-checkpoint"

#: Current version of the checkpoint metadata schema.
CHECKPOINT_SCHEMA_VERSION = 1


def _decode_entry(body: bytes) -> Tuple[str, object]:
    key, outcome = pickle.loads(body)
    return key, outcome


def checkpoint_context_key(app, library, config: Optional[PartitionConfig]
                           ) -> str:
    """Content digest of everything a checkpointed sweep depends on.

    Computable *before* the sweep runs (unlike the full
    ``sweep_context_digest``, which needs the profile and initial run):
    the application payload, the technology library and the designer
    config determine those deterministically, so this key is exactly as
    discriminating while being cheap enough to validate a ``--resume``
    up front.
    """
    payload = AppPayload.from_app(app)
    return _sha("checkpoint", payload.digest(), library_digest(library),
                config_digest(config or PartitionConfig()))


def scan_journal(path: str) -> Dict[str, Any]:
    """Read-only audit of a journal file: ``{ok, magic, records, skipped,
    corrupt, keys, bytes_good, bytes_total}``, as
    :func:`repro.core.journal.scan` reports it, plus the keys of the
    records read.

    Unlike :class:`PersistentEvaluationCache`, scanning never truncates
    or rewrites — this is what :func:`repro.verify.verify_checkpoint`
    calls, and a verification pass must not mutate its subject.
    """
    keys: List[str] = []
    report = scan(path, JOURNAL_MAGIC, _decode_entry,
                  lambda entry: keys.append(entry[0]))
    report["keys"] = keys
    return report


class PersistentEvaluationCache(EvaluationCache):
    """An :class:`EvaluationCache` journaled to disk on every ``put``.

    Args:
        path: journal file (created, with magic, if absent).
        max_entries: in-memory LRU bound, as on the base class.  The
            journal itself is append-only and unbounded; eviction only
            trims the in-memory view (``cache.evictions`` counter), and
            an evicted key that is recomputed later is journaled again —
            replay keeps the newest record.  The bound applies during
            replay too, so reopening a large journal cannot blow the
            memory budget the caller configured.

    Attributes:
        loaded: intact records replayed from the journal on open.
        skipped: intact records whose pickle did not load on open; they
            stay in the journal, and their candidates are recomputed.
        corrupt: 1 when opening found a torn or checksum-failing tail
            (the journal is truncated back to the last intact record) or
            no magic line (the journal starts over), else 0.
    """

    def __init__(self, path: str,
                 max_entries: Optional[int] = None) -> None:
        super().__init__(max_entries=max_entries)
        self.path = path
        self._journal = Journal(path, JOURNAL_MAGIC)
        tracer = get_tracer()
        with tracer.span("explore.checkpoint.load"):
            # Replay through the *base* put, so an in-memory bound evicts
            # LRU during replay and nothing read is journaled again.
            found = self._journal.open(
                _decode_entry,
                lambda entry: EvaluationCache.put(self, *entry))
        self.loaded = found["records"]
        self.skipped = found["skipped"]
        self.corrupt = found["corrupt"]
        tracer.count("explore.checkpoint.loaded", self.loaded)
        if self.skipped:
            tracer.count("explore.checkpoint.skipped", self.skipped)
        if self.corrupt:
            tracer.count("explore.checkpoint.corrupt", self.corrupt)

    # -- cache interface ----------------------------------------------

    def put(self, key: str, outcome: object) -> None:
        # The whole update runs under the (re-entrant) cache mutex, so
        # an entry and its journal record land as one step for any other
        # thread (the service's event-loop thread reads the statistics
        # while its evaluation thread fills the cache).
        with self._mutex:
            is_new = key not in self._entries
            super().put(key, outcome)
            if not is_new:
                return  # already journaled; keep the journal append-only
            self._journal.append(pickle.dumps((key, outcome), protocol=4))
        get_tracer().count("explore.checkpoint.appended")

    def clear(self) -> None:
        with self._mutex:
            super().clear()
            self._journal.reset()

    def close(self) -> None:
        self._journal.close()

    def __enter__(self) -> "PersistentEvaluationCache":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class SweepCheckpoint:
    """A checkpoint directory: journaled cache + identifying metadata.

    Usage (the CLI's ``--checkpoint``/``--resume`` path)::

        ckpt = SweepCheckpoint(directory)
        ckpt.bind(app, library, config)       # write/validate metadata
        engine = ExplorationEngine(cache=ckpt.cache, ...)
        ... sweep ...
        ckpt.close()

    ``bind`` writes ``checkpoint.json`` on first use and, on reuse,
    raises :class:`CheckpointMismatch` when the directory belongs to a
    different (app, library, config) triple — the cheap in-line guard;
    the full audit with findings is
    :func:`repro.verify.verify_checkpoint`.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.meta_path = os.path.join(directory, META_FILENAME)
        self.journal_path = os.path.join(directory, JOURNAL_FILENAME)
        self._cache: Optional[PersistentEvaluationCache] = None

    @property
    def cache(self) -> PersistentEvaluationCache:
        if self._cache is None:
            self._cache = PersistentEvaluationCache(self.journal_path)
        return self._cache

    def load_meta(self) -> Optional[Dict[str, Any]]:
        """The metadata dict, or ``None`` when absent/unreadable."""
        try:
            with open(self.meta_path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            return None
        return data if isinstance(data, dict) else None

    def bind(self, app, library, config: Optional[PartitionConfig]) -> str:
        """Pin (or validate) the checkpoint's identity; returns the
        context key."""
        return self.bind_context(
            checkpoint_context_key(app, library, config), label=app.name)

    def bind_context(self, context: str, label: str = "") -> str:
        """Pin (or validate) a precomputed context digest.

        The generalized form of :meth:`bind` for sweeps whose identity
        is not one (app, library, config) triple — a ``repro pareto``
        scenario journals many (app × variant) sub-sweeps into one
        directory under its
        :func:`~repro.scenarios.runner.scenario_context_key`.  The
        per-candidate cache keys already embed each variant's config
        digest, so one journal holds them all without collisions; the
        metadata context only has to pin *which scenario* the directory
        belongs to.  ``label`` is the human-readable owner stored under
        the metadata's ``app`` key.
        """
        meta = self.load_meta()
        if meta is None:
            with open(self.meta_path, "w", encoding="utf-8") as fh:
                json.dump({
                    "schema": CHECKPOINT_SCHEMA_NAME,
                    "version": CHECKPOINT_SCHEMA_VERSION,
                    "app": label,
                    "context": context,
                }, fh, indent=1, sort_keys=True)
                fh.write("\n")
            return context
        if meta.get("context") != context:
            raise CheckpointMismatch(
                f"checkpoint {self.directory!r} belongs to "
                f"app={meta.get('app')!r} context={meta.get('context')!r}, "
                f"not this sweep's context {context!r}")
        return context

    def close(self) -> None:
        if self._cache is not None:
            self._cache.close()
            self._cache = None

    def __enter__(self) -> "SweepCheckpoint":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class CheckpointMismatch(ValueError):
    """A checkpoint directory belongs to a different sweep context."""
