"""Corruption campaign and byte-format pins for the two journals.

The evaluation cache's ``cache.journal`` and the service's
``jobs.journal`` share one framing and one read policy
(:mod:`repro.core.journal`).  This module damages both formats in the
ways a killed append or a bad disk can, through their public classes,
and checks the policy's invariants:

* opening never raises;
* the records loaded are the intact prefix, plus any readable records
  behind a skipped frame;
* ``corrupt`` is 1 for a missing magic line or a torn or
  checksum-failing tail, and ``skipped`` counts the intact frames whose
  body does not decode;
* after opening, the file ends at the last intact frame, or holds only
  the magic line;
* scanning agrees with opening and leaves the file byte for byte
  unchanged.

Frames and both formats are built here from the standard library alone
(``struct``, ``hashlib``, ``pickle`` protocol 4, ``json`` with sorted
keys), so the byte-format pins do not lean on the code they pin.
Everything is deterministic: no sleeps, no subprocesses, no random
inputs.
"""

import hashlib
import json
import pickle
import struct
from bisect import bisect_right
from itertools import chain

import pytest

from repro.core.checkpoint import PersistentEvaluationCache, scan_journal
from repro.service import JobJournal, scan_job_journal


def frame(body):
    """``[4-byte LE length][8-byte SHA-256 prefix][body]``."""
    return (struct.pack("<I", len(body))
            + hashlib.sha256(body).digest()[:8] + body)


class EvaluationFormat:
    """``cache.journal``: pickled ``(key, outcome)`` pairs."""

    name = "evaluation"
    magic = b"REPRO-EVALCACHE v2\n"
    records = [(f"k{i}", {"objective": i / 8, "cells": [i] * i})
               for i in range(5)]
    extra = ("k5", "schedule rejection")
    #: Intact-frame bodies the decoder rejects: no pickle, a pickle that
    #: is not a pair, and a pickle of a class that no longer exists.
    unreadable = (b"not a pickle", pickle.dumps(42, protocol=4),
                  b"cno_such_module\nThing\n.")

    @staticmethod
    def encode(record):
        return pickle.dumps(record, protocol=4)

    @classmethod
    def open(cls, path):
        """Open through the public class: (owner, loaded, skipped,
        corrupt)."""
        cache = PersistentEvaluationCache(str(path))
        loaded = []
        for key, _outcome in cls.records + [cls.extra]:
            outcome = cache.get(key)
            if outcome is not None:
                loaded.append((key, outcome))
        assert len(cache) == len(loaded)
        return cache, loaded, cache.skipped, cache.corrupt

    @staticmethod
    def append(cache, record):
        cache.put(*record)

    @staticmethod
    def scan(path):
        return scan_journal(str(path))


class JobsFormat:
    """``jobs.journal``: JSON job records with sorted keys."""

    name = "jobs"
    magic = b"REPRO-JOBJOURNAL v1\n"
    records = [{"id": f"j{i}", "event": ("submitted", "finished")[i % 2],
                "request": {"scale": i, "app": "ckey"}}
               for i in range(5)]
    extra = {"id": "j5", "event": "finished", "result": None}
    #: Intact-frame bodies the decoder rejects: broken JSON, an unknown
    #: record kind, JSON that is no object, and bytes that are no UTF-8.
    unreadable = (b"{not json", b'{"event": "bogus"}', b"[1, 2]",
                  b"\xff\xfe{}")

    @staticmethod
    def encode(record):
        return json.dumps(record, sort_keys=True).encode("utf-8")

    @staticmethod
    def open(path):
        journal = JobJournal(str(path))
        return journal, list(journal.records), journal.skipped, \
            journal.corrupt

    @staticmethod
    def append(journal, record):
        journal.append(record)

    @staticmethod
    def scan(path):
        return scan_job_journal(str(path))


@pytest.fixture(params=[EvaluationFormat, JobsFormat],
                ids=lambda fmt: fmt.name)
def fmt(request):
    return request.param


@pytest.fixture
def pristine(tmp_path, fmt):
    """Five records appended through the public class: the file's bytes
    and the offset where each frame ends."""
    path = tmp_path / "pristine.journal"
    owner = fmt.open(path)[0]
    ends = []
    for record in fmt.records:
        fmt.append(owner, record)
        ends.append(path.stat().st_size)
    owner.close()
    return path.read_bytes(), ends


def check(fmt, path, records, skipped, corrupt, good):
    """Scan, then open ``path``, and check the policy's outcome.

    ``good`` is how many bytes of the file opening keeps, or ``None``
    when the file has no magic line and opening resets it.
    """
    before = path.read_bytes()
    report = fmt.scan(path)
    assert path.read_bytes() == before, "scanning changed the file"
    owner, loaded, opened_skipped, opened_corrupt = fmt.open(path)
    owner.close()
    assert loaded == records
    assert (opened_skipped, opened_corrupt) == (skipped, corrupt)
    assert path.read_bytes() == (fmt.magic if good is None
                                 else before[:good])
    assert report["ok"] is (good is not None)
    assert (report["records"], report["skipped"], report["corrupt"]) \
        == (len(records), skipped, corrupt)
    assert report["bytes_good"] == (good or 0)
    assert report["bytes_total"] == len(before)


def test_truncation_at_every_byte_offset(tmp_path, fmt, pristine):
    data, ends = pristine
    boundaries = [len(fmt.magic)] + ends
    path = tmp_path / "cut.journal"
    for offset in range(len(data) + 1):
        path.write_bytes(data[:offset])
        if offset < len(fmt.magic):
            check(fmt, path, [], 0, 1, None)
            continue
        intact = bisect_right(ends, offset)
        good = boundaries[intact]
        check(fmt, path, fmt.records[:intact], 0, int(offset > good),
              good)


def test_every_bit_flip_of_magic_and_middle_record(tmp_path, fmt,
                                                   pristine):
    data, ends = pristine
    start, end = ends[1], ends[2]  # the third of five frames
    path = tmp_path / "flipped.journal"
    for offset in chain(range(len(fmt.magic)), range(start, end)):
        for bit in range(8):
            damaged = bytearray(data)
            damaged[offset] ^= 1 << bit
            path.write_bytes(bytes(damaged))
            if offset < len(fmt.magic):
                check(fmt, path, [], 0, 1, None)
            else:
                check(fmt, path, fmt.records[:2], 0, 1, start)


def test_cut_last_append_then_append_and_reopen(tmp_path, fmt, pristine):
    data, ends = pristine
    kept = data[:ends[3]]
    path = tmp_path / "killed.journal"
    for cut in range(ends[4] - ends[3]):
        path.write_bytes(data[:ends[3] + cut])
        owner, loaded, skipped, corrupt = fmt.open(path)
        assert loaded == fmt.records[:4]
        assert (skipped, corrupt) == (0, int(cut > 0))
        fmt.append(owner, fmt.extra)
        owner.close()
        assert path.read_bytes() == kept + frame(fmt.encode(fmt.extra))
        check(fmt, path, fmt.records[:4] + [fmt.extra], 0, 0,
              len(kept) + len(frame(fmt.encode(fmt.extra))))


def test_unreadable_body_between_readable_records_is_skipped(tmp_path,
                                                             fmt):
    first, second, third = fmt.records[:3]
    path = tmp_path / "skip.journal"
    for body in fmt.unreadable:
        data = (fmt.magic + frame(fmt.encode(first)) + frame(body)
                + frame(fmt.encode(second)))
        path.write_bytes(data)
        check(fmt, path, [first, second], 1, 0, len(data))
        # the frame stays, and appends land behind it
        owner = fmt.open(path)[0]
        fmt.append(owner, third)
        owner.close()
        assert path.read_bytes() == data + frame(fmt.encode(third))
        check(fmt, path, [first, second, third], 1, 0,
              len(data) + len(frame(fmt.encode(third))))


def test_byte_format_is_pinned(tmp_path, fmt):
    expected = fmt.magic + b"".join(
        frame(fmt.encode(record)) for record in fmt.records)
    written = tmp_path / "written.journal"
    owner = fmt.open(written)[0]
    for record in fmt.records:
        fmt.append(owner, record)
    owner.close()
    assert written.read_bytes() == expected
    built = tmp_path / "built.journal"
    built.write_bytes(expected)
    check(fmt, built, fmt.records, 0, 0, len(expected))
