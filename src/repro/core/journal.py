"""Append-only record journals: the one on-disk framing and its policy.

Both of the project's journals, the evaluation cache's ``cache.journal``
(:mod:`repro.core.checkpoint`, pickle bodies) and the service's
``jobs.journal`` (:mod:`repro.service.journal`, JSON bodies), are a
magic line naming the format and its version, then records framed as::

    [4-byte LE body length][first 8 bytes of the body's SHA-256][body]

This module is the only code that reads or writes that framing.  A
journal's owner supplies its magic line and a decoder for one body, and
every read follows one policy:

* **No magic line at the start** (another format or version, a foreign
  file): one ``corrupt``.  Opening resets the file to the magic line;
  scanning reports ``ok: False`` and the bytes the file starts with.
* **A torn header, a torn body or a checksum mismatch** (the tail a
  killed append leaves): one ``corrupt``, and reading stops there.
  Opening truncates the file to the end of the last intact frame, so new
  appends never sit behind garbage; scanning reports that offset as
  ``bytes_good``.
* **An intact frame whose body the decoder rejects**: one ``skipped``,
  and reading goes on, because the records behind it are still good.
  The frame stays in the file.

An append writes one frame and flushes it, without fsync: a killed
process loses at most the record being written.

Standard library only: the service's entry modules import this one.
"""

from __future__ import annotations

import hashlib
import os
import struct
from typing import Any, BinaryIO, Callable, Dict, Optional

#: The frame header in front of every body: its length and checksum.
RECORD_HEADER = struct.Struct("<I8s")


def record_digest(body: bytes) -> bytes:
    """The checksum a frame carries: the body's SHA-256, first 8 bytes."""
    return hashlib.sha256(body).digest()[:8]


def scan(path: str, magic: bytes, decode: Callable[[bytes], Any],
         accept: Callable[[Any], None]) -> Dict[str, Any]:
    """Read a journal without changing it, handing each record that
    ``decode`` reads to ``accept`` as it goes.  ``decode`` raises on a
    body it cannot read.

    Returns ``{ok, magic, records, skipped, corrupt, bytes_good,
    bytes_total}``: ``ok`` is False when the file does not start with
    ``magic``, and ``magic`` holds the bytes it starts with.  ``records``
    counts the records handed over and ``skipped`` the intact frames the
    decoder rejected.  ``corrupt`` is 1 when the file has no magic line
    or ends in a torn or checksum-failing tail, and ``bytes_good`` is
    where the last intact frame ends (0 without a magic line).
    """
    with open(path, "rb") as fh:
        found = fh.read(len(magic))
        bytes_total = os.fstat(fh.fileno()).st_size
        if found != magic:
            return {"ok": False, "magic": found, "records": 0,
                    "skipped": 0, "corrupt": 1, "bytes_good": 0,
                    "bytes_total": bytes_total}
        records = skipped = 0
        good_end = len(magic)
        while good_end < bytes_total:
            header = fh.read(RECORD_HEADER.size)
            if len(header) < RECORD_HEADER.size:
                break
            length, digest = RECORD_HEADER.unpack(header)
            end = good_end + RECORD_HEADER.size + length
            # A frame past the end of the file has a torn body; testing
            # that before the read keeps a damaged length from
            # allocating up to 4 GiB.
            if end > bytes_total:
                break
            body = fh.read(length)
            if record_digest(body) != digest:
                break
            good_end = end
            try:
                record = decode(body)
            except Exception:  # unpickling a body can raise anything
                skipped += 1
                continue
            accept(record)
            records += 1
    return {"ok": True, "magic": magic, "records": records,
            "skipped": skipped, "corrupt": int(good_end < bytes_total),
            "bytes_good": good_end, "bytes_total": bytes_total}


class Journal:
    """One journal file, open for appends after :meth:`open`.

    Args:
        path: the file; :meth:`open` creates it, and its directory, when
            absent.
        magic: the first line, naming the format and its version.
    """

    def __init__(self, path: str, magic: bytes) -> None:
        self.path = path
        self.magic = magic
        self._fh: Optional[BinaryIO] = None

    def open(self, decode: Callable[[bytes], Any],
             accept: Callable[[Any], None]) -> Dict[str, Any]:
        """Create or replay the file, repair it, and open it for appends.

        Each record ``decode`` reads is handed to ``accept`` as it is
        read.  A file without the magic line is reset to it, and a torn
        or checksum-failing tail is truncated to the last intact frame.
        Returns :func:`scan`'s report of the file as it was found.
        """
        os.makedirs(os.path.dirname(os.path.abspath(self.path)),
                    exist_ok=True)
        if not os.path.exists(self.path):
            self._start()
        found = scan(self.path, self.magic, decode, accept)
        if not found["ok"]:
            self._start()
        elif found["corrupt"]:
            os.truncate(self.path, found["bytes_good"])
        self._fh = open(self.path, "ab")
        return found

    def append(self, body: bytes) -> None:
        """Frame one body and flush it to the kernel (no fsync: that is
        not worth its cost per record)."""
        self._fh.write(RECORD_HEADER.pack(len(body), record_digest(body)))
        self._fh.write(body)
        self._fh.flush()

    def reset(self) -> None:
        """Drop every record: the file keeps only its magic line."""
        self.close()
        self._start()
        self._fh = open(self.path, "ab")

    def close(self) -> None:
        self._fh.close()

    def _start(self) -> None:
        with open(self.path, "wb") as fh:
            fh.write(self.magic)
