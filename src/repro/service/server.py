"""Stdlib-only asyncio HTTP/JSON server over the partitioning kernel.

No web framework: requests are parsed off :mod:`asyncio` streams
directly (request line, headers, ``Content-Length`` body) and every
response is JSON with ``Connection: close``.  The surface
(:data:`ROUTES`, documented with worked examples in ``docs/SERVICE.md``):

* ``POST /v1/jobs`` — submit a ``repro-service`` request; ``202`` with
  the job descriptor (``201``-style creation vs coalescing is reported
  via the ``created`` flag), ``400`` on a validation error, ``429`` +
  ``Retry-After`` under backpressure.
* ``GET /v1/jobs`` — list job descriptors (without results).
* ``GET /v1/jobs/{id}`` — poll one job; the ``result`` object appears
  when the state reaches ``done``.
* ``GET /v1/jobs/{id}/events`` — **stream** the job's lifecycle as
  chunked JSON lines (``queued``/``started``/``progress``/``finished``),
  one event per line, closing after the terminal event.  The one
  non-atomic response; everything else is a single JSON document.
* ``GET /v1/metrics`` — the shared tracer's counters plus cache, queue
  and journal statistics (includes ``cache.hit_rate`` and the
  coalescing proof: ``service.jobs.submitted`` vs
  ``service.jobs.coalesced`` vs ``service.evaluations``).
* ``GET /v1/healthz`` — liveness: ``{"status": "ok", ...}``.

Error payloads are always ``{"error": <message>, ...}``; admission
rejections add ``"reason"`` (``queue`` | ``client``) and
``"retry_after_s"`` mirroring the ``Retry-After`` header.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Any, Dict, Optional, Tuple

from repro.obs import NullTracer, Tracer
from repro.service.core import (
    RequestError,
    SERVICE_SCHEMA_NAME,
    SERVICE_SCHEMA_VERSION,
    PartitionRequest,
    ServiceCore,
)
from repro.service.jobs import AdmissionError, JobManager
from repro.service.journal import JobJournal

#: The HTTP surface, method + path template.
ROUTES = (
    ("POST", "/v1/jobs"),
    ("GET", "/v1/jobs"),
    ("GET", "/v1/jobs/{id}"),
    ("GET", "/v1/jobs/{id}/events"),
    ("GET", "/v1/metrics"),
    ("GET", "/v1/healthz"),
)

#: Largest request body accepted, in bytes (BDL sources are small; a
#: larger body is a client error, not a workload).
MAX_BODY_BYTES = 1 << 20

_STATUS_TEXT = {200: "OK", 202: "Accepted", 400: "Bad Request",
                404: "Not Found", 405: "Method Not Allowed",
                413: "Payload Too Large", 429: "Too Many Requests",
                500: "Internal Server Error"}


class ServiceServer:
    """The asyncio HTTP server; owns a :class:`JobManager` and its core.

    Args:
        core: evaluation kernel (a default verify-gated one is built if
            omitted).
        host / port: bind address; ``port=0`` lets the OS pick — read
            :attr:`port` after :meth:`start` for the real one.
        default_tech: technology node applied to requests that omit
            ``tech`` (``repro serve --tech``).
        max_queue / max_pending_per_client: admission bounds, forwarded
            to the :class:`JobManager`.
        journal: optional :class:`JobJournal` making jobs durable across
            restarts (``repro serve --checkpoint`` builds one next to
            the evaluation journal).
        tracer: shared observability sink, exposed at ``/v1/metrics``.
    """

    def __init__(self, core: Optional[ServiceCore] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 default_tech: Optional[str] = None,
                 max_queue: int = 64,
                 max_pending_per_client: Optional[int] = None,
                 journal: Optional[JobJournal] = None,
                 tracer: Optional[Tracer] = None) -> None:
        self.tracer = tracer or NullTracer()
        self.core = core if core is not None \
            else ServiceCore(tracer=self.tracer)
        self.host = host
        self._requested_port = port
        self.default_tech = default_tech
        self.journal = journal
        self.manager = JobManager(
            self.core, max_queue=max_queue,
            max_pending_per_client=max_pending_per_client,
            tracer=self.tracer, journal=journal)
        self._server: Optional[asyncio.AbstractServer] = None
        self._started = time.time()

    # -- lifecycle -----------------------------------------------------

    @property
    def port(self) -> int:
        """The actually bound port (meaningful after :meth:`start`)."""
        if self._server is not None and self._server.sockets:
            return self._server.sockets[0].getsockname()[1]
        return self._requested_port

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self._requested_port)
        await self.manager.start()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.manager.close()

    # -- request handling ----------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            parsed = await self._parse(reader)
            if isinstance(parsed, tuple) and len(parsed) == 3 \
                    and isinstance(parsed[0], str):
                method, path, body = parsed
                stream_id = self._events_path_job(method, path)
                if stream_id is not None \
                        and self.manager.get(stream_id) is not None:
                    await self._stream_events(stream_id, writer)
                    return
                status, payload, headers = self._route(method, path, body)
            else:
                status, payload, headers = parsed
        except Exception as exc:  # never let a handler kill the loop
            self.tracer.count("service.http.errors")
            status, headers = 500, {}
            payload = {"error": f"{type(exc).__name__}: {exc}"}
        body_bytes = (json.dumps(payload, sort_keys=True) + "\n"
                      ).encode("utf-8")
        head = [f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
                "Content-Type: application/json",
                f"Content-Length: {len(body_bytes)}",
                "Connection: close"]
        head.extend(f"{name}: {value}" for name, value in headers.items())
        try:
            writer.write(("\r\n".join(head) + "\r\n\r\n").encode("ascii"))
            writer.write(body_bytes)
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass  # client went away mid-response; nothing to serve
        finally:
            writer.close()

    async def _parse(self, reader: asyncio.StreamReader):
        """Read one request; returns ``(method, path, body)`` or an
        early-error ``(status, payload, headers)`` response triple."""
        self.tracer.count("service.http.requests")
        request_line = (await reader.readline()).decode(
            "latin-1", "replace").strip()
        parts = request_line.split()
        if len(parts) != 3:
            self.tracer.count("service.http.errors")
            return 400, {"error": f"malformed request line "
                                  f"{request_line!r}"}, {}
        method, path, _version = parts
        content_length = 0
        while True:
            line = (await reader.readline()).decode("latin-1", "replace")
            if line in ("\r\n", "\n", ""):
                break
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    content_length = -1
        if content_length < 0 or content_length > MAX_BODY_BYTES:
            self.tracer.count("service.http.errors")
            return 413, {"error": "bad or oversized Content-Length"}, {}
        body = (await reader.readexactly(content_length)
                if content_length else b"")
        return method, path.rstrip("/") or "/", body

    @staticmethod
    def _events_path_job(method: str, path: str) -> Optional[str]:
        """The job id of a ``GET /v1/jobs/{id}/events`` path, else None."""
        if method != "GET" or not path.startswith("/v1/jobs/") \
                or not path.endswith("/events"):
            return None
        job_id = path[len("/v1/jobs/"):-len("/events")]
        return job_id if job_id and "/" not in job_id else None

    async def _stream_events(self, job_id: str,
                             writer: asyncio.StreamWriter) -> None:
        """Serve one job's event stream as chunked JSON lines."""
        head = ["HTTP/1.1 200 OK",
                "Content-Type: application/x-ndjson",
                "Transfer-Encoding: chunked",
                "Cache-Control: no-store",
                "Connection: close"]
        try:
            writer.write(("\r\n".join(head) + "\r\n\r\n").encode("ascii"))
            async for event in self.manager.events(job_id):
                line = (json.dumps(event, sort_keys=True) + "\n"
                        ).encode("utf-8")
                writer.write(b"%x\r\n" % len(line) + line + b"\r\n")
                await writer.drain()
            writer.write(b"0\r\n\r\n")
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            self.tracer.count("service.stream.disconnected")
        finally:
            writer.close()

    def _route(self, method: str, path: str, body: bytes
               ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        if path == "/v1/jobs":
            if method == "POST":
                return self._post_job(body)
            if method == "GET":
                return 200, {"jobs": [job.to_dict(include_result=False)
                                      for job in self.manager.jobs()]}, {}
            return 405, {"error": f"{method} not allowed on {path}"}, {}
        if path.startswith("/v1/jobs/"):
            tail = path[len("/v1/jobs/"):]
            if tail.endswith("/events"):
                # The live-stream case was intercepted in _handle; what
                # reaches here is an unknown job or a bad method.
                job_id = tail[:-len("/events")]
                if method != "GET":
                    return 405, {"error": f"{method} not allowed on "
                                          f"{path}"}, {}
                self.tracer.count("service.http.errors")
                return 404, {"error": f"unknown job {job_id!r}"}, {}
            if method != "GET":
                return 405, {"error": f"{method} not allowed on {path}"}, {}
            return self._get_job(tail)
        if path == "/v1/metrics" and method == "GET":
            return 200, self._metrics(), {}
        if path == "/v1/healthz" and method == "GET":
            return 200, {"status": "ok",
                         "schema": SERVICE_SCHEMA_NAME,
                         "version": SERVICE_SCHEMA_VERSION,
                         "uptime_s": round(time.time() - self._started,
                                           3)}, {}
        self.tracer.count("service.http.errors")
        return 404, {"error": f"no route for {method} {path}"}, {}

    def _post_job(self, body: bytes
                  ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        try:
            data = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self.tracer.count("service.http.errors")
            return 400, {"error": f"request body is not valid JSON: "
                                  f"{exc}"}, {}
        try:
            request = PartitionRequest.from_dict(
                data, default_tech=self.default_tech)
        except RequestError as exc:
            self.tracer.count("service.http.errors")
            payload: Dict[str, Any] = {"error": str(exc)}
            if exc.field is not None:
                payload["field"] = exc.field
            return 400, payload, {}
        try:
            job, created = self.manager.submit(request)
        except AdmissionError as exc:
            return 429, {"error": str(exc), "reason": exc.reason,
                         "retry_after_s": exc.retry_after_s}, \
                {"Retry-After": str(exc.retry_after_s)}
        descriptor = job.to_dict(include_result=job.finished)
        descriptor["created"] = created
        return 202, descriptor, {}

    def _get_job(self, job_id: str
                 ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        job = self.manager.get(job_id)
        if job is None:
            return 404, {"error": f"unknown job {job_id!r}"}, {}
        return 200, job.to_dict(), {}

    def _metrics(self) -> Dict[str, Any]:
        counters = {name: self.tracer.counters[name]
                    for name in sorted(self.tracer.counters)}
        cache = self.core.cache.stats()
        data = {
            "schema": SERVICE_SCHEMA_NAME,
            "version": SERVICE_SCHEMA_VERSION,
            "uptime_s": round(time.time() - self._started, 3),
            "counters": counters,
            "cache": cache,
            "jobs": self.manager.stats(),
        }
        if self.journal is not None:
            data["journal"] = self.journal.stats()
        return data


async def run_server(server: ServiceServer,
                     announce=None) -> None:
    """Start ``server`` and serve until cancelled (the CLI entry path)."""
    await server.start()
    if announce is not None:
        announce(server.host, server.port)
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.close()
