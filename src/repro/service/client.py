"""Blocking HTTP client for the service (``repro submit``).

A thin :mod:`http.client` wrapper — the smoke-test counterpart of
``repro serve``: build a ``repro-service`` request, POST it, poll the
job to completion (or follow its event stream), and map the outcome
onto the CLI exit-code contract (``docs/TESTING.md``): 0 done, 1
failed/unreachable, 2 ``--strict`` with an unverified result,
:data:`EXIT_REJECTED` (4) when the server sheds load with 429.

Polling is polite by design: :meth:`ServiceClient.wait` grows its
interval exponentially with **jitter** (a fleet of clients polling one
job never synchronizes into thundering-herd bursts), and 429
resubmissions honor the server's ``Retry-After`` hint — again jittered,
so the shed load does not return as one synchronized wave.
"""

from __future__ import annotations

import json
import random
import sys
import time
from http.client import HTTPConnection, HTTPException
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.service.core import SERVICE_SCHEMA_NAME, SERVICE_SCHEMA_VERSION

#: Exit status of ``repro submit`` when the server answered 429.
EXIT_REJECTED = 4

#: Poll-interval growth factor per attempt (exponential backoff).
BACKOFF_FACTOR = 1.6

#: Ceiling on the grown poll interval, seconds.
BACKOFF_MAX_S = 5.0

#: Jitter range: each sleep is the grown interval scaled by a uniform
#: draw from this window, so independent pollers decorrelate.
JITTER_RANGE = (0.5, 1.0)


class ServiceUnreachable(RuntimeError):
    """The server could not be reached (connection refused, timeout)."""


class ServiceClient:
    """Minimal JSON-over-HTTP client for one ``repro serve`` instance.

    ``rng`` seeds the poll/backoff jitter (a shared
    :class:`random.Random`; injectable so tests are deterministic).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8357,
                 timeout_s: float = 10.0,
                 rng: Optional[random.Random] = None) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self.rng = rng if rng is not None else random.Random()

    def _request(self, method: str, path: str,
                 payload: Optional[Dict[str, Any]] = None
                 ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        conn = HTTPConnection(self.host, self.port,
                              timeout=self.timeout_s)
        try:
            body = (json.dumps(payload).encode("utf-8")
                    if payload is not None else None)
            headers = ({"Content-Type": "application/json"}
                       if body is not None else {})
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            raw = response.read().decode("utf-8")
            data = json.loads(raw) if raw.strip() else {}
            return response.status, data, dict(response.getheaders())
        except (OSError, HTTPException) as exc:
            raise ServiceUnreachable(
                f"cannot reach repro service at "
                f"http://{self.host}:{self.port}{path}: {exc}") from exc
        finally:
            conn.close()

    # -- endpoint wrappers ---------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/healthz")[1]

    def metrics(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/metrics")[1]

    def submit(self, payload: Dict[str, Any]
               ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        """POST one request; returns ``(status, body, headers)``."""
        return self._request("POST", "/v1/jobs", payload)

    def submit_with_retry(self, payload: Dict[str, Any], retries: int = 0
                          ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        """POST one request, resubmitting up to ``retries`` times on 429.

        Each resubmission sleeps the server's ``Retry-After`` hint (its
        drain-time estimate) scaled by the jitter window, so a fleet of
        shed clients trickles back instead of returning as one wave.
        With ``retries=0`` this is exactly :meth:`submit`.
        """
        attempt = 0
        while True:
            status, data, headers = self.submit(payload)
            if status != 429 or attempt >= retries:
                return status, data, headers
            attempt += 1
            try:
                retry_after = float(headers.get(
                    "Retry-After", data.get("retry_after_s", 1)))
            except (TypeError, ValueError):
                retry_after = 1.0
            time.sleep(max(0.05, retry_after)
                       * self.rng.uniform(*JITTER_RANGE))

    def job(self, job_id: str) -> Tuple[int, Dict[str, Any]]:
        status, data, _headers = self._request(
            "GET", f"/v1/jobs/{job_id}")
        return status, data

    def events(self, job_id: str) -> Iterator[Dict[str, Any]]:
        """Follow ``GET /v1/jobs/{id}/events``; yields decoded events.

        The generator ends when the server closes the stream (after the
        ``finished`` event).  ``http.client`` undoes the chunked
        framing, so each line read is one JSON event.
        """
        conn = HTTPConnection(self.host, self.port,
                              timeout=self.timeout_s)
        try:
            conn.request("GET", f"/v1/jobs/{job_id}/events")
            response = conn.getresponse()
            if response.status != 200:
                raw = response.read().decode("utf-8")
                data = json.loads(raw) if raw.strip() else {}
                raise RuntimeError(
                    f"cannot stream job {job_id!r} "
                    f"(HTTP {response.status}: {data.get('error')})")
            for line in response:
                line = line.strip()
                if line:
                    yield json.loads(line.decode("utf-8"))
        except (OSError, HTTPException) as exc:
            raise ServiceUnreachable(
                f"cannot reach repro service at "
                f"http://{self.host}:{self.port}"
                f"/v1/jobs/{job_id}/events: {exc}") from exc
        finally:
            conn.close()

    def wait(self, job_id: str, poll_s: float = 0.2,
             timeout_s: Optional[float] = None) -> Dict[str, Any]:
        """Poll until the job reaches a terminal state; returns it.

        ``poll_s`` seeds the first interval; subsequent polls back off
        exponentially (×:data:`BACKOFF_FACTOR`, capped at
        :data:`BACKOFF_MAX_S`) and every sleep is jittered into
        :data:`JITTER_RANGE`, so concurrent pollers spread out instead
        of hammering the server in lockstep.
        """
        deadline = (time.monotonic() + timeout_s
                    if timeout_s is not None else None)
        interval = max(0.001, poll_s)
        while True:
            status, job = self.job(job_id)
            if status != 200:
                raise RuntimeError(
                    f"job {job_id!r} vanished while polling "
                    f"(HTTP {status}: {job.get('error')})")
            if job["state"] in ("done", "failed"):
                return job
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id!r} still {job['state']!r} after "
                    f"{timeout_s}s")
            sleep_s = interval * self.rng.uniform(*JITTER_RANGE)
            if deadline is not None:
                sleep_s = min(sleep_s, max(0.0, deadline
                                           - time.monotonic()))
            time.sleep(sleep_s)
            interval = min(interval * BACKOFF_FACTOR, BACKOFF_MAX_S)


def build_request_payload(app: str, scale: int = 1,
                          optimize: bool = False,
                          tech: Optional[str] = None,
                          client: Optional[str] = None) -> Dict[str, Any]:
    """The ``repro submit`` request body for one bundled application."""
    payload: Dict[str, Any] = {
        "schema": SERVICE_SCHEMA_NAME,
        "version": SERVICE_SCHEMA_VERSION,
        "app": app,
        "scale": scale,
        "optimize": optimize,
    }
    if tech is not None:
        payload["tech"] = tech
    if client is not None:
        payload["client"] = client
    return payload


def _follow_stream(client: ServiceClient, job_id: str) -> None:
    """Print the job's event stream to stderr until terminal."""
    for event in client.events(job_id):
        kind = event.get("event")
        if kind == "progress":
            print(f"job {job_id} progress {event.get('done')}"
                  f"/{event.get('total')}", file=sys.stderr)
        elif kind == "started":
            print(f"job {job_id} started", file=sys.stderr)
        elif kind == "finished":
            print(f"job {job_id} finished: {event.get('state')}",
                  file=sys.stderr)


def run_submit_command(args) -> int:
    """Drive one submission end to end (the ``repro submit`` body)."""
    client = ServiceClient(host=args.host, port=args.port,
                           timeout_s=args.timeout or 10.0)
    payload = build_request_payload(
        args.app, scale=args.scale, optimize=args.optimize,
        tech=args.tech, client=args.client)
    try:
        status, data, headers = client.submit_with_retry(
            payload, retries=getattr(args, "retry_429", 0))
    except ServiceUnreachable as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if status == 429:
        retry = headers.get("Retry-After", "?")
        print(f"server is shedding load ({data.get('reason')}); "
              f"retry after {retry}s", file=sys.stderr)
        return EXIT_REJECTED
    if status != 202:
        print(f"submission refused (HTTP {status}): "
              f"{data.get('error', data)}", file=sys.stderr)
        return 1
    job_id = data["id"]
    print(f"job {job_id} {data['state']} "
          f"({'new' if data.get('created') else 'coalesced'})",
          file=sys.stderr)
    if args.no_wait:
        print(json.dumps(data, indent=2, sort_keys=True))
        return 0
    try:
        if getattr(args, "stream", False):
            _follow_stream(client, job_id)
            status, job = client.job(job_id)
            if status != 200:
                raise RuntimeError(
                    f"job {job_id!r} vanished after streaming "
                    f"(HTTP {status}: {job.get('error')})")
        else:
            job = client.wait(job_id, poll_s=args.poll,
                              timeout_s=args.wait_timeout)
    except (ServiceUnreachable, RuntimeError, TimeoutError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(job, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"response written to {args.out}", file=sys.stderr)
    if job["state"] == "failed":
        print(f"job {job_id} failed: {job.get('error')}", file=sys.stderr)
        return 1
    result = job["result"]
    print(result["summary"])
    elapsed = (job["finished_s"] or 0) - (job["submitted_s"] or 0)
    print(f"job {job_id} done in {elapsed:.2f}s "
          f"(verified: {result['verified']})", file=sys.stderr)
    if args.strict and not result["verified"]:
        return 2
    return 0
