"""``repro serve`` / ``repro submit`` CLI wiring and exit codes.

The exit-code contract under test (``docs/TESTING.md``): ``submit``
exits 0 when the job is done, 1 on failed jobs or an unreachable
server, 2 with ``--strict`` when the served result is not verify-gated
clean, and 4 (:data:`EXIT_REJECTED`) when the server sheds load with
HTTP 429.
"""

import json
import random
import socket
import subprocess

import pytest

from repro.cli import main
from repro.service import EXIT_REJECTED, ServiceUnreachable
from repro.service.client import (
    BACKOFF_FACTOR,
    BACKOFF_MAX_S,
    JITTER_RANGE,
    ServiceClient,
)

from tests.service.conftest import spawn_server


def free_port():
    """A port nothing is listening on (bound then released)."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def descriptor(state="queued", created=True, **extra):
    data = {"id": "jcafecafecafecafe", "state": state,
            "request_digest": "cafe" * 16, "app": "ckey",
            "tech": "cmos6-800nm", "client": "anonymous",
            "submitted_s": 1.0, "started_s": None, "finished_s": None,
            "waiters": 1, "error": None, "result": None,
            "created": created}
    data.update(extra)
    return data


class TestSubmitExitCodes:
    def test_unreachable_server_exits_1(self, capsys):
        assert main(["submit", "ckey", "--port", str(free_port()),
                     "--timeout", "0.5"]) == 1
        assert "cannot reach" in capsys.readouterr().err

    def test_429_exits_4(self, monkeypatch, capsys):
        def shed(self, payload):
            return 429, {"error": "full", "reason": "queue",
                         "retry_after_s": 7}, {"Retry-After": "7"}

        monkeypatch.setattr(ServiceClient, "submit", shed)
        assert main(["submit", "ckey"]) == EXIT_REJECTED
        err = capsys.readouterr().err
        assert "shedding load" in err and "7" in err

    def test_failed_job_exits_1(self, monkeypatch, capsys):
        monkeypatch.setattr(
            ServiceClient, "submit",
            lambda self, payload: (202, descriptor(), {}))
        monkeypatch.setattr(
            ServiceClient, "wait",
            lambda self, job_id, poll_s=0.2, timeout_s=None:
            descriptor(state="failed", error="VerificationRejected: no",
                       finished_s=2.0))
        assert main(["submit", "ckey"]) == 1
        assert "VerificationRejected" in capsys.readouterr().err

    def test_strict_unverified_exits_2(self, monkeypatch, capsys):
        done = descriptor(state="done", finished_s=2.0,
                          result={"summary": "the table",
                                  "verified": False})
        monkeypatch.setattr(
            ServiceClient, "submit",
            lambda self, payload: (202, descriptor(), {}))
        monkeypatch.setattr(
            ServiceClient, "wait",
            lambda self, job_id, poll_s=0.2, timeout_s=None: done)
        assert main(["submit", "ckey"]) == 0  # lax: served is served
        assert main(["submit", "ckey", "--strict"]) == 2

    def test_no_wait_prints_descriptor_and_exits_0(self, monkeypatch,
                                                   capsys):
        monkeypatch.setattr(
            ServiceClient, "submit",
            lambda self, payload: (202, descriptor(), {}))
        assert main(["submit", "ckey", "--no-wait"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["id"] == "jcafecafecafecafe"

    def test_out_writes_job_json(self, monkeypatch, tmp_path, capsys):
        done = descriptor(state="done", finished_s=2.0,
                          result={"summary": "the table",
                                  "verified": True})
        monkeypatch.setattr(
            ServiceClient, "submit",
            lambda self, payload: (202, descriptor(), {}))
        monkeypatch.setattr(
            ServiceClient, "wait",
            lambda self, job_id, poll_s=0.2, timeout_s=None: done)
        out = tmp_path / "job.json"
        assert main(["submit", "ckey", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["state"] == "done"
        assert "the table" in capsys.readouterr().out

    def test_submitted_payload_carries_the_flags(self, monkeypatch):
        seen = {}

        def record(self, payload):
            seen.update(payload)
            return 429, {"reason": "queue", "retry_after_s": 1}, {}

        monkeypatch.setattr(ServiceClient, "submit", record)
        main(["submit", "ckey", "--scale", "2", "--optimize",
              "--tech", "cmos6-45nm", "--client", "ci"])
        assert seen == {"schema": "repro-service", "version": 3,
                        "app": "ckey", "scale": 2, "optimize": True,
                        "tech": "cmos6-45nm", "client": "ci"}


class TestClientBackoff:
    """Polite polling: exponential backoff, jitter, Retry-After."""

    def test_wait_backs_off_exponentially_with_jitter(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr("repro.service.client.time.sleep",
                            sleeps.append)
        polls = 6
        states = iter(["queued"] * polls + ["done"])
        monkeypatch.setattr(
            ServiceClient, "job",
            lambda self, job_id: (200, {"state": next(states)}))
        client = ServiceClient(rng=random.Random(7))
        job = client.wait("j1", poll_s=0.2)
        assert job["state"] == "done"
        assert len(sleeps) == polls
        # replay the same jitter draws to recover the raw intervals
        expect = random.Random(7)
        interval = 0.2
        for observed in sleeps:
            jitter = expect.uniform(*JITTER_RANGE)
            assert observed == pytest.approx(interval * jitter)
            interval = min(interval * BACKOFF_FACTOR, BACKOFF_MAX_S)
        # intervals grew strictly until the cap
        assert interval == BACKOFF_MAX_S or interval > sleeps[0]

    def test_wait_interval_is_capped(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr("repro.service.client.time.sleep",
                            sleeps.append)
        states = iter(["queued"] * 8 + ["done"])
        monkeypatch.setattr(
            ServiceClient, "job",
            lambda self, job_id: (200, {"state": next(states)}))
        client = ServiceClient(rng=random.Random(1))
        client.wait("j1", poll_s=4.0)
        assert max(sleeps) <= BACKOFF_MAX_S
        assert all(s > 0 for s in sleeps)

    def test_submit_with_retry_honors_retry_after(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr("repro.service.client.time.sleep",
                            sleeps.append)
        responses = iter([
            (429, {"reason": "queue"}, {"Retry-After": "2"}),
            (429, {"reason": "queue", "retry_after_s": 3}, {}),
            (202, {"id": "j1", "state": "queued"}, {}),
        ])
        monkeypatch.setattr(ServiceClient, "submit",
                            lambda self, payload: next(responses))
        client = ServiceClient(rng=random.Random(3))
        status, data, _headers = client.submit_with_retry({}, retries=5)
        assert status == 202 and data["id"] == "j1"
        expect = random.Random(3)
        # header hint first, body fallback second -- both jittered
        assert sleeps[0] == pytest.approx(2 * expect.uniform(*JITTER_RANGE))
        assert sleeps[1] == pytest.approx(3 * expect.uniform(*JITTER_RANGE))

    def test_submit_with_retry_gives_up_after_retries(self, monkeypatch):
        monkeypatch.setattr("repro.service.client.time.sleep",
                            lambda s: None)
        calls = []

        def shed(self, payload):
            calls.append(1)
            return 429, {"reason": "queue", "retry_after_s": 1}, {}

        monkeypatch.setattr(ServiceClient, "submit", shed)
        client = ServiceClient(rng=random.Random(0))
        status, _data, _headers = client.submit_with_retry({}, retries=2)
        assert status == 429
        assert len(calls) == 3  # the original try + 2 retries

    def test_cli_retry_429_resubmits_then_succeeds(self, monkeypatch,
                                                   capsys):
        monkeypatch.setattr("repro.service.client.time.sleep",
                            lambda s: None)
        attempts = []

        def flaky(self, payload):
            attempts.append(1)
            if len(attempts) < 3:
                return 429, {"reason": "queue", "retry_after_s": 1}, \
                    {"Retry-After": "1"}
            return 202, descriptor(), {}

        monkeypatch.setattr(ServiceClient, "submit", flaky)
        monkeypatch.setattr(
            ServiceClient, "wait",
            lambda self, job_id, poll_s=0.2, timeout_s=None:
            descriptor(state="done", finished_s=2.0,
                       result={"summary": "the table",
                               "verified": True}))
        assert main(["submit", "ckey", "--retry-429", "5"]) == 0
        assert len(attempts) == 3

    def test_cli_without_retry_429_exits_4_immediately(self,
                                                       monkeypatch):
        calls = []

        def shed(self, payload):
            calls.append(1)
            return 429, {"reason": "queue", "retry_after_s": 1}, \
                {"Retry-After": "1"}

        monkeypatch.setattr(ServiceClient, "submit", shed)
        assert main(["submit", "ckey"]) == EXIT_REJECTED
        assert len(calls) == 1


class TestEphemeralPort:
    """``repro serve --port 0``: the OS picks, the announce line tells."""

    def test_port_zero_round_trip(self, tmp_path, capsys):
        proc, port = spawn_server(tmp_path, "serve.log")
        try:
            assert port != 0
            assert main(["submit", "ckey", "--port", str(port),
                         "--wait-timeout", "120"]) == 0
            captured = capsys.readouterr()
            assert captured.out.strip(), "summary must reach stdout"
            assert "done" in captured.err
        finally:
            proc.terminate()
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:  # pragma: no cover
                proc.kill()
                proc.wait(timeout=30)


class TestServeParser:
    def test_bad_tech_rejected_at_parse_time(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--tech", "nm-nonsense"])
        assert "unknown technology node" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["serve", "--port", "-1"],
        ["serve", "--queue", "0"],
        ["serve", "--cache-entries", "0"],
        ["submit", "ckey", "--port", "0"],
        ["submit", "no-such-app"],
    ])
    def test_bad_arguments_rejected(self, argv):
        with pytest.raises(SystemExit):
            main(argv)

    def test_lanes_flag_is_gone(self, capsys):
        # one evaluation worker per server: the flag no longer parses
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--lanes", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --lanes" in capsys.readouterr().err

    def test_unreachable_is_distinct_from_rejected(self):
        # regression guard: 1 (unreachable) and 4 (shed) must differ so
        # CI retry policies can tell a dead server from a busy one
        assert EXIT_REJECTED == 4
        assert issubclass(ServiceUnreachable, RuntimeError)
