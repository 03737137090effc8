"""Shared helpers for the service suite: real ``repro serve`` spawns.

The subprocess tests all follow the same recipe — spawn ``repro serve
--port 0``, parse the ephemeral port from the stderr announce line,
talk to it over real HTTP — so the spawn/announce dance lives here.
"""

import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro

ANNOUNCE_RE = re.compile(r"listening on http://127\.0\.0\.1:(\d+)")


def spawn_server(tmp_path, log_name, *extra_args, checkpoint=None,
                 entry=("-m", "repro")):
    """Spawn ``repro serve --port 0 [extra_args]``; return (proc, port).

    The ephemeral port is parsed from the machine-readable announce
    line the server prints to stderr (captured into
    ``tmp_path/log_name``).  Fails the test if the server dies before
    announcing or never announces.  ``entry`` is what the interpreter
    runs in place of ``-m repro``, e.g. ``("-c", code)`` where ``code``
    calls :func:`repro.cli.main` on ``sys.argv[1:]``.
    """
    src_dir = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src_dir), env.get("PYTHONPATH")) if p)
    argv = [sys.executable, *entry, "serve", "--port", "0"]
    if checkpoint is not None:
        argv += ["--checkpoint", str(checkpoint)]
    argv += list(extra_args)
    log = tmp_path / log_name
    proc = subprocess.Popen(
        argv, stdout=subprocess.DEVNULL, stderr=open(log, "w"), env=env)
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        match = ANNOUNCE_RE.search(log.read_text()) \
            if log.exists() else None
        if match:
            return proc, int(match.group(1))
        if proc.poll() is not None:
            pytest.fail(f"server died before announcing: "
                        f"{log.read_text()}")
        time.sleep(0.05)
    proc.kill()
    pytest.fail("server never announced its port")
