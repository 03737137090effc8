"""The repository benchmark: three seeded workloads, end to end and by layer.

One run measures one workload for ``--seconds`` and prints, as the last
line of standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics,
measured with no tracing; ``--trace 1`` reports the per-layer metrics from
a run with the layer calls wrapped (see ``tracing.py`` and ``README.md``)::

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all       # every workload, one table

Workloads:

* ``table1`` -- the six bundled apps through ``LowPowerFlow().run`` in a
  seed-shuffled order, one fresh process per pass (as ``repro table1``).
* ``cachesweep`` -- the five apps that model memory: compile, link, initial
  run with trace capture, the 18-geometry ``explore_cache_profiles`` sweep
  and the energy ranking, one fresh process per pass.
* ``service`` -- ``repro serve`` as a subprocess, driven by a closed loop of
  two clients; every third submission re-sends a finished request.

Only ``src/`` next to this directory is used; nothing needs installing.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import queue
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from http.client import HTTPConnection
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"

import checks  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("table1", "cachesweep", "service")
PASS_APPS = {"table1": ("3d", "MPG", "ckey", "digs", "engine", "trick"),
             # ckey models no memory system, so it has no trace to sweep.
             "cachesweep": ("3d", "MPG", "digs", "engine", "trick")}
SERVICE_APPS = PASS_APPS["table1"]
SERVICE_NODES = ("cmos6-800nm", "cmos6-45nm", "cmos6-32nm", "cmos6-22nm",
                 "cmos6-16nm")
#: Closed-loop clients, one per CPU of the machine the sizes were set on.
SERVICE_CLIENTS = 2
#: Every REPEAT_EVERY-th submission re-sends a request already finished.
REPEAT_EVERY = 3
#: Server spawns per untraced service run; set-up is their median.
SERVICE_SETUPS = 3
PASS_TIMEOUT_S = 150
HTTP_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio",
    "latency_p50_s": "s", "latency_p75_s": "s", "throughput_per_s": "1/s",
}

PER_LAYER = {
    "lang.compile_s": "s", "lang.interp_s": "s", "lang.interp.calls": "count",
    "lang.interp.steps": "count", "lang.interp.steps_per_s": "1/s",
    "isa.link_s": "s", "isa.sim_s": "s", "isa.sim.calls": "count",
    "isa.instructions": "count", "isa.instr_per_s": "1/s",
    "mem.trace_events": "count", "mem.replay_s": "s",
    "mem.replay.calls": "count", "mem.replay.events": "count",
    "mem.replay_events_per_s": "1/s",
    "power.initial_s": "s", "power.partitioned_s": "s",
    "cluster.prepare_s": "s", "cluster.decomposed": "count",
    "cluster.preselected": "count",
    "sched.schedule_s": "s", "sched.schedule.calls": "count",
    "sched.bind_s": "s",
    "core.evaluate_s": "s", "core.pairs": "count",
    "core.pairs_failed": "count", "core.kept_ratio": "ratio",
    "core.decide_s": "s", "core.sweep_s": "s",
    "core.cache_hit_ratio": "ratio", "core.checkpoint_s": "s",
    "core.checkpoint_bytes": "bytes",
    "synth_s": "s", "synth.calls": "count",
    "verify_s": "s", "verify.calls": "count",
    "service.submit_s": "s", "service.queue_wait_s": "s",
    "service.eval_s": "s", "service.evaluate_s": "s",
    "service.coalesced_ratio": "ratio", "service.journal_s": "s",
    "service.journal_bytes": "bytes", "service.http_requests": "count",
    "service.repeat_p50_s": "s",
    "trace.overhead_frac": "ratio", "trace.unattributed_frac": "ratio",
}


def child_env() -> Dict[str, str]:
    """Environment of every process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    return env


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of ``values``; 0.0
    when there are none (a metric of nothing that happened)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100.0
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# ---------------------------------------------------------------------------
# table1 and cachesweep: one fresh process per pass
# ---------------------------------------------------------------------------

def run_pass(workload: str, order: List[str], traced: bool,
             workdir: Path, index: int) -> Dict[str, Any]:
    out = workdir / f"pass-{index}-{int(traced)}.json"
    spawned_at = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), workload,
         ",".join(order), str(out), repr(spawned_at), str(int(traced))],
        env=child_env(), stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0 or not out.exists():
        error = f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"
        return {"ops": [{"app": app, "seconds": None, "problems": [error]}
                        for app in order], "pass_s": None}
    return checks.load_json(out)


def run_passes(workload: str, seed: int, seconds: float, traced: bool,
               workdir: Path) -> Dict[str, Any]:
    """Passes while the next one would end within half a pass of
    ``seconds``.

    Traced runs pair an untraced and a traced pass over the same order,
    so the tracing overhead is measured on equal work; which one runs
    first alternates between pairs.
    """
    rng = random.Random(seed)
    passes: Dict[bool, List[Dict[str, Any]]] = {False: [], True: []}
    walls: List[float] = []
    started = time.monotonic()
    for index in itertools.count():
        order = list(PASS_APPS[workload])
        rng.shuffle(order)
        began = time.monotonic()
        modes = ((False, True), (True, False))[index % 2] if traced \
            else (False,)
        for mode in modes:
            passes[mode].append(run_pass(workload, order, mode, workdir,
                                         index))
        walls.append(time.monotonic() - began)
        if time.monotonic() - started + statistics.fmean(walls) / 2 \
                > seconds:
            break
    return passes


def pass_result(workload: str, passes, traced: bool) -> Dict[str, Any]:
    measured = passes[traced]
    ops = [op for p in passes[False] + passes[True] for op in p["ops"]]
    failed = sum(1 for op in ops if op["problems"])
    times = [p["pass_s"] for p in measured if p["pass_s"] is not None]
    notes = [problem for op in ops for problem in op["problems"]]
    if workload == "table1":
        views = {app: view for p in measured
                 for app, view in p.get("views", {}).items()}
        deviation = checks.paper_deviation(views)
        if deviation:
            notes.append(deviation)
    if not traced:
        metrics = {
            "setup_s": statistics.median(
                p["setup_s"] for p in measured if p["pass_s"] is not None),
            "peak_rss_mb": statistics.median(
                p["rss_mb"] for p in measured if p["pass_s"] is not None),
            "ok_frac": ratio(len(ops) - failed, len(ops)),
            "latency_p50_s": percentile(times, 50),
            "latency_p75_s": percentile(times, 75),
            "throughput_per_s": ratio(len(ops) - failed, sum(times)),
        }
    else:
        records = [r for p in measured for r in p.get("spans", [])]
        totals = tracing.layer_totals(records)
        base = [p["pass_s"] for p in passes[False]
                if p["pass_s"] is not None]
        metrics = layer_metrics(totals, max(1, len(times)))
        metrics["trace.overhead_frac"] = ratio(sum(times), sum(base)) - 1.0
        metrics["trace.unattributed_frac"] = 1.0 - ratio(
            sum(t["self_s"] for t in totals.values()), sum(times))
    return {"attempted": len(ops), "failed": failed, "metrics": metrics,
            "notes": notes, "spans": None if not traced else records}


# ---------------------------------------------------------------------------
# service: repro serve + a closed loop of clients
# ---------------------------------------------------------------------------

def http_json(port: int, method: str, path: str,
              payload: Optional[Dict[str, Any]] = None):
    conn = HTTPConnection("127.0.0.1", port, timeout=HTTP_TIMEOUT_S)
    try:
        body = None if payload is None else json.dumps(payload).encode()
        conn.request(method, path, body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        raw = response.read()
        return response.status, (json.loads(raw) if raw.strip() else {})
    finally:
        conn.close()


def follow_events(port: int, job_id: str):
    """Yield ``(event, arrival time)`` from the job's event stream."""
    conn = HTTPConnection("127.0.0.1", port, timeout=HTTP_TIMEOUT_S)
    try:
        conn.request("GET", f"/v1/jobs/{job_id}/events")
        response = conn.getresponse()
        if response.status != 200:
            raise RuntimeError(f"event stream answered {response.status}")
        for line in response:
            if line.strip():
                yield json.loads(line), time.monotonic()
    finally:
        conn.close()


class Server:
    """``repro serve --port 0`` in a subprocess, from spawn to SIGINT."""

    ANNOUNCE = re.compile(r"listening on http://[^:\s]+:(\d+)")

    def __init__(self, workdir: Path, spans_path: Optional[Path] = None):
        self.checkpoint = Path(tempfile.mkdtemp(dir=workdir,
                                                prefix="checkpoint-"))
        cli = ["serve", "--port", "0", "--checkpoint", str(self.checkpoint)]
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro"] + cli
        else:
            cmd = [sys.executable, str(BENCH_DIR / "serve_traced.py"),
                   str(spans_path)] + cli
        self.lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self.log: List[str] = []
        spawned_at = time.monotonic()
        self.proc = subprocess.Popen(
            cmd, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        self._reader = threading.Thread(target=self._read_stderr,
                                        daemon=True)
        self._reader.start()
        try:
            self.port = self._await_port(spawned_at + 60)
            self._await_health(spawned_at + 60)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.monotonic() - spawned_at

    def _read_stderr(self) -> None:
        for line in self.proc.stderr:
            self.log.append(line)
            self.lines.put(line)
        self.lines.put(None)

    def _await_port(self, deadline: float) -> int:
        while True:
            try:
                line = self.lines.get(
                    timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise TimeoutError("server never announced its port")
            if line is None:
                raise RuntimeError("server exited before announcing: "
                                   + "".join(self.log)[-2000:])
            match = self.ANNOUNCE.search(line)
            if match:
                return int(match.group(1))

    def _await_health(self, deadline: float) -> None:
        while True:
            try:
                if http_json(self.port, "GET", "/v1/healthz")[0] == 200:
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise TimeoutError("server never answered /v1/healthz")
            time.sleep(0.002)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def journal_bytes(self, name: str) -> int:
        path = self.checkpoint / name
        return path.stat().st_size if path.exists() else 0

    def stop(self) -> None:
        """SIGINT (the server closes its journals), then kill if stuck."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=5)


def service_sequence(seed: int) -> List[tuple]:
    """The 60 distinct requests: a fixed app rotation, seeded variants.

    Round ``k`` holds every app once, in a fixed order, each with the
    ``k``-th of its (tech node, optimize) variants in seeded order.  Every
    run thus offers the same load shape -- short and long evaluations in
    the same slots -- while the seed draws what each slot computes.  With
    the app order seeded too, the new-job p50 of a 40-second run moved by
    about 11% between seeds from client pairing alone (README.md).
    """
    rng = random.Random(seed)
    variants = {}
    for app in SERVICE_APPS:
        combos = [(node, optimize) for node in SERVICE_NODES
                  for optimize in (False, True)]
        rng.shuffle(combos)
        variants[app] = combos
    return [(app,) + variants[app][round_index]
            for round_index in range(len(SERVICE_NODES) * 2)
            for app in SERVICE_APPS]


class ClosedLoop:
    """Clients that each send their next request when the last finished."""

    def __init__(self, port: int, seed: int, seconds: float,
                 expected: Dict[str, Any]) -> None:
        self.port = port
        self.sequence = service_sequence(seed)
        self.repeat_rng = random.Random(f"{seed}:repeats")
        self.seconds = seconds
        self.expected = expected
        self.records: List[Dict[str, Any]] = []
        self.done: set = set()  # requests whose job finished correctly
        self._next_new = 0
        self._lock = threading.Lock()
        self._errors: List[BaseException] = []

    def _next_request(self) -> Optional[Dict[str, Any]]:
        with self._lock:
            if time.monotonic() >= self.deadline:
                return None
            if len(self.records) % REPEAT_EVERY == REPEAT_EVERY - 1 \
                    and self.done:
                request = self.repeat_rng.choice(sorted(self.done))
                kind = "repeat"
            elif self._next_new < len(self.sequence):
                request = self.sequence[self._next_new]
                self._next_new += 1
                kind = "new"
            else:
                return None
            record = {"kind": kind, "request": request, "problems": []}
            self.records.append(record)
            return record

    def _client(self, name: str) -> None:
        try:
            while True:
                record = self._next_request()
                if record is None:
                    return
                try:
                    self._submit(name, record)
                except (OSError, RuntimeError, ValueError) as exc:
                    record["problems"].append(f"{type(exc).__name__}: {exc}")
        except BaseException as exc:  # re-raised by run() after join
            self._errors.append(exc)

    def _submit(self, client: str, record: Dict[str, Any]) -> None:
        app, tech, optimize = record["request"]
        sent = time.monotonic()
        status, job = http_json(self.port, "POST", "/v1/jobs", {
            "app": app, "tech": tech, "optimize": optimize,
            "client": client})
        answered = time.monotonic()
        if status != 202:
            record["problems"].append(f"POST answered {status}: "
                                      f"{job.get('error')}")
            return
        started = finished = None
        for event, arrived in follow_events(self.port, job["id"]):
            if event["event"] == "started":
                started = arrived
            elif event["event"] == "finished":
                finished = arrived
                break
        if started is None or finished is None:
            raise RuntimeError("event stream ended before the job finished")
        status, job = http_json(self.port, "GET", f"/v1/jobs/{job['id']}")
        record.update(job_id=job.get("id"), latency_s=finished - sent,
                      queue_s=started - answered, eval_s=finished - started,
                      finished_at=finished)
        if status != 200 or job.get("state") != "done":
            record["problems"].append(
                f"job ended {job.get('state')}: {job.get('error')}")
            return
        # The server's own started/finished stamps (millisecond precision).
        record["server_eval_s"] = job["finished_s"] - job["started_s"]
        record["problems"].extend(checks.check_service_result(
            app, tech, optimize, job["result"], self.expected))
        if not record["problems"]:
            with self._lock:
                self.done.add(record["request"])

    def run(self) -> "ClosedLoop":
        self.started = time.monotonic()
        self.deadline = self.started + self.seconds
        threads = [threading.Thread(target=self._client,
                                    args=(f"bench-{i}",), daemon=True)
                   for i in range(SERVICE_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if self._errors:
            raise self._errors[0]
        return self

    def ok(self, kind: Optional[str] = None) -> List[Dict[str, Any]]:
        return [r for r in self.records if not r["problems"]
                and (kind is None or r["kind"] == kind)]


def run_service(seed: int, seconds: float, traced: bool,
                workdir: Path) -> Dict[str, Any]:
    expected = checks.expected("service")
    if not traced:
        setups = []
        for _ in range(SERVICE_SETUPS - 1):
            server = Server(workdir)
            setups.append(server.setup_s)
            server.stop()
        server = Server(workdir)
        setups.append(server.setup_s)
        try:
            loop = ClosedLoop(server.port, seed, seconds, expected).run()
            rss = server.peak_rss_mb()
        finally:
            server.stop()
        new = [r["latency_s"] for r in loop.ok("new")]
        ended = max((r["finished_at"] for r in loop.ok()),
                    default=loop.started)
        metrics = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss,
            "ok_frac": ratio(len(loop.ok()), len(loop.records)),
            "latency_p50_s": percentile(new, 50),
            "latency_p75_s": percentile(new, 75),
            "throughput_per_s": ratio(len(loop.ok()), ended - loop.started),
        }
        records = None
    else:
        # Same requests twice, untraced then traced: the difference is
        # the tracing overhead, the traced half gives the layer numbers.
        base_server = Server(workdir)
        try:
            base = ClosedLoop(base_server.port, seed, seconds / 2,
                              expected).run()
        finally:
            base_server.stop()
        spans_path = workdir / "server-spans.json"
        server = Server(workdir, spans_path=spans_path)
        try:
            loop = ClosedLoop(server.port, seed, seconds / 2, expected).run()
            _, server_metrics = http_json(server.port, "GET", "/v1/metrics")
        finally:
            server.stop()
        records = checks.load_json(spans_path)
        metrics = service_layer_metrics(records, base, loop, server_metrics,
                                        server)
    submissions = loop.records + (base.records if traced else [])
    return {"attempted": len(submissions),
            "failed": sum(1 for r in submissions if r["problems"]),
            "metrics": metrics,
            "notes": [f"{r['request']}: {p}" for r in submissions
                      for p in r["problems"]],
            "spans": records}


def service_layer_metrics(records, base: ClosedLoop, loop: ClosedLoop,
                          server_metrics: Dict[str, Any],
                          server: Server) -> Dict[str, float]:
    totals = tracing.layer_totals(records)
    metrics = layer_metrics(totals, 1)
    new = loop.ok("new")
    cache = server_metrics.get("cache", {})
    metrics.update({
        "core.cache_hit_ratio": ratio(
            cache.get("hits", 0), cache.get("hits", 0)
            + cache.get("misses", 0)),
        "core.checkpoint_bytes": server.journal_bytes("cache.journal"),
        "service.queue_wait_s": percentile([r["queue_s"] for r in new], 50),
        "service.eval_s": percentile([r["eval_s"] for r in new], 50),
        "service.journal_bytes": server.journal_bytes("jobs.journal"),
        "service.http_requests": server_metrics.get("counters", {}).get(
            "service.http.requests", 0),
        "service.repeat_p50_s": percentile(
            [r["latency_s"] for r in loop.ok("repeat")], 50),
    })
    base_eval = {r["request"]: r["eval_s"] for r in base.ok("new")}
    common = [r for r in new if r["request"] in base_eval]
    metrics["trace.overhead_frac"] = ratio(
        sum(r["eval_s"] for r in common),
        sum(base_eval[r["request"]] for r in common)) - 1.0
    # Against the server's started-to-finished window of each new job,
    # which the submission and the journal records fall outside of.
    jobs = {r["job_id"] for r in new}
    attributed = sum(
        rec["end"] - rec["start"] - rec["child_s"] for rec in records
        if rec["request"] in jobs
        and rec["name"] not in ("service.submit", "service.journal"))
    metrics["trace.unattributed_frac"] = 1.0 - ratio(
        attributed, sum(r["server_eval_s"] for r in new))
    return metrics


# ---------------------------------------------------------------------------
# per-layer metrics from span totals
# ---------------------------------------------------------------------------

def layer_metrics(totals: Dict[str, Dict[str, float]],
                  units: int) -> Dict[str, float]:
    """Every per-layer metric; ``_s`` and counts are per pass (``units``)."""
    def get(name: str, key: str = "self_s") -> float:
        return totals.get(name, {}).get(key, 0)

    def per(name: str, key: str = "self_s") -> float:
        return get(name, key) / units

    metrics = {
        "lang.compile_s": per("lang.compile"),
        "lang.interp_s": per("lang.interp"),
        "lang.interp.calls": per("lang.interp", "calls"),
        "lang.interp.steps": per("lang.interp", "steps"),
        "lang.interp.steps_per_s": ratio(get("lang.interp", "steps"),
                                         get("lang.interp")),
        "isa.link_s": per("isa.link"),
        "isa.sim_s": per("isa.sim"),
        "isa.sim.calls": per("isa.sim", "calls"),
        "isa.instructions": per("isa.sim", "instructions"),
        "isa.instr_per_s": ratio(get("isa.sim", "instructions"),
                                 get("isa.sim")),
        "mem.trace_events": (per("power.initial", "trace_events")
                             + per("power.partitioned", "trace_events")),
        "mem.replay_s": per("mem.replay"),
        "mem.replay.calls": per("mem.replay", "calls"),
        "mem.replay.events": per("mem.replay", "events"),
        "mem.replay_events_per_s": ratio(get("mem.replay", "events"),
                                         get("mem.replay")),
        "power.initial_s": per("power.initial"),
        "power.partitioned_s": per("power.partitioned"),
        "cluster.prepare_s": per("cluster.prepare"),
        "cluster.decomposed": per("cluster.prepare", "decomposed"),
        "cluster.preselected": per("cluster.prepare", "preselected"),
        "sched.schedule_s": per("sched.schedule"),
        "sched.schedule.calls": per("sched.schedule", "calls"),
        "sched.bind_s": per("sched.bind"),
        "core.evaluate_s": per("core.evaluate"),
        "core.pairs": per("core.evaluate", "calls"),
        "core.pairs_failed": per("core.evaluate", "errors"),
        "core.kept_ratio": ratio(get("core.decide", "kept"),
                                 get("core.decide", "decided")),
        "core.decide_s": per("core.decide"),
        "core.sweep_s": per("core.sweep"),
        "core.cache_hit_ratio": 0.0,
        "core.checkpoint_s": per("core.checkpoint"),
        "core.checkpoint_bytes": 0,
        "synth_s": per("synth"),
        "synth.calls": per("synth", "calls"),
        "verify_s": per("verify"),
        "verify.calls": per("verify", "calls"),
        "service.submit_s": per("service.submit"),
        "service.queue_wait_s": 0.0,
        "service.eval_s": 0.0,
        "service.evaluate_s": per("service.evaluate"),
        "service.coalesced_ratio": ratio(
            get("service.submit", "coalesced"),
            get("service.submit", "calls")),
        "service.journal_s": per("service.journal"),
        "service.journal_bytes": 0,
        "service.http_requests": 0,
        "service.repeat_p50_s": 0.0,
    }
    return metrics


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 workdir: Path) -> Dict[str, Any]:
    if workload == "service":
        return run_service(seed, seconds, traced, workdir)
    passes = run_passes(workload, seed, seconds, traced, workdir)
    return pass_result(workload, passes, traced)


def report(result: Dict[str, Any], units: Dict[str, str]) -> Dict[str, Any]:
    """The result line: every metric of ``units``, with its unit."""
    missing = sorted(set(units) - set(result["metrics"]))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {"correct": result["failed"] == 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: {"value": result["metrics"][name],
                               "unit": unit}
                        for name, unit in units.items()}}


def format_table(workload: str, line: Dict[str, Any]) -> str:
    rows = [f"{workload}: correct={line['correct']} "
            f"attempted={line['attempted']} failed={line['failed']}"]
    for name, metric in line["metrics"].items():
        rows.append(f"  {name:28s} {metric['value']:>14.6g} "
                    f"{metric['unit']}")
    return "\n".join(rows)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default=None, metavar="FILE",
                        help="with --trace 1: also save every span here")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    if signal.getsignal(signal.SIGINT) is signal.SIG_IGN:
        # Started in the background: an ignored SIGINT would be inherited
        # and the server could not be stopped cleanly.
        signal.signal(signal.SIGINT, signal.default_int_handler)
    # SIGTERM unwinds through the finally blocks, which stop the server.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    traced = bool(args.trace)
    units = PER_LAYER if traced else END_TO_END
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK_DIR))
    lines, spans = {}, {}
    try:
        for workload in workloads:
            result = run_workload(workload, args.seed, args.seconds, traced,
                                  workdir)
            for note in result["notes"]:
                print(f"{workload}: {note}", file=sys.stderr)
            lines[workload] = report(result, units)
            spans[workload] = result["spans"]
            print(format_table(workload, lines[workload]),
                  file=sys.stderr if len(workloads) == 1 else sys.stdout)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run is still using it
    if args.spans_out and traced:
        with open(args.spans_out, "w", encoding="utf-8") as fh:
            json.dump(spans, fh)
    print(json.dumps(lines[workloads[0]] if len(workloads) == 1 else lines,
                     allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
