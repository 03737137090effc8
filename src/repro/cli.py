"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------

``apps``
    List the bundled evaluation applications.
``run APP``
    Run the complete low-power partitioning flow on one application and
    print the Table-1-style comparison (``--jobs N`` parallelizes the
    candidate sweep, ``--trace FILE`` exports timing/counter JSON).
``table1``
    Run all six applications and print Table 1 + the Figure 6 series
    (``--jobs N`` runs one application per worker process).
``explore APP``
    Sweep the application's design space — every pre-selected cluster
    against every designer resource set — and print the candidate
    landscape, cache statistics and rejection reasons.  Supports
    ``--jobs``/``--trace`` like ``run``, plus ``--checkpoint DIR`` to
    journal every evaluation to disk and ``--resume`` to replay a
    checkpoint (after the ``explore.checkpoint`` consistency audit)
    into an identical decision; ``--inject-fault KIND@SEQ`` scripts
    deliberate worker faults to exercise the recovery paths.
``cachesweep APP``
    Capture the application's memory-reference trace once and replay it
    across the cache-geometry search space (the paper's footnote-4
    memory-system adaptation), ranking geometries by memory-system
    energy.  ``--engine {auto,batch,reference}`` selects the batched
    kernel (default) or the scalar reference loop — bit-identical
    results either way.
``clusters APP``
    Show the cluster decomposition, pre-selection and per-cluster
    bus-transfer estimates (paper Figs. 2/3).
``ir APP``
    Dump the CDFG IR, optionally annotated with profiled execution counts.
``disasm APP``
    Disassemble the application's SL32 image (optionally one function).
``multicore APP``
    Run the iterative multi-core extension.
``pareto SCENARIO``
    Expand a named scenario from the library (``--list`` shows the
    catalog; ``docs/SCENARIOS.md`` documents it) into (application x
    variant) sweeps, and emit the versioned ``repro-frontier`` JSON
    report: per-application Pareto fronts over (energy, GEQ, cycles),
    knee points and hypervolumes.  Supports ``--jobs``/``--trace`` and
    ``--checkpoint DIR``/``--resume`` like ``explore``; a resumed run
    reproduces a **byte-identical** report.  ``--verify`` additionally
    runs the ``pareto.frontier`` consistency check (every point's scalar
    OF must re-derive bit-identically).
``verify [APP|all]``
    Run the complete flow and audit the result against the cross-layer
    invariants of ``docs/VALIDATION.md`` (``--strict`` fails the process
    on any ERROR finding; ``--json FILE`` writes the machine-readable
    report).  ``run``/``table1``/``explore`` accept ``--verify`` to run
    the same audit inline.
``bench``
    Run the standing performance suite (``docs/PERFORMANCE.md``) and
    emit a versioned ``BENCH_<timestamp>.json``; ``--compare
    BENCH_baseline.json`` fails on regressions past ``--threshold``.
``fuzz``
    Run the differential fuzzing campaign (``docs/TESTING.md``): seeded
    random BDL programs cross-checked interpreter vs reference ISS vs
    compiled engine vs full flow, with mismatches shrunk to minimal
    reproducers.  ``--replay DIR`` re-runs a corpus instead of
    generating.
``serve``
    Run the partitioning service: an asyncio HTTP/JSON server (the
    ``repro-service`` contract, ``docs/SERVICE.md``) with digest-keyed
    request coalescing, admission control and verify-gated results.
    ``--lanes N`` shards jobs across N parallel evaluation lanes by
    request digest; ``--checkpoint DIR`` journals every candidate
    evaluation *and* every job so a restarted server resumes warm with
    finished jobs still pollable; ``--queue``/``--cache-entries``
    bound the admission queue and the in-memory cache.
``submit APP``
    Submit one application to a running server, poll the job to
    completion (jittered exponential backoff) and print the same
    summary ``run`` prints.  ``--stream`` follows the job's event
    stream instead of polling; ``--retry-429 N`` resubmits shed
    requests honoring the server's ``Retry-After`` hint; ``--no-wait``
    returns after the 202; ``--out FILE`` saves the job JSON.

``run``/``table1``/``explore``/``verify`` accept ``--tech NODE`` to price
the whole flow at a registered technology node (``docs/TECHNOLOGY.md``);
the default ``cmos6-800nm`` reproduces the historical outputs
bit-identically.

Exit codes
----------

All commands exit ``0`` on success and ``1`` on generic failure (no
beneficial partition, bench regression, bad arguments caught late).
Three commands reserve dedicated statuses so CI can tell *what* failed:
``verify --strict`` (and ``run``/``table1``/``explore``/``pareto`` with
``--verify --strict``, and ``submit --strict`` on an unverified result)
exits ``2`` when the invariant audit has ERROR findings; ``fuzz`` exits
``3`` when the differential oracle found a mismatch between engines;
``submit`` exits ``4`` when the server sheds load with HTTP 429.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.apps import ALL_APPS, app_by_name
from repro.bench import DEFAULT_THRESHOLD
from repro.cluster import estimate_transfers
from repro.core import (
    EvaluationCache,
    ExplorationEngine,
    IterativePartitioner,
    LowPowerFlow,
    Partitioner,
    profile_app,
)
from repro.isa.image import link_program
from repro.obs import NullTracer, Tracer, use_tracer
from repro.power.report import format_savings, format_table1
from repro.tech import cmos6_library
from repro.verify import VerificationReport


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Low-power hardware/software partitioning "
                    "(reproduction of Henkel, DAC 1999)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("apps", help="list the bundled applications")

    def positive_int(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(
                f"must be a positive integer, got {value}")
        return value

    def positive_float(text: str) -> float:
        value = float(text)
        if value <= 0:
            raise argparse.ArgumentTypeError(
                f"must be a positive number, got {value}")
        return value

    def nonnegative_int(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(
                f"must be >= 0, got {value}")
        return value

    def tech_node(text: str) -> str:
        from repro.tech import tech_names
        if text not in tech_names():
            catalog = ", ".join(tech_names())
            raise argparse.ArgumentTypeError(
                f"unknown technology node {text!r}; choose from: {catalog}")
        return text

    def add_tech_option(p) -> None:
        from repro.tech import REFERENCE_NODE
        p.add_argument("--tech", type=tech_node, default=REFERENCE_NODE,
                       metavar="NODE",
                       help="technology node from the registry "
                            "(docs/TECHNOLOGY.md); the default "
                            f"{REFERENCE_NODE} reproduces the paper's "
                            "0.8 micron numbers bit-identically")

    def add_explore_options(p) -> None:
        p.add_argument("--jobs", type=positive_int, default=1, metavar="N",
                       help="worker processes for the candidate sweep "
                            "(default 1 = serial)")
        p.add_argument("--timeout", type=positive_float, default=None,
                       metavar="SEC",
                       help="per-candidate evaluation timeout in seconds; "
                            "a pair exceeding it is retried on a rebuilt "
                            "worker pool (default: wait forever)")
        p.add_argument("--retries", type=nonnegative_int, default=2,
                       metavar="N",
                       help="re-submissions a candidate may consume after "
                            "worker failures before degrading to "
                            "in-process evaluation (default 2)")
        p.add_argument("--trace", default=None, metavar="FILE",
                       help="write a timing/counter trace JSON to FILE")
        p.add_argument("--verify", action="store_true",
                       help="audit results against the docs/VALIDATION.md "
                            "invariants and report findings")
        p.add_argument("--strict", action="store_true",
                       help="with --verify: exit non-zero on any ERROR "
                            "finding")

    run = sub.add_parser("run", help="run the flow on one application")
    run.add_argument("app", choices=list(ALL_APPS))
    run.add_argument("--scale", type=int, default=1,
                     help="workload scale factor (default 1)")
    run.add_argument("--optimize", action="store_true",
                     help="run the IR optimizer first")
    add_explore_options(run)
    add_tech_option(run)

    table1 = sub.add_parser("table1",
                            help="reproduce Table 1 over all applications")
    table1.add_argument("--scale", type=int, default=1)
    add_explore_options(table1)
    add_tech_option(table1)

    explore = sub.add_parser(
        "explore",
        help="sweep one application's design space (clusters x resource "
             "sets) with caching and optional worker processes")
    explore.add_argument("app", choices=list(ALL_APPS))
    explore.add_argument("--scale", type=int, default=1)
    explore.add_argument("--optimize", action="store_true")
    explore.add_argument("--top", type=int, default=10,
                         help="candidates to print (default 10)")
    explore.add_argument("--checkpoint", default=None, metavar="DIR",
                         help="journal every candidate evaluation into DIR "
                              "so a killed sweep can be resumed; without "
                              "--resume any existing checkpoint in DIR is "
                              "discarded first")
    explore.add_argument("--resume", action="store_true",
                         help="with --checkpoint: verify DIR's consistency "
                              "(explore.checkpoint) and replay its "
                              "journaled outcomes as cache hits")
    explore.add_argument("--inject-fault", action="append", default=None,
                         metavar="KIND@SEQ",
                         help="deliberately fault the worker handling "
                              "dispatch sequence SEQ (KIND: kill, hang, "
                              "raise); repeatable — exercises the "
                              "timeout/retry/rebuild recovery paths")
    add_explore_options(explore)
    add_tech_option(explore)

    cachesweep = sub.add_parser(
        "cachesweep",
        help="capture one application's memory trace and replay it "
             "across the cache-geometry space (paper footnote 4), "
             "ranking geometries by memory-system energy")
    cachesweep.add_argument("app", choices=list(ALL_APPS))
    cachesweep.add_argument("--scale", type=int, default=1,
                            help="workload scale factor (default 1)")
    cachesweep.add_argument("--engine",
                            choices=("auto", "batch", "reference"),
                            default="auto",
                            help="replay kernel: auto/batch = the chunked "
                                 "batched kernel (numpy-vectorized when "
                                 "available), reference = the scalar "
                                 "per-event loop; results are "
                                 "bit-identical (default auto)")
    cachesweep.add_argument("--top", type=positive_int, default=10,
                            help="geometries to print (default 10)")
    cachesweep.add_argument("--trace", default=None, metavar="FILE",
                            help="write a timing/counter trace JSON to FILE")
    add_tech_option(cachesweep)

    pareto = sub.add_parser(
        "pareto",
        help="run a scenario from the library and emit its "
             "multi-objective frontier report (docs/SCENARIOS.md)")
    pareto.add_argument("scenario", nargs="?", default=None,
                        help="scenario name (see --list)")
    pareto.add_argument("--list", action="store_true",
                        help="list the scenario catalog and exit")
    pareto.add_argument("--out", default=None, metavar="FILE",
                        help="frontier report path (default "
                             "FRONTIER_<scenario>.json)")
    pareto.add_argument("--checkpoint", default=None, metavar="DIR",
                        help="journal every candidate evaluation into DIR "
                             "so a killed scenario run can be resumed; "
                             "without --resume any existing checkpoint in "
                             "DIR is discarded first")
    pareto.add_argument("--resume", action="store_true",
                        help="with --checkpoint: verify DIR's consistency "
                             "(explore.checkpoint) and replay its "
                             "journaled outcomes as cache hits — the "
                             "resumed report is byte-identical")
    add_explore_options(pareto)

    clusters = sub.add_parser("clusters",
                              help="show decomposition + transfer estimates")
    clusters.add_argument("app", choices=list(ALL_APPS))
    clusters.add_argument("--scale", type=int, default=1)

    disasm = sub.add_parser("disasm", help="disassemble the SL32 image")
    disasm.add_argument("app", choices=list(ALL_APPS))
    disasm.add_argument("--function", default=None,
                        help="restrict to one function")

    ir = sub.add_parser("ir", help="dump the CDFG IR (optionally profiled)")
    ir.add_argument("app", choices=list(ALL_APPS))
    ir.add_argument("--function", default=None)
    ir.add_argument("--profile", action="store_true",
                    help="annotate blocks with execution counts")
    ir.add_argument("--optimize", action="store_true")

    multicore = sub.add_parser("multicore",
                               help="iterative multi-core partitioning")
    multicore.add_argument("app", choices=list(ALL_APPS))
    multicore.add_argument("--max-cores", type=int, default=3)
    multicore.add_argument("--scale", type=int, default=1)

    verify = sub.add_parser(
        "verify",
        help="run the flow and audit every cross-layer invariant "
             "(docs/VALIDATION.md)")
    verify.add_argument("app", nargs="?", default="all",
                        choices=list(ALL_APPS) + ["all"],
                        help="application to audit (default: all)")
    verify.add_argument("--scale", type=int, default=1)
    verify.add_argument("--strict", action="store_true",
                        help="exit non-zero on any ERROR finding")
    verify.add_argument("--json", default=None, metavar="FILE",
                        help="write the combined machine-readable report "
                             "to FILE")
    verify.add_argument("--trace", default=None, metavar="FILE",
                        help="write a trace JSON (with the report "
                             "attached) to FILE")
    add_tech_option(verify)

    bench = sub.add_parser(
        "bench",
        help="run the standing performance suite and emit/compare "
             "BENCH_*.json reports (docs/PERFORMANCE.md)")
    bench.add_argument("--repeats", type=positive_int, default=3,
                       metavar="N",
                       help="runs per benchmark; the median is reported "
                            "(default 3)")
    bench.add_argument("--quick", action="store_true",
                       help="CI smoke mode: 1 repeat, reduced iteration "
                            "counts")
    bench.add_argument("--only", default=None, metavar="SUBSTR",
                       help="run only benchmarks whose name contains "
                            "SUBSTR")
    bench.add_argument("--list", action="store_true",
                       help="list the suite (name, unit, rationale) and "
                            "exit")
    bench.add_argument("--jobs", type=positive_int, default=2, metavar="N",
                       help="worker processes for the e2e.explore "
                            "benchmark (default 2)")
    bench.add_argument("--output", default=None, metavar="FILE",
                       help="report path (default BENCH_<timestamp>.json)")
    bench.add_argument("--compare", default=None, metavar="FILE",
                       help="compare against a baseline report; exit 1 "
                            "on regressions")
    bench.add_argument("--threshold", type=float,
                       default=DEFAULT_THRESHOLD * 100.0,
                       metavar="PCT",
                       help="regression threshold in percent (default "
                            f"{DEFAULT_THRESHOLD * 100:.0f})")
    bench.add_argument("--trace", default=None, metavar="FILE",
                       help="write a timing/counter trace JSON to FILE")

    fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing: random BDL programs cross-checked "
             "across every execution engine (docs/TESTING.md); exits 3 "
             "on mismatch")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="campaign seed (default 0); output is "
                           "byte-identical for a fixed seed/count")
    fuzz.add_argument("--count", type=positive_int, default=200,
                      metavar="N",
                      help="programs to generate and check (default 200)")
    fuzz.add_argument("--flow-every", type=int, default=20, metavar="N",
                      help="run the full partition flow + verifier on "
                           "every Nth program (0 disables; default 20)")
    fuzz.add_argument("--inject-bug", default=None, metavar="NAME",
                      help="deliberately wire a known bug into one engine "
                           "to exercise detection/shrinking (see "
                           "'repro fuzz --list-bugs')")
    fuzz.add_argument("--list-bugs", action="store_true",
                      help="list the injectable bugs and exit")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="report mismatches without shrinking them")
    fuzz.add_argument("--out", default=None, metavar="DIR",
                      help="write shrunken reproducers as corpus entries "
                           "into DIR")
    fuzz.add_argument("--replay", default=None, metavar="DIR",
                      help="replay the corpus in DIR instead of "
                           "generating programs")
    fuzz.add_argument("--max-mismatches", type=positive_int, default=5,
                      metavar="N",
                      help="stop after N distinct mismatching programs "
                           "(default 5)")
    fuzz.add_argument("--trace", default=None, metavar="FILE",
                      help="write a timing/counter trace JSON to FILE")

    serve = sub.add_parser(
        "serve",
        help="run the partitioning service: asyncio HTTP/JSON server "
             "with request coalescing and admission control "
             "(docs/SERVICE.md)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=nonnegative_int, default=8357,
                       help="bind port; 0 lets the OS pick one — the "
                            "bound port is announced on stderr "
                            "(default 8357)")
    serve.add_argument("--jobs", type=positive_int, default=1, metavar="N",
                       help="worker processes per candidate sweep "
                            "(default 1 = serial)")
    serve.add_argument("--lanes", type=positive_int, default=1,
                       metavar="N",
                       help="parallel evaluation lanes; jobs shard "
                            "across lanes by request digest (default 1)")
    serve.add_argument("--queue", type=positive_int, default=64,
                       metavar="N",
                       help="admission bound: queued jobs past N are "
                            "rejected with HTTP 429 + Retry-After "
                            "(default 64)")
    serve.add_argument("--cache-entries", type=positive_int, default=None,
                       metavar="N",
                       help="LRU bound on the in-memory evaluation "
                            "cache (default: unbounded)")
    serve.add_argument("--checkpoint", default=None, metavar="DIR",
                       help="journal every candidate evaluation into "
                            "DIR/cache.journal and every job into "
                            "DIR/jobs.journal; a restarted server "
                            "replays both and resumes warm, with "
                            "finished jobs still pollable")
    serve.add_argument("--timeout", type=positive_float, default=None,
                       metavar="SEC",
                       help="per-candidate evaluation timeout in seconds "
                            "(default: wait forever)")
    add_tech_option(serve)

    submit = sub.add_parser(
        "submit",
        help="submit one application to a running 'repro serve' "
             "instance and poll the job to completion")
    submit.add_argument("app", choices=list(ALL_APPS))
    submit.add_argument("--host", default="127.0.0.1",
                        help="server address (default 127.0.0.1)")
    submit.add_argument("--port", type=positive_int, default=8357,
                        help="server port (default 8357)")
    submit.add_argument("--scale", type=int, default=1,
                        help="workload scale factor (default 1)")
    submit.add_argument("--optimize", action="store_true",
                        help="run the IR optimizer first")
    submit.add_argument("--client", default=None,
                        help="client identity for per-client fairness "
                             "accounting (default: anonymous)")
    submit.add_argument("--no-wait", action="store_true",
                        help="print the 202 job descriptor and return "
                             "without polling")
    submit.add_argument("--poll", type=positive_float, default=0.2,
                        metavar="SEC",
                        help="initial poll interval while waiting; "
                             "later polls back off exponentially with "
                             "jitter (default 0.2)")
    submit.add_argument("--retry-429", dest="retry_429",
                        type=nonnegative_int, default=0, metavar="N",
                        help="resubmit up to N times when the server "
                             "sheds load with 429, honoring its "
                             "Retry-After hint (default 0)")
    submit.add_argument("--stream", action="store_true",
                        help="follow the job's event stream "
                             "(GET /v1/jobs/{id}/events) instead of "
                             "polling")
    submit.add_argument("--wait-timeout", type=positive_float,
                        default=None, metavar="SEC",
                        help="give up polling after SEC seconds "
                             "(default: wait forever)")
    submit.add_argument("--timeout", type=positive_float, default=10.0,
                        metavar="SEC",
                        help="per-HTTP-request socket timeout "
                             "(default 10)")
    submit.add_argument("--out", default=None, metavar="FILE",
                        help="write the final job JSON to FILE")
    submit.add_argument("--strict", action="store_true",
                        help="exit 2 if the served result is not "
                             "verify-gated clean")
    submit.add_argument("--tech", type=tech_node, default=None,
                        metavar="NODE",
                        help="technology node for the request (default: "
                             "the server's --tech default)")

    return parser


def _cmd_apps(args) -> int:
    for name, factory in ALL_APPS.items():
        app = factory()
        print(f"{name:8s} {app.description}")
    return 0


def _resolve_library(args):
    """The technology library selected by ``--tech`` (registry-served;
    the default node's library is bit-identical to ``cmos6_library()``)."""
    from repro.tech import tech_by_name
    return tech_by_name(args.tech).library()


def _make_tracer(args, label: str):
    """A real tracer when the user wants a trace file, else a null one."""
    if getattr(args, "trace", None):
        return Tracer(label)
    return NullTracer()


def _finish_trace(args, tracer) -> None:
    if getattr(args, "trace", None):
        try:
            tracer.write(args.trace)
        except OSError as exc:
            print(f"warning: could not write trace to {args.trace}: {exc}",
                  file=sys.stderr)
        else:
            print(f"trace written to {args.trace}", file=sys.stderr)


def _report_verification(args, tracer, reports) -> int:
    """Print verification reports, attach them to the trace, and return
    the exit status strict mode demands (0 = clean, 2 = ERROR findings)."""
    reports = [r for r in reports if r is not None]
    if not reports:
        return 0
    failed = False
    for report in reports:
        print()
        print(report.format_text())
        failed = failed or report.has_errors
    tracer.attach("verification", [r.to_dict() for r in reports])
    if failed and getattr(args, "strict", False):
        return 2
    return 0


def _cmd_run(args) -> int:
    app = app_by_name(args.app, scale=args.scale)
    if args.optimize:
        app.optimize = True
    tracer = _make_tracer(args, f"run {args.app}")
    with ExplorationEngine(library=_resolve_library(args), jobs=args.jobs,
                           tracer=tracer, verify=args.verify,
                           timeout=args.timeout,
                           retries=args.retries) as engine:
        result = engine.run_flow(app)
    print(result.summary())
    status = _report_verification(args, tracer, [result.verification])
    _finish_trace(args, tracer)
    if status:
        return status
    return 0 if result.best is not None else 1


def _cmd_table1(args) -> int:
    tracer = _make_tracer(args, "table1")
    apps = [app_by_name(name, scale=args.scale) for name in ALL_APPS]
    with ExplorationEngine(library=_resolve_library(args), jobs=args.jobs,
                           tracer=tracer, verify=args.verify,
                           timeout=args.timeout,
                           retries=args.retries) as engine:
        if args.jobs > 1:
            print(f"running {len(apps)} applications on {args.jobs} "
                  f"workers ...", file=sys.stderr)
            results = engine.run_flows(apps)
        else:
            results = {}
            for app in apps:
                print(f"running {app.name} ...", file=sys.stderr)
                results[app.name] = engine.run_flow(app)
    rows = [(name, res.initial,
             res.partitioned if res.partitioned else res.initial)
            for name, res in results.items()]
    print(format_table1(rows))
    print()
    print(format_savings(rows))
    status = _report_verification(
        args, tracer, [res.verification for res in results.values()])
    _finish_trace(args, tracer)
    return status


def _cmd_explore(args) -> int:
    from repro.core import FaultPlan, FaultPlanError

    app = app_by_name(args.app, scale=args.scale)
    if args.optimize:
        app.optimize = True
    fault_plan = None
    if args.inject_fault:
        try:
            fault_plan = FaultPlan.parse(args.inject_fault)
        except FaultPlanError as exc:
            print(f"bad --inject-fault: {exc}", file=sys.stderr)
            return 1
    if args.resume and not args.checkpoint:
        print("--resume requires --checkpoint DIR", file=sys.stderr)
        return 1
    tracer = Tracer(f"explore {args.app}")
    library = _resolve_library(args)
    checkpoint = None
    cache: EvaluationCache = EvaluationCache()
    if args.checkpoint:
        import os

        from repro.core import SweepCheckpoint, checkpoint_context_key
        from repro.core.checkpoint import JOURNAL_FILENAME, META_FILENAME
        from repro.obs import use_tracer
        from repro.verify import verify_checkpoint

        context = checkpoint_context_key(app, library, app.config)
        if args.resume:
            audit = verify_checkpoint(args.checkpoint,
                                      expected_context=context)
            print(audit.format_text())
            if audit.has_errors:
                print("cannot resume: checkpoint failed the "
                      "explore.checkpoint audit", file=sys.stderr)
                return 1
        else:
            # A fresh --checkpoint must not inherit a previous sweep's
            # journal (it may even belong to another app).
            for stale in (JOURNAL_FILENAME, META_FILENAME):
                path = os.path.join(args.checkpoint, stale)
                if os.path.exists(path):
                    os.remove(path)
        checkpoint = SweepCheckpoint(args.checkpoint)
        checkpoint.bind(app, library, app.config)
        with use_tracer(tracer):
            cache = checkpoint.cache  # replays the journal under the tracer
    try:
        with ExplorationEngine(library=library, jobs=args.jobs, cache=cache,
                               tracer=tracer, verify=args.verify,
                               timeout=args.timeout, retries=args.retries,
                               fault_plan=fault_plan) as engine:
            report = engine.explore(app)
    finally:
        if checkpoint is not None:
            checkpoint.close()
    decision = report.decision
    print(f"{app.name}: U_uP = {decision.up_utilization:.3f}, "
          f"{len(decision.preselected)} clusters pre-selected, "
          f"{decision.examined} (cluster x set) pairs examined "
          f"in {report.elapsed_s:.2f}s with {args.jobs} job(s)")
    print(f"\ncandidate landscape ({len(decision.candidates)} kept, "
          f"{len(decision.rejections)} rejected):")
    for cand in sorted(decision.candidates,
                       key=lambda c: c.objective)[:args.top]:
        marker = "*" if decision.best is not None \
            and cand is decision.best else " "
        print(f" {marker} {cand.cluster.name:28s} "
              f"{cand.resource_set.name:7s} "
              f"U_R={cand.utilization:.3f} cells={cand.asic_cells:6d} "
              f"OF={cand.objective:.4f}")
    if decision.rejections:
        print("\nrejections:")
        for cluster_name, set_name, reason in decision.rejections:
            print(f"   {cluster_name:28s} {set_name:7s} {reason}")
    stats = report.cache_stats
    print(f"\ncache: {stats['entries']} entries, {stats['hits']} hits, "
          f"{stats['misses']} misses")
    print()
    print(tracer.format_summary())
    status = _report_verification(args, tracer, [engine.verification])
    _finish_trace(args, tracer)
    if status:
        return status
    return 0 if decision.best is not None else 1


def _cmd_cachesweep(args) -> int:
    from repro.mem.explore import explore_cache_profiles
    from repro.power.system import evaluate_initial

    app = app_by_name(args.app, scale=args.scale)
    if not app.model_caches:
        print(f"{args.app} models no memory system (model_caches=False); "
              f"there is no trace to sweep", file=sys.stderr)
        return 1
    library = _resolve_library(args)
    tracer = _make_tracer(args, f"cachesweep {args.app}")
    with use_tracer(tracer), tracer.span("cachesweep"):
        program = app.compile()
        image = link_program(program)
        run = evaluate_initial(image, library, args=app.args,
                               globals_init=app.globals_init,
                               icache_cfg=app.icache, dcache_cfg=app.dcache,
                               collect_trace=True)
        trace = run.stats.trace
        fetches, reads, writes = trace.counts()
        profiles = explore_cache_profiles(trace, engine=args.engine)
    ranked = sorted(
        profiles,
        key=lambda p: p.cache_energy_nj(library) + p.memory_energy_nj(library))
    print(f"{args.app}: {len(trace)} trace events "
          f"({fetches} ifetch / {reads} read / {writes} write), "
          f"{len(profiles)} geometries, engine={args.engine}")
    print(f"{'geometry':20s} {'i-hit':>7s} {'d-hit':>7s} "
          f"{'stalls':>10s} {'mem E (nJ)':>12s}")
    for profile in ranked[:args.top]:
        icfg, dcfg = profile.icache_cfg, profile.dcache_cfg
        label = (f"i{icfg.size_bytes}/{icfg.associativity}w+"
                 f"d{dcfg.size_bytes}/{dcfg.associativity}w")
        energy = (profile.cache_energy_nj(library)
                  + profile.memory_energy_nj(library))
        print(f"{label:20s} {profile.icache.hit_rate:7.4f} "
              f"{profile.dcache.hit_rate:7.4f} "
              f"{profile.stall_cycles:>10d} {energy:>12.1f}")
    _finish_trace(args, tracer)
    return 0


def _cmd_pareto(args) -> int:
    from repro.scenarios import (
        SCENARIOS,
        run_scenario,
        scenario_by_name,
        scenario_context_key,
        write_frontier_report,
    )

    if args.list:
        for name, scenario in SCENARIOS.items():
            grid = len(scenario.variants())
            print(f"{name:10s} {len(scenario.apps)} app(s) x {grid:2d} "
                  f"variant(s)  {scenario.description}")
        return 0
    if not args.scenario:
        print("a scenario name is required (see 'repro pareto --list')",
              file=sys.stderr)
        return 1
    try:
        scenario = scenario_by_name(args.scenario)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 1
    if args.resume and not args.checkpoint:
        print("--resume requires --checkpoint DIR", file=sys.stderr)
        return 1
    tracer = _make_tracer(args, f"pareto {args.scenario}")
    checkpoint = None
    cache: EvaluationCache = EvaluationCache()
    if args.checkpoint:
        import os

        from repro.core import SweepCheckpoint
        from repro.core.checkpoint import JOURNAL_FILENAME, META_FILENAME
        from repro.obs import use_tracer
        from repro.verify import verify_checkpoint

        context = scenario_context_key(scenario)
        if args.resume:
            audit = verify_checkpoint(args.checkpoint,
                                      expected_context=context)
            print(audit.format_text())
            if audit.has_errors:
                print("cannot resume: checkpoint failed the "
                      "explore.checkpoint audit", file=sys.stderr)
                return 1
        else:
            # A fresh --checkpoint must not inherit another study's
            # journal.
            for stale in (JOURNAL_FILENAME, META_FILENAME):
                path = os.path.join(args.checkpoint, stale)
                if os.path.exists(path):
                    os.remove(path)
        checkpoint = SweepCheckpoint(args.checkpoint)
        checkpoint.bind_context(context, label=scenario.name)
        with use_tracer(tracer):
            cache = checkpoint.cache  # replays the journal under the tracer
    try:
        result = run_scenario(
            scenario, jobs=args.jobs, cache=cache, tracer=tracer,
            verify=args.verify, timeout=args.timeout, retries=args.retries)
    finally:
        if checkpoint is not None:
            checkpoint.close()
    out = args.out or f"FRONTIER_{scenario.name}.json"
    write_frontier_report(result.report, out)
    grid = len(scenario.variants())
    print(f"scenario {scenario.name!r}: {len(scenario.apps)} app(s) x "
          f"{grid} variant(s) in {result.elapsed_s:.2f}s with "
          f"{args.jobs} job(s)")
    for app, section in result.report["apps"].items():
        points = section["points"]
        knee = section["knee"]
        knee_text = "-"
        if knee is not None:
            point = points[knee]
            variant = section["variants"][point["variant"]]
            knee_text = f"{point['label']} under {variant['label']}"
        print(f"  {app:8s} {len(points):3d} points, "
              f"{len(section['front']):2d} on the front, "
              f"hypervolume {section['hypervolume']:.3e}, "
              f"knee {knee_text}")
    stats = result.cache_stats
    print(f"cache: {stats['entries']} entries, {stats['hits']} hits, "
          f"{stats['misses']} misses")
    print(f"frontier report written to {out}", file=sys.stderr)
    status = _report_verification(args, tracer, [result.verification])
    _finish_trace(args, tracer)
    return status


def _cmd_clusters(args) -> int:
    app = app_by_name(args.app, scale=args.scale)
    library = cmos6_library()
    front = profile_app(app, library)
    program, profile = front.program, front.profile
    prep = Partitioner(program, library).prepare(profile)
    kept = {c.name for c in prep.preselected}

    print(f"{len(prep.all_clusters)} clusters ({len(kept)} pre-selected):")
    for cluster in prep.all_clusters:
        cdfg = program.cdfgs[cluster.function]
        counts = {b: profile.block_count(cluster.function, b)
                  for b in cdfg.blocks}
        invocations = (profile.call_counts.get(cluster.function, 0)
                       if cluster.kind == "function"
                       else cluster.invocations(counts, cdfg))
        marker = "*" if cluster.name in kept else " "
        est = estimate_transfers(cluster, prep.chains[cluster.function],
                                 program, library,
                                 invocations=max(1, invocations))
        print(f" {marker} {cluster.name:32s} {cluster.kind:8s} "
              f"blocks={len(cluster.blocks):2d} inv={invocations:6d} "
              f"call={'y' if cluster.contains_call else 'n'} "
              f"in={est.total_words_in:6d}w out={est.total_words_out:6d}w "
              f"E_trans={est.energy_nj / 1000:8.2f}uJ")
    return 0


def _cmd_disasm(args) -> int:
    app = app_by_name(args.app)
    image = link_program(app.compile())
    print(image.disassemble(args.function))
    return 0


def _cmd_ir(args) -> int:
    from repro.ir.printer import format_cdfg, format_program

    app = app_by_name(args.app)
    if args.optimize:
        app.optimize = True
    ex_by_function = None
    if args.profile:
        front = profile_app(app, cmos6_library())
        program = front.program
        ex_by_function = {
            fname: front.profile.executions_of(fname, cdfg)
            for fname, cdfg in program.cdfgs.items()
        }
    else:
        program = app.compile()
    if args.function is not None:
        if args.function not in program.cdfgs:
            print(f"unknown function {args.function!r}; "
                  f"choose from {sorted(program.cdfgs)}", file=sys.stderr)
            return 1
        ex = (ex_by_function or {}).get(args.function)
        print(format_cdfg(program.cdfgs[args.function], ex))
    else:
        print(format_program(program, ex_by_function))
    return 0


def _cmd_multicore(args) -> int:
    app = app_by_name(args.app, scale=args.scale)
    partitioner = IterativePartitioner(max_cores=args.max_cores)
    result = partitioner.run(app)
    print(f"{app.name}: committed {len(result.steps)} ASIC core(s), "
          f"{result.total_asic_cells} cells total")
    for index, step in enumerate(result.steps):
        print(f"  core {index}: {step.candidate.cluster.name} on "
              f"'{step.candidate.resource_set.name}' "
              f"({step.candidate.asic_cells} cells) — system energy "
              f"{step.energy_before_nj / 1e6:.3f} -> "
              f"{step.system.total_energy_nj / 1e6:.3f} mJ")
    print(f"total savings: {result.energy_savings_percent:.2f}% "
          f"(functional match: {result.functional_match})")
    return 0


def _cmd_verify(args) -> int:
    names = list(ALL_APPS) if args.app == "all" else [args.app]
    tracer = _make_tracer(args, f"verify {args.app}")
    library = _resolve_library(args)
    combined = VerificationReport(label=f"verify {args.app}")
    reports = []
    for name in names:
        print(f"verifying {name} ...", file=sys.stderr)
        flow = LowPowerFlow(library=library, tracer=tracer, verify=True,
                            collect_traces=True)
        result = flow.run(app_by_name(name, scale=args.scale))
        report = result.verification
        assert report is not None
        print(report.format_text())
        reports.append(report)
        combined.extend(report)
    tracer.attach("verification", [r.to_dict() for r in reports])
    if args.json:
        combined.write(args.json)
        print(f"report written to {args.json}", file=sys.stderr)
    _finish_trace(args, tracer)
    counts = combined.counts()
    print(f"\n{len(names)} app(s) audited: {counts['error']} error(s), "
          f"{counts['warning']} warning(s), {counts['info']} info")
    if args.strict and combined.has_errors:
        return 2
    return 0


def _cmd_bench(args) -> int:
    from repro.bench import run_bench_command
    from repro.obs import use_tracer

    tracer = _make_tracer(args, "bench")
    with use_tracer(tracer):
        status = run_bench_command(args)
    _finish_trace(args, tracer)
    return status


def _cmd_fuzz(args) -> int:
    from repro.fuzz import KNOWN_BUGS, run_fuzz_command

    if args.list_bugs:
        for name, bug in sorted(KNOWN_BUGS.items()):
            print(f"{name:20s} {bug.description}")
        return 0
    tracer = _make_tracer(args, "fuzz")
    status = run_fuzz_command(
        seed=args.seed, count=args.count, flow_every=args.flow_every,
        inject_bug=args.inject_bug, shrink=not args.no_shrink,
        out_dir=args.out, replay=args.replay,
        max_mismatches=args.max_mismatches, tracer=tracer)
    _finish_trace(args, tracer)
    return status


def _cmd_serve(args) -> int:
    import asyncio
    import os

    from repro.core.checkpoint import (
        JOURNAL_FILENAME,
        PersistentEvaluationCache,
    )
    from repro.obs import use_tracer
    from repro.service import (
        JOB_JOURNAL_FILENAME,
        JobJournal,
        ServiceCore,
        ServiceServer,
    )
    from repro.service.server import run_server

    tracer = Tracer("serve")
    cache = None
    job_journal = None
    if args.checkpoint:
        journal = os.path.join(args.checkpoint, JOURNAL_FILENAME)
        with use_tracer(tracer):
            cache = PersistentEvaluationCache(
                journal, max_entries=args.cache_entries)
        print(f"checkpoint journal {journal}: {cache.loaded} record(s) "
              f"replayed, {cache.corrupt} discarded", file=sys.stderr)
        jobs_path = os.path.join(args.checkpoint, JOB_JOURNAL_FILENAME)
        job_journal = JobJournal(jobs_path, tracer=tracer)
        print(f"job journal {jobs_path}: {len(job_journal.records)} "
              f"record(s) replayed, {job_journal.corrupt} discarded",
              file=sys.stderr)
    elif args.cache_entries:
        cache = EvaluationCache(max_entries=args.cache_entries)
    core = ServiceCore(jobs=args.jobs, cache=cache, tracer=tracer,
                       verify=True, timeout=args.timeout)
    server = ServiceServer(core=core, host=args.host, port=args.port,
                           default_tech=args.tech, lanes=args.lanes,
                           max_queue=args.queue, journal=job_journal,
                           tracer=tracer)

    def announce(host: str, port: int) -> None:
        # Machine-parseable (tests bind --port 0 and read this line).
        print(f"repro service listening on http://{host}:{port}",
              file=sys.stderr, flush=True)

    try:
        asyncio.run(run_server(server, announce=announce))
    except KeyboardInterrupt:
        pass
    finally:
        if cache is not None and hasattr(cache, "close"):
            cache.close()
        if job_journal is not None:
            job_journal.close()
    return 0


def _cmd_submit(args) -> int:
    from repro.service.client import run_submit_command

    return run_submit_command(args)


_COMMANDS = {
    "apps": _cmd_apps,
    "run": _cmd_run,
    "table1": _cmd_table1,
    "explore": _cmd_explore,
    "cachesweep": _cmd_cachesweep,
    "pareto": _cmd_pareto,
    "clusters": _cmd_clusters,
    "disasm": _cmd_disasm,
    "ir": _cmd_ir,
    "multicore": _cmd_multicore,
    "verify": _cmd_verify,
    "bench": _cmd_bench,
    "fuzz": _cmd_fuzz,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
