"""One pass of the ``table1`` or ``cachesweep`` workload, in a fresh process.

``run.py`` spawns one of these per pass, as ``repro table1`` runs in a
fresh process::

    python perfbench/worker.py WORKLOAD APP,APP,... OUT_JSON SPAWNED_AT TRACE

``SPAWNED_AT`` is the parent's ``time.monotonic()`` just before the spawn
(the system-wide monotonic clock), so set-up time covers interpreter
start, imports and app construction.  With ``TRACE`` = 1 the layer calls
are wrapped (:mod:`tracing`) after set-up; the spans go into ``OUT_JSON``.
Program functions are reached through their modules at call time, so the
wrappers see every call.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback

import checks


def _table1_op():
    from repro.core import LowPowerFlow

    def op(app):
        return LowPowerFlow().run(app)
    return op


def _table1_check(app, result):
    view = checks.golden_view(result)
    problems = checks.diff(view, checks.golden(app.name), app.name)
    return problems, {"energy_savings_percent": view["energy_savings_percent"],
                      "time_change_percent": view["time_change_percent"]}


def _cachesweep_op():
    import repro.isa.image as image
    import repro.mem.explore as mem_explore
    import repro.power.system as system
    from repro.tech import cmos6_library

    library = cmos6_library()

    def op(app):
        program = app.compile()
        linked = image.link_program(program)
        run = system.evaluate_initial(
            linked, library, args=app.args, globals_init=app.globals_init,
            icache_cfg=app.icache, dcache_cfg=app.dcache, collect_trace=True)
        profiles = mem_explore.explore_cache_profiles(run.stats.trace)
        return run, checks.ranking(profiles, library)
    return op


def cachesweep_problems(app, outcome, want):
    """Mismatches of one cachesweep result against ``want``."""
    import repro.mem.profiler as profiler
    from repro.power.system import default_cache_configs

    run, ranked = outcome
    trace = run.stats.trace
    icfg, dcfg = default_cache_configs()
    own = profiler.replay(trace, app.icache or icfg, app.dcache or dcfg)
    problems = []
    for kind, replayed, initial in (("icache", own.icache, run.stats.icache),
                                    ("dcache", own.dcache, run.stats.dcache)):
        if checks.cache_counters(replayed) != checks.cache_counters(initial):
            problems.append(f"{app.name}: {kind} replay at own geometry "
                            f"differs from the initial run")
    problems.extend(checks.diff(
        {"trace_events": len(trace), "ranking": ranked}, want, app.name))
    return problems


def main(argv) -> int:
    workload, names, out_path = argv[1], argv[2].split(","), argv[3]
    spawned_at, traced = float(argv[4]), argv[5] == "1"

    from repro.apps import app_by_name

    if workload == "table1":
        op = _table1_op()
    elif workload == "cachesweep":
        op = _cachesweep_op()
    else:
        raise SystemExit(f"unknown pass workload {workload!r}")
    apps = [app_by_name(name) for name in names]
    setup_s = time.monotonic() - spawned_at

    want = checks.expected("cachesweep") if workload == "cachesweep" else {}
    recorder = None
    if traced:
        import tracing
        recorder = tracing.install(tracing.Recorder())

    ops, views = [], {}
    for app in apps:
        if recorder is not None:
            recorder.request = app.name
            recorder.recording = True
        op_started = time.perf_counter()
        try:
            outcome, problems = op(app), []
        except Exception:  # a failed operation is counted, not fatal
            outcome, problems = None, [f"{app.name}: "
                                       f"{traceback.format_exc()}"]
        ops.append({"app": app.name,
                    "seconds": time.perf_counter() - op_started,
                    "problems": problems})
        if recorder is not None:
            recorder.recording = False  # the checks are not the workload
        if outcome is None:
            continue
        if workload == "table1":
            problems, views[app.name] = _table1_check(app, outcome)
        else:
            problems = cachesweep_problems(app, outcome,
                                           want.get(app.name, {}))
        ops[-1]["problems"].extend(problems)
        del outcome  # keep only one app's results alive, as the CLI does

    report = {"setup_s": setup_s,
              "pass_s": sum(record["seconds"] for record in ops), "ops": ops,
              "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              / 1024.0,
              "views": views}
    if recorder is not None:
        report["spans"] = tracing.span_records(recorder.spans)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
