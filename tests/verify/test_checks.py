"""Fault injection: each corrupted artifact must fire the right invariant
with the right paper reference.

Every test takes a genuinely computed artifact (from the session-scoped
flow fixtures), perturbs one value with ``dataclasses.replace``, and
asserts the verifier localizes the damage to the documented check id.
"""

import dataclasses

from repro.sched.list_scheduler import Schedule
from repro.tech import cmos6_library
from repro.verify import Severity, verify_system_run
from repro.verify.checks import (
    CHECKS,
    check_accepted,
    check_cluster_metrics,
    check_energy_conservation,
    check_schedule,
)
from repro.verify.findings import VerificationReport


def _errors(report, check):
    return [f for f in report.findings
            if f.check == check and f.severity is Severity.ERROR]


def _assert_fires(report, check):
    """The corrupted artifact produced an ERROR on ``check``, and the
    finding carries the registry's paper reference."""
    found = _errors(report, check)
    assert found, (f"expected {check} to fire; findings: "
                   f"{[f.format() for f in report.findings]}")
    assert all(f.paper_ref == CHECKS[check].paper_ref for f in found)
    assert all(f.layer == CHECKS[check].layer for f in found)


# ---------------------------------------------------------------------------
# Schedule layer
# ---------------------------------------------------------------------------

def test_precedence_fault_fires_fig1_line8(ckey_result):
    schedules = ckey_result.best.schedules
    def dependent(ddg):
        return {dst for succs in ddg.values() for dst in succs}

    block, schedule = next(
        (b, s) for b, s in sorted(schedules.items())
        if s.ddg is not None and any(
            e.op in dependent(s.ddg) and e.start > 0 for e in s.entries))
    has_preds = dependent(schedule.ddg)
    entries = [dataclasses.replace(e, start=0)
               if (e.op in has_preds and e.start > 0) else e
               for e in schedule.entries]
    corrupted = Schedule(entries=entries, makespan=schedule.makespan,
                         resource_set=schedule.resource_set,
                         ddg=schedule.ddg)
    report = VerificationReport(label="fault")
    check_schedule(report, block, corrupted)
    _assert_fires(report, "sched.precedence")
    assert CHECKS["sched.precedence"].paper_ref == "Fig. 1 line 8"


def test_capacity_fault_fires_fig1_line8(ckey_result):
    schedules = ckey_result.best.schedules
    block, schedule = next((b, s) for b, s in sorted(schedules.items())
                           if s.entries)
    entry = schedule.entries[0]
    allowed = schedule.resource_set.count(entry.resource)
    # allowed + 1 copies of the same op in the same step over-subscribes
    # the kind no matter what the designer allocated.
    entries = [dataclasses.replace(entry, start=0)] * (allowed + 1)
    corrupted = Schedule(entries=entries, makespan=entry.latency,
                         resource_set=schedule.resource_set, ddg=None)
    report = VerificationReport(label="fault")
    check_schedule(report, block, corrupted)
    _assert_fires(report, "sched.capacity")


def test_clean_schedules_have_no_schedule_errors(ckey_result):
    report = VerificationReport(label="clean")
    for block, schedule in sorted(ckey_result.best.schedules.items()):
        check_schedule(report, block, schedule)
    assert not _errors(report, "sched.precedence")
    assert not _errors(report, "sched.capacity")


# ---------------------------------------------------------------------------
# Utilization / wasted energy (Eq. 4 / Eq. 2)
# ---------------------------------------------------------------------------

def test_utilization_out_of_bounds_fires_eq4(ckey_result):
    metrics = dataclasses.replace(ckey_result.best.metrics,
                                  utilization=1.27)
    report = VerificationReport(label="fault")
    check_cluster_metrics(report, metrics)
    _assert_fires(report, "sched.utilization")
    assert CHECKS["sched.utilization"].paper_ref == "Eq. 4"


def test_negative_idle_time_fires_eq2(ckey_result):
    metrics = ckey_result.best.metrics
    (kind, index), _cycles = next(iter(
        sorted(metrics.instance_active_cycles.items(),
               key=lambda kv: (kv[0][0].value, kv[0][1]))))
    corrupted_cycles = dict(metrics.instance_active_cycles)
    corrupted_cycles[(kind, index)] = metrics.total_cycles + 7
    metrics = dataclasses.replace(
        metrics, instance_active_cycles=corrupted_cycles)
    report = VerificationReport(label="fault")
    check_cluster_metrics(report, metrics)
    _assert_fires(report, "power.wasted")
    assert CHECKS["power.wasted"].paper_ref == "Eq. 2"


# ---------------------------------------------------------------------------
# Energy conservation (Eq. 3 / Table 1)
# ---------------------------------------------------------------------------

def test_asic_energy_mismatch_fires_eq3(digs_result):
    run = digs_result.partitioned
    report = VerificationReport(label="fault")
    check_energy_conservation(
        report, run, cmos6_library(),
        asic_reference_nj=run.energy.asic_core_nj * 1.5 + 1.0)
    _assert_fires(report, "power.conservation")
    assert CHECKS["power.conservation"].paper_ref == "Eq. 3/Table 1"
    assert any(f.subject.endswith(".asic_core")
               for f in _errors(report, "power.conservation"))


def test_corrupted_mem_counter_fires_conservation(digs_result):
    run = digs_result.initial
    stats = dataclasses.replace(run.stats,
                                mem_word_reads=run.stats.mem_word_reads + 40)
    corrupted = dataclasses.replace(run, stats=stats)
    report = VerificationReport(label="fault")
    check_energy_conservation(report, corrupted, cmos6_library())
    _assert_fires(report, "power.conservation")


# ---------------------------------------------------------------------------
# Memory-system accounting
# ---------------------------------------------------------------------------

def test_corrupted_cache_hits_fire_cache_accounting(digs_result):
    run = digs_result.initial
    icache = dataclasses.replace(run.stats.icache,
                                 read_hits=run.stats.icache.read_hits + 2)
    corrupted = dataclasses.replace(
        run, stats=dataclasses.replace(run.stats, icache=icache))
    report = verify_system_run(corrupted)
    _assert_fires(report, "mem.cache_accounting")
    assert CHECKS["mem.cache_accounting"].paper_ref == "footnote 2"


def test_corrupted_bus_counter_fires_traffic(digs_result):
    run = digs_result.initial
    stats = dataclasses.replace(
        run.stats, bus_word_writes=run.stats.bus_word_writes + 3)
    corrupted = dataclasses.replace(run, stats=stats)
    report = verify_system_run(corrupted)
    _assert_fires(report, "mem.traffic")
    # The bus energy was computed from the true counter; the corrupted
    # snapshot must also break conservation.
    _assert_fires(report, "power.conservation")


def test_corrupted_trace_counts_fire_trace_check(digs_result):
    run = digs_result.initial
    fetches, reads, writes = run.stats.trace_counts
    stats = dataclasses.replace(run.stats,
                                trace_counts=(fetches, reads, writes + 1))
    corrupted = dataclasses.replace(run, stats=stats)
    report = verify_system_run(corrupted)
    _assert_fires(report, "mem.trace")
    assert CHECKS["mem.trace"].paper_ref == "Fig. 5 trace tool"


# ---------------------------------------------------------------------------
# Core layer
# ---------------------------------------------------------------------------

def test_flipped_accept_flag_fires_fig1_exit_test(digs_result):
    corrupted = dataclasses.replace(digs_result,
                                    accepted=not digs_result.accepted)
    report = VerificationReport(label="fault")
    check_accepted(report, corrupted)
    _assert_fires(report, "core.accepted")
    assert CHECKS["core.accepted"].paper_ref == "Fig. 1 'reduced?'"
