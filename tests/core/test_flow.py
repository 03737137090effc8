"""Design-flow (Fig. 5) end-to-end tests on a compact application."""

import pytest

from repro.core import AppSpec, LowPowerFlow


SRC = """
global inp: int[128];
global outp: int[128];

func main() -> int {
    for i in 0 .. 128 {
        outp[i] = (inp[i] * 5 + (inp[i] >> 1)) & 1023;
    }
    var s: int = 0;
    for k in 0 .. 8 { s = s + outp[k * 16]; }
    return s;
}
"""


@pytest.fixture(scope="module")
def flow_result():
    app = AppSpec(name="mini", source=SRC,
                  globals_init={"inp": [(7 * i) % 311 for i in range(128)]})
    return LowPowerFlow().run(app)


def test_flow_completes_with_partition(flow_result):
    assert flow_result.best is not None
    assert flow_result.partitioned is not None
    assert flow_result.accepted


def test_partitioned_system_is_functionally_identical(flow_result):
    assert flow_result.functional_match
    assert flow_result.partitioned.result == flow_result.initial.result


def test_energy_actually_saved(flow_result):
    assert flow_result.energy_savings_percent > 0
    assert (flow_result.partitioned.total_energy_nj
            < flow_result.initial.total_energy_nj)


def test_synthesis_artifacts_produced(flow_result):
    assert flow_result.datapath is not None
    assert flow_result.controller is not None
    assert flow_result.netlist is not None
    assert flow_result.netlist.total_cells > 0
    assert flow_result.gate_energy is not None
    assert flow_result.gate_energy.total_nj > 0


def test_gate_level_energy_used_in_system_accounting(flow_result):
    assert flow_result.partitioned.energy.asic_core_nj == pytest.approx(
        flow_result.gate_energy.total_nj)


def test_asic_cells_reported(flow_result):
    assert flow_result.asic_cells == flow_result.netlist.total_cells
    assert 0 < flow_result.asic_cells < 30_000


def test_asic_stats_consistent_with_partitioned_run(flow_result):
    stats = flow_result.asic_stats
    assert flow_result.partitioned.asic_cycles == stats.asic_cycles
    assert stats.invocations == flow_result.best.invocations


def test_profile_and_decision_exposed(flow_result):
    assert flow_result.profile.steps > 0
    assert flow_result.decision.preselected
    assert flow_result.decision.candidates


def test_flow_without_candidates_returns_initial_only():
    app = AppSpec(name="scalar", source="""
    func main(x: int) -> int {
        if x > 0 { return x; }
        return -x;
    }
    """, args=(5,))
    result = LowPowerFlow().run(app)
    assert result.best is None
    assert result.partitioned is None
    assert not result.accepted
    assert result.energy_savings_percent == 0.0
    assert result.time_change_percent == 0.0
    assert result.functional_match  # trivially true


def test_summary_renders_full_report(flow_result):
    text = flow_result.summary()
    assert "U_uP" in text
    assert "chosen:" in text
    assert "|I |" in text and "|P |" in text
    assert "functional match: True" in text
    assert "gate-level ASIC energy" in text


def test_summary_without_partition():
    app = AppSpec(name="nothing", source="""
    func main(x: int) -> int { return x + 1; }
    """, args=(1,))
    result = LowPowerFlow().run(app)
    text = result.summary()
    assert "no beneficial partition found" in text


def _flow_trace(**flow_options):
    """One traced flow of the mini app.  Every flow sweeps through the
    engine: ``explore.sweep`` holds ``partition.prepare`` and the
    in-process ``explore.evaluate``, and no other sweep span exists.
    Each evaluation schedules, binds and prices under its own span; a
    pair whose set cannot execute the cluster stops after scheduling."""
    from repro.obs import Tracer

    tracer = Tracer()
    app = AppSpec(name="mini", source=SRC,
                  globals_init={"inp": [(7 * i) % 311 for i in range(128)]})
    result = LowPowerFlow(tracer=tracer, **flow_options).run(app)
    assert result.partitioned is not None
    flow_span = tracer.root.children["flow.run"]
    assert "partition.sweep" not in flow_span.children
    sweep = flow_span.children["explore.sweep"]
    assert set(sweep.children) == {"partition.prepare", "explore.evaluate"}
    evaluate = sweep.children["explore.evaluate"]
    assert evaluate.calls == result.decision.examined
    assert set(evaluate.children) == {"sched.schedule", "sched.bind",
                                      "core.energy"}
    schedulable = evaluate.calls \
        - tracer.counters.get("explore.rejected.schedule", 0)
    assert evaluate.children["sched.schedule"].calls == evaluate.calls
    assert evaluate.children["sched.bind"].calls == schedulable
    assert evaluate.children["core.energy"].calls == schedulable
    assert schedulable == tracer.counters["explore.evaluated"]
    return result, tracer


def test_one_flow_executes_the_iss_once(flow_result):
    """The partitioned design is priced from the initial run's record:
    one execution, two pricings, bit-identical to a second execution."""
    from dataclasses import asdict

    result, tracer = _flow_trace()
    assert tracer.counters["isa.executions"] == 1
    flow_span = tracer.root.children["flow.run"]
    initial = flow_span.children["flow.initial"]
    assert set(initial.children) == {"isa.execute", "isa.price"}
    partitioned = flow_span.children["flow.partitioned"]
    assert set(partitioned.children) == {"isa.price"}
    # The trace-collecting flow executes the partitioned design instead
    # (its trace drops the hardware blocks' events) — same numbers.
    traced, tracer = _flow_trace(collect_traces=True)
    assert tracer.counters["isa.executions"] == 2
    assert asdict(traced.partitioned.sim) == asdict(result.partitioned.sim)
    assert asdict(result.partitioned.sim) == asdict(
        flow_result.partitioned.sim)
    assert traced.partitioned.energy == result.partitioned.energy
    # Through an engine the executed front half is kept: a second flow of
    # the workload only prices it, and a trace-collecting flow never
    # consults it, so it still executes both designs.
    from repro.core import ExplorationEngine
    from repro.obs import Tracer

    tracer = Tracer()
    engine = ExplorationEngine(tracer=tracer)
    runs = [LowPowerFlow(tracer=tracer, engine=engine, **options).run(
                flow_result.app)
            for options in ({}, {}, {"collect_traces": True})]
    assert tracer.counters["isa.executions"] == 1 + 0 + 2
    assert tracer.counters["explore.front.misses"] == 1
    assert tracer.counters["explore.front.hits"] == 1
    assert len(engine.fronts) == 1
    assert runs[1].program is runs[0].program
    for run in runs:
        assert asdict(run.initial.sim) == asdict(result.initial.sim)
        assert asdict(run.partitioned.sim) == asdict(result.partitioned.sim)
        assert run.partitioned.energy == result.partitioned.energy
