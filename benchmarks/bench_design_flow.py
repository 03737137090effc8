"""Experiment F5 — the complete design flow (paper Fig. 5), staged.

Times each stage of the flow separately on the ``digs`` application:
compile -> link -> initial ISS run -> profile (read off that run) ->
partition search -> synthesis + gate-level energy -> partitioned
evaluation.
"""

import pytest

from repro.apps import app_by_name
from repro.core import (
    LowPowerFlow,
    Partitioner,
    profile_app,
    profile_from_sim,
)
from repro.power.system import evaluate_initial, evaluate_partitioned
from repro.synth.datapath import build_datapath
from repro.synth.fsm import build_controller
from repro.synth.gatesim import estimate_gate_energy
from repro.synth.netlist import expand_netlist
from repro.synth.rtl_sim import simulate_asic
from repro.tech import cmos6_library


@pytest.fixture(scope="module")
def staged():
    app = app_by_name("digs")
    library = cmos6_library()
    front = profile_app(app, library)
    program, profile = front.program, front.profile
    image, initial = front.image, front.initial
    decision = Partitioner(program, library).run(profile, initial)
    return app, library, program, profile, image, initial, decision


@pytest.mark.benchmark(group="design-flow")
def bench_stage_compile(benchmark):
    app = app_by_name("digs")
    program = benchmark(app.compile)
    assert "smooth_engine" in program.cdfgs


@pytest.mark.benchmark(group="design-flow")
def bench_stage_initial_iss(benchmark, staged):
    app, library, program, profile, image, initial, decision = staged
    run = benchmark.pedantic(
        evaluate_initial, args=(image, library),
        kwargs={"globals_init": app.globals_init}, rounds=3, iterations=1)
    assert run.result == initial.result


@pytest.mark.benchmark(group="design-flow")
def bench_stage_profile(benchmark, staged):
    app, library, program, profile, image, initial, decision = staged
    derived = benchmark(profile_from_sim, program, image, initial.sim)
    assert derived == profile and derived.steps > 0


@pytest.mark.benchmark(group="design-flow")
def bench_stage_partition_search(benchmark, staged):
    app, library, program, profile, image, initial, decision = staged
    partitioner = Partitioner(program, library)
    fresh = benchmark(partitioner.run, profile, initial)
    assert fresh.best is not None


@pytest.mark.benchmark(group="design-flow")
def bench_stage_synthesis_and_gate_energy(benchmark, staged):
    app, library, program, profile, image, initial, decision = staged
    best = decision.best
    cdfg = program.cdfgs[best.cluster.function]
    block_ops = best.cluster.schedulable_ops(cdfg)

    def synthesize():
        datapath = build_datapath(best.schedules, best.binding, library,
                                  block_ops=block_ops)
        controller = build_controller(best.schedules, 1)
        netlist = expand_netlist(datapath, controller, library,
                                 scratchpad_words=best.scratchpad_words)
        energy = estimate_gate_energy(netlist, best.binding, best.ex_times,
                                      best.metrics.total_cycles, library)
        return netlist, energy

    netlist, energy = benchmark(synthesize)
    benchmark.extra_info["cells"] = netlist.total_cells
    benchmark.extra_info["gate_energy_uj"] = round(energy.total_nj / 1000, 2)
    assert netlist.total_cells > 0


@pytest.mark.benchmark(group="design-flow")
def bench_stage_partitioned_evaluation(benchmark, staged):
    app, library, program, profile, image, initial, decision = staged
    best = decision.best
    stats = simulate_asic(best.schedules, best.ex_times, best.invocations,
                          best.transfer.total_words_in,
                          best.transfer.total_words_out)

    run = benchmark.pedantic(
        evaluate_partitioned, args=(image, library),
        kwargs=dict(hw_blocks=best.hw_blocks, asic_stats=stats,
                    asic_metrics=best.metrics, asic_cells=best.asic_cells,
                    asic_mem_reads=best.shared_mem_reads,
                    asic_mem_writes=best.shared_mem_writes,
                    globals_init=app.globals_init),
        rounds=3, iterations=1)
    assert run.result == initial.result
    assert run.total_energy_nj < initial.total_energy_nj


@pytest.mark.benchmark(group="design-flow")
def bench_flow_end_to_end(benchmark):
    flow = LowPowerFlow()
    app = app_by_name("digs")
    result = benchmark.pedantic(flow.run, args=(app,), rounds=3, iterations=1)
    assert result.accepted and result.functional_match
