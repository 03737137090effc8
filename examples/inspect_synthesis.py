#!/usr/bin/env python3
"""Look inside the synthesized ASIC core for the digs smoothing kernel.

Walks the lower layers of the library: decomposition -> pre-selection ->
list schedule (with a per-step view) -> Fig. 4 binding -> datapath / FSM /
netlist -> gate-level energy, and cross-checks the gate-level estimate
against the utilization-based estimate of Fig. 1 line 11.

Run:  python examples/inspect_synthesis.py
"""

from repro.apps import app_by_name
from repro.cluster import decompose_into_clusters, preselect_clusters
from repro.core import profile_app
from repro.sched import bind_schedule, cluster_metrics, list_schedule
from repro.sched.asic_memory import make_latency_fn
from repro.synth import (
    build_controller,
    build_datapath,
    estimate_gate_energy,
    expand_netlist,
)
from repro.tech import cmos6_library, default_resource_sets


def main() -> None:
    app = app_by_name("digs")
    library = cmos6_library()
    front = profile_app(app, library)
    program, profile = front.program, front.profile

    clusters = preselect_clusters(decompose_into_clusters(program), program,
                                  profile, library, n_max=1)
    cluster = clusters[0]
    print(f"hot cluster: {cluster.name} ({len(cluster.blocks)} blocks, "
          f"{len(cluster.fsm_ops)} FSM-realized loop-control ops)")

    cdfg = program.cdfgs[cluster.function]
    sizes = dict(program.global_arrays)
    sizes.update(cdfg.arrays)
    latency_of = make_latency_fn(sizes, library)
    resource_set = default_resource_sets()[0]  # 'tiny'
    print(f"resource set: {resource_set}")

    schedulable = cluster.schedulable_ops(cdfg)
    schedules = {b: list_schedule(ops, resource_set, latency_of=latency_of)
                 for b, ops in schedulable.items()}

    # Per-step view of the busiest block.
    hottest = max(schedules, key=lambda b: schedules[b].op_count)
    schedule = schedules[hottest]
    print(f"\nschedule of block {hottest!r} "
          f"(makespan {schedule.makespan} control steps):")
    for step in range(schedule.makespan):
        ops = [f"{e.op.kind.value}@{e.resource.value}"
               for e in schedule.by_step.get(step, [])]
        running = [f"({e.op.kind.value})"
                   for e in schedule.ops_active_in(step)
                   if e.start != step]
        print(f"  cs{step:2d}: {' '.join(ops + running) or '-'}")

    binding = bind_schedule(schedules, library)
    ex_times = {b: profile.block_count(cluster.function, b)
                for b in cdfg.blocks}
    metrics = cluster_metrics(binding, ex_times, library)
    print(f"\nbinding: {{ "
          + ", ".join(f"{k.value}: {v}"
                      for k, v in binding.instance_counts.items())
          + " }")
    print(f"U_R = {metrics.utilization:.3f}   GEQ_RS = {binding.geq}   "
          f"N_cyc = {metrics.total_cycles:,}")
    print(f"E_R (line-11 estimate)  = {metrics.energy_estimate_nj / 1e3:.2f} uJ")
    print(f"E_R (active+idle model) = {metrics.energy_detailed_nj / 1e3:.2f} uJ")

    datapath = build_datapath(schedules, binding, library,
                              block_ops=schedulable)
    controller = build_controller(schedules, 1)
    netlist = expand_netlist(datapath, controller, library,
                             scratchpad_words=2048)
    print(f"\nsynthesized core ({netlist.total_cells} cells):")
    for comp in netlist.components:
        print(f"  {comp.name:14s} {comp.gates:6d} gates "
              f"({comp.sequential_gates} sequential)")

    gate = estimate_gate_energy(netlist, binding, ex_times,
                                metrics.total_cycles, library)
    print(f"\ngate-level energy (Fig. 1 line 15 check): "
          f"{gate.total_nj / 1e3:.2f} uJ")
    for name, nj in sorted(gate.component_nj.items(), key=lambda kv: -kv[1]):
        print(f"  {name:14s} {nj / 1e3:8.2f} uJ")


if __name__ == "__main__":
    main()
