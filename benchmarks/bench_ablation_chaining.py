"""Ablation — operator chaining in the list scheduler.

The paper uses "a simple list schedule"; production behavioral compilers
of the era chained dependent single-cycle operators within a control step.
This ablation re-schedules every application's hot kernel with chaining
enabled and reports the effect on makespan-derived cycles and utilization:
chaining packs the same work into fewer steps, which can only help the
ASIC side — i.e. the paper's simple-list-schedule results are a
conservative lower bound.
"""

import pytest

from repro.apps import ALL_APPS, app_by_name
from repro.cluster import decompose_into_clusters, preselect_clusters
from repro.core import profile_app
from repro.sched import bind_schedule, cluster_metrics, list_schedule
from repro.sched.asic_memory import make_latency_fn
from repro.sched.list_scheduler import ChainingModel, ScheduleError
from repro.tech import cmos6_library, default_resource_sets


@pytest.mark.benchmark(group="ablation-chaining")
@pytest.mark.parametrize("name", list(ALL_APPS))
def bench_chaining_effect(benchmark, name):
    app = app_by_name(name)
    library = cmos6_library()
    front = profile_app(app, library)
    program, profile = front.program, front.profile
    cluster = preselect_clusters(decompose_into_clusters(program), program,
                                 profile, library, n_max=1)[0]
    cdfg = program.cdfgs[cluster.function]
    sizes = dict(program.global_arrays)
    sizes.update(cdfg.arrays)
    latency_of = make_latency_fn(sizes, library)
    ex_times = {b: profile.block_count(cluster.function, b)
                for b in cdfg.blocks}
    schedulable = cluster.schedulable_ops(cdfg)

    def compare():
        out = {}
        for resource_set in default_resource_sets():
            try:
                plain = {b: list_schedule(ops, resource_set,
                                          latency_of=latency_of)
                         for b, ops in schedulable.items()}
                chained = {b: list_schedule(ops, resource_set,
                                            latency_of=latency_of,
                                            chaining=ChainingModel())
                           for b, ops in schedulable.items()}
            except ScheduleError:
                continue
            plain_m = cluster_metrics(bind_schedule(plain, library),
                                      ex_times, library)
            chained_m = cluster_metrics(bind_schedule(chained, library),
                                        ex_times, library)
            out[resource_set.name] = (plain_m, chained_m)
        return out

    results = benchmark.pedantic(compare, rounds=1, iterations=1)
    assert results, f"{name}: nothing schedulable"
    for set_name, (plain_m, chained_m) in results.items():
        benchmark.extra_info[set_name] = {
            "plain_cycles": plain_m.total_cycles,
            "chained_cycles": chained_m.total_cycles,
            "plain_UR": round(plain_m.utilization, 3),
            "chained_UR": round(chained_m.utilization, 3),
        }
        # Chaining never lengthens the schedule.
        assert chained_m.total_cycles <= plain_m.total_cycles
