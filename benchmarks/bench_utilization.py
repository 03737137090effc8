"""Experiment F4 — the utilization/binding computation (paper Fig. 4).

Measures schedule + bind + ``U_R``/``GEQ_RS`` for each application's hot
kernel across the designer resource sets, and checks the method's core
premise: the chosen kernels reach utilization rates above the μP core's.
"""

import pytest

from repro.apps import ALL_APPS, app_by_name
from repro.cluster import decompose_into_clusters, preselect_clusters
from repro.core import profile_app
from repro.sched import bind_schedule, cluster_metrics, list_schedule
from repro.sched.asic_memory import make_latency_fn
from repro.sched.list_scheduler import ScheduleError
from repro.tech import cmos6_library, default_resource_sets


def _hot_clusters(name, n_max=4):
    app = app_by_name(name)
    library = cmos6_library()
    front = profile_app(app, library)
    program, profile = front.program, front.profile
    clusters = decompose_into_clusters(program)
    kept = preselect_clusters(clusters, program, profile, library,
                              n_max=n_max)
    return program, profile, kept, library


@pytest.mark.benchmark(group="utilization")
@pytest.mark.parametrize("name", list(ALL_APPS))
def bench_utilization_sweep(benchmark, name):
    program, profile, clusters, library = _hot_clusters(name)

    def sweep():
        out = {}
        for cluster in clusters:
            cdfg = program.cdfgs[cluster.function]
            sizes = dict(program.global_arrays)
            sizes.update(cdfg.arrays)
            latency_of = make_latency_fn(sizes, library)
            schedulable = cluster.schedulable_ops(cdfg)
            ex_times = {b: profile.block_count(cluster.function, b)
                        for b in cdfg.blocks}
            for resource_set in default_resource_sets():
                try:
                    schedules = {b: list_schedule(ops, resource_set,
                                                  latency_of=latency_of)
                                 for b, ops in schedulable.items()}
                except ScheduleError:
                    continue
                binding = bind_schedule(schedules, library)
                metrics = cluster_metrics(binding, ex_times, library)
                out[(cluster.name, resource_set.name)] = metrics
        return out

    metrics_by_pair = benchmark(sweep)
    assert metrics_by_pair, f"{name}: no (cluster, set) pair schedulable"
    best_pair = max(metrics_by_pair, key=lambda k: metrics_by_pair[k].utilization)
    for (cluster_name, set_name), metrics in metrics_by_pair.items():
        benchmark.extra_info[f"{cluster_name}|{set_name}"] = {
            "U_R": round(metrics.utilization, 3),
            "GEQ": metrics.geq,
            "cycles": metrics.total_cycles,
        }
    best_ur = metrics_by_pair[best_pair].utilization
    # Premise of the whole approach: some candidate beats the μP cores'
    # measured utilization band (~0.25-0.33 across the six apps).  The
    # real gate in the flow is the app's own U_uP; see bench_table1.
    assert best_ur > 0.28, f"{name}: best U_R only {best_ur:.3f}"
