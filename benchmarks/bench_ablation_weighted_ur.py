"""Ablation A1 — size-weighted vs unweighted utilization rate.

The paper (end of section 3.4) reports that weighting each resource's
contribution to ``U_R`` by its size "does not result in better partitions
though the individual values of U_R are different ... the *relative*
values of U_R of different clusters are actually responsible".

This ablation computes both variants for every (pre-selected cluster,
resource set) pair of every application and checks that the *ranking* of
clusters is essentially unchanged, even though the values differ.
"""

import pytest

from repro.apps import ALL_APPS, app_by_name
from repro.cluster import decompose_into_clusters, preselect_clusters
from repro.core import profile_app
from repro.sched import bind_schedule, cluster_metrics, list_schedule
from repro.sched.asic_memory import make_latency_fn
from repro.sched.list_scheduler import ScheduleError
from repro.tech import cmos6_library, default_resource_sets


def _cluster_metrics_for(name, n_clusters=4):
    app = app_by_name(name)
    library = cmos6_library()
    front = profile_app(app, library)
    program, profile = front.program, front.profile
    clusters = preselect_clusters(decompose_into_clusters(program), program,
                                  profile, library, n_max=n_clusters)
    # 'large' includes a divider, so division-bearing clusters (e.g. 3d's
    # projection) are schedulable and the ranking compares more candidates.
    resource_set = default_resource_sets()[3]
    results = {}
    for cluster in clusters:
        cdfg = program.cdfgs[cluster.function]
        sizes = dict(program.global_arrays)
        sizes.update(cdfg.arrays)
        latency_of = make_latency_fn(sizes, library)
        try:
            schedules = {b: list_schedule(ops, resource_set,
                                          latency_of=latency_of)
                         for b, ops in cluster.schedulable_ops(cdfg).items()}
        except ScheduleError:
            continue
        binding = bind_schedule(schedules, library)
        ex_times = {b: profile.block_count(cluster.function, b)
                    for b in cdfg.blocks}
        results[cluster.name] = cluster_metrics(binding, ex_times, library)
    return results


@pytest.mark.benchmark(group="ablation-weighted-ur")
@pytest.mark.parametrize("name", list(ALL_APPS))
def bench_weighted_vs_unweighted_ur(benchmark, name):
    results = benchmark.pedantic(_cluster_metrics_for, args=(name,),
                                 rounds=1, iterations=1)
    if len(results) < 2:
        pytest.skip(f"{name}: fewer than two schedulable clusters on medium")

    unweighted = sorted(results, key=lambda c: -results[c].utilization)
    weighted = sorted(results,
                      key=lambda c: -results[c].utilization_size_weighted)

    for cluster_name, metrics in results.items():
        benchmark.extra_info[cluster_name] = {
            "U_R": round(metrics.utilization, 3),
            "U_R_weighted": round(metrics.utilization_size_weighted, 3),
        }

    # The values differ...
    assert any(
        abs(m.utilization - m.utilization_size_weighted) > 1e-6
        for m in results.values())
    # ...but the ranking is essentially unchanged (the paper's
    # observation).  Near-ties between *nested* clusters (an inner loop vs
    # its enclosing nest) may swap places; the weighted winner must still
    # sit in the unweighted top-2 and vice versa.
    assert weighted[0] in unweighted[:2], (
        f"{name}: weighting promoted {weighted[0]} past the unweighted "
        f"top-2 {unweighted[:2]}")
    assert unweighted[0] in weighted[:2], (
        f"{name}: weighting demoted {unweighted[0]} below the weighted "
        f"top-2 {weighted[:2]}")
