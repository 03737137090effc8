"""Experiment F1 — the partitioning algorithm itself (paper Fig. 1).

Measures the search (decompose -> pre-select -> schedule/bind/score over
clusters x resource sets) in isolation, and reports how many clusters were
found, pre-selected (``N_max^c``), evaluated and rejected per application.
"""

import pytest

from repro.apps import ALL_APPS, app_by_name
from repro.core import Partitioner, profile_app
from repro.tech import cmos6_library


def _prepare(name):
    app = app_by_name(name)
    library = cmos6_library()
    front = profile_app(app, library)
    partitioner = Partitioner(front.program, library, app.config)
    return partitioner, front.profile, front.initial


@pytest.mark.benchmark(group="partition-algorithm")
@pytest.mark.parametrize("name", list(ALL_APPS))
def bench_partition_search(benchmark, name):
    partitioner, profile, initial = _prepare(name)
    decision = benchmark(partitioner.run, profile, initial)

    benchmark.extra_info["clusters_total"] = len(decision.all_clusters)
    benchmark.extra_info["preselected"] = len(decision.preselected)
    benchmark.extra_info["evaluated"] = len(decision.candidates)
    benchmark.extra_info["rejected"] = len(decision.rejections)
    benchmark.extra_info["best"] = (decision.best.cluster.name
                                    if decision.best else None)

    # The pre-selection must prune (that is its purpose: the later steps
    # are "performed for all remaining clusters").
    assert len(decision.preselected) <= partitioner.config.n_max_clusters
    assert decision.best is not None
