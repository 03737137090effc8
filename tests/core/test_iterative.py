"""Iterative multi-core partitioning tests (Eq. 3 generalized)."""

import pytest

from repro.cluster import decompose_into_clusters
from repro.core import AppSpec, IterativePartitioner, LowPowerFlow
from repro.obs import Tracer, use_tracer


TWO_KERNEL_SRC = """
global a: int[256];
global b: int[256];
global c: int[256];

func main() -> int {
    for i in 0 .. 256 { b[i] = (a[i] * 9 + (a[i] >> 2)) & 2047; }
    var s1: int = 0;
    for k in 0 .. 8 { s1 = s1 + b[k * 32]; }
    for i in 0 .. 256 { c[i] = ((b[i] ^ i) * 5 + 3) & 4095; }
    var s2: int = 0;
    for k in 0 .. 8 { s2 = s2 + c[k * 32]; }
    return s1 * 10000 + s2;
}
"""


@pytest.fixture(scope="module")
def two_kernel_app():
    return AppSpec(name="twohot", source=TWO_KERNEL_SRC,
                   globals_init={"a": [i % 251 for i in range(256)]})


@pytest.fixture(scope="module")
def iterative_result(two_kernel_app):
    return IterativePartitioner(max_cores=3).run(two_kernel_app)


def test_commits_both_kernels(iterative_result):
    assert len(iterative_result.steps) == 2
    names = {step.candidate.cluster.name for step in iterative_result.steps}
    assert len(names) == 2  # two distinct clusters


def test_committed_clusters_disjoint(iterative_result):
    seen = set()
    for step in iterative_result.steps:
        blocks = {(step.candidate.cluster.function, b)
                  for b in step.candidate.cluster.blocks}
        assert not (blocks & seen)
        seen |= blocks


def test_energy_monotonically_decreases(iterative_result):
    energies = [iterative_result.initial.total_energy_nj]
    energies += [step.system.total_energy_nj
                 for step in iterative_result.steps]
    assert energies == sorted(energies, reverse=True)
    # Each accepted step met the minimum-improvement bar.
    for before, after in zip(energies, energies[1:]):
        assert (before - after) / before >= 0.01


def test_functional_equivalence_at_every_step(iterative_result):
    assert iterative_result.functional_match


def test_multicore_beats_single_core(two_kernel_app, iterative_result):
    single = LowPowerFlow().run(two_kernel_app)
    assert single.accepted
    assert (iterative_result.final.total_energy_nj
            < single.partitioned.total_energy_nj)


def test_first_core_is_the_single_core_choice(two_kernel_app,
                                              iterative_result):
    """Both searches filter through Partitioner.decide, so the first
    committed core is the single-core flow's winner."""
    best = LowPowerFlow().run(two_kernel_app).decision.best
    first = iterative_result.steps[0].candidate
    assert (first.cluster.name, first.resource_set.name, first.objective) \
        == (best.cluster.name, best.resource_set.name, best.objective)


def test_one_prepare_per_run(two_kernel_app):
    """The cluster grid is built once per run, not once per pass."""
    tracer = Tracer()
    with use_tracer(tracer):
        result = IterativePartitioner(max_cores=3).run(two_kernel_app)
    assert len(result.steps) == 2  # three search passes
    program = two_kernel_app.compile()
    assert tracer.counters["cluster.decomposed"] == len(
        decompose_into_clusters(program))


def test_total_cells_sum_of_cores(iterative_result):
    assert iterative_result.total_asic_cells == sum(
        step.candidate.asic_cells for step in iterative_result.steps)


def test_max_cores_respected(two_kernel_app):
    result = IterativePartitioner(max_cores=1).run(two_kernel_app)
    assert len(result.steps) == 1


def test_no_candidates_yields_empty_result():
    app = AppSpec(name="tiny", source="""
    func main(x: int) -> int { return x * 2 + 1; }
    """, args=(5,))
    result = IterativePartitioner().run(app)
    assert result.steps == []
    assert result.final is result.initial
    assert result.energy_savings_percent == 0.0


def test_high_improvement_bar_stops_early(two_kernel_app):
    # Demanding a 90% gain per core: nothing qualifies.
    result = IterativePartitioner(max_cores=3,
                                  min_improvement=0.9).run(two_kernel_app)
    assert result.steps == []


def test_invalid_parameters():
    with pytest.raises(ValueError):
        IterativePartitioner(max_cores=0)
    with pytest.raises(ValueError):
        IterativePartitioner(min_improvement=1.0)
    with pytest.raises(ValueError):
        IterativePartitioner(min_improvement=-0.1)
