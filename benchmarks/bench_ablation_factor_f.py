"""Ablation A2 — the objective factor and the hardware cap on ``trick``.

The paper explains trick's time degradation: "our algorithm rejects
clusters that would result in a unacceptable high hardware effort (due to
factor F)".  This ablation sweeps the hardware constraint: with a generous
cell cap the partitioner may pick bigger cores; with a tight one it must
fall back to smaller clusters or give up entirely.
"""

import pytest

from repro.apps import app_by_name
from repro.core import (
    ExplorationEngine,
    PartitionConfig,
    Partitioner,
    profile_app,
)
from repro.core.objective import ObjectiveConfig
from repro.tech import cmos6_library


@pytest.fixture(scope="module")
def trick_setting():
    app = app_by_name("trick")
    library = cmos6_library()
    front = profile_app(app, library)
    return library, front.program, front.profile, front.initial


@pytest.mark.benchmark(group="ablation-factor-f")
def bench_hardware_cap_sweep(benchmark, trick_setting):
    library, program, profile, initial = trick_setting
    caps = [2_000, 8_000, 20_000, 60_000]

    def sweep():
        outcomes = {}
        for cap in caps:
            config = PartitionConfig(
                objective=ObjectiveConfig(geq_cap=cap))
            decision = ExplorationEngine(library=library).sweep(
                Partitioner(program, library, config), profile, initial)
            outcomes[cap] = decision
        return outcomes

    outcomes = benchmark.pedantic(sweep, rounds=1, iterations=1)
    cells = {}
    for cap, decision in outcomes.items():
        best = decision.best
        cells[cap] = best.asic_cells if best else 0
        benchmark.extra_info[f"cap_{cap}"] = {
            "best": best.cluster.name if best else None,
            "cells": cells[cap],
            "rejected_for_cells": sum(
                1 for _, _, r in decision.rejections if "cells" in r),
        }

    # Tightest cap: nothing fits.
    assert outcomes[2_000].best is None
    # Looser caps admit larger (more capable) cores, monotonically.
    admitted = [cells[c] for c in caps if cells[c] > 0]
    assert admitted == sorted(admitted)
    # Every admitted core respects its cap.
    for cap, decision in outcomes.items():
        if decision.best is not None:
            assert decision.best.asic_cells <= cap


@pytest.mark.benchmark(group="ablation-factor-f")
def bench_energy_weight_sweep(benchmark, trick_setting):
    """Sweeping F (the energy weight) against a fixed hardware term: higher
    F tolerates more hardware for the same energy gain."""
    library, program, profile, initial = trick_setting

    def sweep():
        outcomes = {}
        for f_energy in (0.25, 1.0, 4.0):
            config = PartitionConfig(objective=ObjectiveConfig(
                f_energy=f_energy, g_hardware=0.2))
            decision = ExplorationEngine(library=library).sweep(
                Partitioner(program, library, config), profile, initial)
            outcomes[f_energy] = decision
        return outcomes

    outcomes = benchmark.pedantic(sweep, rounds=1, iterations=1)
    sizes = []
    for f_energy, decision in sorted(outcomes.items()):
        best = decision.best
        benchmark.extra_info[f"F_{f_energy}"] = (
            best.asic_cells if best else None)
        sizes.append(best.asic_cells if best else 0)
    # Larger F never selects a *smaller* core than a smaller F does.
    admitted = [s for s in sizes if s > 0]
    assert admitted == sorted(admitted)
