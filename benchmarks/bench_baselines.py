"""Experiment B1 — power-driven vs performance-driven partitioning.

The related-work positioning of the paper: classic partitioners (refs
[4]-[9]) optimize execution time under a hardware budget and "none of them
provide power related optimization"; COSYN-style allocation (ref [11])
uses average PE power.  This benchmark runs all three selectors over the
same candidate machinery on every application and compares the *evaluated*
system energies of their choices.
"""

import pytest

from repro.apps import ALL_APPS, app_by_name
from repro.core import ExplorationEngine, Partitioner
from repro.core.baselines import (
    average_power_choice,
    performance_driven_choice,
)
from repro.core import profile_app
from repro.tech import cmos6_library


def _prepare(name):
    app = app_by_name(name)
    library = cmos6_library()
    front = profile_app(app, library)
    return (Partitioner(front.program, library, app.config), front.profile,
            front.initial)


def _predicted_energy(candidate):
    return candidate.e_r_nj + candidate.e_up_nj + candidate.e_rest_nj


@pytest.mark.benchmark(group="baselines")
@pytest.mark.parametrize("name", list(ALL_APPS))
def bench_selector_comparison(benchmark, name):
    partitioner, profile, initial = _prepare(name)
    engine = ExplorationEngine(library=partitioner.library)

    def run_all():
        return {
            "low-power": engine.sweep(partitioner, profile, initial).best,
            "performance": performance_driven_choice(partitioner, profile,
                                                     initial),
            "avg-power": average_power_choice(partitioner, profile, initial),
        }

    choices = benchmark.pedantic(run_all, rounds=1, iterations=1)
    energies = {}
    for selector, choice in choices.items():
        if choice is None:
            benchmark.extra_info[selector] = None
            continue
        energies[selector] = _predicted_energy(choice)
        benchmark.extra_info[selector] = {
            "cluster": choice.cluster.name,
            "set": choice.resource_set.name,
            "energy_uj": round(energies[selector] / 1000, 1),
            "U_R": round(choice.utilization, 3),
        }

    assert choices["low-power"] is not None, f"{name}: no low-power choice"
    # The paper's claim, per app: the power-driven selection is at least
    # competitive on energy with both baselines.  A 10% tolerance covers
    # the objective's hardware-effort term, which may deliberately trade a
    # few percent of predicted energy for a markedly smaller core.
    own = energies["low-power"]
    for selector in ("performance", "avg-power"):
        if selector in energies:
            assert own <= energies[selector] * 1.10, (
                f"{name}: low-power {own:.0f} nJ worse than "
                f"{selector} {energies[selector]:.0f} nJ")
