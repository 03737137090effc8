#!/usr/bin/env python3
"""Designer interaction: resource sets, cluster budget and objective factor.

The paper stresses that the designer drives the process: the resource sets
("how much hardware they are willing to spend"), the cluster budget
``N_max^c``, and the objective factor ``F``.  This example explores that
design space on the MPEG-style encoder:

1. sweep the candidate kernels across all designer resource sets and show
   U_R / GEQ / cycles per pair (the raw material of Fig. 4);
2. sweep the hardware cell cap and watch the chosen partition change;
3. compare the power-driven selection against a performance-driven one.

Run:  python examples/design_space_exploration.py
"""

from repro import (
    ExplorationEngine,
    ObjectiveConfig,
    PartitionConfig,
    Partitioner,
)
from repro.apps import app_by_name
from repro.core import profile_app
from repro.core.baselines import performance_driven_choice
from repro.tech import ResourceKind, ResourceSet, cmos6_library


def main() -> None:
    app = app_by_name("MPG")
    library = cmos6_library()
    front = profile_app(app, library)
    program, profile, initial = front.program, front.profile, front.initial
    engine = ExplorationEngine(library=library)
    print(f"initial design: {initial.up_cycles:,} cycles, "
          f"{initial.total_energy_nj / 1e6:.3f} mJ, "
          f"U_uP = {initial.up_utilization:.3f}")

    # ------------------------------------------------------------------
    # 1. Candidate landscape under the default designer inputs.
    # ------------------------------------------------------------------
    partitioner = Partitioner(program, library)
    decision = engine.sweep(partitioner, profile, initial)
    print(f"\ncandidate landscape ({len(decision.candidates)} evaluated, "
          f"{len(decision.rejections)} rejected):")
    for cand in sorted(decision.candidates, key=lambda c: c.objective)[:10]:
        print(f"  {cand.cluster.name:28s} {cand.resource_set.name:7s} "
              f"U_R={cand.utilization:.3f} cells={cand.asic_cells:6d} "
              f"OF={cand.objective:.4f}")

    # ------------------------------------------------------------------
    # 2. Hardware-budget sweep (the factor-F story of the paper).
    # ------------------------------------------------------------------
    print("\nhardware-budget sweep:")
    for cap in (3_000, 8_000, 16_000, 40_000):
        config = PartitionConfig(objective=ObjectiveConfig(geq_cap=cap))
        d = engine.sweep(Partitioner(program, library, config), profile,
                         initial)
        if d.best is None:
            print(f"  cap {cap:6d} cells: no feasible partition")
        else:
            print(f"  cap {cap:6d} cells: {d.best.cluster.name:28s} "
                  f"({d.best.asic_cells} cells, U_R={d.best.utilization:.3f})")

    # ------------------------------------------------------------------
    # 3. A custom designer resource set.
    # ------------------------------------------------------------------
    custom = ResourceSet("dct-tuned", {
        ResourceKind.ALU: 3,
        ResourceKind.MULTIPLIER: 2,
        ResourceKind.SHIFTER: 2,
        ResourceKind.MEMPORT: 1,
        ResourceKind.COMPARATOR: 1,
    })
    config = PartitionConfig(resource_sets=[custom],
                             objective=ObjectiveConfig(geq_cap=40_000))
    d = engine.sweep(Partitioner(program, library, config), profile,
                     initial)
    print("\ncustom 'dct-tuned' resource set:")
    if d.best is not None:
        print(f"  chose {d.best.cluster.name} "
              f"(U_R={d.best.utilization:.3f}, {d.best.asic_cells} cells)")
    else:
        print("  no candidate beat the software design")

    # ------------------------------------------------------------------
    # 4. Power-driven vs performance-driven selection.
    # ------------------------------------------------------------------
    perf = performance_driven_choice(partitioner, profile, initial)
    own = decision.best
    print("\nselection criterion comparison:")
    if own is not None:
        print(f"  low-power   : {own.cluster.name:28s} "
              f"E~{(own.e_r_nj + own.e_up_nj + own.e_rest_nj) / 1e3:8.1f} uJ")
    if perf is not None:
        print(f"  performance : {perf.cluster.name:28s} "
              f"E~{(perf.e_r_nj + perf.e_up_nj + perf.e_rest_nj) / 1e3:8.1f} uJ")


if __name__ == "__main__":
    main()
