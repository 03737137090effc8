"""Baseline partitioner tests (performance-driven and average-power)."""

import pytest

from repro.core import ExplorationEngine, Partitioner
from repro.core.baselines import (
    average_power_choice,
    performance_driven_choice,
)
from repro.isa.image import link_program
from repro.lang import Interpreter, compile_source
from repro.power.system import evaluate_initial


SRC = """
global inp: int[256];
global outp: int[256];

func main() -> int {
    for i in 0 .. 256 {
        outp[i] = (inp[i] * 7 + (inp[i] >> 3)) & 0xFFFF;
    }
    var s: int = 0;
    for k in 0 .. 16 { s = s + outp[k * 16]; }
    return s;
}
"""


@pytest.fixture(scope="module")
def setting():
    from repro.tech import cmos6_library
    library = cmos6_library()
    program = compile_source(SRC)
    interp = Interpreter(program)
    interp.set_global("inp", [i % 113 for i in range(256)])
    interp.run()
    image = link_program(program)
    initial = evaluate_initial(
        image, library, globals_init={"inp": [i % 113 for i in range(256)]})
    partitioner = Partitioner(program, library)
    return partitioner, interp.profile, initial


def test_performance_choice_exists_and_speeds_up(setting):
    partitioner, profile, initial = setting
    choice = performance_driven_choice(partitioner, profile, initial)
    assert choice is not None
    # It picked something that reduces predicted cycles; the hot loop is
    # the only sizeable candidate here.
    assert "loop@for1" in choice.cluster.name


def test_performance_choice_ignores_utilization_gate(setting):
    """The classic partitioners have no U_R criterion; candidates with low
    utilization are admissible for them."""
    partitioner, profile, initial = setting
    choice = performance_driven_choice(partitioner, profile, initial)
    # No assertion on utilization vs U_uP — just verify the machinery
    # returned a fully evaluated candidate.
    assert choice.metrics.total_cycles > 0
    assert choice.asic_cells > 0


def test_average_power_choice_exists(setting):
    partitioner, profile, initial = setting
    choice = average_power_choice(partitioner, profile, initial)
    assert choice is not None


def test_low_power_choice_at_least_as_energy_efficient(setting):
    """The paper's claim: utilization-driven selection is competitive with
    or better than both baselines on (estimated) energy.  A small tolerance
    covers the OF's hardware-effort term, which may trade a fraction of a
    percent of energy for a smaller core."""
    partitioner, profile, initial = setting
    decision = ExplorationEngine(library=partitioner.library).sweep(
        partitioner, profile, initial)
    assert decision.best is not None
    own = decision.best.e_r_nj + decision.best.e_up_nj + decision.best.e_rest_nj

    for baseline in (performance_driven_choice, average_power_choice):
        choice = baseline(partitioner, profile, initial)
        if choice is None:
            continue
        other = choice.e_r_nj + choice.e_up_nj + choice.e_rest_nj
        assert own <= other * 1.05


def test_no_speedup_no_choice():
    """A program with nothing worth accelerating yields no baseline pick."""
    from repro.tech import cmos6_library
    library = cmos6_library()
    src = "func main(x: int) -> int { return x + 1; }"
    program = compile_source(src)
    interp = Interpreter(program)
    interp.run(1)
    image = link_program(program)
    initial = evaluate_initial(image, library, args=(1,))
    partitioner = Partitioner(program, library)
    assert performance_driven_choice(partitioner, interp.profile,
                                     initial) is None
