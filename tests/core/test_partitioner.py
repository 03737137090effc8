"""Partitioner (Fig. 1 algorithm) tests on small synthetic programs."""

import pytest

from repro.core import ExplorationEngine, PartitionConfig, Partitioner
from repro.core.objective import ObjectiveConfig
from repro.isa.image import link_program
from repro.lang import Interpreter, compile_source
from repro.power.system import evaluate_initial
from repro.tech import ResourceKind, ResourceSet


KERNEL_SRC = """
global inp: int[256];
global outp: int[256];

func main() -> int {
    # Hot MAC kernel: an obvious hardware candidate.
    for i in 0 .. 256 {
        outp[i] = (inp[i] * 3 + (inp[i] >> 2)) & 0xFFFF;
    }
    # Light software epilogue.
    var s: int = 0;
    for k in 0 .. 16 { s = s + outp[k * 16]; }
    return s;
}
"""


def _sweep(program, library, profile, initial, config=None):
    return ExplorationEngine(library=library).sweep(
        Partitioner(program, library, config), profile, initial)


@pytest.fixture()
def setting(library):
    program = compile_source(KERNEL_SRC)
    interp = Interpreter(program)
    interp.set_global("inp", [i % 97 for i in range(256)])
    interp.run()
    image = link_program(program)
    initial = evaluate_initial(
        image, library, globals_init={"inp": [i % 97 for i in range(256)]})
    return program, interp.profile, initial


def test_partitioner_finds_the_kernel(setting, library):
    program, profile, initial = setting
    decision = _sweep(program, library, profile, initial)
    assert decision.best is not None
    assert "loop@for1" in decision.best.cluster.name


def test_best_beats_utilization_bar(setting, library):
    program, profile, initial = setting
    decision = _sweep(program, library, profile, initial)
    assert decision.best.utilization > decision.up_utilization


def test_best_objective_below_initial(setting, library):
    program, profile, initial = setting
    decision = _sweep(program, library, profile, initial)
    assert decision.best.objective < decision.initial_objective


def test_candidates_and_rejections_disjoint(setting, library):
    program, profile, initial = setting
    decision = _sweep(program, library, profile, initial)
    evaluated = {(c.cluster.name, c.resource_set.name)
                 for c in decision.candidates}
    rejected = {(name, rs) for name, rs, _ in decision.rejections}
    assert evaluated & rejected == set()
    assert decision.examined == len(evaluated) + len(rejected)


def test_n_max_limits_preselection(setting, library):
    program, profile, initial = setting
    config = PartitionConfig(n_max_clusters=1)
    decision = _sweep(program, library, profile, initial, config)
    assert len(decision.preselected) <= 1


def test_geq_cap_rejects_everything_when_tiny(setting, library):
    program, profile, initial = setting
    config = PartitionConfig(
        objective=ObjectiveConfig(geq_cap=100))
    decision = _sweep(program, library, profile, initial, config)
    assert decision.best is None
    assert any("cells over cap" in reason
               for _, _, reason in decision.rejections)


def test_restricted_resource_sets_skip_infeasible(setting, library):
    program, profile, initial = setting
    # Only a comparator: cannot execute the kernel's multiply.
    config = PartitionConfig(resource_sets=[
        ResourceSet("cmp-only", {ResourceKind.COMPARATOR: 1})])
    decision = _sweep(program, library, profile, initial, config)
    assert decision.best is None
    assert all("no resource" in reason or "U_R" in reason
               for _, _, reason in decision.rejections)


def test_hw_blocks_cover_cluster(setting, library):
    program, profile, initial = setting
    decision = _sweep(program, library, profile, initial)
    best = decision.best
    blocks = best.hw_blocks
    assert all(func == best.cluster.function for func, _ in blocks)
    assert {b for _, b in blocks} >= set(best.cluster.blocks)


def test_function_cluster_hw_blocks_include_prologue(library):
    src = """
    func kernel(a: int[64]) -> int {
        var s: int = 0;
        for i in 0 .. 64 { s = s + a[i] * 3; }
        return s;
    }
    func main() -> int {
        var buf: int[64];
        for i in 0 .. 64 { buf[i] = i; }
        return kernel(buf);
    }
    """
    program = compile_source(src)
    interp = Interpreter(program)
    interp.run()
    image = link_program(program)
    initial = evaluate_initial(image, library)
    decision = _sweep(program, library, interp.profile, initial)
    function_candidates = [c for c in decision.candidates
                           if c.cluster.kind == "function"]
    if function_candidates:
        blocks = function_candidates[0].hw_blocks
        assert ("kernel", "__prologue") in blocks
        assert ("kernel", "__epilogue") in blocks


def test_no_partition_for_pure_control_program(library):
    src = """
    func main(x: int) -> int {
        var r: int = 0;
        if x > 10 { r = 1; } else { if x > 5 { r = 2; } else { r = 3; } }
        return r;
    }
    """
    program = compile_source(src)
    interp = Interpreter(program)
    interp.run(7)
    image = link_program(program)
    initial = evaluate_initial(image, library, args=(7,))
    decision = _sweep(program, library, interp.profile, initial)
    assert decision.best is None
