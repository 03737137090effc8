"""The differential oracle: agreement passes, every injected bug is caught.

The oracle is only trustworthy if (a) it stays silent on correct code
and (b) it fires — with the right classification — when any single
layer is wrong.  The :data:`~repro.fuzz.oracle.KNOWN_BUGS` registry
exists exactly to prove (b) without shipping real bugs.
"""

import pytest

from repro.fuzz import (
    KNOWN_BUGS,
    OracleConfig,
    OracleStack,
    ProgramGenerator,
)
from repro.fuzz.generator import FuzzProgram
from repro.fuzz.oracle import CACHE_GEOMETRIES


def _program(source, args=(), globals_init=None, name="t"):
    return FuzzProgram(name=name, source=source, args=tuple(args),
                       globals_init=dict(globals_init or {}))


SUB_PROGRAM = _program(
    "func main(a: int, b: int) -> int {\n"
    "    return (a - b);\n"
    "}\n", args=(17, 5))

SHR_PROGRAM = _program(
    "func main(a: int) -> int {\n"
    "    return (a >> 17);\n"
    "}\n", args=(1 << 20,))


@pytest.mark.parametrize("geometry", sorted(CACHE_GEOMETRIES))
def test_clean_program_agrees_under_every_geometry(geometry):
    outcome = OracleStack().check(SUB_PROGRAM, geometry=geometry)
    assert outcome.status == "ok"
    assert outcome.mismatches == []
    assert outcome.geometry == geometry
    assert "SUB" in outcome.op_kinds


def test_generated_programs_pass_the_full_stack():
    stack = OracleStack(OracleConfig(run_flow=True))
    program = ProgramGenerator(seed=0).generate(0)
    outcome = stack.check(program, geometry="default")
    assert outcome.status == "ok"
    assert outcome.flow_checked
    assert outcome.flow_paths  # scheduler-path coverage features


def test_iss_sub_swap_is_caught_as_iss_result_mismatch():
    stack = OracleStack(OracleConfig(inject_bug="iss-sub-swap"))
    outcome = stack.check(SUB_PROGRAM)
    assert outcome.failed
    assert "result.iss" in outcome.kinds


def test_compiled_sub_swap_is_caught_as_engine_mismatch():
    stack = OracleStack(OracleConfig(inject_bug="compiled-sub-swap"))
    outcome = stack.check(SUB_PROGRAM, geometry="default")
    assert outcome.failed
    assert any(kind.startswith("engine.") for kind in outcome.kinds)
    # The reference engine still matches the interpreter.
    assert "result.iss" not in outcome.kinds


def test_interp_shr_mask_is_caught():
    stack = OracleStack(OracleConfig(inject_bug="interp-shr-mask"))
    outcome = stack.check(SHR_PROGRAM)
    assert outcome.failed
    assert "result.iss" in outcome.kinds


@pytest.mark.slow
def test_every_known_bug_fires_within_a_small_campaign():
    generator = ProgramGenerator(seed=0)
    programs = [generator.generate(i) for i in range(30)]
    for bug_name in KNOWN_BUGS:
        stack = OracleStack(OracleConfig(inject_bug=bug_name))
        assert any(stack.check(p, geometry="default").failed
                   for p in programs), \
            f"bug {bug_name!r} survived 30 generated programs undetected"


def test_profile_label_off_by_one_is_caught_as_profile_mismatch():
    stack = OracleStack(OracleConfig(inject_bug="profile-label-off-by-one"))
    outcome = stack.check(SUB_PROGRAM)
    assert outcome.failed
    # Both executors still agree; only the derived profile is wrong.
    assert outcome.kinds == ("profile.iss",)
    assert "block_counts" in outcome.mismatches[0].detail


def test_interpreter_fault_requires_iss_fault_agreement():
    faulting = _program(
        "func main(a: int) -> int {\n"
        "    return (1 / a);\n"
        "}\n", args=(0,))
    outcome = OracleStack().check(faulting)
    # All engines fault alike: not a mismatch, just uninteresting.
    assert outcome.status == "skip"
    assert outcome.mismatches == []


def test_compile_error_is_classified_not_raised():
    broken = _program("func main( -> int { return 0; }\n")
    outcome = OracleStack().check(broken)
    assert outcome.failed
    assert outcome.kinds == ("compile",)


def test_globals_final_state_is_compared():
    program = _program(
        "global G: int[8];\n"
        "func main(a: int) -> int {\n"
        "    G[3] = (G[3] - a);\n"
        "    return 0;\n"
        "}\n", args=(9,), globals_init={"G": [0, 0, 0, 100, 0, 0, 0, 0]})
    clean = OracleStack().check(program)
    assert clean.status == "ok"
    buggy = OracleStack(OracleConfig(inject_bug="iss-sub-swap"))
    outcome = buggy.check(program)
    assert outcome.failed
    assert "globals.iss" in outcome.kinds


def test_unknown_injected_bug_is_rejected_by_campaign():
    from repro.fuzz import CampaignConfig, FuzzCampaign

    with pytest.raises(ValueError, match="unknown --inject-bug"):
        FuzzCampaign(CampaignConfig(inject_bug="no-such-bug"))
