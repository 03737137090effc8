"""The flow's profile, read off the initial design's ISS run.

:func:`repro.core.profile.profile_from_sim` replaces a second execution
pass on the CDFG interpreter.  Its contract is *equality*: the derived
:class:`~repro.lang.ExecutionProfile` matches the interpreter's field for
field (block entries, calls, steps, op counts, result), so
``profile_digest`` — and with it every cache key and checkpoint journal
— is unchanged.  Blocks that lower to no instructions are solved by
flow conservation, or the derivation fails loudly.
"""

from dataclasses import replace
from pathlib import Path

import pytest

from repro.apps import ALL_APPS, app_by_name
from repro.core import AppSpec, ProfileError, profile_app, profile_from_sim
from repro.fuzz import load_corpus
from repro.ir.cdfg import CDFG
from repro.ir.ops import Operation, OpKind, Value
from repro.isa.image import link_program
from repro.isa.simulator import Simulator
from repro.lang import InterpError, Interpreter
from repro.lang.program import Program
from repro.lang.semantics import Signature
from tests.conftest import DOT_SOURCE

CORPUS = load_corpus(Path(__file__).resolve().parents[1] / "fuzz" / "corpus")


def _interpreter_profile(program, args, globals_init):
    interp = Interpreter(program)
    for name, values in globals_init.items():
        interp.set_global(name, values)
    interp.run(*args)
    return interp.profile


def _empty_blocks(image):
    """``(function, block)`` labels that lowered to no instructions."""
    empty = []
    for function, labels in image.labels.items():
        items = list(labels.items())
        for (label, pc), (_next, next_pc) in zip(items, items[1:]):
            if not label.startswith("__") and pc == next_pc:
                empty.append((function, label))
    return empty


@pytest.mark.parametrize("optimize", [False, True],
                         ids=["plain", "optimized"])
@pytest.mark.parametrize("name", sorted(ALL_APPS))
def test_iss_profile_equals_interpreter_profile_on_apps(name, optimize,
                                                        library):
    app = app_by_name(name)
    app.optimize = optimize
    front = profile_app(app, library)
    assert front.profile == _interpreter_profile(
        front.program, app.args, app.globals_init)


@pytest.mark.parametrize("entry", CORPUS, ids=[e.name for e in CORPUS])
def test_iss_profile_equals_interpreter_profile_on_corpus(entry, library):
    fuzz = entry.program
    app = AppSpec(name=fuzz.name, source=fuzz.source, args=fuzz.args,
                  globals_init=fuzz.globals_init, model_caches=False)
    front = profile_app(app, library)
    assert front.profile == _interpreter_profile(
        front.program, fuzz.args, fuzz.globals_init)


def test_bundled_apps_exercise_zero_instruction_blocks():
    # The conservation solver is not dead code: the paper apps contain
    # JUMP-only blocks laid out right before their successor.
    empty = [label for name in sorted(ALL_APPS)
             for label in _empty_blocks(
                 link_program(app_by_name(name).compile()))]
    assert len(empty) >= 6


def test_void_entry_profiles_no_result(library):
    source = ("global G: int[4];\n"
              "func main() {\n"
              "    G[1] = 7;\n"
              "}\n")
    front = profile_app(AppSpec(name="void", source=source,
                                globals_init={"G": [0, 0, 0, 0]}), library)
    assert front.profile.result is None
    assert front.profile == _interpreter_profile(
        front.program, (), {"G": [0, 0, 0, 0]})


def test_partitioned_run_is_rejected(dot_program, library):
    image = link_program(dot_program)
    sim = Simulator(image, library).run()
    with pytest.raises(ProfileError, match="unpartitioned"):
        profile_from_sim(dot_program, image, replace(sim, hw_instructions=3))


class TestWorkloadChecks:
    """The front half rejects bad bindings with the interpreter's words."""

    def _run(self, library, **overrides):
        fields = dict(name="dot", source=DOT_SOURCE,
                      globals_init={"out": [0] * 8})
        fields.update(overrides)
        return profile_app(AppSpec(**fields), library)

    def test_wrong_arity(self, library):
        with pytest.raises(InterpError, match="expects 0 args, got 1"):
            self._run(library, args=(5,))

    def test_mis_sized_global(self, library):
        with pytest.raises(ValueError, match="has 8 elements, got 3"):
            self._run(library, globals_init={"out": [1, 2, 3]})

    def test_unknown_global(self, library):
        with pytest.raises(KeyError, match="unknown global"):
            self._run(library, globals_init={"nope": [1]})

    def test_iss_rejects_mis_sized_global(self, dot_program, library):
        sim = Simulator(link_program(dot_program), library)
        with pytest.raises(ValueError, match="has 8 elements, got 9"):
            sim.set_global("out", [1] * 9)


def _hand_program(cond, edges):
    """``main`` built by hand: ``entry`` sets ``c = cond`` and branches,
    ``e1``/``e2`` are lone JUMPs and ``done`` returns 0.  ``edges`` are
    added in order, which fixes the DFS and so the reverse-postorder
    layout codegen emits."""
    cdfg = CDFG("main")
    for name in ("entry", "e1", "e2", "done"):
        cdfg.add_block(name)
    c, zero = Value("c"), Value("z")
    cdfg.blocks["entry"].append(Operation(OpKind.CONST, result=c,
                                          const=cond))
    cdfg.blocks["entry"].append(Operation(OpKind.BRANCH, operands=(c,)))
    cdfg.blocks["e1"].append(Operation(OpKind.JUMP))
    cdfg.blocks["e2"].append(Operation(OpKind.JUMP))
    cdfg.blocks["done"].append(Operation(OpKind.CONST, result=zero,
                                         const=0))
    cdfg.blocks["done"].append(Operation(OpKind.RETURN, operands=(zero,)))
    for src, dst, kind in edges:
        cdfg.add_edge(src, dst, kind)
    signature = Signature(name="main", param_names=(), param_is_array=(),
                          param_array_sizes=(), returns_value=True)
    return Program(name="hand", module=None,
                   signatures={"main": signature}, cdfgs={"main": cdfg})


@pytest.mark.parametrize("cond", [0, 1])
def test_not_taken_jmp_count_solves_empty_blocks(cond, library):
    # Layout entry, e1, e2, done: entry's BNZ targets e1 and is followed
    # by a JMP to e2; e1 and e2 lower to nothing.  Without that JMP's
    # count, e2's inflow (e1 plus the not-taken edge) equals done's count
    # whichever way the branch went, and e1 could not be told apart.
    program = _hand_program(cond, [("entry", "e2", "false"),
                                   ("entry", "e1", "true"),
                                   ("e1", "e2", "jump"),
                                   ("e2", "done", "jump")])
    image = link_program(program)
    assert [b for _f, b in _empty_blocks(image)] == ["e1", "e2"]
    profile = profile_from_sim(program, image,
                               Simulator(image, library).run())
    assert profile == _interpreter_profile(program, (), {})
    assert profile.block_count("main", "e1") == cond


def test_underdetermined_empty_block_raises_naming_it(library):
    # Layout entry, e2, e1, done: the branch falls through into e2, so no
    # JMP counts the not-taken edge, and e2 (which jumps to e1) and the
    # branch split are pinned only by their sum.
    program = _hand_program(1, [("entry", "e1", "true"),
                                ("entry", "e2", "false"),
                                ("e2", "e1", "jump"),
                                ("e1", "done", "jump")])
    image = link_program(program)
    assert [b for _f, b in _empty_blocks(image)] == ["e2", "e1"]
    sim = Simulator(image, library).run()
    with pytest.raises(ProfileError, match=r"^main: .* e2 undetermined"):
        profile_from_sim(program, image, sim)
