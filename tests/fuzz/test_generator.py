"""The generator's two contracts: determinism and validity-by-construction.

Every generated program must compile and run to completion on the
interpreter (no out-of-bounds access, no division by zero, no
non-termination within fuel), and program ``(seed, index)`` must be the
same bytes no matter when or in what order it is generated.
"""

import pytest

from repro.fuzz import GeneratorConfig, ProgramGenerator
from repro.fuzz.generator import ARRAY_SIZES, DEFAULT_OP_WEIGHTS
from repro.lang import Interpreter, compile_source


def test_same_seed_and_index_give_identical_programs():
    a = ProgramGenerator(seed=7).generate(3)
    # A different generator instance, different call order.
    other = ProgramGenerator(seed=7)
    other.generate(0)
    b = other.generate(3)
    assert a.source == b.source
    assert a.args == b.args
    assert a.globals_init == b.globals_init


def test_different_seeds_differ():
    a = ProgramGenerator(seed=0).generate(0)
    b = ProgramGenerator(seed=1).generate(0)
    assert a.source != b.source


def test_sequential_generation_matches_explicit_indices():
    gen = ProgramGenerator(seed=5)
    sequential = [gen.generate() for _ in range(4)]
    explicit = [ProgramGenerator(seed=5).generate(i) for i in range(4)]
    assert [p.source for p in sequential] == [p.source for p in explicit]


@pytest.mark.parametrize("index", range(25))
def test_generated_programs_are_valid_by_construction(index):
    program = ProgramGenerator(seed=0).generate(index)
    compiled = compile_source(program.source, name=program.name)
    interp = Interpreter(compiled, max_steps=5_000_000)
    for name, values in program.globals_init.items():
        interp.set_global(name, values)
    # Must terminate without InterpError (bounds, div-by-zero, fuel).
    interp.run(*program.args)


def _nesting(source, open_char, close_char):
    deepest = depth = 0
    for char in source:
        if char == open_char:
            depth += 1
            deepest = max(deepest, depth)
        elif char == close_char:
            depth -= 1
    return deepest


def test_array_index_chains_respect_max_expr_depth():
    # Seed 7 program 448 once nested array reads inside indices into
    # 51 KB lines that overflowed the parser's recursion.  Each computed
    # index now spends one of max_expr_depth levels, so with L levels
    # and top-level expressions of depth D <= L, an expression nests at
    # most 5L + 3D + 1 parentheses: an index costs its mask plus a
    # depth-1 expression (5), an operator level at most a masked
    # divisor (3), and a leaf one unary minus.
    levels = GeneratorConfig().max_expr_depth
    bound = 5 * levels + 3 * levels + 1
    program = ProgramGenerator(seed=7).generate(448)
    compile_source(program.source, name=program.name)
    assert _nesting(program.source, "[", "]") <= levels
    assert _nesting(program.source, "(", ")") <= bound
    generator = ProgramGenerator(seed=7)
    for index in range(200):
        source = generator.generate(index).source
        assert _nesting(source, "[", "]") <= levels
        assert _nesting(source, "(", ")") <= bound


def test_trip_budget_bounds_dynamic_cost():
    config = GeneratorConfig(trip_budget=500)
    for index in range(10):
        program = ProgramGenerator(seed=3, config=config).generate(index)
        interp = Interpreter(compile_source(program.source,
                                            name=program.name),
                             max_steps=2_000_000)
        for name, values in program.globals_init.items():
            interp.set_global(name, values)
        interp.run(*program.args)


def test_array_sizes_are_powers_of_two():
    # Masked indexing (& size-1) is only in-bounds for powers of two.
    assert all(size & (size - 1) == 0 for size in ARRAY_SIZES)


def test_op_weight_steering_changes_programs_deterministically():
    config = GeneratorConfig()
    boosted = config.with_op_weights({"/": 50, "%": 50})
    base = ProgramGenerator(seed=2, config=config).generate(1)
    steered = ProgramGenerator(seed=2, config=boosted).generate(1)
    steered_again = ProgramGenerator(seed=2, config=boosted).generate(1)
    assert steered.source == steered_again.source
    assert steered.source != base.source
    # Steered programs remain valid.
    interp = Interpreter(compile_source(steered.source, name=steered.name))
    for name, values in steered.globals_init.items():
        interp.set_global(name, values)
    interp.run(*steered.args)


def test_default_weights_cover_every_bdl_binary_operator():
    assert set(DEFAULT_OP_WEIGHTS) == {
        "+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>",
        "<", "<=", ">", ">=", "==", "!=", "&&", "||"}


def test_source_lines_metric_counts_nonblank_lines():
    program = ProgramGenerator(seed=0).generate(0)
    expected = sum(1 for line in program.source.splitlines() if line.strip())
    assert program.source_lines == expected > 0
