"""The partitioner's memos: one dependence graph per block, one transfer
estimate per (cluster, hardware neighbours, invocations).

A block's reduced DDG and path heights depend only on its operations and
a cluster's Fig. 3 estimate only on the cluster's context, never on the
resource set, so a sweep computes each once.  The memoized results must
equal what a fresh computation gives, and the graphs the candidates'
schedules share must come out of synthesis and the audit unchanged.
"""

import pytest

import repro.core.partitioner as partitioner_module
from repro.apps import app_by_name
from repro.core import ExplorationEngine, LowPowerFlow, Partitioner
from repro.core.partitioner import PartitionConfig
from repro.core.profile import profile_app
from repro.sched.asic_memory import make_latency_fn
from repro.sched.list_scheduler import (
    ChainingModel,
    hw_dependence_graph,
    list_schedule,
)
from repro.sched.priority import path_height

SIX_APPS = ("3d", "MPG", "ckey", "digs", "engine", "trick")


def _snapshot(ddg):
    return [(op, list(succs.items())) for op, succs in ddg.items()]


def test_six_app_pass_builds_each_block_graph_once(monkeypatch, library):
    builds = []
    real_block_graph = partitioner_module.block_graph

    def counting_block_graph(ops, latency_of=None):
        builds.append(tuple(op.op_id for op in ops))
        return real_block_graph(ops, latency_of)

    sweep_estimates = []
    real_estimate = partitioner_module.estimate_transfers

    def counting_estimate(cluster, chain, program, *args, **kwargs):
        sweep_estimates.append((program.name, cluster.name))
        return real_estimate(cluster, chain, program, *args, **kwargs)

    monkeypatch.setattr(partitioner_module, "block_graph",
                        counting_block_graph)
    monkeypatch.setattr(partitioner_module, "estimate_transfers",
                        counting_estimate)
    evaluated = 0
    for name in SIX_APPS:
        decision = LowPowerFlow(library=library).run(
            app_by_name(name)).decision
        evaluated += decision.examined
    # One build per distinct op list (op ids are unique per process, so
    # they also tell functions apart); a fresh graph per (cluster, set)
    # pair took 620 builds for these 120 pairs.
    assert evaluated == 120
    assert len(builds) == len(set(builds)) <= 166
    # One estimate per preselected cluster (none has hardware
    # neighbours here); a fresh estimate per pair took 94.
    assert len(sweep_estimates) == len(set(sweep_estimates)) <= 24


@pytest.mark.parametrize("use_chaining", [False, True],
                         ids=["plain", "chaining"])
@pytest.mark.parametrize("app_name", ["ckey", "digs"])
def test_memoized_schedules_equal_fresh_ones(app_name, use_chaining,
                                             library):
    config = PartitionConfig(use_chaining=use_chaining)
    front = profile_app(app_by_name(app_name), library)
    partitioner = Partitioner(front.program, library, config)
    decision = ExplorationEngine(library=library).sweep(
        partitioner, front.profile, front.initial)
    assert decision.candidates
    chaining = ChainingModel() if use_chaining else None
    program = front.program
    for candidate in decision.candidates:
        cdfg = program.cdfgs[candidate.cluster.function]
        sizes = dict(program.global_arrays)
        sizes.update(cdfg.arrays)
        latency_of = make_latency_fn(sizes, library)
        for block, ops in candidate.cluster.schedulable_ops(cdfg).items():
            memoized = candidate.schedules[block]
            fresh = list_schedule(ops, candidate.resource_set,
                                  latency_of=latency_of, chaining=chaining)
            assert memoized.entries == fresh.entries, block
            assert memoized.makespan == fresh.makespan, block
            if memoized.ddg is not None:
                assert _snapshot(memoized.ddg) == _snapshot(fresh.ddg)


def test_shared_graphs_survive_synthesis_and_the_audit(library):
    result = LowPowerFlow(library=library, verify=True).run(
        app_by_name("digs"))
    assert result.verification is not None
    assert not result.verification.has_errors
    program = result.program
    by_block = {}
    for candidate in result.decision.candidates:
        cdfg = program.cdfgs[candidate.cluster.function]
        sizes = dict(program.global_arrays)
        sizes.update(cdfg.arrays)
        latency_of = make_latency_fn(sizes, library)
        for block, ops in candidate.cluster.schedulable_ops(cdfg).items():
            ddg = candidate.schedules[block].ddg
            if ddg is None:
                continue
            key = tuple(op.op_id for op in ops)
            # Every schedule of one op list holds the one shared graph...
            assert by_block.setdefault(key, ddg) is ddg
            # ...and, after the winner's datapath, netlist and the flow
            # audit have read it, it still equals a fresh build.
            fresh = hw_dependence_graph(ops)
            assert _snapshot(ddg) == _snapshot(fresh)
            assert path_height(ddg, latency_of) \
                == path_height(fresh, latency_of)
    assert by_block
    assert result.best is not None and result.datapath is not None
