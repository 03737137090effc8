#!/usr/bin/env python3
"""Capture golden-value fixtures for the hot-path regression tests.

Runs the complete :class:`~repro.core.flow.LowPowerFlow` on every bundled
application and freezes the observable outputs of the simulation substrate
— :class:`~repro.isa.simulator.SimResult`, per-cache
:class:`~repro.mem.cache.CacheStats`, memory/bus word counters, and the
gate-level energy breakdown — into ``tests/golden/fixtures/<app>.json``.

``tests/golden/test_golden_values.py`` asserts that the current code
reproduces these fixtures *exactly* (integers equal, floats bit-equal via
JSON repr round-trip).  The committed fixtures were captured from the
reference (pre-optimization) models at commit time; re-run this script
only when an intentional model change invalidates them:

    PYTHONPATH=src python tools/capture_golden.py

Determinism: nothing in the flow draws random numbers, and every float
accumulation iterates insertion-ordered dicts built from sorted keys, so
the capture is reproducible across machines and PYTHONHASHSEED values.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.apps import ALL_APPS, app_by_name  # noqa: E402
from repro.core import LowPowerFlow  # noqa: E402

FIXTURE_DIR = REPO_ROOT / "tests" / "golden" / "fixtures"


def _sim_result(sim) -> dict:
    """Flatten a SimResult into JSON-able primitives (sorted keys)."""
    return {
        "result": sim.result,
        "cycles": sim.cycles,
        "instructions": sim.instructions,
        "energy_nj": sim.energy_nj,
        "stall_cycles": sim.stall_cycles,
        "taken_branches": sim.taken_branches,
        "hw_instructions": sim.hw_instructions,
        "hw_entries": sim.hw_entries,
        "utilization": sim.utilization,
        "block_cycles": {f"{f}/{b}": c for (f, b), c
                         in sorted(sim.block_cycles.items())},
        "block_energy_nj": {f"{f}/{b}": e for (f, b), e
                            in sorted(sim.block_energy_nj.items())},
        "block_counts": {f"{f}/{b}": c for (f, b), c
                         in sorted(sim.block_counts.items())},
        "resource_active_cycles": {res.value: c for res, c
                                   in sorted(sim.resource_active_cycles.items(),
                                             key=lambda kv: kv[0].value)},
    }


def _cache_stats(stats) -> dict:
    return {
        "reads": stats.reads,
        "writes": stats.writes,
        "read_hits": stats.read_hits,
        "write_hits": stats.write_hits,
        "read_misses": stats.read_misses,
        "write_misses": stats.write_misses,
        "fills": stats.fills,
    }


def _system_run(run) -> dict:
    data = {
        "sim": _sim_result(run.sim),
        "up_cycles": run.up_cycles,
        "asic_cycles": run.asic_cycles,
        "total_energy_nj": run.total_energy_nj,
        "energy": {
            "icache_nj": run.energy.icache_nj,
            "dcache_nj": run.energy.dcache_nj,
            "mem_nj": run.energy.mem_nj,
            "up_core_nj": run.energy.up_core_nj,
            "asic_core_nj": run.energy.asic_core_nj,
            "bus_nj": run.energy.bus_nj,
        },
    }
    if run.stats is not None:
        data["icache"] = _cache_stats(run.stats.icache)
        data["dcache"] = _cache_stats(run.stats.dcache)
        data["mem_word_reads"] = run.stats.mem_word_reads
        data["mem_word_writes"] = run.stats.mem_word_writes
        data["bus_word_reads"] = run.stats.bus_word_reads
        data["bus_word_writes"] = run.stats.bus_word_writes
    return data


def capture(app_name: str) -> dict:
    return golden_view(LowPowerFlow().run(app_by_name(app_name)))


def golden_view(result) -> dict:
    """A finished ``FlowResult`` in the shape of a fixture."""
    data = {
        "app": result.app.name,
        "initial": _system_run(result.initial),
        "energy_savings_percent": result.energy_savings_percent,
        "time_change_percent": result.time_change_percent,
    }
    if result.partitioned is not None:
        data["partitioned"] = _system_run(result.partitioned)
    if result.gate_energy is not None:
        data["gate_energy"] = {
            "component_nj": dict(sorted(
                result.gate_energy.component_nj.items())),
            "total_nj": result.gate_energy.total_nj,
        }
    return data


def main() -> int:
    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    for name in sorted(ALL_APPS):
        print(f"capturing {name} ...", file=sys.stderr)
        path = FIXTURE_DIR / f"{name}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(capture(name), fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"  wrote {path.relative_to(REPO_ROOT)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
