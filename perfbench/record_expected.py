"""Record the expected outputs the benchmark checks against.

Writes ``expected/cachesweep.json`` (per app: trace length and the full
ranked geometry table) and ``expected/service.json`` (the result fields of
every service request off the golden-fixture path).  Record once, from a
commit whose outputs are known good; a change that moves these values is a
model change, not a performance change::

    python3 perfbench/record_expected.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import checks  # noqa: E402
from run import PASS_APPS, SERVICE_APPS, SERVICE_NODES  # noqa: E402


def record_cachesweep():
    from repro.apps import app_by_name
    from repro.isa.image import link_program
    from repro.mem.explore import explore_cache_profiles
    from repro.power.system import evaluate_initial
    from repro.tech import cmos6_library

    library = cmos6_library()
    out = {}
    for name in PASS_APPS["cachesweep"]:
        app = app_by_name(name)
        run = evaluate_initial(
            link_program(app.compile()), library, args=app.args,
            globals_init=app.globals_init, icache_cfg=app.icache,
            dcache_cfg=app.dcache, collect_trace=True)
        profiles = explore_cache_profiles(run.stats.trace, engine="reference")
        out[name] = {"trace_events": len(run.stats.trace),
                     "ranking": checks.ranking(profiles, library)}
    return out


def record_service():
    from repro.service import PartitionRequest, ServiceCore

    out = {}
    with ServiceCore() as core:
        for app in SERVICE_APPS:
            for tech in SERVICE_NODES:
                for optimize in (False, True):
                    if tech == checks.REFERENCE_NODE and not optimize:
                        continue  # checked against the golden fixtures
                    request = PartitionRequest.from_dict(
                        {"app": app, "tech": tech, "optimize": optimize})
                    result = json.loads(json.dumps(
                        core.evaluate(request).to_dict()))
                    out[checks.service_key(app, tech, optimize)] = \
                        checks.service_view(result)
    return out


def main() -> int:
    checks.EXPECTED_DIR.mkdir(exist_ok=True)
    for name, record in (("cachesweep", record_cachesweep),
                         ("service", record_service)):
        path = checks.EXPECTED_DIR / f"{name}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
