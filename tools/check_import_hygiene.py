#!/usr/bin/env python3
"""Check that the entry modules import without numpy or networkx.

numpy is required, but only the ISS's pricing and the batched cache
kernel use it, and both import it lazily.  Every CLI call, service
spawn and benchmark pass imports the modules below first, so a
top-level ``import numpy`` reachable from them adds its import time and
memory (about 0.1 s and 11 MB) to all of them.  networkx is no
dependency at all (the graphs are plain dicts); it is rejected here
because a machine that still has it installed would not notice an
import of it.  Run from the repository root::

    PYTHONPATH=src python tools/check_import_hygiene.py

Exit status: 0 when no entry module loads a rejected module, 1 otherwise.
"""

from __future__ import annotations

import importlib
import sys

#: Modules the CLI, the service and the benchmarks import at start-up.
ENTRY_MODULES = ("repro.cli", "repro.core.flow", "repro.apps",
                 "repro.power.system", "repro.mem.explore",
                 "repro.service.server")

#: Modules the entry modules must not load.
REJECTED_MODULES = ("numpy", "networkx")


def main() -> int:
    for name in ENTRY_MODULES:
        importlib.import_module(name)
    loaded = [name for name in REJECTED_MODULES if name in sys.modules]
    if loaded:
        print(f"importing {', '.join(ENTRY_MODULES)} loaded "
              f"{', '.join(loaded)}", file=sys.stderr)
        return 1
    print(f"ok: {len(ENTRY_MODULES)} entry modules, none of "
          f"{', '.join(REJECTED_MODULES)} loaded")
    return 0


if __name__ == "__main__":
    sys.exit(main())
