"""Run the ``repro`` command line with the layer calls wrapped.

The traced ``service`` run starts the server through this launcher, so the
server process records spans exactly as the pass workers do::

    python perfbench/serve_traced.py SPANS_JSON serve --port 0 ...

The spans are written to ``SPANS_JSON`` when the command returns (after
SIGINT, for ``serve``).
"""

from __future__ import annotations

import json
import sys

import tracing


def main(argv) -> int:
    spans_path, cli_args = argv[1], argv[2:]
    recorder = tracing.install(tracing.Recorder())
    from repro.cli import main as repro_main

    try:
        return repro_main(cli_args)
    finally:
        recorder.recording = False
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracing.span_records(list(recorder.spans)), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
