"""Code the docs tell readers to run must run.

``docs/OBSERVABILITY.md`` ends its worked example with a snippet that
loads the trace of ``repro explore ckey --jobs 2 --trace t.json`` and
prints the sweep's parallel speedup.  The snippet is extracted from the
markdown and executed on a freshly written trace of exactly that
command, so a span moving in the tree breaks this test, not the reader.
"""

import re
from pathlib import Path

from repro.cli import main

OBSERVABILITY = (Path(__file__).resolve().parent.parent.parent / "docs"
                 / "OBSERVABILITY.md")


def _trace_reading_snippet() -> str:
    text = OBSERVABILITY.read_text(encoding="utf-8")
    match = re.search(r"Load it programmatically:\s*```python\n(.*?)```",
                      text, re.DOTALL)
    assert match, "OBSERVABILITY.md lost its trace-reading snippet"
    return match.group(1)


def test_trace_reading_snippet_runs_on_a_parallel_explore_trace(
        tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["explore", "ckey", "--jobs", "2", "--trace", "t.json"]) == 0
    capsys.readouterr()
    exec(compile(_trace_reading_snippet(), str(OBSERVABILITY), "exec"), {})
    assert re.fullmatch(r"sweep speedup: \d+\.\d\dx\n",
                        capsys.readouterr().out)
