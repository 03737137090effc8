"""Output checks: every measured result must equal a known-good value.

* ``table1`` flows are compared with ``tests/golden/fixtures/<app>.json``
  over exactly the fields ``tools/capture_golden.py`` extracts.
* ``cachesweep`` rankings are compared with ``expected/cachesweep.json``,
  and each trace replayed at the app's own geometry must reproduce the
  initial run's cache counters.
* ``service`` results at the reference node without ``optimize`` are
  compared with the golden fixtures; all others with
  ``expected/service.json``.

The ``expected/*.json`` files were recorded once by ``record_expected.py``.
"""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN_DIR = ROOT / "tests" / "golden" / "fixtures"
EXPECTED_DIR = BENCH_DIR / "expected"
REFERENCE_NODE = "cmos6-800nm"

#: Result fields a service answer must reproduce (the rest are timings,
#: digests and derived text).
SERVICE_FIELDS = ("accepted", "best", "initial", "partitioned",
                  "savings_percent", "time_change_percent", "asic_cells",
                  "functional_match")


def load_json(path: Path) -> Any:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def golden(app: str) -> Dict[str, Any]:
    return load_json(GOLDEN_DIR / f"{app}.json")


def expected(name: str) -> Dict[str, Any]:
    return load_json(EXPECTED_DIR / f"{name}.json")


def _capture_golden():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import capture_golden
    finally:
        sys.path.remove(str(ROOT / "tools"))
    return capture_golden


def golden_view(result) -> Dict[str, Any]:
    """A finished ``FlowResult`` in the shape of a golden fixture."""
    capture = _capture_golden()
    data = {
        "app": result.app.name,
        "initial": capture._system_run(result.initial),
        "energy_savings_percent": result.energy_savings_percent,
        "time_change_percent": result.time_change_percent,
    }
    if result.partitioned is not None:
        data["partitioned"] = capture._system_run(result.partitioned)
    if result.gate_energy is not None:
        data["gate_energy"] = {
            "component_nj": dict(sorted(
                result.gate_energy.component_nj.items())),
            "total_nj": result.gate_energy.total_nj,
        }
    return data


def diff(got: Any, want: Any, prefix: str = "") -> List[str]:
    """Paths at which ``got`` and ``want`` differ (empty when equal)."""
    if isinstance(got, dict) and isinstance(want, dict):
        out: List[str] = []
        for key in sorted(set(got) | set(want), key=str):
            if key not in got or key not in want:
                out.append(f"{prefix}.{key}: missing")
            else:
                out.extend(diff(got[key], want[key], f"{prefix}.{key}"))
        return out
    if isinstance(got, list) and isinstance(want, list) \
            and len(got) == len(want):
        out = []
        for i, (a, b) in enumerate(zip(got, want)):
            out.extend(diff(a, b, f"{prefix}[{i}]"))
        return out
    if got != want:
        return [f"{prefix}: got {got!r}, want {want!r}"]
    return []


def cache_counters(stats) -> List[int]:
    return [stats.reads, stats.writes, stats.read_hits, stats.write_hits,
            stats.read_misses, stats.write_misses, stats.fills]


def ranking(profiles, library) -> List[list]:
    """A cachesweep result ranked by cache + memory energy, as plain data."""
    rows = []
    for p in profiles:
        icfg, dcfg = p.icache_cfg, p.dcache_cfg
        rows.append([
            f"i{icfg.size_bytes}/{icfg.associativity}w+"
            f"d{dcfg.size_bytes}/{dcfg.associativity}w",
            p.cache_energy_nj(library) + p.memory_energy_nj(library),
            p.stall_cycles, p.memory_word_reads, p.memory_word_writes,
            cache_counters(p.icache), cache_counters(p.dcache)])
    rows.sort(key=lambda row: row[1])
    return rows


def service_key(app: str, tech: str, optimize: bool) -> str:
    return f"{app}@{tech}{'+opt' if optimize else ''}"


def service_view(result: Dict[str, Any]) -> Dict[str, Any]:
    return {key: result.get(key) for key in SERVICE_FIELDS}


def _golden_run(run: Dict[str, Any]) -> Dict[str, Any]:
    energy = run["energy"]
    return {**energy, "total_energy_nj": run["total_energy_nj"],
            "up_cycles": run["up_cycles"], "asic_cycles": run["asic_cycles"],
            "total_cycles": run["up_cycles"] + run["asic_cycles"],
            "result": run["sim"]["result"]}


def check_service_result(app: str, tech: str, optimize: bool,
                         result: Dict[str, Any],
                         expected_results: Dict[str, Any]) -> List[str]:
    """Mismatches of one finished service result (empty when correct)."""
    problems = []
    if not result.get("verified"):
        problems.append("not verified")
    if not result.get("functional_match"):
        problems.append("functional mismatch")
    if tech == REFERENCE_NODE and not optimize:
        want = golden(app)
        got = {"initial": result.get("initial"),
               "partitioned": result.get("partitioned"),
               "savings_percent": result.get("savings_percent"),
               "time_change_percent": result.get("time_change_percent")}
        problems.extend(diff(got, {
            "initial": _golden_run(want["initial"]),
            "partitioned": (_golden_run(want["partitioned"])
                            if "partitioned" in want else None),
            "savings_percent": want["energy_savings_percent"],
            "time_change_percent": want["time_change_percent"]}))
    else:
        want = expected_results.get(service_key(app, tech, optimize))
        if want is None:
            problems.append("no expected value recorded")
        else:
            problems.extend(diff(service_view(result), want))
    return problems


def paper_results() -> Dict[str, tuple]:
    """``PAPER_RESULTS`` from ``benchmarks/conftest.py``, read statically."""
    tree = ast.parse((ROOT / "benchmarks" / "conftest.py").read_text(
        encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "PAPER_RESULTS"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError("PAPER_RESULTS not found in benchmarks/conftest.py")


def paper_deviation(views: Dict[str, Dict[str, Any]]) -> Optional[str]:
    """Mean absolute deviation from the paper's Table 1, in points."""
    paper = paper_results()
    apps = [app for app in sorted(views) if app in paper]
    if not apps:
        return None
    sav = sum(abs(views[a]["energy_savings_percent"] - paper[a][0])
              for a in apps) / len(apps)
    chg = sum(abs(views[a]["time_change_percent"] - paper[a][1])
              for a in apps) / len(apps)
    return (f"deviation from paper Table 1 over {len(apps)} apps: energy "
            f"saving {sav:.2f} points, execution time change {chg:.2f} "
            f"points (mean absolute)")
