"""The benchmark's own tests.

    python3 -m pytest perfbench/test_perfbench.py -q

Smoke runs drive every workload at its smallest size (``--seconds 1``: one
pass, or a few service submissions) in both modes; the in-process tests
pin the tracer (wrapped results equal unwrapped ones, unwrapping leaves no
wrapper behind) and the output checks (a corrupted expected value fails).
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402


def _bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_untraced(workload):
    line = _bench(workload, 0)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert {name: m["unit"] for name, m in line["metrics"].items()} \
        == run.END_TO_END
    assert all(m["value"] > 0 for m in line["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_traced(workload):
    line = _bench(workload, 1)
    assert line["correct"] and line["failed"] == 0  # checked while traced
    assert {name: m["unit"] for name, m in line["metrics"].items()} \
        == run.PER_LAYER
    value = {name: m["value"] for name, m in line["metrics"].items()}
    assert value["isa.sim.calls"] > 0
    if workload == "cachesweep":
        assert value["lang.interp.calls"] == 0 and value["core.pairs"] == 0
        assert value["mem.replay.calls"] > 0
    else:
        assert value["mem.replay.calls"] == 0
        assert value["core.pairs"] > 0
    assert (value["verify.calls"] > 0) == (workload == "service")
    assert value["trace.unattributed_frac"] < 0.05


def _wrappers_left():
    left = []
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for key, value in vars(module).items():
            if hasattr(value, tracing.WRAPPER_MARK):
                left.append(f"{name}.{key}")
            if isinstance(value, type):
                left.extend(f"{name}.{key}.{attr}"
                            for attr, member in vars(value).items()
                            if hasattr(member, tracing.WRAPPER_MARK))
    return left


def test_wrapped_results_equal_unwrapped_and_unwrap_is_clean():
    from repro.apps import app_by_name
    from repro.core import LowPowerFlow

    plain = checks.golden_view(LowPowerFlow().run(app_by_name("ckey")))
    recorder = tracing.install(tracing.Recorder())
    try:
        import repro.core.flow as flow
        import repro.isa.image as image
        import repro.verify as verify
        # ``from ... import`` aliases reach the wrapper too.
        assert flow.link_program is image.link_program
        assert hasattr(flow.link_program, tracing.WRAPPER_MARK)
        assert hasattr(verify.verify_flow_result, tracing.WRAPPER_MARK)
        traced = checks.golden_view(LowPowerFlow().run(app_by_name("ckey")))
    finally:
        recorder.unwrap_all()
    assert traced == plain == checks.golden("ckey")
    names = {span[tracing.NAME] for span in recorder.spans}
    assert {"lang.interp", "isa.sim", "core.evaluate"} <= names
    assert _wrappers_left() == []


def test_corrupted_golden_value_fails_table1_check():
    want = checks.golden("ckey")
    assert checks.diff(copy.deepcopy(want), want) == []
    bad = copy.deepcopy(want)
    bad["initial"]["sim"]["cycles"] += 1
    cycles = want["initial"]["sim"]["cycles"]
    assert checks.diff(want, bad) == [
        f".initial.sim.cycles: got {cycles}, want {cycles + 1}"]


def test_corrupted_expected_value_fails_cachesweep_check():
    from repro.apps import app_by_name

    app = app_by_name("3d")
    outcome = worker._cachesweep_op()(app)
    want = checks.expected("cachesweep")["3d"]
    assert worker.cachesweep_problems(app, outcome, want) == []
    bad = copy.deepcopy(want)
    bad["ranking"][0][1] *= 1.0000001
    assert worker.cachesweep_problems(app, outcome, bad)


def test_corrupted_expected_value_fails_service_check():
    expected = checks.expected("service")
    key = checks.service_key("digs", "cmos6-45nm", True)
    result = dict(copy.deepcopy(expected[key]), verified=True)
    assert checks.check_service_result(
        "digs", "cmos6-45nm", True, result, expected) == []
    bad = copy.deepcopy(expected)
    bad[key]["initial"]["up_cycles"] += 1
    assert checks.check_service_result(
        "digs", "cmos6-45nm", True, result, bad)
    assert checks.check_service_result(
        "digs", "cmos6-45nm", True, dict(result, verified=False), expected)


def test_service_sequence_is_seeded_distinct_and_balanced():
    seq = run.service_sequence(7)
    assert seq == run.service_sequence(7) != run.service_sequence(8)
    assert len(set(seq)) == len(seq) == 60
    for start in range(0, 60, 6):
        assert sorted(app for app, _, _ in seq[start:start + 6]) \
            == sorted(run.SERVICE_APPS)
