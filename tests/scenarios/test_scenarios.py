"""Scenario library, frontier runner and ``repro pareto`` CLI tests.

The determinism contract under test: a scenario's frontier report is a
pure function of (scenario, library, app sources) — reruns are
byte-identical, and a killed-then-resumed checkpointed run reproduces
the identical file.
"""

import copy
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.apps import ALL_APPS, app_by_name
from repro.cli import main
from repro.core import SweepCheckpoint
from repro.core.checkpoint import JOURNAL_MAGIC, _RECORD_HEADER, scan_journal
from repro.obs import Tracer
from repro.scenarios import (
    SCENARIOS,
    Scenario,
    run_scenario,
    scenario_by_name,
    scenario_context_key,
    validate_frontier_report,
    write_frontier_report,
)
from repro.scenarios.runner import variant_app
from repro.verify import verify_frontier_report


@pytest.fixture(scope="module")
def quick_result():
    return run_scenario(scenario_by_name("quick"))


# ---------------------------------------------------------------------------
# Catalog and variant expansion
# ---------------------------------------------------------------------------

class TestCatalog:
    def test_every_scenario_names_real_apps(self):
        for scenario in SCENARIOS.values():
            for name in scenario.apps:
                assert name in ALL_APPS, \
                    f"{scenario.name} references unknown app {name!r}"

    def test_geometry_scenarios_only_touch_cache_modeling_apps(self):
        for scenario in SCENARIOS.values():
            if all(geo is None for geo in scenario.geometries):
                continue
            for name in scenario.apps:
                assert app_by_name(name).model_caches, \
                    f"{scenario.name}: {name} does not model its caches"

    def test_variant_grid_is_cross_product_in_order(self):
        scenario = scenario_by_name("fg-sweep")
        variants = scenario.variants()
        assert len(variants) == (len(scenario.tech)
                                 * len(scenario.weights)
                                 * len(scenario.geometries)
                                 * len(scenario.n_max_clusters))
        assert [v.index for v in variants] == list(range(len(variants)))
        assert [(v.f_energy, v.g_hardware) for v in variants] \
            == list(scenario.weights)

    def test_tech_axis_is_outermost_and_labelled(self):
        scenario = scenario_by_name("tech-quick")
        from repro.tech import REFERENCE_NODE, tech_names
        variants = scenario.variants()
        assert len(variants) == len(tech_names())
        assert [v.tech for v in variants] == list(tech_names())
        assert variants[0].tech == REFERENCE_NODE
        # The reference node keeps the historical unmarked label.
        assert variants[0].label == "F1/G0.05:N8"
        assert variants[1].label == "F1/G0.05:N8@cmos6-45nm"

    def test_digests_are_distinct_and_stable(self):
        digests = {s.digest() for s in SCENARIOS.values()}
        assert len(digests) == len(SCENARIOS)
        assert scenario_by_name("quick").digest() \
            == scenario_by_name("quick").digest()

    def test_context_keys_discriminate_scenarios(self):
        assert scenario_context_key(scenario_by_name("quick")) \
            != scenario_context_key(scenario_by_name("six-apps"))

    def test_unknown_scenario_raises_with_catalog(self):
        with pytest.raises(KeyError, match="quick"):
            scenario_by_name("nope")

    def test_variant_labels(self):
        scenario = scenario_by_name("geometry")
        labels = [v.label for v in scenario.variants()]
        assert labels[0] == "F1/G0.05:N8"
        assert "F1/G0.05:small-caches:N8" in labels


class TestVariantApp:
    def test_overrides_weights_but_preserves_base_config(self):
        scenario = scenario_by_name("quick")
        variant = scenario.variants()[1]  # F0.5/G0.5
        app = variant_app(scenario, "ckey", variant)
        assert app.config.objective.f_energy == 0.5
        assert app.config.objective.g_hardware == 0.5
        # ckey's own designer constraint must survive the override.
        assert app.config.objective.geq_cap == 26_000

    def test_geometry_override_rejected_without_cache_model(self):
        scenario = Scenario(
            name="bad", description="", apps=("ckey",),
            geometries=(scenario_by_name("geometry").geometries[1],))
        with pytest.raises(ValueError, match="does not model"):
            variant_app(scenario, "ckey", scenario.variants()[0])

    def test_geometry_override_applies_caches(self):
        scenario = scenario_by_name("geometry")
        variant = next(v for v in scenario.variants()
                       if v.geometry is not None)
        app = variant_app(scenario, "digs", variant)
        assert app.icache == variant.geometry.icache
        assert app.dcache == variant.geometry.dcache


# ---------------------------------------------------------------------------
# Runner determinism and report schema
# ---------------------------------------------------------------------------

class TestRunner:
    def test_report_is_deterministic_and_round_trips(self, tmp_path,
                                                     quick_result):
        rerun = run_scenario(scenario_by_name("quick"))
        assert rerun.report == quick_result.report
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_frontier_report(quick_result.report, str(a))
        write_frontier_report(rerun.report, str(b))
        assert a.read_bytes() == b.read_bytes()
        validate_frontier_report(json.loads(a.read_text()))

    def test_report_carries_every_variant_and_the_initial_point(
            self, quick_result):
        section = quick_result.report["apps"]["ckey"]
        scenario = scenario_by_name("quick")
        assert [v["index"] for v in section["variants"]] \
            == [v.index for v in scenario.variants()]
        initials = [p for p in section["points"] if p["label"] == "<initial>"]
        # One geometry in play -> exactly one all-software point.
        assert len(initials) == 1
        assert initials[0]["geq"] == 0

    def test_scalar_pick_matches_a_listed_point(self, quick_result):
        section = quick_result.report["apps"]["ckey"]
        labels = {p["label"] for p in section["points"]}
        for row in section["variants"]:
            if row["scalar_pick"] is not None:
                assert row["scalar_pick"] in labels

    def test_frontier_consistency_check_passes(self, quick_result):
        audit = verify_frontier_report(quick_result.report)
        assert "pareto.frontier" in audit.checks_run
        assert not audit.has_errors

    def test_pareto_counters_and_spans_emitted(self):
        tracer = Tracer("scenario")
        run_scenario(scenario_by_name("quick"), tracer=tracer)
        assert tracer.counters["pareto.variants"] == 2
        assert tracer.counters["pareto.points"] >= 3
        assert "pareto.front" in tracer.counters
        def names(node):
            collected = {node.name}
            for child in node.children.values():
                collected |= names(child)
            return collected

        assert {"pareto.scenario", "pareto.variant"} <= names(tracer.root)


class TestValidation:
    def _valid(self, quick_result):
        return copy.deepcopy(quick_result.report)

    def test_rejects_wrong_schema_and_version(self, quick_result):
        data = self._valid(quick_result)
        data["schema"] = "other"
        with pytest.raises(ValueError, match=r"\$\.schema"):
            validate_frontier_report(data)
        data = self._valid(quick_result)
        data["version"] = 99
        with pytest.raises(ValueError, match=r"\$\.version"):
            validate_frontier_report(data)

    def test_rejects_point_with_missing_or_extra_keys(self, quick_result):
        data = self._valid(quick_result)
        del data["apps"]["ckey"]["points"][0]["geq"]
        with pytest.raises(ValueError, match=r"points\[0\]"):
            validate_frontier_report(data)
        data = self._valid(quick_result)
        data["apps"]["ckey"]["points"][0]["extra"] = 1
        with pytest.raises(ValueError, match=r"points\[0\]"):
            validate_frontier_report(data)

    def test_rejects_out_of_range_front_index(self, quick_result):
        data = self._valid(quick_result)
        data["apps"]["ckey"]["front"].append(999)
        with pytest.raises(ValueError, match=r"\.front"):
            validate_frontier_report(data)

    def test_rejects_knee_outside_front(self, quick_result):
        data = self._valid(quick_result)
        section = data["apps"]["ckey"]
        outside = next(i for i in range(len(section["points"]))
                       if i not in section["front"])
        section["knee"] = outside
        with pytest.raises(ValueError, match=r"\.knee"):
            validate_frontier_report(data)

    def test_rejects_unknown_variant_reference(self, quick_result):
        data = self._valid(quick_result)
        data["apps"]["ckey"]["points"][0]["variant"] = 17
        with pytest.raises(ValueError, match="unknown variant"):
            validate_frontier_report(data)


class TestFrontierCheck:
    def _tampered(self, quick_result, mutate):
        data = copy.deepcopy(quick_result.report)
        mutate(data["apps"]["ckey"])
        return verify_frontier_report(data)

    def test_tampered_objective_is_caught(self, quick_result):
        def mutate(section):
            section["points"][1]["objective"] += 1e-9
        audit = self._tampered(quick_result, mutate)
        assert audit.has_errors
        assert any("re-derive" in f.message for f in audit.errors)

    def test_tampered_front_is_caught(self, quick_result):
        audit = self._tampered(
            quick_result, lambda s: s["front"].pop())
        assert audit.has_errors

    def test_tampered_hypervolume_is_caught(self, quick_result):
        def mutate(section):
            section["hypervolume"] *= 1.0000001
        assert self._tampered(quick_result, mutate).has_errors

    def test_malformed_report_is_one_error_not_a_crash(self):
        audit = verify_frontier_report({"schema": "junk"})
        assert audit.has_errors
        assert len(audit.errors) == 1


# ---------------------------------------------------------------------------
# Checkpointed scenario runs (kill-safety without subprocesses)
# ---------------------------------------------------------------------------

class TestScenarioCheckpoint:
    def test_truncated_journal_resumes_byte_identical(self, tmp_path,
                                                      quick_result):
        scenario = scenario_by_name("quick")
        directory = str(tmp_path / "ck")
        context = scenario_context_key(scenario)
        with SweepCheckpoint(directory) as ckpt:
            ckpt.bind_context(context, label=scenario.name)
            run_scenario(scenario, cache=ckpt.cache)
        journal = os.path.join(directory, "cache.journal")
        assert scan_journal(journal)["records"] >= 3
        # Simulate a SIGKILL after the second record: keep a prefix.
        with open(journal, "r+b") as fh:
            fh.seek(len(JOURNAL_MAGIC))
            for _ in range(2):
                length, _digest = _RECORD_HEADER.unpack(
                    fh.read(_RECORD_HEADER.size))
                fh.seek(length, os.SEEK_CUR)
            fh.truncate(fh.tell())
        tracer = Tracer("resume")
        with SweepCheckpoint(directory) as ckpt:
            ckpt.bind_context(context, label=scenario.name)
            resumed = run_scenario(scenario, cache=ckpt.cache,
                                   tracer=tracer)
        assert resumed.report == quick_result.report
        assert tracer.counters["explore.cache.hits"] >= 2
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_frontier_report(quick_result.report, str(a))
        write_frontier_report(resumed.report, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_checkpoint_refuses_other_scenario(self, tmp_path):
        from repro.core import CheckpointMismatch
        directory = str(tmp_path / "ck")
        with SweepCheckpoint(directory) as ckpt:
            ckpt.bind_context(scenario_context_key(scenario_by_name("quick")),
                              label="quick")
        with SweepCheckpoint(directory) as ckpt:
            with pytest.raises(CheckpointMismatch):
                ckpt.bind_context(
                    scenario_context_key(scenario_by_name("nmax")),
                    label="nmax")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestParetoCLI:
    def test_list_prints_catalog(self, capsys):
        assert main(["pareto", "--list"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out

    def test_missing_scenario_name(self, capsys):
        assert main(["pareto"]) == 1
        assert "--list" in capsys.readouterr().err

    def test_unknown_scenario(self, capsys):
        assert main(["pareto", "bogus"]) == 1
        assert "unknown scenario" in capsys.readouterr().err

    def test_resume_requires_checkpoint(self, capsys):
        assert main(["pareto", "quick", "--resume"]) == 1
        assert "--resume requires" in capsys.readouterr().err

    def test_quick_run_emits_valid_report(self, capsys, tmp_path,
                                          quick_result):
        out = str(tmp_path / "frontier.json")
        assert main(["pareto", "quick", "--out", out,
                     "--verify", "--strict"]) == 0
        data = json.loads(Path(out).read_text())
        validate_frontier_report(data)
        assert data == quick_result.report
        stdout = capsys.readouterr().out
        assert "knee" in stdout

    def test_checkpoint_then_resume_byte_identical(self, capsys, tmp_path):
        directory = str(tmp_path / "ck")
        first = str(tmp_path / "first.json")
        second = str(tmp_path / "second.json")
        assert main(["pareto", "quick", "--checkpoint", directory,
                     "--out", first]) == 0
        capsys.readouterr()
        assert main(["pareto", "quick", "--checkpoint", directory,
                     "--resume", "--out", second]) == 0
        assert "checkpoint intact" in capsys.readouterr().out
        assert Path(first).read_bytes() == Path(second).read_bytes()

    def test_tech_quick_executes_once_and_matches_unshared(
            self, capsys, tmp_path, monkeypatch):
        """ckey at five nodes executes once; the report is byte-identical
        to the study with every front-half lookup missing (one execution
        per node, as before the memo)."""
        from repro.core.profile import BoundedMemo

        def run(name):
            out, trace = tmp_path / f"{name}.json", tmp_path / f"{name}.t"
            assert main(["pareto", "tech-quick", "--out", str(out),
                         "--trace", str(trace)]) == 0
            capsys.readouterr()
            counters = json.loads(trace.read_text())["counters"]
            return out.read_bytes(), counters

        shared, counters = run("shared")
        assert counters["isa.executions"] == 1
        assert counters["explore.front.hits"] == 4
        monkeypatch.setattr(BoundedMemo, "get", lambda self, key: None)
        unshared, counters = run("unshared")
        assert counters["isa.executions"] == 5
        assert shared == unshared

    def test_resume_refuses_other_scenario(self, capsys, tmp_path):
        directory = str(tmp_path / "ck")
        assert main(["pareto", "quick", "--checkpoint", directory,
                     "--out", str(tmp_path / "f.json")]) == 0
        capsys.readouterr()
        assert main(["pareto", "nmax", "--checkpoint", directory,
                     "--resume"]) == 1
        assert "cannot resume" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Acceptance: a SIGKILLed scenario run resumes to the identical report
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_cli_acceptance_killed_scenario_resumes_byte_identical(tmp_path):
    """Kill ``repro pareto six-apps --checkpoint`` mid-sweep, resume, and
    require the resumed report to be byte-identical to an uninterrupted
    run's."""
    src_dir = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src_dir), env.get("PYTHONPATH")) if p)
    reference = str(tmp_path / "reference.json")
    done = subprocess.run(
        [sys.executable, "-m", "repro", "pareto", "six-apps",
         "--out", reference],
        capture_output=True, text=True, timeout=600, env=env)
    assert done.returncode == 0, done.stderr

    directory = str(tmp_path / "ck")
    journal = os.path.join(directory, "cache.journal")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "pareto", "six-apps",
         "--checkpoint", directory,
         "--out", str(tmp_path / "killed.json")],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env)
    try:
        deadline = time.monotonic() + 300
        while time.monotonic() < deadline and proc.poll() is None:
            if os.path.exists(journal) \
                    and scan_journal(journal)["records"] >= 3:
                break
            time.sleep(0.05)
        if proc.poll() is None:
            proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup on failure
            proc.kill()

    resumed = str(tmp_path / "resumed.json")
    resume = subprocess.run(
        [sys.executable, "-m", "repro", "pareto", "six-apps",
         "--checkpoint", directory, "--resume",
         "--out", resumed, "--verify", "--strict"],
        capture_output=True, text=True, timeout=600, env=env)
    assert resume.returncode == 0, resume.stderr
    assert Path(resumed).read_bytes() == Path(reference).read_bytes()
