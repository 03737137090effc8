"""Unit tests for the ``repro bench`` harness.

Pins the machine-readable contract documented in ``docs/PERFORMANCE.md``:
the ``repro-bench`` report schema, the median/dispersion statistics of
``run_suite``, and the unit-normalized orientation of ``compare`` (for
both ``ops/s`` and wall-second benchmarks).  The suite itself is pinned
by name so benchmarks cannot silently disappear from the baseline.
"""

import pytest

from repro.bench import (
    BASELINE_FILENAME,
    BENCH_SCHEMA_NAME,
    BENCH_SCHEMA_VERSION,
    BenchContext,
    BenchSpec,
    compare,
    default_report_filename,
    format_report,
    iter_specs,
    load_report,
    run_suite,
    validate_report,
    write_report,
)


def make_report(results=None, **overrides):
    """A minimal schema-valid report, customisable per test."""
    report = {
        "schema": BENCH_SCHEMA_NAME,
        "version": BENCH_SCHEMA_VERSION,
        "created": "2026-08-07T00:00:00Z",
        "repeats": 3,
        "environment": {"python": "3.11.7"},
        "results": results if results is not None else {
            "micro.demo": make_entry(2.0, unit="ops/s",
                                     higher_is_better=True),
        },
    }
    report.update(overrides)
    return report


def make_entry(median, unit="ops/s", higher_is_better=True, **overrides):
    entry = {
        "unit": unit,
        "higher_is_better": higher_is_better,
        "median": median,
        "best": median,
        "worst": median,
        "dispersion": 0.0,
        "runs": [median],
        "meta": {},
    }
    entry.update(overrides)
    return entry


# ---------------------------------------------------------------------------
# Schema validation
# ---------------------------------------------------------------------------


class TestValidateReport:
    def test_valid_report_passes(self):
        validate_report(make_report())

    def test_rejects_non_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            validate_report([1, 2, 3])

    def test_rejects_wrong_schema_tag(self):
        with pytest.raises(ValueError, match="not a repro-bench file"):
            validate_report(make_report(schema="something-else"))

    def test_rejects_unsupported_version(self):
        bad = BENCH_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match=f"version {bad}"):
            validate_report(make_report(version=bad))

    def test_rejects_missing_created(self):
        report = make_report()
        del report["created"]
        with pytest.raises(ValueError, match="created"):
            validate_report(report)

    @pytest.mark.parametrize("repeats", [0, -1, 1.5, "3", True])
    def test_rejects_bad_repeats(self, repeats):
        with pytest.raises(ValueError, match="repeats"):
            validate_report(make_report(repeats=repeats))

    def test_rejects_non_dict_environment(self):
        with pytest.raises(ValueError, match="environment"):
            validate_report(make_report(environment=None))

    def test_rejects_non_dict_results(self):
        report = make_report()
        report["results"] = []
        with pytest.raises(ValueError, match="results"):
            validate_report(report)

    def test_rejects_unknown_unit(self):
        results = {"x": make_entry(1.0, unit="ms")}
        with pytest.raises(ValueError, match=r"results\['x'\].*unit"):
            validate_report(make_report(results=results))

    def test_rejects_non_bool_higher_is_better(self):
        results = {"x": make_entry(1.0, higher_is_better=1)}
        with pytest.raises(ValueError, match="higher_is_better"):
            validate_report(make_report(results=results))

    @pytest.mark.parametrize("key", ["median", "best", "worst",
                                     "dispersion"])
    def test_rejects_negative_statistics(self, key):
        entry = make_entry(1.0)
        entry[key] = -0.5
        results = {"x": entry}
        with pytest.raises(ValueError, match=key):
            validate_report(make_report(results=results))

    @pytest.mark.parametrize("runs", [[], None, [1.0, "x"], [1.0, -2.0],
                                      [True]])
    def test_rejects_bad_runs(self, runs):
        results = {"x": make_entry(1.0, runs=runs)}
        with pytest.raises(ValueError, match="runs"):
            validate_report(make_report(results=results))

    def test_rejects_non_dict_meta(self):
        results = {"x": make_entry(1.0, meta=None)}
        with pytest.raises(ValueError, match="meta"):
            validate_report(make_report(results=results))

    def test_error_names_the_offending_benchmark(self):
        results = {"good": make_entry(1.0),
                   "bad.one": make_entry(1.0, unit="furlongs")}
        with pytest.raises(ValueError, match=r"results\['bad.one'\]"):
            validate_report(make_report(results=results))


# ---------------------------------------------------------------------------
# Comparison logic
# ---------------------------------------------------------------------------


class TestCompare:
    def test_ops_per_sec_speedup_orientation(self):
        # ops/s: higher is better, speedup = current / baseline.
        base = make_report({"m": make_entry(100.0)})
        cur = make_report({"m": make_entry(150.0)})
        (comp,) = compare(cur, base)
        assert comp.speedup == pytest.approx(1.5)
        assert not comp.regressed

    def test_wall_seconds_speedup_orientation(self):
        # "s": lower is better, speedup = baseline / current.
        base = make_report({"e2e": make_entry(
            4.0, unit="s", higher_is_better=False)})
        cur = make_report({"e2e": make_entry(
            2.0, unit="s", higher_is_better=False)})
        (comp,) = compare(cur, base)
        assert comp.speedup == pytest.approx(2.0)
        assert not comp.regressed

    def test_regression_flagged_beyond_threshold(self):
        base = make_report({"m": make_entry(100.0)})
        cur = make_report({"m": make_entry(70.0)})
        (comp,) = compare(cur, base, threshold=0.25)
        assert comp.speedup == pytest.approx(0.7)
        assert comp.regressed

    def test_within_threshold_is_not_a_regression(self):
        base = make_report({"m": make_entry(100.0)})
        cur = make_report({"m": make_entry(80.0)})
        (comp,) = compare(cur, base, threshold=0.25)
        assert comp.speedup == pytest.approx(0.8)
        assert not comp.regressed

    def test_slower_wall_seconds_regress(self):
        base = make_report({"e2e": make_entry(
            1.0, unit="s", higher_is_better=False)})
        cur = make_report({"e2e": make_entry(
            2.0, unit="s", higher_is_better=False)})
        (comp,) = compare(cur, base, threshold=0.25)
        assert comp.speedup == pytest.approx(0.5)
        assert comp.regressed

    def test_benchmark_missing_from_current_is_skipped(self):
        base = make_report({"kept": make_entry(1.0),
                            "dropped": make_entry(1.0)})
        cur = make_report({"kept": make_entry(1.0)})
        comps = compare(cur, base)
        assert [c.name for c in comps] == ["kept"]

    def test_comparisons_sorted_by_name(self):
        entries = {name: make_entry(1.0) for name in ("b", "a", "c")}
        comps = compare(make_report(dict(entries)),
                        make_report(dict(entries)))
        assert [c.name for c in comps] == ["a", "b", "c"]

    def test_rejects_negative_threshold(self):
        report = make_report()
        with pytest.raises(ValueError, match="threshold"):
            compare(report, report, threshold=-0.1)

    def test_compare_uses_best_not_median(self):
        # Interference on a shared machine is one-sided, so comparisons
        # use each side's best run; the median is the report headline.
        base = make_report({"m": make_entry(100.0, best=120.0)})
        cur = make_report({"m": make_entry(60.0, best=115.0)})
        (comp,) = compare(cur, base, threshold=0.25)
        assert comp.baseline == 120.0
        assert comp.current == 115.0
        assert not comp.regressed

    def test_format_marks_regressions(self):
        base = make_report({"m": make_entry(100.0)})
        cur = make_report({"m": make_entry(10.0)})
        (comp,) = compare(cur, base)
        assert "REGRESSED" in comp.format()


# ---------------------------------------------------------------------------
# Suite definition and report mechanics
# ---------------------------------------------------------------------------


def fake_spec(name, values, unit="ops/s", higher_is_better=True):
    """A spec whose run_once yields successive canned values."""
    feed = iter(values)

    def make(ctx):
        return lambda: (next(feed), {"canned": True})

    return BenchSpec(name, unit, higher_is_better, "test fixture", make)


class TestSuiteAndReports:
    def test_pinned_suite_names(self):
        names = [s.name for s in iter_specs()]
        assert names[:9] == [
            "micro.iss", "micro.iss.system", "micro.iss.reference",
            "micro.cache", "micro.profiler.replay", "micro.profiler.sweep",
            "micro.cache_batch", "micro.gatesim", "micro.checkpoint.journal"]
        from repro.apps import ALL_APPS
        for app in ALL_APPS:
            assert f"e2e.table1.{app}" in names
        assert names[-1] == "e2e.explore"

    def test_every_spec_has_a_baseline_entry(self):
        import json
        from pathlib import Path

        from repro.bench import BASELINE_FILENAME

        path = Path(__file__).resolve().parents[2] / BASELINE_FILENAME
        baseline = json.loads(path.read_text(encoding="utf-8"))
        missing = [s.name for s in iter_specs()
                   if s.name not in baseline["results"]]
        assert missing == [], f"no baseline entry for {missing}"
        stale = sorted(set(baseline["results"])
                       - {s.name for s in iter_specs()})
        assert stale == [], f"baseline entries without a spec: {stale}"

    def test_iter_specs_substring_filter(self):
        names = [s.name for s in iter_specs("micro.iss")]
        assert names == ["micro.iss", "micro.iss.system",
                         "micro.iss.reference"]
        assert iter_specs("no-such-benchmark") == []

    def test_run_suite_statistics_odd_repeats(self):
        spec = fake_spec("fake", [3.0, 1.0, 2.0])
        report = run_suite([spec], repeats=3, ctx=BenchContext())
        entry = report["results"]["fake"]
        assert entry["median"] == 2.0
        assert entry["best"] == 3.0
        assert entry["worst"] == 1.0
        assert entry["dispersion"] == pytest.approx(1.0)
        assert entry["runs"] == [3.0, 1.0, 2.0]
        assert entry["meta"] == {"canned": True}

    def test_run_suite_statistics_even_repeats(self):
        spec = fake_spec("fake", [4.0, 1.0], unit="s",
                         higher_is_better=False)
        report = run_suite([spec], repeats=2, ctx=BenchContext())
        entry = report["results"]["fake"]
        assert entry["median"] == 2.5
        assert entry["best"] == 1.0    # lower is better
        assert entry["worst"] == 4.0

    def test_run_suite_report_is_schema_valid(self):
        report = run_suite([fake_spec("fake", [1.0])], repeats=1,
                           ctx=BenchContext())
        validate_report(report)
        assert report["schema"] == BENCH_SCHEMA_NAME
        assert report["version"] == BENCH_SCHEMA_VERSION

    def test_run_suite_rejects_zero_repeats(self):
        with pytest.raises(ValueError, match="repeats"):
            run_suite([], repeats=0)

    def test_default_report_filename(self):
        report = make_report(created="2026-08-07T12:34:56Z")
        assert default_report_filename(report) == \
            "BENCH_20260807T123456Z.json"
        assert BASELINE_FILENAME == "BENCH_baseline.json"

    def test_write_then_load_round_trips(self, tmp_path):
        report = make_report()
        path = str(tmp_path / "BENCH_test.json")
        write_report(report, path)
        assert load_report(path) == report

    def test_load_report_rejects_invalid_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "nope"}', encoding="utf-8")
        with pytest.raises(ValueError, match="not a repro-bench file"):
            load_report(str(path))

    def test_format_report_lists_every_benchmark(self):
        report = make_report({"a": make_entry(1.0),
                              "b": make_entry(2.0, unit="s",
                                              higher_is_better=False)})
        text = format_report(report)
        assert "a" in text and "b" in text and "ops/s" in text
