"""Doc-drift guards: the numbers and contracts the docs state must match
the live code.

Two documents make quantitative or structural claims that silently rot
when the code moves:

* ``docs/MODELS.md`` prints the datapath resource table and the scalar
  calibration anchors — parsed here and compared against
  ``repro.tech.cmos6_library()``.
* ``docs/VALIDATION.md`` promises one section per implemented invariant —
  compared against the ``repro.verify.checks.CHECKS`` registry.
* ``docs/PERFORMANCE.md`` states the ``repro-bench`` schema version and
  enumerates the standing suite — compared against ``repro.bench``.
* ``docs/OBSERVABILITY.md`` carries the counter registry — every counter
  the exploration runtime emits must have a registry row.
* ``docs/SCENARIOS.md`` documents the scenario catalog and the
  ``repro-frontier`` report schema — compared against
  ``repro.scenarios``.
* ``docs/TECHNOLOGY.md`` embeds the technology-node catalog table and
  names every model parameter — compared against ``repro.tech``.
* ``docs/SERVICE.md`` is the service wire contract — schema name and
  version, request/result/job field sets, job states, routes and the
  ``repro submit`` exit code — compared against ``repro.service``.
"""

import re
from pathlib import Path

import pytest

from repro.tech import ResourceKind, cmos6_library
from repro.verify.checks import CHECKS

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
MODELS = (REPO_ROOT / "docs" / "MODELS.md").read_text(encoding="utf-8")
VALIDATION = (REPO_ROOT / "docs" / "VALIDATION.md").read_text(
    encoding="utf-8")
PERFORMANCE = (REPO_ROOT / "docs" / "PERFORMANCE.md").read_text(
    encoding="utf-8")

ROW_RE = re.compile(
    r"^\|\s*(\w+)\s*\|\s*(\d+)\s*\|\s*(\d+(?:\.\d+)?)\s*"
    r"\|\s*(\d+(?:\.\d+)?)\s*\|\s*(\d+(?:\.\d+)?)\s*\|\s*$",
    re.MULTILINE)


def _documented_resource_rows():
    rows = {}
    for name, geq, active, idle, t_cyc in ROW_RE.findall(MODELS):
        if name.lower() == "kind":
            continue
        rows[name.lower()] = (int(geq), float(active), float(idle),
                              float(t_cyc))
    return rows


def test_models_table_lists_every_resource_kind():
    rows = _documented_resource_rows()
    assert set(rows) == {kind.value for kind in ResourceKind}


@pytest.mark.parametrize("kind", list(ResourceKind),
                         ids=lambda k: k.value)
def test_models_table_matches_library_spec(kind):
    rows = _documented_resource_rows()
    spec = cmos6_library().spec(kind)
    geq, active, idle, t_cyc = rows[kind.value]
    assert geq == spec.geq
    assert active == spec.energy_active_pj
    assert idle == spec.energy_idle_pj
    assert t_cyc == spec.t_cyc_ns


def _scalar(pattern):
    m = re.search(pattern, MODELS)
    assert m, f"MODELS.md no longer states: {pattern!r}"
    return tuple(float(g) for g in m.groups())


def test_models_scalar_anchors_match_library():
    library = cmos6_library()
    (gate_pj,) = _scalar(r"E_gate = (\d+(?:\.\d+)?) pJ")
    assert gate_pj == library.gate_switch_energy_pj
    (up_nj,) = _scalar(r"~(\d+(?:\.\d+)?) nJ per average cycle")
    assert up_nj == library.up_cycle_energy_nj
    mem_r, mem_w = _scalar(
        r"(\d+(?:\.\d+)?) / (\d+(?:\.\d+)?) nJ per 32-bit word")
    assert (mem_r, mem_w) == (library.mem_read_energy_nj,
                              library.mem_write_energy_nj)
    bus_r, bus_w = _scalar(
        r"bus transfers (\d+(?:\.\d+)?) / (\d+(?:\.\d+)?) nJ per\s+word")
    assert (bus_r, bus_w) == (library.bus_read_energy_nj,
                              library.bus_write_energy_nj)
    (buffer_words,) = _scalar(r"`asic_local_buffer_words` \((\d+)\)")
    assert int(buffer_words) == library.asic_local_buffer_words
    (latency,) = _scalar(r"`asic_shared_mem_latency` = (\d+)")
    assert int(latency) == library.asic_shared_mem_latency


# ---------------------------------------------------------------------------
# VALIDATION.md <-> CHECKS registry
# ---------------------------------------------------------------------------

SECTION_RE = re.compile(r"^### `([a-z_.]+)`\s*$", re.MULTILINE)


def test_validation_sections_match_registry_exactly():
    documented = SECTION_RE.findall(VALIDATION)
    assert len(documented) == len(set(documented)), "duplicate sections"
    assert set(documented) == set(CHECKS), (
        f"undocumented checks: {sorted(set(CHECKS) - set(documented))}; "
        f"stale sections: {sorted(set(documented) - set(CHECKS))}")


@pytest.mark.parametrize("check", sorted(CHECKS))
def test_validation_section_is_substantive(check):
    sections = SECTION_RE.split(VALIDATION)
    body = sections[sections.index(check) + 1]
    assert "**Claim**" in body, f"{check}: section states no claim"
    assert "**Enforced by**" in body, f"{check}: no enforcing module"
    assert "failing finding" in body, f"{check}: no example failure"


def test_validation_states_the_live_tolerances():
    from repro.verify.checks import (
        GATE_UNIT_REL_TOL,
        REL_TOL,
        WASTED_TOL_NJ,
    )
    for name, value in (("REL_TOL", REL_TOL),
                        ("WASTED_TOL_NJ", WASTED_TOL_NJ),
                        ("GATE_UNIT_REL_TOL", GATE_UNIT_REL_TOL)):
        m = re.search(rf"`{name}` \| ([0-9.e+-]+)", VALIDATION)
        assert m, f"VALIDATION.md tolerance table lost `{name}`"
        assert float(m.group(1)) == value


# ---------------------------------------------------------------------------
# PERFORMANCE.md <-> repro.bench
# ---------------------------------------------------------------------------

#: Rows of the suite table: | `name` | unit | ...
BENCH_ROW_RE = re.compile(r"^\| `([a-zA-Z0-9._]+)` \| (ops/s|s) \|",
                          re.MULTILINE)

PERFORMANCE_HEADINGS = [
    "## The suite",
    "## Running it",
    "## Report schema (`repro-bench` version 1)",
    "## Baselines",
    "## Measured effect of the current optimisations",
]


def test_performance_states_current_schema_version():
    from repro.bench import BENCH_SCHEMA_NAME, BENCH_SCHEMA_VERSION
    m = re.search(r"## Report schema \(`([a-z-]+)` version (\d+)\)",
                  PERFORMANCE)
    assert m, "PERFORMANCE.md lost its schema section heading"
    assert m.group(1) == BENCH_SCHEMA_NAME
    assert int(m.group(2)) == BENCH_SCHEMA_VERSION
    m = re.search(r"schema version, currently `(\d+)`", PERFORMANCE)
    assert m and int(m.group(1)) == BENCH_SCHEMA_VERSION


def test_performance_has_the_contract_sections():
    for heading in PERFORMANCE_HEADINGS:
        assert f"\n{heading}\n" in PERFORMANCE, (
            f"PERFORMANCE.md lost its '{heading}' section")


def test_performance_suite_table_matches_live_suite():
    from repro.bench import iter_specs
    documented = BENCH_ROW_RE.findall(PERFORMANCE)
    assert documented, "PERFORMANCE.md suite table not found"
    live = {(s.name, s.unit) for s in iter_specs()}
    assert set(documented) == live, (
        f"undocumented benchmarks: {sorted(live - set(documented))}; "
        f"stale rows: {sorted(set(documented) - live)}")


def test_performance_states_the_baseline_filename_and_threshold():
    from repro.bench import BASELINE_FILENAME, DEFAULT_THRESHOLD
    assert BASELINE_FILENAME in PERFORMANCE
    assert (REPO_ROOT / BASELINE_FILENAME).is_file(), (
        "committed baseline missing; record it per docs/PERFORMANCE.md")
    m = re.search(r"percent; default (\d+)", PERFORMANCE)
    assert m and int(m.group(1)) == int(DEFAULT_THRESHOLD * 100)


# ---------------------------------------------------------------------------
# OBSERVABILITY.md <-> counters the exploration runtime emits
# ---------------------------------------------------------------------------

OBSERVABILITY = (REPO_ROOT / "docs" / "OBSERVABILITY.md").read_text(
    encoding="utf-8")

#: tracer.count("name", ...) / self._tracer.count("name") call sites.
COUNT_CALL_RE = re.compile(r"""count\(\s*["']([a-z_.]+)["']""")


#: Modules (relative to src/repro/) whose counters the registry must
#: cover — the ISS, the flow's front half, the exploration runtime, the
#: Pareto/scenario layer and the service tier.
COUNTER_MODULES = ("core/explore.py", "core/checkpoint.py",
                   "core/partitioner.py", "core/pareto.py",
                   "core/profile.py",
                   "isa/simulator.py", "mem/cache_batch.py",
                   "scenarios/runner.py", "tech/model.py",
                   "service/core.py", "service/jobs.py",
                   "service/journal.py", "service/server.py")


def test_observability_registry_covers_exploration_runtime_counters():
    source = "".join(
        (REPO_ROOT / "src" / "repro" / module).read_text(encoding="utf-8")
        for module in COUNTER_MODULES)
    emitted = set(COUNT_CALL_RE.findall(source))
    assert emitted, "no counter emissions found — regex rotted?"
    undocumented = {name for name in emitted
                    if f"`{name}`" not in OBSERVABILITY}
    assert not undocumented, (
        f"counters emitted but missing from the OBSERVABILITY.md "
        f"registry: {sorted(undocumented)}")


# ---------------------------------------------------------------------------
# SCENARIOS.md <-> repro.scenarios
# ---------------------------------------------------------------------------

SCENARIOS_DOC = (REPO_ROOT / "docs" / "SCENARIOS.md").read_text(
    encoding="utf-8")

#: Catalog table rows: | `name` | apps | variants | description |
SCENARIO_ROW_RE = re.compile(
    r"^\| `([a-z0-9-]+)` \| (\d+) \| (\d+) \| (.+?) \|$", re.MULTILINE)


def test_scenarios_catalog_table_matches_registry():
    from repro.scenarios import SCENARIOS
    documented = {name: (int(apps), int(variants), description)
                  for name, apps, variants, description
                  in SCENARIO_ROW_RE.findall(SCENARIOS_DOC)}
    assert documented, "SCENARIOS.md catalog table not found"
    assert set(documented) == set(SCENARIOS), (
        f"undocumented scenarios: "
        f"{sorted(set(SCENARIOS) - set(documented))}; "
        f"stale rows: {sorted(set(documented) - set(SCENARIOS))}")
    for name, scenario in SCENARIOS.items():
        apps, variants, description = documented[name]
        assert apps == len(scenario.apps), f"{name}: app count drifted"
        assert variants == len(scenario.variants()), (
            f"{name}: variant count drifted")
        assert description == scenario.description, (
            f"{name}: description drifted")


def test_scenarios_states_current_frontier_schema_version():
    from repro.scenarios import (
        FRONTIER_SCHEMA_NAME,
        FRONTIER_SCHEMA_VERSION,
    )
    m = re.search(r"## Frontier report schema \(`([a-z-]+)`, version "
                  r"(\d+)\)", SCENARIOS_DOC)
    assert m, "SCENARIOS.md lost its schema section heading"
    assert m.group(1) == FRONTIER_SCHEMA_NAME
    assert int(m.group(2)) == FRONTIER_SCHEMA_VERSION


def test_scenarios_schema_example_lists_every_field():
    from repro.scenarios import POINT_FIELDS, VARIANT_FIELDS
    section = SCENARIOS_DOC.split("## Frontier report schema")[1]
    section = section.split("## Python API")[0]
    for field in POINT_FIELDS + VARIANT_FIELDS:
        assert f'"{field}":' in section, (
            f"SCENARIOS.md schema example lost the {field!r} key")
    # The prose also enumerates the exact key sets.
    for field in POINT_FIELDS + VARIANT_FIELDS:
        assert re.search(rf"(?<![a-z_]){re.escape(field)}(?![a-z_])",
                         section.replace("\n", " ")), field


# ---------------------------------------------------------------------------
# TECHNOLOGY.md <-> repro.tech technology-model registry
# ---------------------------------------------------------------------------

TECHNOLOGY = (REPO_ROOT / "docs" / "TECHNOLOGY.md").read_text(
    encoding="utf-8")


def test_technology_embeds_the_live_catalog_table():
    from repro.tech import format_catalog_table
    table = format_catalog_table()
    assert table in TECHNOLOGY, (
        "docs/TECHNOLOGY.md catalog table drifted from "
        "repro.tech.format_catalog_table() — regenerate and paste")


def test_technology_names_every_model_parameter():
    import dataclasses

    from repro.tech import CacheParameters, CoreProfile, TechnologyModel
    for cls in (TechnologyModel, CoreProfile, CacheParameters):
        for field in dataclasses.fields(cls):
            assert f"`{field.name}`" in TECHNOLOGY, (
                f"docs/TECHNOLOGY.md no longer documents "
                f"{cls.__name__}.{field.name}")


def test_technology_states_the_scaling_anchors():
    from repro.tech.scaling import (
        FREQ_BRIDGE_45NM,
        REFERENCE_FEATURE_NM,
        REFERENCE_VDD_V,
        UP_IDLE_FRACTION,
    )
    for label, value in (("reference feature size", REFERENCE_FEATURE_NM),
                         ("reference Vdd", REFERENCE_VDD_V),
                         ("frequency bridge", FREQ_BRIDGE_45NM),
                         ("idle fraction", UP_IDLE_FRACTION)):
        assert f"{value:g}" in TECHNOLOGY, (
            f"docs/TECHNOLOGY.md lost the {label} anchor ({value:g})")


# ---------------------------------------------------------------------------
# TESTING.md <-> repro.fuzz
# ---------------------------------------------------------------------------

TESTING = (REPO_ROOT / "docs" / "TESTING.md").read_text(encoding="utf-8")

#: Rows of the geometry / known-bug tables: | `name` | ...
BACKTICK_ROW_RE = re.compile(r"^\| `([a-z0-9-]+)` \|", re.MULTILINE)


def test_testing_geometry_table_matches_live_geometries():
    from repro.fuzz.oracle import CACHE_GEOMETRIES
    documented = BACKTICK_ROW_RE.findall(
        TESTING.split("| Geometry | Shape |")[1].split("###")[0])
    assert set(documented) == set(CACHE_GEOMETRIES), (
        f"undocumented geometries: "
        f"{sorted(set(CACHE_GEOMETRIES) - set(documented))}; "
        f"stale rows: {sorted(set(documented) - set(CACHE_GEOMETRIES))}")


def test_testing_bug_table_matches_known_bugs_registry():
    from repro.fuzz import KNOWN_BUGS
    documented = BACKTICK_ROW_RE.findall(
        TESTING.split("| Bug | Where it is wired |")[1].split("###")[0])
    assert set(documented) == set(KNOWN_BUGS), (
        f"undocumented bugs: {sorted(set(KNOWN_BUGS) - set(documented))}; "
        f"stale rows: {sorted(set(documented) - set(KNOWN_BUGS))}")


def test_testing_states_the_corpus_header_and_exit_code():
    from repro.fuzz import EXIT_MISMATCH
    from repro.fuzz.corpus import HEADER
    assert HEADER in TESTING, "TESTING.md lost the corpus header line"
    m = re.search(r"\| (\d+) \| `fuzz` found a differential mismatch",
                  TESTING)
    assert m and int(m.group(1)) == EXIT_MISMATCH


def test_testing_states_the_submit_exit_codes():
    from repro.service import EXIT_REJECTED
    m = re.search(r"\| (\d+) \| `submit` was rejected", TESTING)
    assert m, "TESTING.md exit-code table lost the `submit` 429 row"
    assert int(m.group(1)) == EXIT_REJECTED


def test_testing_slow_marker_contract_matches_pyproject():
    pyproject = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert '"slow' in pyproject, (
        "pyproject.toml lost the slow-marker registration TESTING.md "
        "documents")
    assert "not slow" in pyproject, (
        "pyproject.toml addopts no longer deselect slow tests by default")
    assert "-m slow" in TESTING, (
        "TESTING.md no longer explains how to run the slow tier")


# ---------------------------------------------------------------------------
# SERVICE.md <-> repro.service wire contract
# ---------------------------------------------------------------------------

SERVICE = (REPO_ROOT / "docs" / "SERVICE.md").read_text(encoding="utf-8")

#: Rows of the request-field table: | `field` | type | meaning |
SERVICE_FIELD_ROW_RE = re.compile(r"^\| `([a-z_]+)` \|", re.MULTILINE)


def _service_section(start, stop):
    section = SERVICE.split(start)[1]
    return section.split(stop)[0]


def test_service_states_current_schema_name_and_version():
    from repro.service import SERVICE_SCHEMA_NAME, SERVICE_SCHEMA_VERSION
    m = re.search(r"## Wire schema \(`([a-z-]+)` version (\d+)\)", SERVICE)
    assert m, "SERVICE.md lost its wire-schema section heading"
    assert m.group(1) == SERVICE_SCHEMA_NAME
    assert int(m.group(2)) == SERVICE_SCHEMA_VERSION


def test_service_request_table_matches_request_fields():
    from repro.service import REQUEST_FIELDS
    documented = SERVICE_FIELD_ROW_RE.findall(
        _service_section("### Request", "### Job descriptor"))
    assert documented, "SERVICE.md request-field table not found"
    assert set(documented) == set(REQUEST_FIELDS), (
        f"undocumented request fields: "
        f"{sorted(set(REQUEST_FIELDS) - set(documented))}; "
        f"stale rows: {sorted(set(documented) - set(REQUEST_FIELDS))}")


def test_service_job_descriptor_example_lists_every_field():
    from repro.service import JOB_FIELDS
    section = _service_section("### Job descriptor", "### Job lifecycle")
    for field in JOB_FIELDS:
        assert f'"{field}":' in section, (
            f"SERVICE.md job-descriptor example lost the {field!r} key")


def test_service_lifecycle_names_every_job_state():
    from repro.service import JOB_STATES
    section = _service_section("### Job lifecycle", "### Result object")
    for state in JOB_STATES:
        assert f"`{state}`" in section, (
            f"SERVICE.md lifecycle section lost the {state!r} state")


def test_service_result_example_lists_every_field():
    from repro.service import (
        BEST_FIELDS,
        RESULT_FIELDS,
        SYSTEM_RUN_FIELDS,
    )
    section = _service_section("### Result object", "## Admission")
    for field in RESULT_FIELDS:
        assert f'"{field}":' in section, (
            f"SERVICE.md result example lost the {field!r} key")
    for field in BEST_FIELDS + SYSTEM_RUN_FIELDS:
        assert f'"{field}":' in section, (
            f"SERVICE.md result example lost the {field!r} sub-key")


def test_service_endpoint_table_matches_routes():
    from repro.service import ROUTES
    section = _service_section("## Endpoints", "## Wire schema")
    rows = re.findall(r"^\| `([A-Z]+)` \| `([^`]+)` \|", section,
                      re.MULTILINE)
    assert set(rows) == set(ROUTES), (
        f"undocumented routes: {sorted(set(ROUTES) - set(rows))}; "
        f"stale rows: {sorted(set(rows) - set(ROUTES))}")


def test_service_backpressure_section_names_both_reasons():
    # AdmissionError.reason is part of the 429 payload contract.
    section = _service_section("## Admission control", "## Caching")
    assert '"reason": "queue"' in section
    assert '"reason": "client"' in section
    assert "Retry-After" in section


def test_service_documents_the_announce_line_format():
    # tests and the CI smoke job parse this exact stderr prefix
    assert "repro service listening on http://" in SERVICE


def test_service_event_stream_section_names_every_kind():
    from repro.service import EVENT_KINDS
    section = _service_section("## Event streams", "## Durable jobs")
    for kind in EVENT_KINDS:
        assert f"`{kind}`" in section, (
            f"SERVICE.md event-stream section lost the {kind!r} kind")
    assert '"seq":' in section, "the seq-numbered example is gone"


def test_service_durable_jobs_section_states_the_journal_contract():
    from repro.core.checkpoint import JOURNAL_FILENAME
    from repro.service import (
        JOB_JOURNAL_FILENAME,
        JOB_JOURNAL_MAGIC,
        JOB_RECORD_KINDS,
    )
    section = _service_section("## Durable jobs", "## Admission")
    assert JOB_JOURNAL_FILENAME in section
    assert JOURNAL_FILENAME in section
    assert JOB_JOURNAL_MAGIC.decode().strip() in section, (
        "SERVICE.md no longer states the job-journal magic line")
    for kind in JOB_RECORD_KINDS:
        assert f"`{kind}`" in section, (
            f"SERVICE.md durable-jobs section lost the {kind!r} record "
            f"kind")


def test_service_cli_reference_names_the_new_flags():
    for flag in ("--checkpoint", "--retry-429", "--stream", "--poll"):
        assert flag in SERVICE, (
            f"SERVICE.md CLI reference lost the {flag} flag")
