"""Fault-tolerance tests for the exploration runtime.

Every recovery path of :class:`ExplorationEngine` — worker exceptions,
kills, hangs, pool rebuilds, degradation to serial — is driven
deterministically through :class:`FaultPlan` and must end in a decision
bit-identical to the serial reference.  The persistence half covers the
journaled :class:`PersistentEvaluationCache` (round-trip, corruption
tolerance, kill-safety), :class:`SweepCheckpoint` binding, the
``explore.checkpoint`` verifier, and the ``--checkpoint``/``--resume``
CLI path.
"""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import repro
from repro.apps import app_by_name
from repro.cli import main
from repro.core import (
    CheckpointMismatch,
    EvaluationCache,
    ExplorationEngine,
    FaultInjected,
    FaultPlan,
    FaultPlanError,
    PartitionConfig,
    Partitioner,
    PersistentEvaluationCache,
    SweepCheckpoint,
    checkpoint_context_key,
)
from repro.core.checkpoint import (
    JOURNAL_MAGIC,
    scan_journal,
)
from repro.core.journal import RECORD_HEADER, record_digest
from repro.isa.image import link_program
from repro.lang import Interpreter
from repro.obs import Tracer, use_tracer
from repro.tech import cmos6_library
from repro.verify import (
    Finding,
    Severity,
    VerificationReport,
    verify_checkpoint,
)


#: Set per-test (see test_run_flows_survives_broken_pool): the O_EXCL
#: marker file ensuring exactly one forked worker dies.
_LETHAL_MARKER = None

# Bound at import time: the monkeypatched module attribute would recurse.
from repro.core.explore import _worker_run_flow as _REAL_RUN_FLOW  # noqa: E402


def _lethal_run_flow(library, config, payload, verify=False):
    if payload.name == "trick" and _LETHAL_MARKER:
        try:
            fd = os.open(_LETHAL_MARKER,
                         os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            os.close(fd)
            os._exit(11)
        except FileExistsError:
            pass
    return _REAL_RUN_FLOW(library, config, payload, verify)


def _decision_fp(decision):
    best = decision.best
    return (
        None if best is None else (best.cluster.name,
                                   best.resource_set.name, best.objective,
                                   best.asic_cells),
        tuple(sorted((c.cluster.name, c.resource_set.name, c.objective)
                     for c in decision.candidates)),
        tuple(sorted(decision.rejections)),
        decision.up_utilization,
    )


@pytest.fixture(scope="module")
def app():
    return app_by_name("ckey")


@pytest.fixture(scope="module")
def serial_fp(app):
    with ExplorationEngine() as engine:
        return _decision_fp(engine.explore(app).decision)


@pytest.fixture(scope="module")
def sweep_inputs(app):
    """(partitioner, profile, initial) — the raw sweep() arguments."""
    library = cmos6_library()
    program = app.compile()
    interp = Interpreter(program)
    for name, values in app.globals_init.items():
        interp.set_global(name, values)
    interp.run(*app.args)
    image = link_program(program)
    from repro.power.system import evaluate_initial
    initial = evaluate_initial(
        image, library, args=app.args, globals_init=app.globals_init,
        icache_cfg=app.icache, dcache_cfg=app.dcache,
        model_caches=app.model_caches)
    config = app.config or PartitionConfig()
    return Partitioner(program, library, config), interp.profile, initial


# ---------------------------------------------------------------------------
# FaultPlan
# ---------------------------------------------------------------------------

class TestFaultPlan:
    def test_parse_string_and_iterable_agree(self):
        assert FaultPlan.parse("kill@0,hang@2") \
            == FaultPlan.parse(["kill@0", "hang@2"])
        assert FaultPlan.parse("kill@0").faults == ((0, "kill"),)
        assert FaultPlan.parse(" raise@4 , ").faults == ((4, "raise"),)

    @pytest.mark.parametrize("spec", ["explode@0", "kill", "kill@x",
                                      "kill@-1"])
    def test_parse_rejects_bad_specs(self, spec):
        with pytest.raises(FaultPlanError):
            FaultPlan.parse(spec)

    def test_action_fires_on_first_attempt_only_by_default(self):
        plan = FaultPlan.parse("raise@3")
        assert plan.action(3, 0) == "raise"
        assert plan.action(3, 1) is None
        assert plan.action(2, 0) is None

    def test_action_every_attempt_when_configured(self):
        plan = FaultPlan(faults=((1, "raise"),), first_attempt_only=False)
        assert plan.action(1, 0) == plan.action(1, 5) == "raise"

    def test_fire_raise_and_noop(self):
        plan = FaultPlan.parse("raise@0")
        with pytest.raises(FaultInjected):
            plan.fire(0, 0)
        plan.fire(0, 1)   # retried attempt: no fault
        plan.fire(99, 0)  # unscripted task: no fault

    def test_plan_is_picklable(self):
        import pickle
        plan = FaultPlan.parse("kill@0,hang@1", hang_s=7.5)
        assert pickle.loads(pickle.dumps(plan)) == plan


# ---------------------------------------------------------------------------
# Engine recovery paths (all must stay bit-identical to serial)
# ---------------------------------------------------------------------------

class TestEngineRecovery:
    def test_worker_raise_is_retried(self, app, serial_fp):
        tracer = Tracer("raise")
        with ExplorationEngine(jobs=2, retries=2, backoff_s=0.0,
                               fault_plan=FaultPlan.parse("raise@0"),
                               tracer=tracer) as engine:
            report = engine.explore(app)
        assert _decision_fp(report.decision) == serial_fp
        assert tracer.counters["explore.retry.attempts"] >= 1
        assert "explore.degraded" not in tracer.counters

    def test_worker_kill_rebuilds_pool_and_engine_stays_usable(
            self, app, serial_fp):
        tracer = Tracer("kill")
        engine = ExplorationEngine(jobs=2, retries=2, backoff_s=0.0,
                                   fault_plan=FaultPlan.parse("kill@0"),
                                   tracer=tracer)
        try:
            first = engine.explore(app)
            assert tracer.counters["explore.pool.rebuilds"] >= 1
            assert _decision_fp(first.decision) == serial_fp
            # The same engine must survive its broken pool: a second
            # sweep (cache cleared to force re-evaluation) still works.
            engine.cache.clear()
            engine.fault_plan = None
            second = engine.explore(app)
            assert _decision_fp(second.decision) == serial_fp
        finally:
            engine.close()

    def test_hung_worker_times_out_and_recovers(self, app, serial_fp):
        tracer = Tracer("hang")
        with ExplorationEngine(jobs=2, timeout=4.0, retries=2,
                               backoff_s=0.0,
                               fault_plan=FaultPlan.parse(
                                   "hang@1", hang_s=120.0),
                               tracer=tracer) as engine:
            report = engine.explore(app)
        assert _decision_fp(report.decision) == serial_fp
        assert tracer.counters["explore.timeouts"] >= 1
        assert tracer.counters["explore.pool.rebuilds"] >= 1

    def test_exhausted_retries_degrade_to_serial(self, app, serial_fp):
        plan = FaultPlan(faults=((0, "raise"), (1, "raise")),
                         first_attempt_only=False)
        tracer = Tracer("degrade")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with ExplorationEngine(jobs=2, retries=1, backoff_s=0.0,
                                   fault_plan=plan,
                                   tracer=tracer) as engine:
                report = engine.explore(app)
        assert _decision_fp(report.decision) == serial_fp
        assert tracer.counters["explore.degraded"] == 2
        # Degraded pairs were still evaluated (serially) and cached.
        assert report.cache_stats["entries"] == report.decision.examined

    def test_jobs_without_app_warns_once_and_counts(self, sweep_inputs,
                                                    serial_fp):
        partitioner, profile, initial = sweep_inputs
        tracer = Tracer("no-app")
        engine = ExplorationEngine(jobs=2, tracer=tracer)
        try:
            with pytest.warns(RuntimeWarning, match="without an AppSpec"):
                decision = engine.sweep(partitioner, profile, initial)
            assert _decision_fp(decision) == serial_fp
            assert tracer.counters["explore.degraded"] \
                == decision.examined
            # Second degraded sweep: counted again, but not re-warned.
            engine.cache.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                engine.sweep(partitioner, profile, initial)
        finally:
            engine.close()

    def test_exit_propagates_exceptions_and_reaps_pool(self, app):
        engine = ExplorationEngine(jobs=2)
        with pytest.raises(RuntimeError, match="boom"):
            with engine:
                engine._ensure_pool()
                raise RuntimeError("boom")
        assert engine._pool is None
        engine.close()  # idempotent

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ExplorationEngine(timeout=0)
        with pytest.raises(ValueError):
            ExplorationEngine(retries=-1)
        with pytest.raises(ValueError):
            ExplorationEngine(max_pool_rebuilds=-1)

    def test_run_flows_survives_broken_pool(self, monkeypatch, tmp_path):
        """A worker dying mid-``run_flows`` degrades the missing flows to
        in-process recomputation instead of aborting the batch."""
        import repro.core.explore as explore_mod

        # Workers fork from this process, inheriting both the patched
        # module and the marker path; _lethal_run_flow is module-level so
        # the executor can pickle it by reference.
        monkeypatch.setattr(sys.modules[__name__], "_LETHAL_MARKER",
                            str(tmp_path / "killed-once"))
        monkeypatch.setattr(explore_mod, "_worker_run_flow",
                            _lethal_run_flow)
        apps = [app_by_name("ckey"), app_by_name("trick")]
        tracer = Tracer("flows")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with ExplorationEngine(jobs=2, tracer=tracer) as engine:
                results = engine.run_flows(apps)
        assert set(results) == {"ckey", "trick"}
        assert tracer.counters["explore.pool.rebuilds"] >= 1
        assert all(r.initial is not None for r in results.values())


# ---------------------------------------------------------------------------
# Rejected outcomes are never memoized (verify.cache_rejected)
# ---------------------------------------------------------------------------

def _rejecting_verifier(outcome, library):
    report = VerificationReport(label="forced-reject")
    report.ran("core.accepted")
    report.add(Finding(check="core.accepted", severity=Severity.ERROR,
                       layer="core", message="injected rejection"))
    return report


class TestCacheRejected:
    def test_rejected_outcomes_not_memoized(self, app, monkeypatch):
        monkeypatch.setattr("repro.verify.verify_candidate",
                            _rejecting_verifier)
        tracer = Tracer("rejected")
        cache = EvaluationCache()
        with ExplorationEngine(cache=cache, verify=True,
                               tracer=tracer) as engine:
            report = engine.explore(app)
        # Every computed CandidateEvaluation was audited-ERROR: it still
        # reached the decision, but nothing may be memoized except the
        # schedule-rejection strings (which are never audited).
        rejected = tracer.counters["verify.cache_rejected"]
        assert rejected > 0
        assert len(cache) == report.decision.examined - rejected

    def test_rejected_outcomes_never_reach_the_journal(self, app, tmp_path,
                                                       monkeypatch):
        monkeypatch.setattr("repro.verify.verify_candidate",
                            _rejecting_verifier)
        journal = tmp_path / "cache.journal"
        tracer = Tracer("rejected-persistent")
        cache = PersistentEvaluationCache(str(journal))
        with ExplorationEngine(cache=cache, verify=True,
                               tracer=tracer) as engine:
            engine.explore(app)
        cache.close()
        rejected = tracer.counters["verify.cache_rejected"]
        assert rejected > 0
        scan = scan_journal(str(journal))
        assert scan["records"] == len(cache)
        assert not any(key is None for key in scan["keys"])


# ---------------------------------------------------------------------------
# PersistentEvaluationCache + SweepCheckpoint
# ---------------------------------------------------------------------------

#: The header of journals written before dependence graphs were plain
#: dicts.
V1_MAGIC = b"REPRO-EVALCACHE v1\n"


def _rewrite_magic(path: str, magic: bytes) -> None:
    """Swap a journal's header line, keeping its records."""
    with open(path, "rb") as fh:
        data = fh.read()
    assert data.startswith(JOURNAL_MAGIC) and len(magic) == len(JOURNAL_MAGIC)
    with open(path, "wb") as fh:
        fh.write(magic + data[len(JOURNAL_MAGIC):])


#: A pickle of a class that no longer exists: an intact record whose
#: outcome cannot be loaded.
UNREADABLE_BODY = b"cno_such_module\nThing\n."


def _replace_record(path: str, index: int, body: bytes) -> None:
    """Swap a journal's ``index``-th record for an intact frame around
    ``body``."""
    with open(path, "rb") as fh:
        data = fh.read()
    start = len(JOURNAL_MAGIC)
    for _ in range(index):
        length, _digest = RECORD_HEADER.unpack_from(data, start)
        start += RECORD_HEADER.size + length
    length, _digest = RECORD_HEADER.unpack_from(data, start)
    end = start + RECORD_HEADER.size + length
    framed = RECORD_HEADER.pack(len(body), record_digest(body)) + body
    with open(path, "wb") as fh:
        fh.write(data[:start] + framed + data[end:])


class TestPersistentCache:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "cache.journal")
        with PersistentEvaluationCache(path) as cache:
            cache.put("a", {"x": 1})
            cache.put("b", "schedule rejection")
        with PersistentEvaluationCache(path) as reloaded:
            assert reloaded.loaded == 2
            assert reloaded.corrupt == 0
            assert reloaded.get("a") == {"x": 1}
            assert reloaded.get("b") == "schedule rejection"

    def test_repeated_put_journals_once(self, tmp_path):
        path = str(tmp_path / "cache.journal")
        with PersistentEvaluationCache(path) as cache:
            cache.put("a", 1)
            cache.put("a", 2)  # in-memory update, no second record
        assert scan_journal(path)["records"] == 1

    def test_corrupt_tail_is_tolerated_and_truncated(self, tmp_path):
        path = str(tmp_path / "cache.journal")
        with PersistentEvaluationCache(path) as cache:
            for i in range(4):
                cache.put(f"k{i}", i)
        intact_size = os.path.getsize(path)
        with open(path, "ab") as fh:
            fh.write(b"\x13\x37torn-record")
        with PersistentEvaluationCache(path) as reloaded:
            assert reloaded.loaded == 4
            assert reloaded.corrupt == 1
        # The loader truncated the garbage so appends stay replayable.
        assert os.path.getsize(path) == intact_size

    def test_truncated_mid_record_keeps_prefix(self, tmp_path):
        path = str(tmp_path / "cache.journal")
        with PersistentEvaluationCache(path) as cache:
            for i in range(4):
                cache.put(f"k{i}", i)
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) - 3)  # SIGKILL mid-write
        with PersistentEvaluationCache(path) as reloaded:
            assert reloaded.loaded == 3
            assert reloaded.corrupt == 1

    def test_foreign_file_is_reset(self, tmp_path):
        path = str(tmp_path / "cache.journal")
        with open(path, "wb") as fh:
            fh.write(b"not a journal at all")
        with PersistentEvaluationCache(path) as cache:
            assert cache.loaded == 0
            assert cache.corrupt == 1
            cache.put("fresh", 1)
        with open(path, "rb") as fh:
            assert fh.read(len(JOURNAL_MAGIC)) == JOURNAL_MAGIC

    def test_v1_journal_with_records_loads_nothing(self, tmp_path):
        # v1 journals pickled networkx dependence graphs; their header
        # alone identifies them, whatever their records hold.
        path = str(tmp_path / "cache.journal")
        with PersistentEvaluationCache(path) as cache:
            cache.put("a", 1)
            cache.put("b", "schedule rejection")
        _rewrite_magic(path, V1_MAGIC)
        with PersistentEvaluationCache(path) as reloaded:
            assert reloaded.loaded == 0
            assert reloaded.corrupt == 1
            assert reloaded.get("a") is None
        assert open(path, "rb").read() == JOURNAL_MAGIC

    def test_scan_journal_is_read_only(self, tmp_path):
        path = str(tmp_path / "cache.journal")
        with PersistentEvaluationCache(path) as cache:
            cache.put("k", 1)
        with open(path, "ab") as fh:
            fh.write(b"\xde\xad")
        before = open(path, "rb").read()
        scan = scan_journal(path)
        assert scan == {"ok": True, "magic": JOURNAL_MAGIC, "records": 1,
                        "skipped": 0, "corrupt": 1, "keys": ["k"],
                        "bytes_good": scan["bytes_good"],
                        "bytes_total": len(before)}
        assert open(path, "rb").read() == before  # untouched

    def test_clear_resets_journal(self, tmp_path):
        path = str(tmp_path / "cache.journal")
        with PersistentEvaluationCache(path) as cache:
            cache.put("k", 1)
            cache.clear()
            cache.put("fresh", 2)
        with PersistentEvaluationCache(path) as reloaded:
            assert reloaded.loaded == 1
            assert reloaded.get("fresh") == 2
            assert reloaded.get("k") is None


class TestSweepCheckpoint:
    def test_bind_pins_context_and_rejects_mismatch(self, tmp_path, app):
        library = cmos6_library()
        ckpt = SweepCheckpoint(str(tmp_path / "ck"))
        context = ckpt.bind(app, library, app.config)
        assert context == checkpoint_context_key(app, library, app.config)
        ckpt.close()
        # Same triple binds again; a different app does not.
        again = SweepCheckpoint(str(tmp_path / "ck"))
        assert again.bind(app, library, app.config) == context
        with pytest.raises(CheckpointMismatch):
            again.bind(app_by_name("trick"), library, None)
        again.close()

    def test_resume_is_bit_identical_with_cache_hits(self, tmp_path, app,
                                                     serial_fp):
        directory = str(tmp_path / "ck")
        library = cmos6_library()
        with SweepCheckpoint(directory) as ckpt:
            ckpt.bind(app, library, app.config)
            with ExplorationEngine(cache=ckpt.cache) as engine:
                engine.explore(app)
        # "New process": fresh checkpoint, fresh engine, zero evaluations.
        tracer = Tracer("resume")
        with SweepCheckpoint(directory) as ckpt:
            ckpt.bind(app, library, app.config)
            with ExplorationEngine(cache=ckpt.cache,
                                   tracer=tracer) as engine:
                report = engine.explore(app)
        assert _decision_fp(report.decision) == serial_fp
        assert tracer.counters["explore.cache.hits"] \
            == report.decision.examined
        assert "explore.evaluated" not in tracer.counters

    def test_partial_checkpoint_resumes_the_remainder(self, tmp_path, app,
                                                      serial_fp):
        """A sweep killed mid-run resumes from the journaled prefix."""
        directory = str(tmp_path / "ck")
        library = cmos6_library()
        with SweepCheckpoint(directory) as ckpt:
            ckpt.bind(app, library, app.config)
            with ExplorationEngine(cache=ckpt.cache) as engine:
                engine.explore(app)
        # Simulate death after the second journal record: keep a prefix.
        journal = os.path.join(directory, "cache.journal")
        assert scan_journal(journal)["records"] >= 3
        with open(journal, "r+b") as fh:
            fh.seek(len(JOURNAL_MAGIC))
            for _ in range(2):
                length, _digest = RECORD_HEADER.unpack(
                    fh.read(RECORD_HEADER.size))
                fh.seek(length, os.SEEK_CUR)
            fh.truncate(fh.tell())
        tracer = Tracer("partial-resume")
        with SweepCheckpoint(directory) as ckpt:
            ckpt.bind(app, library, app.config)
            with ExplorationEngine(cache=ckpt.cache,
                                   tracer=tracer) as engine:
                report = engine.explore(app)
        assert _decision_fp(report.decision) == serial_fp
        assert tracer.counters["explore.cache.hits"] == 2
        assert tracer.counters["explore.cache.misses"] \
            == report.decision.examined - 2


    def test_unreadable_record_is_recomputed_on_resume(self, tmp_path,
                                                       app, serial_fp):
        directory = str(tmp_path / "ck")
        library = cmos6_library()
        with SweepCheckpoint(directory) as ckpt:
            ckpt.bind(app, library, app.config)
            with ExplorationEngine(cache=ckpt.cache) as engine:
                engine.explore(app)
        journal = os.path.join(directory, "cache.journal")
        records = scan_journal(journal)["records"]
        assert records >= 3
        _replace_record(journal, 1, UNREADABLE_BODY)
        tracer = Tracer("skip-resume")
        with SweepCheckpoint(directory) as ckpt, use_tracer(tracer):
            ckpt.bind(app, library, app.config)
            with ExplorationEngine(cache=ckpt.cache,
                                   tracer=tracer) as engine:
                report = engine.explore(app)
        assert _decision_fp(report.decision) == serial_fp
        assert tracer.counters["explore.checkpoint.skipped"] == 1
        # every record behind the unreadable one still replays
        assert tracer.counters["explore.checkpoint.loaded"] == records - 1
        assert tracer.counters["explore.cache.misses"] == 1
        assert scan_journal(journal)["records"] == records


# ---------------------------------------------------------------------------
# verify_checkpoint
# ---------------------------------------------------------------------------

class TestVerifyCheckpoint:
    @pytest.fixture()
    def bound_checkpoint(self, tmp_path, app):
        directory = str(tmp_path / "ck")
        library = cmos6_library()
        with SweepCheckpoint(directory) as ckpt:
            ckpt.bind(app, library, app.config)
            ckpt.cache.put("k", 1)
        return directory, checkpoint_context_key(app, library, app.config)

    def test_intact_checkpoint_passes(self, bound_checkpoint):
        directory, context = bound_checkpoint
        report = verify_checkpoint(directory, expected_context=context)
        assert not report.has_errors
        assert any(f.severity is Severity.INFO for f in report.findings)

    def test_missing_directory_is_an_error(self, tmp_path):
        report = verify_checkpoint(str(tmp_path / "absent"))
        assert report.has_errors

    def test_missing_metadata_is_an_error(self, bound_checkpoint):
        directory, _context = bound_checkpoint
        os.remove(os.path.join(directory, "checkpoint.json"))
        assert verify_checkpoint(directory).has_errors

    def test_context_mismatch_is_an_error(self, bound_checkpoint):
        directory, _context = bound_checkpoint
        report = verify_checkpoint(directory, expected_context="other")
        assert report.has_errors
        assert any("another workload" in f.message for f in report.findings)

    def test_corrupt_tail_is_a_warning_not_error(self, bound_checkpoint):
        directory, context = bound_checkpoint
        with open(os.path.join(directory, "cache.journal"), "ab") as fh:
            fh.write(b"\xba\xad")
        report = verify_checkpoint(directory, expected_context=context)
        assert not report.has_errors
        assert any(f.severity is Severity.WARNING for f in report.findings)

    def test_unreadable_record_is_a_warning_not_error(self,
                                                      bound_checkpoint):
        directory, context = bound_checkpoint
        with open(os.path.join(directory, "cache.journal"), "ab") as fh:
            fh.write(RECORD_HEADER.pack(len(UNREADABLE_BODY),
                                        record_digest(UNREADABLE_BODY)))
            fh.write(UNREADABLE_BODY)
        report = verify_checkpoint(directory, expected_context=context)
        assert not report.has_errors
        assert [f.severity for f in report.findings] == [Severity.WARNING]
        assert "1 journaled record(s) cannot be read" \
            in report.findings[0].message

    def test_missing_journal_is_an_error(self, bound_checkpoint):
        directory, _context = bound_checkpoint
        os.remove(os.path.join(directory, "cache.journal"))
        assert verify_checkpoint(directory).has_errors

    def test_headerless_journal_is_an_error(self, bound_checkpoint):
        directory, _context = bound_checkpoint
        with open(os.path.join(directory, "cache.journal"), "wb") as fh:
            fh.write(b"garbage")
        assert verify_checkpoint(directory).has_errors

    def test_v1_journal_is_an_error_naming_its_version(self,
                                                       bound_checkpoint):
        directory, context = bound_checkpoint
        path = os.path.join(directory, "cache.journal")
        _rewrite_magic(path, V1_MAGIC)
        before = open(path, "rb").read()
        assert scan_journal(path)["ok"] is False
        report = verify_checkpoint(directory, expected_context=context)
        assert report.has_errors
        assert any("REPRO-EVALCACHE v1 journal" in f.message
                   and "REPRO-EVALCACHE v2" in f.message
                   for f in report.errors)
        assert open(path, "rb").read() == before  # the audit is read-only


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestExploreCLI:
    def test_checkpoint_then_resume(self, capsys, tmp_path):
        directory = str(tmp_path / "ck")
        assert main(["explore", "ckey", "--checkpoint", directory]) == 0
        capsys.readouterr()
        assert main(["explore", "ckey", "--checkpoint", directory,
                     "--resume"]) == 0
        out = capsys.readouterr().out
        assert "checkpoint intact" in out
        assert "explore.cache.hits" in out

    def test_fresh_checkpoint_discards_stale_state(self, capsys, tmp_path):
        directory = tmp_path / "ck"
        directory.mkdir()
        (directory / "checkpoint.json").write_text('{"app": "other"}')
        (directory / "cache.journal").write_bytes(b"stale")
        assert main(["explore", "ckey", "--checkpoint",
                     str(directory)]) == 0
        import json
        meta = json.loads((directory / "checkpoint.json").read_text())
        assert meta["app"] == "ckey"

    def test_resume_refuses_a_v1_journal(self, capsys, tmp_path):
        directory = tmp_path / "ck"
        assert main(["explore", "ckey", "--checkpoint",
                     str(directory)]) == 0
        capsys.readouterr()
        _rewrite_magic(str(directory / "cache.journal"), V1_MAGIC)
        assert main(["explore", "ckey", "--checkpoint", str(directory),
                     "--resume"]) == 1
        captured = capsys.readouterr()
        assert "REPRO-EVALCACHE v1 journal" in captured.out
        assert "cannot resume" in captured.err

    def test_resume_requires_checkpoint(self, capsys):
        assert main(["explore", "ckey", "--resume"]) == 1
        assert "--resume requires" in capsys.readouterr().err

    def test_resume_refuses_wrong_app(self, capsys, tmp_path):
        directory = str(tmp_path / "ck")
        assert main(["explore", "ckey", "--checkpoint", directory]) == 0
        capsys.readouterr()
        assert main(["explore", "trick", "--checkpoint", directory,
                     "--resume"]) == 1
        assert "cannot resume" in capsys.readouterr().err

    def test_bad_inject_fault_spec(self, capsys):
        assert main(["explore", "ckey", "--inject-fault", "nuke@0"]) == 1
        assert "bad --inject-fault" in capsys.readouterr().err


@pytest.mark.slow
def test_cli_acceptance_faulted_parallel_subprocess(tmp_path):
    """The issue's acceptance scenario end to end: injected kill + hang,
    ``--jobs 4 --timeout 5 --retries 2``, checkpointed, then resumed —
    both runs exit 0 and the resume replays everything as cache hits."""
    directory = str(tmp_path / "ck")
    src_dir = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src_dir), env.get("PYTHONPATH")) if p)
    base = [sys.executable, "-m", "repro", "explore", "ckey",
            "--checkpoint", directory]
    first = subprocess.run(
        base + ["--jobs", "4", "--timeout", "5", "--retries", "2",
                "--inject-fault", "kill@0", "--inject-fault", "hang@2"],
        capture_output=True, text=True, timeout=300, env=env)
    assert first.returncode == 0, first.stderr
    assert "explore.pool.rebuilds" in first.stdout
    resume = subprocess.run(
        base + ["--resume"],
        capture_output=True, text=True, timeout=300, env=env)
    assert resume.returncode == 0, resume.stderr
    assert "checkpoint intact" in resume.stdout
    assert "explore.cache.hits" in resume.stdout
    assert "explore.evaluated" not in resume.stdout
