"""Request validation, digests and the verify-gated evaluation kernel.

The central contract under test: a :class:`PartitionRequest` evaluated
through :class:`ServiceCore` is *bit-identical* to the same workload run
through the ``repro run`` CLI path — same summary text, same numbers —
and a result whose invariant audit has ERROR findings is refused, never
served.
"""

import pytest

from repro.cli import main
from repro.core.explore import EvaluationCache
from repro.obs import Tracer
from repro.service import (
    PartitionRequest,
    RequestError,
    ServiceCore,
    VerificationRejected,
)
from repro.verify import VerificationReport
from repro.verify.findings import Finding, Severity
from tests.conftest import DOT_SOURCE


# ---------------------------------------------------------------------------
# Request validation
# ---------------------------------------------------------------------------

class TestRequestValidation:
    def test_bundled_app_round_trips(self):
        request = PartitionRequest.from_dict(
            {"app": "ckey", "scale": 2, "optimize": True})
        assert request.app == "ckey"
        assert request.scale == 2
        assert request.optimize is True
        again = PartitionRequest.from_dict(request.to_dict())
        assert again == request

    def test_source_round_trips(self):
        request = PartitionRequest.from_dict(
            {"source": DOT_SOURCE, "name": "dot",
             "globals": {"out": [0] * 8}})
        assert request.app is None
        assert request.name == "dot"
        assert PartitionRequest.from_dict(request.to_dict()) == request

    @pytest.mark.parametrize("payload, field", [
        ({}, "source"),
        ({"app": "ckey", "source": "x"}, "app"),
        ({"app": "no-such-app"}, "app"),
        ({"source": "   "}, "source"),
        ({"app": "ckey", "name": "x"}, "name"),
        ({"app": "ckey", "args": [1]}, "args"),
        ({"app": "ckey", "globals": {}}, "globals"),
        ({"app": "ckey", "scale": 0}, "scale"),
        ({"app": "ckey", "scale": True}, "scale"),
        ({"app": "ckey", "optimize": 1}, "optimize"),
        ({"app": "ckey", "tech": "nm-nonsense"}, "tech"),
        ({"app": "ckey", "client": ""}, "client"),
        ({"app": "ckey", "schema": "wrong"}, "schema"),
        ({"app": "ckey", "version": 999}, "version"),
        ({"app": "ckey", "bogus": 1}, "bogus"),
        ({"source": DOT_SOURCE, "args": ["one"]}, "args"),
    ])
    def test_rejections_name_the_field(self, payload, field):
        with pytest.raises(RequestError) as excinfo:
            PartitionRequest.from_dict(payload)
        assert excinfo.value.field == field

    def test_non_object_body_rejected(self):
        with pytest.raises(RequestError):
            PartitionRequest.from_dict([1, 2, 3])

    def test_default_tech_applies_only_when_omitted(self):
        request = PartitionRequest.from_dict(
            {"app": "ckey"}, default_tech="cmos6-45nm")
        assert request.tech == "cmos6-45nm"
        explicit = PartitionRequest.from_dict(
            {"app": "ckey", "tech": "cmos6-800nm"},
            default_tech="cmos6-45nm")
        assert explicit.tech == "cmos6-800nm"


# ---------------------------------------------------------------------------
# Digests (the coalescing key)
# ---------------------------------------------------------------------------

class TestDigests:
    def test_semantically_equal_requests_share_a_digest(self):
        one = PartitionRequest.from_dict({"app": "ckey"})
        two = PartitionRequest.from_dict(
            {"app": "ckey", "scale": 1, "optimize": False,
             "client": "somebody-else"})
        # client identity is an admission concern, not workload content
        assert one.digest() == two.digest()

    @pytest.mark.parametrize("payload", [
        {"app": "ckey", "scale": 2},
        {"app": "ckey", "optimize": True},
        {"app": "ckey", "tech": "cmos6-45nm"},
        {"app": "digs"},
    ])
    def test_different_workloads_differ(self, payload):
        base = PartitionRequest.from_dict({"app": "ckey"})
        assert PartitionRequest.from_dict(payload).digest() != base.digest()


# ---------------------------------------------------------------------------
# The kernel: CLI bit-identity and the verify gate
# ---------------------------------------------------------------------------

class TestServiceCore:
    def test_result_is_bit_identical_to_cli_run(self, capsys):
        assert main(["run", "ckey"]) == 0
        cli_stdout = capsys.readouterr().out
        with ServiceCore() as core:
            result = core.evaluate(
                PartitionRequest.from_dict({"app": "ckey"}))
        data = result.to_dict()
        assert data["summary"] + "\n" == cli_stdout
        assert data["verified"] is True
        assert data["accepted"] is True

    def test_engines_share_cache_across_tech_nodes(self):
        cache = EvaluationCache()
        tracer = Tracer("core")
        with ServiceCore(cache=cache, tracer=tracer) as core:
            core.evaluate(PartitionRequest.from_dict({"app": "ckey"}))
            entries_one_node = cache.stats()["entries"]
            core.evaluate(PartitionRequest.from_dict(
                {"app": "ckey", "tech": "cmos6-45nm"}))
        stats = cache.stats()
        # distinct node => distinct library digest => no key aliasing
        assert stats["entries"] == 2 * entries_one_node
        assert tracer.counters["service.evaluations"] == 2

    def test_verify_gate_refuses_error_findings(self, monkeypatch):
        import dataclasses

        from repro.core.explore import ExplorationEngine

        real_run_flow = ExplorationEngine.run_flow

        def poisoned_run_flow(self, app):
            result = real_run_flow(self, app)
            report = VerificationReport(label="poisoned")
            report.add(Finding(
                check="test.poison", severity=Severity.ERROR,
                layer="core", message="deliberately broken invariant"))
            return dataclasses.replace(result, verification=report)

        monkeypatch.setattr(ExplorationEngine, "run_flow",
                            poisoned_run_flow)
        tracer = Tracer("gate")
        with ServiceCore(tracer=tracer) as core:
            with pytest.raises(VerificationRejected) as excinfo:
                core.evaluate(PartitionRequest.from_dict({"app": "ckey"}))
        assert "verify gate" in str(excinfo.value)
        assert tracer.counters["service.verify.rejected"] == 1

    def test_verify_gate_refuses_missing_report(self, monkeypatch):
        import dataclasses

        from repro.core.explore import ExplorationEngine

        real_run_flow = ExplorationEngine.run_flow

        def stripped_run_flow(self, app):
            result = real_run_flow(self, app)
            return dataclasses.replace(result, verification=None)

        monkeypatch.setattr(ExplorationEngine, "run_flow",
                            stripped_run_flow)
        with ServiceCore() as core:
            with pytest.raises(VerificationRejected):
                core.evaluate(PartitionRequest.from_dict({"app": "ckey"}))


OOB_SOURCE = """
global G: int[8];

func main() -> int {
    var i: int = 9;
    return G[i];
}
"""


class TestSourceValidation:
    """Untrusted ``source`` workloads keep the interpreter's checks.

    The flow profiles on the ISS, which reads past an array without
    noticing; a ``source`` job must still fail with the interpreter's
    message, as it did when the flow profiled on the interpreter.
    """

    @pytest.mark.parametrize("payload, error", [
        ({"globals": {"G": [0] * 8}},
         "InterpError: load index 9 out of range for 'G'[8] in main"),
        ({"globals": {"G": [0] * 8}, "args": [1]},
         "InterpError: entry 'main' expects 0 args, got 1"),
        ({"globals": {"G": [1, 2]}},
         "ValueError: global 'G' has 8 elements, got 2"),
    ], ids=["out-of-range-index", "wrong-arity", "mis-sized-global"])
    def test_bad_source_job_fails_with_interpreter_message(self, payload,
                                                           error):
        import asyncio

        from repro.service import JobManager
        from tests.service.test_jobs import drain_until_finished

        request = PartitionRequest.from_dict(
            dict(payload, source=OOB_SOURCE, name="oob"))
        manager = JobManager(ServiceCore())

        async def scenario():
            job, _ = manager.submit(request)
            await drain_until_finished(manager, job, timeout_s=60)
            await manager.close()
            return job

        job = asyncio.run(scenario())
        assert job.state == "failed"
        assert job.error == error

    def test_source_is_interpreted_once_across_nodes(self, monkeypatch):
        import repro.service.core as service_core
        from repro.lang import Interpreter

        runs = []

        class Counting(Interpreter):
            def run(self, *args):
                runs.append(args)
                return super().run(*args)

        monkeypatch.setattr(service_core, "Interpreter", Counting)
        tracer = Tracer("validate")
        with ServiceCore(tracer=tracer) as core, \
                ServiceCore(cache=core.cache, fronts=core.fronts,
                            tracer=tracer) as other:
            for kernel, tech in ((core, "cmos6-800nm"),
                                 (core, "cmos6-45nm"),
                                 (other, "cmos6-16nm")):
                kernel.evaluate(PartitionRequest.from_dict(
                    {"source": DOT_SOURCE, "name": "dot",
                     "globals": {"out": [0] * 8}, "tech": tech}))
        assert len(runs) == 1
        assert tracer.counters["isa.executions"] == 1

    def test_bad_source_is_rejected_at_every_node(self):
        from repro.lang.interp import InterpError

        with ServiceCore() as core:
            for tech in ("cmos6-800nm", "cmos6-45nm"):
                with pytest.raises(InterpError, match="out of range"):
                    core.evaluate(PartitionRequest.from_dict(
                        {"source": OOB_SOURCE, "name": "oob",
                         "globals": {"G": [0] * 8}, "tech": tech}))
            assert core.evaluations == 0

    def test_bundled_apps_skip_the_interpreter(self, monkeypatch):
        import repro.service.core as service_core

        class Refuse:
            def __init__(self, *_args, **_kwargs):
                raise AssertionError("bundled apps must not be "
                                     "interpreted")

        monkeypatch.setattr(service_core, "Interpreter", Refuse)
        with ServiceCore() as core:
            result = core.evaluate(
                PartitionRequest.from_dict({"app": "ckey"}))
        assert result.to_dict()["verified"] is True
