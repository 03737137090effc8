"""CLI tests (``python -m repro ...``)."""

import pytest

from repro.cli import main


def test_apps_lists_all_six(capsys):
    assert main(["apps"]) == 0
    out = capsys.readouterr().out
    for name in ("3d", "MPG", "ckey", "digs", "engine", "trick"):
        assert name in out


def test_run_prints_table_and_succeeds(capsys):
    assert main(["run", "ckey"]) == 0
    out = capsys.readouterr().out
    assert "|I |" in out and "|P |" in out
    assert "functional match: True" in out


def test_run_with_optimizer(capsys):
    assert main(["run", "ckey", "--optimize"]) == 0
    out = capsys.readouterr().out
    assert "saved" in out


def test_clusters_command(capsys):
    assert main(["clusters", "digs"]) == 0
    out = capsys.readouterr().out
    assert "pre-selected" in out
    assert "smooth_engine/loop@for1" in out
    assert "E_trans" in out


def test_disasm_whole_image(capsys):
    assert main(["disasm", "engine"]) == 0
    out = capsys.readouterr().out
    assert "ret" in out
    assert "[main:" in out


def test_disasm_single_function(capsys):
    assert main(["disasm", "engine", "--function", "interp3"]) == 0
    out = capsys.readouterr().out
    assert "[interp3:" in out
    assert "[main:" not in out


def test_multicore_command(capsys):
    assert main(["multicore", "ckey", "--max-cores", "2"]) == 0
    out = capsys.readouterr().out
    assert "ASIC core(s)" in out
    assert "total savings" in out


def test_unknown_app_rejected():
    with pytest.raises(SystemExit):
        main(["run", "doom"])


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_no_command_rejected():
    with pytest.raises(SystemExit):
        main([])


def test_cachesweep_ranks_geometries(capsys):
    assert main(["cachesweep", "digs", "--top", "3"]) == 0
    out = capsys.readouterr().out
    assert "trace events" in out
    assert "engine=auto" in out
    assert "mem E (nJ)" in out
    # 3 geometry rows below the two header lines
    assert sum(1 for line in out.splitlines() if line.startswith("i")) == 3


def test_cachesweep_engines_print_identical_rankings(capsys):
    assert main(["cachesweep", "digs", "--engine", "batch"]) == 0
    batch_out = capsys.readouterr().out
    assert main(["cachesweep", "digs", "--engine", "reference"]) == 0
    reference_out = capsys.readouterr().out
    strip = lambda text: [line for line in text.splitlines()
                          if not line.startswith(("digs", "geometry"))]
    assert strip(batch_out) == strip(reference_out)


def test_cachesweep_trace_splits_the_replay_from_the_iss_run(tmp_path,
                                                             capsys):
    from repro.obs import load_trace

    path = tmp_path / "cachesweep.json"
    assert main(["cachesweep", "digs", "--top", "1",
                 "--trace", str(path)]) == 0
    trace = load_trace(str(path))
    (sweep,) = trace["root"]["children"]
    assert sweep["name"] == "cachesweep"
    # The link, the ISS run (block compile, one execution, then its
    # pricing) and the replay.
    assert [span["name"] for span in sweep["children"]] == [
        "isa.link", "isa.compile", "isa.execute", "isa.price", "mem.replay"]
    # One pass over the 281,851-event trace feeds all 12 distinct caches
    # of the 18-pair default space.
    counters = trace["counters"]
    assert counters["isa.executions"] == 1
    assert counters["mem.batch.replays"] == 1
    assert counters["mem.batch.caches"] == 12
    assert counters["mem.batch.events"] == 281_851


def test_cachesweep_without_memory_system_fails_cleanly(capsys):
    # ckey models no caches (model_caches=False): no trace to sweep.
    assert main(["cachesweep", "ckey"]) == 1
    err = capsys.readouterr().err
    assert "model_caches" in err


def test_cachesweep_rejects_bad_engine():
    with pytest.raises(SystemExit):
        main(["cachesweep", "ckey", "--engine", "warp"])
