"""Scored cells split over forked workers, against the same run in one process."""

import json
import logging
import os
import pickle
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from controversy_scope import cli, ingest, pipeline
from controversy_scope.ingest import TimeWindow, serialize_records
from controversy_scope.pipeline import PipelineConfig, emit_report, run_pipeline
from controversy_scope.synth import CommunitySpec, CorpusSpec, synth_corpus

W1 = TimeWindow(1_600_000_000, 1_602_592_000, "2020-09")
W2 = TimeWindow(W1.start, W1.end, "2020-09b")  # the same rows, other cell seeds
QUERIES = ("vaxx", "mask", "ghost")
# the sized cells in cell order: two windows of vaxx and mask; ghost is a dash
CHECKED = ["mc-check vaxx 2020-09", "mc-check mask 2020-09",
           "mc-check vaxx 2020-09b", "mc-check mask 2020-09b"]


@pytest.fixture(scope="module")
def records():
    return synth_corpus(CorpusSpec(
        communities=(CommunitySpec(150, ("vaxx",), 0.5), CommunitySpec(150, ("vaxx",), -0.5),
                     CommunitySpec(200, ("mask",))),
        cross_repost_rate=0.02, background_cross_rate=0.5, window=W1, seed=5))


def config(tmp_path, **overrides):
    return PipelineConfig(**{"windows": (W1, W2), "queries": QUERIES, "min_nodes": 150,
                             "seed": 3, "mc_check": True,
                             "dump_graphs_dir": str(tmp_path / "dumps"), **overrides})


@pytest.fixture
def forks(monkeypatch):
    """Record the pid of every worker forked."""
    pids = []
    fork = os.fork

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    return pids


def processes(monkeypatch, count):
    monkeypatch.setattr(ingest, "_usable_cpus", lambda: count)


def outputs(cfg, records, caplog):
    """Every report format, every edge dump and the mc-check lines of one run."""
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="controversy_scope"):
        reports = run_pipeline(cfg, records=records)
    dumps = {p.name: p.read_bytes() for p in sorted(Path(cfg.dump_graphs_dir).iterdir())}
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("mc-check ")]
    return [emit_report(reports, fmt) for fmt in ("csv", "json", "markdown")], dumps, lines


def reaped(pid):
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def test_one_two_and_three_processes_give_the_same_bytes(tmp_path, records, monkeypatch,
                                                         forks, caplog):
    runs = []
    for count in (1, 2, 3):
        processes(monkeypatch, count)
        runs.append(outputs(config(tmp_path / str(count)), records, caplog))
        assert len(forks) == count - 1 and all(map(reaped, forks))
        forks.clear()
    assert runs[0] == runs[1] == runs[2]
    _, dumps, lines = runs[0]
    assert sorted(dumps) == ["mask_2020-09.edges", "mask_2020-09b.edges",
                             "vaxx_2020-09.edges", "vaxx_2020-09b.edges"]
    # each checked cell's line once, in cell order, whichever process scored it
    assert [line.split(":")[0] for line in lines] == CHECKED


def test_no_worker_off_linux_or_for_one_sized_cell(tmp_path, records, monkeypatch, forks,
                                                   caplog):
    processes(monkeypatch, 3)
    one = outputs(config(tmp_path / "one", queries=("vaxx", "ghost"), windows=(W1,)),
                  records, caplog)
    assert forks == [] and [line.split(":")[0] for line in one[2]] == CHECKED[:1]
    with monkeypatch.context() as patched:
        patched.setattr(sys, "platform", "darwin")
        elsewhere = outputs(config(tmp_path / "darwin"), records, caplog)
    processes(monkeypatch, 1)
    assert forks == [] and elsewhere == outputs(config(tmp_path / "here"), records, caplog)


def test_a_share_is_scored_longest_first_by_node_count():
    cells = [SimpleNamespace(graph=SimpleNamespace(node_count=n)) for n in (5, 9, 3, 7)]
    assert pipeline._shares(cells, 1) == [[0, 1, 2, 3]]
    # 9 and 7 open the two shares, 5 joins the lighter (7), 3 the lighter (9)
    assert pipeline._shares(cells, 2) == [[1, 2], [0, 3]]
    assert pipeline._shares(cells, 4) == [[1], [3], [0], [2]]


def truncated_payload(monkeypatch, parent):
    monkeypatch.setattr(pickle, "dump", lambda obj, fh: fh.write(pickle.dumps(obj)[:-9]))


def exits_non_zero(monkeypatch, parent):
    bisect = pipeline.bisect

    def failing(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(3)
        return bisect(*args, **kwargs)

    monkeypatch.setattr(pipeline, "bisect", failing)


def sends_too_few_rows(monkeypatch, parent):
    dump = pickle.dump
    monkeypatch.setattr(pickle, "dump", lambda obj, fh: dump(obj[:-1], fh))


@pytest.mark.parametrize("failure", [exits_non_zero, truncated_payload, sends_too_few_rows])
def test_a_failed_worker_has_its_cells_scored_here(tmp_path, records, monkeypatch, forks,
                                                  caplog, failure):
    processes(monkeypatch, 1)
    want = outputs(config(tmp_path / "want"), records, caplog)
    processes(monkeypatch, 3)
    failure(monkeypatch, os.getpid())
    assert outputs(config(tmp_path / "got"), records, caplog) == want
    assert len(forks) == 2 and all(map(reaped, forks))


def test_a_worker_that_cannot_start_has_its_share_scored_here(tmp_path, records, monkeypatch,
                                                              caplog):
    processes(monkeypatch, 1)
    want = outputs(config(tmp_path / "want"), records, caplog)

    def no_process():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    processes(monkeypatch, 3)
    monkeypatch.setattr(os, "fork", no_process)
    assert outputs(config(tmp_path / "got"), records, caplog) == want


class Interrupted(BaseException):
    """Raised in the calling process's own share, past every per-cell handler."""


def test_no_worker_outlives_a_failure_in_the_calling_process(tmp_path, records, monkeypatch,
                                                             forks):
    parent = os.getpid()

    def stuck(*args, **kwargs):
        if os.getpid() == parent:
            raise Interrupted
        time.sleep(60)  # a worker still scoring when the calling process fails
        os._exit(0)

    processes(monkeypatch, 3)
    monkeypatch.setattr(pipeline, "bisect", stuck)
    start = time.monotonic()
    with pytest.raises(Interrupted):
        run_pipeline(config(tmp_path), records=records)
    assert len(forks) == 2 and all(map(reaped, forks))
    assert time.monotonic() - start < 30


def test_cli_prints_a_stdout_report_once(tmp_path, records, monkeypatch):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(serialize_records(records), encoding="utf-8")
    cfg_path = tmp_path / "config.json"
    windows = [f"{W1.start}..{W1.end}", f"{W1.start}..{W1.end + 1}"]
    cfg_path.write_text(json.dumps({"input": str(corpus), "queries": list(QUERIES),
                                    "windows": windows, "min_nodes": 150, "seed": 3}),
                        encoding="utf-8")
    processes(monkeypatch, 1)
    want = emit_report(run_pipeline(pipeline.load_config(str(cfg_path))))
    # the text waits in the stdout buffer when the workers fork; a worker that
    # flushed that buffer on its way out would print it, or the report, twice
    code = ("import os, sys\n"
            "from controversy_scope import cli, ingest\n"
            "ingest._usable_cpus = lambda: 3\n"
            "fork, pids = os.fork, []\n"
            "os.fork = lambda: pids.append(fork()) or pids[-1]\n"
            "sys.stdout.write('before\\n')\n"
            "code = cli.main(['run', '--config', sys.argv[1]])\n"
            "print(len(pids), file=sys.stderr)\n"
            "sys.exit(code)\n")
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    result = subprocess.run([sys.executable, "-c", code, str(cfg_path)], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stderr == "2\n"
    assert result.stdout == "before\n" + want


def test_a_dump_that_cannot_be_written_exits_2_before_any_fork(tmp_path, records, monkeypatch,
                                                               forks, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(serialize_records(records), encoding="utf-8")
    report = tmp_path / "report.csv"
    replace = os.replace

    def dump_denied(src, dst):
        if str(dst).endswith(".edges"):
            raise PermissionError(13, "Permission denied")
        replace(src, dst)

    processes(monkeypatch, 3)
    monkeypatch.setattr(os, "replace", dump_denied)
    argv = ["rq1", "--input", str(corpus), "--window", f"{W1.start}..{W1.end}",
            "--queries", "vaxx,mask", "--min-nodes", "150", "--dump-graphs",
            str(tmp_path / "dumps"), "--output", str(report)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and err.count("\n") == 1
    assert "PermissionError" in err
    assert forks == [] and not report.exists()
