import gc
import json
import logging
import math
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace

import pytest

from controversy_scope import cli, pipeline
from controversy_scope.graph import dump_edgelist
from controversy_scope.ingest import Corpus, TimeWindow, parse_window, serialize_records
from controversy_scope.pipeline import (
    ConfigError,
    ControversyReport,
    PipelineConfig,
    UnsupportedFormat,
    cell_seed,
    config_from_dict,
    emit_report,
    load_config,
    parse_report_csv,
    run_pipeline,
    write_output,
)
from controversy_scope.rwc import _SHARD_WALKS, RwcResult
from controversy_scope.synth import (
    CommunitySpec,
    CorpusSpec,
    PlantedSpec,
    planted_partition,
    synth_corpus,
)

WINDOW = TimeWindow(1_600_000_000, 1_602_592_000, "2020-09")


def small_corpus(seed=0):
    spec = CorpusSpec(
        communities=(
            CommunitySpec(150, ("vaxx",), 0.5),
            CommunitySpec(150, ("vaxx",), -0.5),
        ),
        cross_repost_rate=0.02,
        background_cross_rate=0.5,
        window=WINDOW,
        seed=seed,
    )
    return synth_corpus(spec)


def small_config(**overrides):
    defaults = dict(windows=(WINDOW,), min_nodes=150, seed=3)
    defaults.update(overrides)
    return PipelineConfig(**defaults)


def test_empty_corpus_yields_empty_reports():
    assert run_pipeline(small_config(), records=[]) == []


def test_rq1_mode_one_row_per_query_window():
    records = small_corpus(seed=1)
    w2 = TimeWindow(WINDOW.end, WINDOW.end + 86400, "2020-10")
    cfg = small_config(windows=(WINDOW, w2), queries=("vaxx", "ghost"))
    reports = run_pipeline(cfg, records=records)
    assert [(r.window, r.subtopic) for r in reports] == [
        ("2020-09", "vaxx"), ("2020-09", "ghost"),
        ("2020-10", "vaxx"), ("2020-10", "ghost"),
    ]
    by_key = {(r.window, r.subtopic): r for r in reports}
    assert not by_key[("2020-09", "vaxx")].undersized
    assert by_key[("2020-09", "ghost")].undersized
    assert by_key[("2020-09", "ghost")].node_count == 0
    assert by_key[("2020-10", "vaxx")].undersized  # empty window
    assert all(r.rwc is None for r in reports if r.undersized)


def test_the_corpus_keeps_no_link_csrs_of_a_window_holding_every_row():
    corpus = Corpus.from_records(small_corpus(seed=1))
    assert corpus.within(WINDOW) is corpus
    run_pipeline(small_config(queries=("vaxx",)), records=corpus)
    assert "_links" not in vars(corpus)  # they went with the window's corpus


def test_phase1_discovers_planted_token_and_matches_rq1_score():
    records = small_corpus(seed=2)
    phase1 = run_pipeline(small_config(top_n=10), records=records)
    tokens = [r.subtopic for r in phase1]
    assert "vaxx" in tokens and "covid" in tokens
    rq1 = run_pipeline(small_config(queries=("vaxx",)), records=records)
    phase1_vaxx = next(r for r in phase1 if r.subtopic == "vaxx")
    assert rq1[0].rwc == phase1_vaxx.rwc
    assert rq1[0].record_count == phase1_vaxx.record_count


def test_pipeline_deterministic():
    records = small_corpus(seed=3)
    cfg = small_config(top_n=5)
    first = run_pipeline(cfg, records=records)
    second = run_pipeline(cfg, records=records)
    assert emit_report(first, "json") == emit_report(second, "json")


def test_sentiment_attached_when_lexicon_given(tmp_path):
    lex = tmp_path / "lex.tsv"
    lex.write_text("good\t1.0\nbad\t-1.0\n", encoding="utf-8")
    records = small_corpus(seed=4)
    cfg = small_config(queries=("vaxx",), lexicon_path=str(lex))
    report = run_pipeline(cfg, records=records)[0]
    assert report.sentiment_mean is not None
    assert report.sentiment_std is not None
    assert report.sentiment_matched > 0
    # two opposed camps: mean near zero, spread near one
    assert abs(report.sentiment_mean) < 0.3
    assert report.sentiment_std > 0.7


def test_cell_seed_stable():
    assert cell_seed(1, "2020-09", "vaxx") == cell_seed(1, "2020-09", "vaxx")
    assert cell_seed(1, "2020-09", "vaxx") != cell_seed(2, "2020-09", "vaxx")
    assert cell_seed(1, "2020-09", "vaxx") != cell_seed(1, "2020-09", "covid")


def _fixture_reports():
    def row(subtopic, window, score, nodes=1000):
        rwc = None
        undersized = score is None
        if score is not None:
            t = (1.0 + score) / 2.0
            rwc = RwcResult(t, 1.0 - t, t, 1.0 - t, score)
        return ControversyReport(
            subtopic, window, record_count=5 * nodes,
            node_count=nodes if score is not None else 12,
            undersized=undersized, rwc=rwc,
            sentiment_mean=-0.25, sentiment_std=0.4, sentiment_matched=321,
        )

    return [
        row("alpha", "w1", 0.84), row("alpha", "w2", None),
        row("beta", "w1", 0.12), row("beta", "w2", -0.31),
    ]


def test_csv_round_trip_identity():
    reports = _fixture_reports()
    assert {r.undersized for r in reports} == {False, True}  # both 0 and 1 round-trip
    text = emit_report(reports, "csv")
    assert parse_report_csv(text) == reports


@pytest.mark.parametrize("label", ["c\rd", "\r", "a\r"])
def test_csv_round_trips_a_label_with_a_carriage_return(label):
    reports = [replace(r, subtopic=label, window=label) for r in _fixture_reports()]
    assert parse_report_csv(emit_report(reports, "csv")) == reports


@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines[:2] + [lines[2].rsplit(",", 3)[0]] + lines[3:],
     "row 3 has 14 cells, expected 17"),
    (lambda lines: lines[:1] + [lines[1] + ",extra"] + lines[2:], "row 2 has 18 cells"),
    (lambda lines: lines[:4] + [lines[4].replace(",5000,", ",many,", 1)],
     "row 5: invalid literal for int"),
    (lambda lines: lines[:2] + [lines[2].replace(",-0.25,", ",low,", 1)] + lines[3:],
     "row 3: could not convert string to float"),
    (lambda lines: lines[:2] + [lines[2].replace(",12,1,", ",12,yes,", 1)] + lines[3:],
     "row 3: undersized is 'yes', not 0 or 1"),
    (lambda lines: [], "unexpected CSV header: None"),
])
def test_parse_report_csv_names_the_malformed_row(edit, message):
    lines = emit_report(_fixture_reports(), "csv").splitlines()
    with pytest.raises(UnsupportedFormat, match=message):
        parse_report_csv("".join(line + "\n" for line in edit(lines)))


def test_json_output_shape():
    rows = json.loads(emit_report(_fixture_reports(), "json"))
    assert [r["subtopic"] for r in rows] == ["alpha", "alpha", "beta", "beta"]
    assert rows[0]["rwc"]["score"] == 0.84
    assert rows[1]["rwc"] is None and rows[1]["undersized"] is True


def test_markdown_bold_and_dash_cells():
    text = emit_report(_fixture_reports(), "markdown")
    lines = text.splitlines()
    assert lines[0] == "| Subtopic | w1 | w2 |"
    assert lines[2] == "| alpha | **0.840** | - |"
    assert lines[3] == "| beta | 0.120 | -0.310 |"


def test_markdown_escapes_pipes_in_labels():
    text = emit_report([ControversyReport("a|b", "w|1", 50, 1000, False,
                                          RwcResult(0.9, 0.1, 0.9, 0.1, 0.8))], "markdown")
    lines = text.splitlines()
    assert lines[0] == r"| Subtopic | w\|1 |"
    assert lines[2] == r"| a\|b | **0.800** |"
    # only unescaped pipes delimit cells: two cells on every line
    assert all(len(re.split(r"(?<!\\)\|", line)) == 4 for line in lines)


def test_markdown_keeps_a_label_with_line_breaks_on_one_row():
    labels = ["mask\nwearing", "a\r\nb", "c\rd"]
    reports = [ControversyReport(label, "w\n1", 50, 1000, False,
                                 RwcResult(0.9, 0.1, 0.9, 0.1, 0.8)) for label in labels]
    assert emit_report(reports, "markdown") == (
        "| Subtopic | w 1 |\n| --- | --- |\n"
        "| mask wearing | **0.800** |\n| a b | **0.800** |\n| c d | **0.800** |\n")
    # csv and json keep the exact labels
    csv_text = emit_report(reports, "csv")
    assert all(label in csv_text for label in labels)
    assert [r["subtopic"] for r in json.loads(emit_report(reports, "json"))] == labels


def test_markdown_empty_reports_header_only():
    text = emit_report([], "markdown")
    assert text.splitlines()[0] == "| Subtopic |"
    assert len(text.splitlines()) == 2


def _golden_reports():
    """Every kind of row: flagged, errored, no sentiment, -0.0, empty error, undersized."""
    return [
        ControversyReport("vaxx", "2020-09", 60000, 12000, False,
                          RwcResult(0.9, 0.1, 0.85, 0.15, 0.7), -0.8, 0.2, 50),
        ControversyReport("mask", "2020-09", 900, 0, False, None,
                          error="SideTooSmall: side X has 3 nodes, k_top 10"),
        ControversyReport("school", "2020-09", 3000, 900, False,
                          RwcResult(0.55, 0.45, 0.55, 0.45, 0.1)),
        ControversyReport("a|b", "2020-10", 100, 850, False,
                          RwcResult(0.5, 0.5, 0.5, 0.5, -0.0), -0.0, 1e-300, 0, ""),
        ControversyReport('say "no", please', "2020-10", 40, 2000, False,
                          RwcResult(0.6, 0.4, 0.7, 0.3, 0.31), 0.25, 0.5, 7,
                          "mc-check failed: |exact - monte-carlo| = 0.0312 > 0.02"),
        ControversyReport("ワクチン", "2020-10", 12, 3, True, None, 0.1, 0.3, 4),
    ]


GOLDEN_CSV = """\
subtopic,window,record_count,node_count,undersized,rwc_score,p_xx,p_xy,p_yy,p_yx,sentiment_mean,sentiment_std,sentiment_matched,high_controversy,large,low_sentiment,error
vaxx,2020-09,60000,12000,0,0.7,0.9,0.1,0.85,0.15,-0.8,0.2,50,1,1,1,
mask,2020-09,900,0,0,,,,,,,,,,0,,"SideTooSmall: side X has 3 nodes, k_top 10"
school,2020-09,3000,900,0,0.1,0.55,0.45,0.55,0.45,,,,0,0,,
a|b,2020-10,100,850,0,-0.0,0.5,0.5,0.5,0.5,-0.0,1e-300,0,0,0,0,
"say ""no"", please",2020-10,40,2000,0,0.31,0.6,0.4,0.7,0.3,0.25,0.5,7,1,0,0,mc-check failed: |exact - monte-carlo| = 0.0312 > 0.02
ワクチン,2020-10,12,3,1,,,,,,0.1,0.3,4,,0,0,
"""

GOLDEN_JSON = """\
[
  {
    "subtopic": "vaxx",
    "window": "2020-09",
    "record_count": 60000,
    "node_count": 12000,
    "undersized": false,
    "rwc": {
      "p_xx": 0.9,
      "p_xy": 0.1,
      "p_yy": 0.85,
      "p_yx": 0.15,
      "score": 0.7
    },
    "sentiment_mean": -0.8,
    "sentiment_std": 0.2,
    "sentiment_matched": 50,
    "high_controversy": true,
    "large": true,
    "low_sentiment": true,
    "error": null
  },
  {
    "subtopic": "mask",
    "window": "2020-09",
    "record_count": 900,
    "node_count": 0,
    "undersized": false,
    "rwc": null,
    "sentiment_mean": null,
    "sentiment_std": null,
    "sentiment_matched": null,
    "high_controversy": null,
    "large": false,
    "low_sentiment": null,
    "error": "SideTooSmall: side X has 3 nodes, k_top 10"
  },
  {
    "subtopic": "school",
    "window": "2020-09",
    "record_count": 3000,
    "node_count": 900,
    "undersized": false,
    "rwc": {
      "p_xx": 0.55,
      "p_xy": 0.45,
      "p_yy": 0.55,
      "p_yx": 0.45,
      "score": 0.1
    },
    "sentiment_mean": null,
    "sentiment_std": null,
    "sentiment_matched": null,
    "high_controversy": false,
    "large": false,
    "low_sentiment": null,
    "error": null
  },
  {
    "subtopic": "a|b",
    "window": "2020-10",
    "record_count": 100,
    "node_count": 850,
    "undersized": false,
    "rwc": {
      "p_xx": 0.5,
      "p_xy": 0.5,
      "p_yy": 0.5,
      "p_yx": 0.5,
      "score": -0.0
    },
    "sentiment_mean": -0.0,
    "sentiment_std": 1e-300,
    "sentiment_matched": 0,
    "high_controversy": false,
    "large": false,
    "low_sentiment": false,
    "error": ""
  },
  {
    "subtopic": "say \\"no\\", please",
    "window": "2020-10",
    "record_count": 40,
    "node_count": 2000,
    "undersized": false,
    "rwc": {
      "p_xx": 0.6,
      "p_xy": 0.4,
      "p_yy": 0.7,
      "p_yx": 0.3,
      "score": 0.31
    },
    "sentiment_mean": 0.25,
    "sentiment_std": 0.5,
    "sentiment_matched": 7,
    "high_controversy": true,
    "large": false,
    "low_sentiment": false,
    "error": "mc-check failed: |exact - monte-carlo| = 0.0312 > 0.02"
  },
  {
    "subtopic": "ワクチン",
    "window": "2020-10",
    "record_count": 12,
    "node_count": 3,
    "undersized": true,
    "rwc": null,
    "sentiment_mean": 0.1,
    "sentiment_std": 0.3,
    "sentiment_matched": 4,
    "high_controversy": null,
    "large": false,
    "low_sentiment": false,
    "error": null
  }
]
"""

GOLDEN_MARKDOWN = """\
| Subtopic | 2020-09 | 2020-10 |
| --- | --- | --- |
| vaxx | **0.700** | - |
| mask | - | - |
| school | 0.100 | - |
| a\\|b | - | -0.000 |
| say "no", please | - | **0.310** |
| ワクチン | - | - |
"""


@pytest.mark.parametrize("fmt, expected", [
    ("csv", GOLDEN_CSV), ("json", GOLDEN_JSON), ("markdown", GOLDEN_MARKDOWN),
])
def test_report_bytes_match_golden_text(fmt, expected):
    assert emit_report(_golden_reports(), fmt) == expected


def test_unsupported_format_raises():
    with pytest.raises(UnsupportedFormat):
        emit_report([], "xml")


def test_config_from_dict_full_round():
    raw = {
        "input": "corpus.jsonl",
        "windows": ["2020-02", "100..200"],
        "queries": ["vaccine"],
        "top_n": 10,
        "min_rt": 3,
        "k_core": 4,
        "min_nodes": 500,
        "balance_eps": 0.03,
        "rwc": {"k_top": 5, "restart_prob": 0.2},
        "score_thresh": 0.4,
        "seed": 7,
        "tz": "Asia/Tokyo",
        "format": "json",
    }
    cfg = config_from_dict(raw)
    assert cfg.input_path == "corpus.jsonl"
    assert cfg.windows[0].label == "2020-02"
    assert cfg.windows[1].start == 100
    assert cfg.queries == ("vaccine",)
    assert cfg.min_rt == 3 and cfg.k_core_k == 4 and cfg.min_nodes == 500
    assert cfg.rwc.k_top == 5 and cfg.rwc.restart_prob == 0.2
    assert cfg.output_format == "json"


def test_config_rejects_unknown_keys_and_bad_values():
    with pytest.raises(ConfigError):
        config_from_dict({"windows": ["2020-02"], "typo_key": 1})
    with pytest.raises(ConfigError):
        config_from_dict({})
    with pytest.raises(ConfigError):
        PipelineConfig(windows=())
    with pytest.raises(ConfigError):
        load_config("/nonexistent/config.json")
    with pytest.raises(ConfigError, match="rwc.k_top"):
        config_from_dict({"windows": ["2020-02"], "rwc.k_top": 3})
    with pytest.raises(ConfigError, match="rwc.k_top"):
        config_from_dict({"windows": ["2020-02"], "rwc.k_top": 3, "rwc": {"k_top": 5}})


@pytest.mark.parametrize("key, value", [
    ("queries", "mask"),
    ("stopwords", "a.txt"),
    ("noun_tags", "NN"),
    ("windows", "2020-01"),
    ("top_n", "10"),
    ("min_rt", True),
    ("format", "xml"),
    ("rwc", 5),
])
def test_config_rejects_values_of_the_wrong_kind(key, value):
    raw = {"windows": ["2020-01"], key: value}
    with pytest.raises(ConfigError, match=key):
        config_from_dict(raw)


def test_config_takes_null_only_where_the_field_defaults_to_none():
    cfg = config_from_dict({"windows": ["2020-01"], "queries": None, "input": None})
    assert cfg.queries is None and cfg.input_path is None
    with pytest.raises(ConfigError, match="seed"):
        config_from_dict({"windows": ["2020-01"], "seed": None})


# one non-default value per config key: the file fragment and the same value as flags
KEY_SAMPLES = {
    "input": ({"input": "c.jsonl"}, ["--input", "c.jsonl"]),
    "tz": ({"tz": "Asia/Tokyo"}, ["--tz", "Asia/Tokyo"]),
    "windows": ({"windows": ["2020-01", "1..2"]}, ["--window", "2020-01", "--window", "1..2"]),
    "queries": ({"queries": ["a", "b"]}, ["--queries", "a, b"]),
    "top_n": ({"top_n": 7}, ["--top-n", "7"]),
    "stopwords": ({"stopwords": ["s.txt", "t.txt"]},
                  ["--stopwords", "s.txt", "--stopwords", "t.txt"]),
    "noun_tags": ({"noun_tags": ["NN", "NNP"]}, ["--noun-tags", "NN,NNP"]),
    "count_mode": ({"count_mode": "documents"}, ["--count-mode", "documents"]),
    "phase1_scope": ({"phase1_scope": "global"}, ["--phase1-scope", "global"]),
    "min_rt": ({"min_rt": 3}, ["--min-rt", "3"]),
    "k_core": ({"k_core": 4}, ["--k-core", "4"]),
    "min_nodes": ({"min_nodes": 100}, ["--min-nodes", "100"]),
    "balance_eps": ({"balance_eps": 0.1}, ["--balance-eps", "0.1"]),
    "rwc.k_top": ({"rwc": {"k_top": 5}}, ["--k-top", "5"]),
    "rwc.restart_prob": ({"rwc": {"restart_prob": 0.2}}, ["--restart", "0.2"]),
    "rwc.solver_tol": ({"rwc": {"solver_tol": 1e-8}}, ["--rwc-solver-tol", "1e-8"]),
    "rwc.max_iter": ({"rwc": {"max_iter": 500}}, ["--rwc-max-iter", "500"]),
    "rwc.weighted_walk": ({"rwc": {"weighted_walk": True}}, ["--rwc-weighted-walk"]),
    "mc_walks": ({"mc_walks": 1000}, ["--mc-walks", "1000"]),
    "mc_check": ({"mc_check": True}, ["--mc-check"]),
    "lexicon": ({"lexicon": "lex.tsv"}, ["--lexicon", "lex.tsv"]),
    "score_thresh": ({"score_thresh": 0.4}, ["--score-thresh", "0.4"]),
    "size_thresh": ({"size_thresh": 500}, ["--size-thresh", "500"]),
    "senti_thresh": ({"senti_thresh": -0.2}, ["--senti-thresh", "-0.2"]),
    "seed": ({"seed": 9}, ["--seed", "9"]),
    "dump_graphs": ({"dump_graphs": "dumps"}, ["--dump-graphs", "dumps"]),
    "format": ({"format": "json"}, ["--format", "json"]),
    "output": ({"output": "out.csv"}, ["--output", "out.csv"]),
}


def test_config_table_sets_every_field_once():
    from dataclasses import fields

    from controversy_scope.pipeline import CONFIG_KEYS
    from controversy_scope.rwc import RwcConfig

    top = [spec.field for spec in CONFIG_KEYS if not spec.key.startswith("rwc.")]
    walk = [spec.field for spec in CONFIG_KEYS if spec.key.startswith("rwc.")]
    assert sorted(top) == sorted(f.name for f in fields(PipelineConfig) if f.name != "rwc")
    assert sorted(walk) == sorted(f.name for f in fields(RwcConfig))
    assert sorted(KEY_SAMPLES) == sorted(spec.key for spec in CONFIG_KEYS)


@pytest.mark.parametrize("key", sorted(KEY_SAMPLES))
def test_config_file_key_and_cli_flag_agree(key, tmp_path):
    fragment, flags = KEY_SAMPLES[key]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"windows": ["2020-03"], **fragment}), encoding="utf-8")
    from_file = load_config(str(cfg_path))
    command = "rq1" if key == "queries" else "run"
    argv = [command, "--window", "2020-03", *flags]
    if key == "windows":
        argv = [command, *flags]
    args = cli._build_parser().parse_args(argv)
    from_flags = cli._config_from_args(args)
    assert from_flags == from_file
    assert from_file != config_from_dict({"windows": ["2020-03"]})


def test_run_pipeline_checks_referenced_files(tmp_path):
    cfg = small_config(input_path=str(tmp_path / "missing.jsonl"))
    with pytest.raises(ConfigError, match="missing.jsonl: FileNotFoundError"):
        run_pipeline(cfg)
    assert run_pipeline(cfg, records=[]) == []  # the unread input path is not checked


def test_run_pipeline_logs_the_malformed_count_outside_the_report(tmp_path, caplog):
    records = small_corpus(seed=1)
    lines = serialize_records(records).splitlines()
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("\n".join([lines[0], "not json", *lines[1:], '{"post_id": ""}']),
                      encoding="utf-8")
    cfg = small_config(input_path=str(corpus), queries=("vaxx",))
    with caplog.at_level(logging.INFO, logger="controversy_scope"):
        from_file = run_pipeline(cfg)
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
        ("controversy_scope", logging.INFO,
         f"read {len(records)} records, skipped 2 malformed lines from {corpus}")]
    from_records = run_pipeline(cfg, records=records)
    for fmt in ("csv", "json", "markdown"):
        assert emit_report(from_file, fmt) == emit_report(from_records, fmt)


@pytest.mark.parametrize("side_file", ["lexicon", "stopwords"])
def test_run_pipeline_fails_on_a_bad_side_file_before_the_parse(side_file, tmp_path,
                                                                 monkeypatch):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(serialize_records(small_corpus()[:5]), encoding="utf-8")
    lexicon = tmp_path / "lex.tsv"
    lexicon.write_text("vaxx\t2\n", encoding="utf-8")
    bad = {"lexicon": {"lexicon_path": str(lexicon)},
           "stopwords": {"stopword_paths": (str(tmp_path / "missing.txt"),)}}[side_file]

    def parse_not_reached(path):
        pytest.fail("the corpus was parsed before the side files loaded")

    monkeypatch.setattr(pipeline, "parse_records_file", parse_not_reached)
    with pytest.raises(ConfigError, match="cannot load"):
        run_pipeline(small_config(input_path=str(corpus), **bad))


def test_cli_unwritable_output_paths_exit_2_before_the_parse(tmp_path, monkeypatch, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(serialize_records(small_corpus()[:5]), encoding="utf-8")
    rq1 = ["rq1", "--input", str(corpus), "--window", "2020-09", "--queries", "vaxx"]
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    report = tmp_path / "report.csv"
    missing = tmp_path / "missing" / "r.csv"

    def parse_not_reached(path):
        pytest.fail("the corpus was parsed before the output paths were checked")

    with monkeypatch.context() as patched:
        patched.setattr(pipeline, "parse_records_file", parse_not_reached)
        assert cli.main([*rq1, "--dump-graphs", str(taken), "--output", str(report)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {taken}: FileExistsError")
        assert err.count("\n") == 1 and not report.exists()
        assert cli.main([*rq1, "--output", str(missing)]) == 2
        assert capsys.readouterr().err == (f"error: cannot write {missing}: "
                                           f"no directory {missing.parent}\n")
    # a report path the writer cannot replace fails once the batch has run
    assert cli.main([*rq1, "--output", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {tmp_path}: ") and err.count("\n") == 1


def test_write_output_atomic(tmp_path):
    target = tmp_path / "report.csv"
    write_output(str(target), "hello\n")
    assert target.read_text() == "hello\n"
    write_output(str(target), "replaced\n")
    assert target.read_text() == "replaced\n"
    assert list(tmp_path.iterdir()) == [target]


def test_write_output_leaves_other_temp_files_alone(tmp_path):
    target = tmp_path / "report.csv"
    other = tmp_path / ".report.csv.tmp"
    other.write_text("another writer's partial output")
    write_output(str(target), "mine\n")
    assert target.read_text() == "mine\n"
    assert other.read_text() == "another writer's partial output"
    assert sorted(tmp_path.iterdir()) == sorted([target, other])


def test_write_output_failure_keeps_target_and_removes_temp(tmp_path):
    target = tmp_path / "report.csv"
    write_output(str(target), "old\n")
    with pytest.raises(TypeError):
        write_output(str(target), None)
    assert target.read_text() == "old\n"
    assert list(tmp_path.iterdir()) == [target]


def test_write_output_concurrent_writers_leave_one_whole_file(tmp_path):
    target = tmp_path / "report.csv"
    contents = [f"writer {i}\n" * 5_000 for i in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(write_output, str(target), text) for text in contents * 4]
            for future in futures:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert target.read_text() in contents
    assert list(tmp_path.iterdir()) == [target]


# --- CLI ----------------------------------------------------------------------


def test_cli_synth_then_rq1_csv(tmp_path):
    spec = {
        "kind": "corpus",
        "communities": [
            {"n_authors": 150, "topic_tokens": ["vaxx"], "polarity_bias": 0.5},
            {"n_authors": 150, "topic_tokens": ["vaxx"], "polarity_bias": -0.5},
        ],
        "cross_repost_rate": 0.02,
        "background_cross_rate": 0.5,
        "window": "2020-09",
        "seed": 12,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    corpus_path = tmp_path / "corpus.jsonl"
    assert cli.main(["synth", "--spec", str(spec_path), "--out", str(corpus_path)]) == 0
    assert corpus_path.exists()

    report_path = tmp_path / "report.csv"
    code = cli.main([
        "rq1", "--queries", "vaxx,ghost",
        "--input", str(corpus_path),
        "--window", "2020-09",
        "--min-nodes", "150",
        "--seed", "3",
        "--format", "csv",
        "--output", str(report_path),
    ])
    assert code == 0
    reports = parse_report_csv(report_path.read_text())
    by_topic = {r.subtopic: r for r in reports}
    assert by_topic["vaxx"].rwc is not None
    assert by_topic["vaxx"].rwc.score > 0.3
    assert by_topic["ghost"].undersized


def test_cli_log_level_shows_the_parse_counts_on_stderr_only(tmp_path, capsys):
    records = small_corpus(seed=1)
    lines = serialize_records(records).splitlines()
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("\n".join([lines[0], "not json", *lines[1:]]), encoding="utf-8")
    rq1 = ["rq1", "--queries", "vaxx", "--input", str(corpus), "--window", "2020-09",
           "--min-nodes", "150"]
    quiet, verbose = tmp_path / "quiet.csv", tmp_path / "verbose.csv"
    assert cli.main([*rq1, "--output", str(quiet)]) == 0
    assert capsys.readouterr().err == ""
    assert cli.main([*rq1, "--output", str(verbose), "--log-level", "INFO"]) == 0
    assert capsys.readouterr().err.splitlines() == [
        f"INFO: read {len(records)} records, skipped 1 malformed lines from {corpus}"]
    assert verbose.read_bytes() == quiet.read_bytes()
    assert logging.getLogger("controversy_scope").handlers == []

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n_per_side": 4, "p_in": 0.9, "p_out": 0.1,
                                "kind": "planted"}), encoding="utf-8")
    assert cli.main(["synth", "--spec", str(spec), "--out", str(tmp_path / "g.edges"),
                     "--log-level", "INFO"]) == 0
    assert capsys.readouterr().err == ""


def test_cli_run_with_config_markdown_stdout(tmp_path, capsys):
    corpus = synth_corpus(
        CorpusSpec(
            communities=(CommunitySpec(150, ("vaxx",), 0.0),
                         CommunitySpec(150, ("vaxx",), 0.0)),
            cross_repost_rate=0.02,
            background_cross_rate=0.5,
            window=WINDOW,
            seed=13,
        )
    )
    corpus_path = tmp_path / "c.jsonl"
    from controversy_scope.ingest import serialize_records
    corpus_path.write_text(serialize_records(corpus), encoding="utf-8")
    cfg = {
        "input": str(corpus_path),
        "windows": ["2020-09"],
        "queries": ["vaxx"],
        "min_nodes": 150,
        "seed": 3,
        "format": "markdown",
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert cli.main(["run", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("| Subtopic | 2020-09 |")
    assert "vaxx" in out


def test_cli_synth_planted(tmp_path):
    spec_path = tmp_path / "p.json"
    spec_path.write_text(json.dumps(
        {"kind": "planted", "n_per_side": 20, "p_in": 1.0, "p_out": 0.0, "seed": 1}
    ), encoding="utf-8")
    out = tmp_path / "graph.txt"
    assert cli.main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2 * (20 * 19 // 2) + 1
    sides = (tmp_path / "graph.txt.sides").read_text().splitlines()
    assert len(sides) == 40


def test_cli_tz_flag_applies_to_config_windows(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"windows": ["2020-02"], "tz": "UTC"}), encoding="utf-8")
    parser = cli._build_parser()

    def parsed(argv):
        return cli._config_from_args(parser.parse_args(argv))

    tokyo = ["--tz", "Asia/Tokyo"]
    from_file = parsed(["run", "--config", str(cfg_path), *tokyo])
    assert from_file.tz == "Asia/Tokyo"
    assert from_file.windows == (parse_window("2020-02", "Asia/Tokyo"),)
    with_flag = parsed(["run", "--config", str(cfg_path), *tokyo, "--window", "2020-01"])
    without_config = parsed(["run", *tokyo, "--window", "2020-01"])
    assert with_flag.windows == without_config.windows
    assert with_flag.windows[0].start == 1577804400  # 2020-01-01T00:00+09:00


def test_repeated_queries_rejected_by_config_and_cli(tmp_path, capsys):
    with pytest.raises(ConfigError, match="vaxx"):
        small_config(queries=("vaxx", "covid", "vaxx"))
    with pytest.raises(ConfigError, match="vaxx"):
        config_from_dict({"windows": ["2020-09"], "queries": ["vaxx", "vaxx"]})
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(serialize_records(small_corpus()[:5]), encoding="utf-8")
    code = cli.main(["rq1", "--input", str(corpus), "--window", "2020-09",
                     "--queries", "vaxx,vaxx"])
    assert code == 2
    assert "repeat" in capsys.readouterr().err

    with pytest.raises(ConfigError, match="windows must not repeat"):
        small_config(windows=(WINDOW, WINDOW))
    with pytest.raises(ConfigError, match="2020-09"):
        config_from_dict({"windows": ["2020-09", "2020-09"], "queries": ["vaxx"]})
    code = cli.main(["rq1", "--input", str(corpus), "--window", "2020-09",
                     "--window", "2020-09", "--queries", "vaxx"])
    assert code == 2
    assert capsys.readouterr().err == "error: windows must not repeat: ['2020-09', '2020-09']\n"


def test_empty_queries_exit_2_from_a_config_file_and_the_cli(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(serialize_records(small_corpus()[:5]), encoding="utf-8")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"windows": ["2020-09"], "input": str(corpus),
                                    "queries": []}), encoding="utf-8")
    out = tmp_path / "report.csv"
    assert cli.main(["run", "--config", str(cfg_path), "--output", str(out)]) == 2
    from_file = capsys.readouterr().err
    assert cli.main(["rq1", "--input", str(corpus), "--window", "2020-09",
                     "--queries", ",", "--output", str(out)]) == 2
    assert capsys.readouterr().err == from_file == "error: queries must name at least one token\n"
    assert not out.exists()


def test_empty_noun_tags_exit_2_from_a_config_file_and_the_cli(tmp_path, capsys):
    # an empty tag set shortlisted nothing: exit 0 with a header-only report
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(serialize_records(small_corpus()[:5]), encoding="utf-8")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"windows": ["2020-09"], "input": str(corpus),
                                    "noun_tags": []}), encoding="utf-8")
    out = tmp_path / "report.csv"
    assert cli.main(["run", "--config", str(cfg_path), "--output", str(out)]) == 2
    from_file = capsys.readouterr().err
    assert cli.main(["run", "--input", str(corpus), "--window", "2020-09",
                     "--noun-tags", ",", "--output", str(out)]) == 2
    assert capsys.readouterr().err == from_file == "error: noun_tags must name at least one tag\n"
    assert not out.exists()


@pytest.mark.parametrize("raw, message", [
    ({"min_nodes": 0}, "min_nodes must be >= 1, got 0"),
    ({"min_nodes": -1}, "min_nodes must be >= 1, got -1"),
    ({"queries": ["vaxx", ""]}, "queries must not be blank: ''"),
    ({"queries": ["vaxx", " "]}, "queries must not be blank: ' '"),
    ({"queries": ["\t\n"]}, "queries must not be blank: '\\t\\n'"),
    ({"noun_tags": ["NN", " "]}, "noun_tags must not be blank: ' '"),
    ({"noun_tags": [""]}, "noun_tags must not be blank: ''"),
])
def test_config_file_min_nodes_below_1_or_blank_query_exits_2(raw, message, tmp_path, capsys):
    # each used to score a cell or shortlist nothing and exit 0: an empty cell
    # as a TooSmall row, a blank token as a row with a blank subtopic, a blank
    # noun tag as a header-only report
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(serialize_records(small_corpus()[:5]), encoding="utf-8")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"windows": ["2020-09"], "input": str(corpus),
                                    "queries": ["vaxx", "ghost"], **raw}), encoding="utf-8")
    out = tmp_path / "report.csv"
    assert cli.main(["run", "--config", str(cfg_path), "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
    # and as PipelineConfig fields, where noun_tags is a frozenset
    (field, value), = raw.items()
    if isinstance(value, list):
        value = frozenset(value) if field == "noun_tags" else tuple(value)
    with pytest.raises(ConfigError, match=re.escape(message)):
        small_config(**{field: value})


@pytest.mark.parametrize("raw, message", [
    ({"rwc": {"solver_tol": math.inf}}, "solver_tol must be positive and finite, got inf"),
    ({"rwc": {"solver_tol": math.nan}}, "solver_tol must be positive and finite, got nan"),
    ({"score_thresh": math.nan}, "score_thresh must be finite, got nan"),
    ({"senti_thresh": -math.inf}, "senti_thresh must be finite, got -inf"),
])
def test_non_finite_floats_are_config_errors(raw, message, tmp_path, capsys):
    # JSON's Infinity and NaN load as floats: an infinite solver_tol stopped the
    # solver early with a wrong score, and a nan threshold cleared every flag
    with pytest.raises(ConfigError, match=message):
        config_from_dict({"windows": ["2020-09"], **raw})
    if "rwc" not in raw:
        with pytest.raises(ConfigError, match=message):
            small_config(**raw)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"windows": ["2020-09"], "input": "x.jsonl", **raw}),
                        encoding="utf-8")
    assert cli.main(["run", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", [["run", "--config"], ["synth", "--out", "x", "--spec"]])
def test_a_config_or_spec_with_bad_utf8_exits_2_naming_the_file(command, tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_bytes(b"\xff{}")
    assert cli.main([*command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config {path}: ") and err.count("\n") == 1


def test_a_config_or_spec_with_a_bom_loads(tmp_path):
    raw = {"windows": ["2020-09"], "queries": ["vaxx"]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("\ufeff" + json.dumps(raw), encoding="utf-8")
    assert load_config(str(cfg_path)) == config_from_dict(raw)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text("\ufeff" + json.dumps({"kind": "planted", "n_per_side": 5, "p_in": 0.5,
                                                 "p_out": 0.1}), encoding="utf-8")
    out = tmp_path / "planted.edges"
    assert cli.main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 0
    want = dump_edgelist(planted_partition(PlantedSpec(5, 0.5, 0.1)).graph)
    assert out.read_text(encoding="utf-8") == want


def test_cli_queries_flag_drops_a_blank_token(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(serialize_records(small_corpus()[:5]), encoding="utf-8")
    out = tmp_path / "report.csv"
    assert cli.main(["rq1", "--input", str(corpus), "--window", "2020-09",
                     "--queries", "vaxx, ", "--output", str(out)]) == 0
    assert [r.subtopic for r in parse_report_csv(out.read_text(encoding="utf-8"))] == ["vaxx"]


# each bad input file: the flag that names it and its name in the test's directory
BAD_INPUT_FILES = {
    "duplicate-record": ("--input", "dup.jsonl"),
    "input-directory": ("--input", ""),
    "stopwords-directory": ("--stopwords", ""),
    "lexicon-out-of-range": ("--lexicon", "lex.tsv"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUT_FILES))
@pytest.mark.parametrize("command", ["run", "rq1"])
def test_cli_bad_input_file_exits_2_with_an_error_line(case, command, tmp_path, capsys):
    lines = serialize_records(small_corpus()[:5]).splitlines(keepends=True)
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(lines), encoding="utf-8")
    (tmp_path / "dup.jsonl").write_text("".join(lines + lines[:1]), encoding="utf-8")
    (tmp_path / "lex.tsv").write_text("vaxx\t2\n", encoding="utf-8")
    flag, name = BAD_INPUT_FILES[case]
    queries = ["--queries", "vaxx"] if command == "rq1" else []
    out = tmp_path / "report.csv"
    code = cli.main([command, "--window", "2020-09", *queries, "--input", str(corpus),
                     flag, str(tmp_path / name), "--output", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and str(tmp_path / name) in err and "Traceback" not in err
    assert not out.exists()


def test_cli_requires_window_without_config():
    assert cli.main(["rq1", "--queries", "a", "--input", "x.jsonl"]) == 2


@pytest.mark.parametrize("flags", [
    ["--window", "2020-13"],
    ["--window", "2020-01", "--restart", "1.5"],
    ["--window", "2020-01", "--k-top", "0"],
    ["--window", "2020-01", "--tz", "Mars/Base"],
    ["--config", "{rwc_typo}"],
    ["--window", "2020-01", "--min-rt", "0"],
    ["--window", "2020-01", "--k-core", "0"],
    ["--window", "2020-01", "--min-nodes", "0"],
    ["--window", "2020-01", "--balance-eps", "0.5"],
    ["--window", "2020-01", "--mc-check", "--mc-walks", "0"],
    ["--window", "2020-01", "--rwc-solver-tol", "inf"],
    ["--window", "2020-01", "--rwc-solver-tol", "nan"],
    ["--window", "2020-01", "--score-thresh", "nan"],
    ["--window", "2020-01", "--score-thresh=-inf"],
    ["--window", "2020-01", "--senti-thresh", "nan"],
    ["--window", "2020-01", "--senti-thresh", "inf"],
])
def test_cli_invalid_values_exit_2_with_an_error_line(flags, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"windows": ["2020-01"], "rwc": {"typo": 1}}),
                        encoding="utf-8")
    flags = [f.format(rwc_typo=cfg_path) for f in flags]
    assert cli.main(["rq1", "--input", "x.jsonl", "--queries", "a", *flags]) == 2
    err = capsys.readouterr().err
    # the value itself is the error, caught before the input file is looked at
    assert err.startswith("error: ") and "Traceback" not in err and "x.jsonl" not in err


@pytest.mark.parametrize("spec", [
    None,
    "{not json",
    {"kind": "corpus", "window": "2020-09", "cross_repost_rate": 0.1},
    {"kind": "corpus", "communities": [{"topic_tokens": ["a"]}], "window": "2020-09",
     "cross_repost_rate": 0.1},
    {"kind": "planted", "p_in": 0.5, "p_out": 0.1},
    {"kind": "planted", "n_per_side": 1, "p_in": 0.5, "p_out": 0.1},
    {"kind": "planted", "n_per_side": "3", "p_in": 0.5, "p_out": 0.1},
    {"kind": "corpus", "communities": [5], "window": "2020-09", "cross_repost_rate": 0.1},
    {"kind": "corpus", "communities": [{"n_authors": 5}], "window": 202001,
     "cross_repost_rate": 0.1},
    {"kind": "planted", "n_per_side": True, "p_in": 0.5, "p_out": 0.1},
    {"kind": "corpus", "communities": [{"n_authors": 5}], "window": "2020-09",
     "cross_repost_rate": 0.1, "sentiment_surfaces": ["good"]},
    {"kind": "corpus", "communities": [{"n_authors": 5}], "window": "2020-01",
     "tz": "Mars/Base", "cross_repost_rate": 0.1},
])
def test_cli_synth_spec_errors_exit_2(spec, tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    if spec is not None:
        spec_path.write_text(spec if isinstance(spec, str) else json.dumps(spec),
                             encoding="utf-8")
    out = tmp_path / "out.txt"
    assert cli.main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


CORPUS_SPEC = {"kind": "corpus", "communities": [{"n_authors": 5}], "window": "2020-09",
               "cross_repost_rate": 0.1}


@pytest.mark.parametrize("key, spec", [
    ("posts_per_author", {**CORPUS_SPEC, "posts_per_author": [5]}),
    ("posts_per_author", {**CORPUS_SPEC, "posts_per_author": [5, 9, 12]}),
    ("communities", {**CORPUS_SPEC, "communities": [{"n_authors": 5}, "c2"]}),
    ("topic_tokens", {**CORPUS_SPEC, "communities": [{"n_authors": 5, "topic_tokens": [1]}]}),
    ("seed", {**CORPUS_SPEC, "seed": None}),
    ("n_authors", {**CORPUS_SPEC, "communities": [{"n_authors": None}]}),
    ("p_out", {"kind": "planted", "n_per_side": 3, "p_in": 0.5, "p_out": None}),
])
def test_cli_synth_spec_bad_kind_names_the_key(key, spec, tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    out = tmp_path / "out.txt"
    assert cli.main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert not out.exists()


@pytest.mark.parametrize("spec", [CORPUS_SPEC, {"kind": "planted", "n_per_side": 3,
                                                "p_in": 0.5, "p_out": 0.1}])
def test_cli_synth_out_in_a_missing_directory_exits_2(spec, tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    out = tmp_path / "missing" / "out.txt"
    assert cli.main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: FileNotFoundError") and err.count("\n") == 1
    assert not out.parent.exists()


def test_cli_synth_spec_takes_null_background_cross_rate(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({**CORPUS_SPEC, "background_cross_rate": None}),
                         encoding="utf-8")
    out = tmp_path / "out.jsonl"
    assert cli.main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 0
    assert out.stat().st_size > 0


def test_synth_spec_kinds_cover_every_spec_field():
    assert set(cli._PLANTED_KINDS) == {f.name for f in fields(PlantedSpec)}
    assert set(cli._CORPUS_KINDS) == {f.name for f in fields(CorpusSpec)} | {"tz"}
    assert set(cli._COMMUNITY_KINDS) == {f.name for f in fields(CommunitySpec)}


def test_cli_console_script_help():
    # the child imports the same package as this test, installed or not
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-m", "controversy_scope.cli", "--help"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0
    assert "controversy-scope" in result.stdout


def test_phase1_global_scope_shares_shortlist_across_windows():
    records = list(small_corpus(seed=14))
    # a token that only occurs in a second window
    w2 = TimeWindow(WINDOW.end, WINDOW.end + 86400 * 30, "2020-10")
    from conftest import record as make_record
    records.append(make_record("extra1", "zz1", ts=WINDOW.end + 10,
                               tokens=(("lockdown", "NOUN"),) * 3))
    per_window = run_pipeline(
        small_config(windows=(WINDOW, w2), top_n=3), records=records)
    global_scope = run_pipeline(
        small_config(windows=(WINDOW, w2), top_n=3, phase1_scope="global"),
        records=records)
    # global mode scores one shared shortlist in every window
    global_tokens = {r.subtopic for r in global_scope if r.window == "2020-09"}
    assert global_tokens == {r.subtopic for r in global_scope if r.window == "2020-10"}
    w1_tokens = {r.subtopic for r in per_window if r.window == "2020-09"}
    w2_tokens = {r.subtopic for r in per_window if r.window == "2020-10"}
    assert "lockdown" in w2_tokens and "lockdown" not in w1_tokens


def test_group_flag_columns_in_csv_and_json():
    reports = [
        ControversyReport("big", "w", 100, 12_000, False,
                          RwcResult(0.85, 0.15, 0.85, 0.15, 0.7),
                          sentiment_mean=-0.8, sentiment_std=0.2,
                          sentiment_matched=50),
        ControversyReport("small", "w", 100, 900, False,
                          RwcResult(0.55, 0.45, 0.55, 0.45, 0.1),
                          sentiment_mean=0.4, sentiment_std=0.3,
                          sentiment_matched=40),
        ControversyReport("dash", "w", 5, 10, True, None),
    ]
    rows = json.loads(emit_report(reports, "json"))
    assert [r["high_controversy"] for r in rows] == [True, False, None]
    assert [r["large"] for r in rows] == [True, False, False]
    assert [r["low_sentiment"] for r in rows] == [True, False, None]
    csv_text = emit_report(reports, "csv")
    header, first, second, third = csv_text.splitlines()
    assert "high_controversy,large,low_sentiment" in header
    assert first.split(",")[13:16] == ["1", "1", "1"]
    assert second.split(",")[13:16] == ["0", "0", "0"]
    assert third.split(",")[13:16] == ["", "0", ""]
    # derived columns do not disturb the round-trip
    assert parse_report_csv(csv_text) == reports


def test_cell_error_recorded_not_raised():
    # k_top larger than a side: the cell fails, the batch completes
    records = small_corpus(seed=15)
    from controversy_scope.rwc import RwcConfig
    cfg = small_config(queries=("vaxx",), rwc=RwcConfig(k_top=200))
    report = run_pipeline(cfg, records=records)[0]
    assert report.rwc is None and not report.undersized
    assert report.error and "SideTooSmall" in report.error


def mc_check_lines(caplog):
    return [r.getMessage() for r in caplog.records
            if r.name == "controversy_scope" and r.getMessage().startswith("mc-check ")]


def test_mc_check_agreement_and_forced_failure(caplog):
    from controversy_scope.pipeline import has_mc_failures

    records = small_corpus(seed=16)
    ok_cfg = small_config(queries=("vaxx",), mc_check=True, mc_walks=50_000)
    ok = run_pipeline(ok_cfg, records=records)
    assert ok[0].error is None
    assert not has_mc_failures(ok)
    # one walk per side makes every probability 0 or 1 and the estimate -1,
    # 0 or 1, so it misses the exact 0.889 by far more than the tolerance
    # whatever the walks draw; one pair is too few for a confidence bound,
    # so the check runs to its cap and the point rule fails it
    noisy_cfg = small_config(queries=("vaxx",), mc_check=True, mc_walks=1)
    with caplog.at_level(logging.INFO, logger="controversy_scope"):
        noisy = run_pipeline(noisy_cfg, records=records)
    assert has_mc_failures(noisy)
    assert noisy[0].rwc is not None  # the exact score is still reported
    [line] = mc_check_lines(caplog)
    assert line.startswith("mc-check vaxx 2020-09: 1 walks per side, gap ")
    assert line.endswith(", ran to the cap")


def test_mc_check_logs_one_line_per_checked_cell_outside_the_report(caplog):
    records = small_corpus(seed=16)
    w2 = TimeWindow(WINDOW.start, WINDOW.end, "2020-09b")
    cfg = small_config(queries=("vaxx", "nothing"), windows=(WINDOW, w2), mc_check=True)
    with caplog.at_level(logging.INFO, logger="controversy_scope"):
        checked = run_pipeline(cfg, records=records)
    lines = mc_check_lines(caplog)
    # the undersized "nothing" cells are not checked
    assert [line.split(":")[0] for line in lines] == ["mc-check vaxx 2020-09",
                                                       "mc-check vaxx 2020-09b"]
    for line in lines:
        match = re.fullmatch(r"mc-check vaxx 2020-09b?: (\d+) walks per side, "
                             r"gap (0\.\d{4}), settled \(pass\) before the cap", line)
        assert match, line
        walks = int(match[1])
        assert walks < cfg.mc_walks and walks % _SHARD_WALKS == 0
        assert float(match[2]) <= 0.02
    unchecked = run_pipeline(replace(cfg, mc_check=False), records=records)
    for fmt in ("csv", "json", "markdown"):
        assert emit_report(checked, fmt) == emit_report(unchecked, fmt)


def test_cli_corpus_spec_parses_every_field(tmp_path):
    from controversy_scope.cli import _corpus_spec_from_dict
    from controversy_scope.pipeline import ConfigError as CfgError
    from controversy_scope.ingest import month_window

    raw = {
        "communities": [
            {"n_authors": 10, "topic_tokens": ["vaxx"], "polarity_bias": 0.4},
            {"n_authors": 12},
        ],
        "window": "2020-09",
        "cross_repost_rate": 0.02,
        "background_cross_rate": 0.5,
        "posts_per_author": [5, 9],
        "repost_fraction": 0.7,
        "topic_post_rate": 0.4,
        "n_favorites": 2,
        "background_tokens": ["covid", "news2"],
        "sentiment_surfaces": ["up", "down"],
        "seed": 9,
    }
    spec = _corpus_spec_from_dict(dict(raw))
    assert spec == CorpusSpec(
        communities=(CommunitySpec(10, ("vaxx",), 0.4), CommunitySpec(12, ())),
        window=month_window("2020-09"),
        cross_repost_rate=0.02,
        background_cross_rate=0.5,
        posts_per_author=(5, 9),
        repost_fraction=0.7,
        topic_post_rate=0.4,
        n_favorites=2,
        background_tokens=("covid", "news2"),
        sentiment_surfaces=("up", "down"),
        seed=9,
    )
    with pytest.raises(CfgError):
        _corpus_spec_from_dict({**raw, "typo": 1})


def test_cli_synth_corpus_matches_library(tmp_path):
    spec = {
        "kind": "corpus",
        "communities": [{"n_authors": 40, "topic_tokens": ["vaxx"]},
                        {"n_authors": 40, "topic_tokens": ["vaxx"]}],
        "cross_repost_rate": 0.02,
        "background_cross_rate": 0.5,
        "window": "2020-09",
        "seed": 4,
    }
    spec_path = tmp_path / "s.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    out = tmp_path / "c.jsonl"
    assert cli.main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 0
    from controversy_scope.ingest import month_window, serialize_records
    expected = synth_corpus(CorpusSpec(
        communities=(CommunitySpec(40, ("vaxx",)), CommunitySpec(40, ("vaxx",))),
        cross_repost_rate=0.02,
        background_cross_rate=0.5,
        window=month_window("2020-09"),
        seed=4,
    ))
    assert out.read_text() == serialize_records(expected)


def test_dump_graphs_writes_edge_lists(tmp_path):
    records = small_corpus(seed=17)
    dump_dir = tmp_path / "graphs"
    cfg = small_config(queries=("vaxx", "ghost"), dump_graphs_dir=str(dump_dir))
    run_pipeline(cfg, records=records)
    files = sorted(p.name for p in dump_dir.iterdir())
    assert files == ["vaxx_2020-09.edges"]  # undersized cells are not dumped
    lines = (dump_dir / "vaxx_2020-09.edges").read_text().splitlines()
    assert lines
    for line in lines:
        u, v, w = line.split()
        assert u < v and int(w) >= 2


BAD_UTF8_LINE = (b'{"post_id": "bad\xff", "author_id": "u1", "timestamp": 1600000000, '
                 b'"tokens": [["vaxx", "NOUN"]]}')
SURROGATE_LINE = (b'{"post_id": "bad", "author_id": "u1", "timestamp": 1600000000, '
                  b'"tokens": [["\\ud800x", "NOUN"]]}')


@pytest.mark.parametrize("bad_line", [BAD_UTF8_LINE, SURROGATE_LINE],
                         ids=["invalid-utf8", "escaped-lone-surrogate"])
def test_cli_run_skips_a_line_no_report_could_write(bad_line, tmp_path):
    lines = serialize_records(small_corpus()[:200]).encode("utf-8").splitlines()
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(b"\n".join(lines[:100] + [bad_line] + lines[100:]) + b"\n")
    out = tmp_path / "report.csv"
    code = cli.main(["run", "--input", str(corpus), "--window", "2020-09", "--top-n", "50",
                     "--output", str(out)])
    assert code == 0
    reports = parse_report_csv(out.read_text(encoding="utf-8"))
    assert "vaxx" in {r.subtopic for r in reports}


def test_run_pipeline_leaves_a_callers_freeze_as_it_was(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(serialize_records(small_corpus()[:300]), encoding="utf-8")
    cfg = small_config(input_path=str(corpus), queries=("vaxx",))
    gc.freeze()
    try:
        before = gc.get_freeze_count()
        run_pipeline(cfg)
        after = gc.get_freeze_count(), gc.isenabled()
    finally:
        gc.unfreeze()
    assert before > 0 and after == (before, True)
