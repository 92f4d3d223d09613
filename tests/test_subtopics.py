import numpy as np
import pytest

from controversy_scope.ingest import month_window
from controversy_scope.pipeline import PipelineConfig, _stopword_config
from controversy_scope.subtopics import (
    StopwordConfig,
    extract_candidate_tokens,
    load_stopword_file,
    top_n_subtopics,
)

from conftest import record

PLAIN = StopwordConfig(noun_pos_tags=frozenset({"NOUN"}))


def test_pos_filter_keeps_nouns_only():
    r = record("p1", "u1", tokens=(("vaccine", "NOUN"), ("is", "VERB")))
    assert extract_candidate_tokens([r], PLAIN) == {"vaccine": 1}


def test_custom_stopword_excluded():
    cfg = StopwordConfig(stopwords=frozenset({"news"}), noun_pos_tags=frozenset({"NOUN"}))
    r = record("p1", "u1", tokens=(("news", "NOUN"), ("school", "NOUN")))
    assert extract_candidate_tokens([r], cfg) == {"school": 1}


def test_occurrence_counting_across_records():
    rs = [
        record("p1", "u1", tokens=(("school", "NOUN"), ("school", "NOUN"))),
        record("p2", "u2", tokens=(("school", "NOUN"), ("school", "NOUN"))),
    ]
    assert extract_candidate_tokens(rs, PLAIN) == {"school": 4}
    assert extract_candidate_tokens(rs, PLAIN, count_mode="documents") == {"school": 2}


def test_bare_reposts_contribute_nothing():
    rs = [
        record("p1", "u1", tokens=(("park", "NOUN"),)),
        record("p2", "u2", tokens=(), repost_of=("p1", "u1")),
    ]
    assert extract_candidate_tokens(rs, PLAIN) == {"park": 1}


def test_extraction_permutation_invariant():
    rng = np.random.default_rng(0)
    rs = [
        record(f"p{i}", "u", tokens=((f"t{rng.integers(0, 5)}", "NOUN"),))
        for i in range(30)
    ]
    forward = extract_candidate_tokens(rs, PLAIN)
    backward = extract_candidate_tokens(list(reversed(rs)), PLAIN)
    assert forward == backward


def test_top_n_tie_break_and_truncation():
    assert top_n_subtopics({"a": 5, "b": 3, "c": 3}, 2) == ["a", "b"]
    assert top_n_subtopics({}, 50) == []
    assert top_n_subtopics({"z": 1, "a": 1}, 5) == ["a", "z"]
    with pytest.raises(ValueError):
        top_n_subtopics({"a": 1}, 0)


def test_top_n_matches_full_sort_oracle():
    rng = np.random.default_rng(7)
    counts = {f"tok{i:02d}": int(rng.integers(1, 1000)) for i in range(60)}
    oracle = [t for t, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))][:50]
    assert top_n_subtopics(counts, 50) == oracle


def test_top_n_prefix_property():
    rng = np.random.default_rng(3)
    counts = {f"t{i}": int(rng.integers(1, 20)) for i in range(25)}
    for n in range(1, 25):
        assert top_n_subtopics(counts, n) == top_n_subtopics(counts, n + 1)[:n]


def test_no_output_token_is_stopworded_or_non_noun():
    cfg = StopwordConfig(
        stopwords=frozenset({"the", "virus"}),
        noun_pos_tags=frozenset({"NOUN"}),
    )
    rs = [
        record("p1", "u", tokens=(("the", "NOUN"), ("virus", "NOUN"),
                                  ("mask", "NOUN"), ("run", "VERB"))),
        record("p2", "u", tokens=(("mask", "NOUN"), ("school", "NOUN"))),
    ]
    freq = extract_candidate_tokens(rs, cfg)
    out = top_n_subtopics(freq, 10)
    assert out == ["mask", "school"]
    assert not set(out) & cfg.stopwords


def test_stopword_file_loading(tmp_path):
    one = tmp_path / "one.txt"
    one.write_text("# topic words\nvirus\ncorona\n\n", encoding="utf-8")
    two = tmp_path / "two.txt"
    two.write_text("news\nvirus\n", encoding="utf-8")
    assert load_stopword_file(str(one)) == frozenset({"virus", "corona"})
    cfg = PipelineConfig(windows=(month_window("2020-01"),), stopword_paths=(str(one), str(two)))
    assert _stopword_config(cfg).stopwords == frozenset({"virus", "corona", "news"})
