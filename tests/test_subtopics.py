import numpy as np
import pytest

from controversy_scope.ingest import Corpus, month_window
from controversy_scope.pipeline import PipelineConfig, _stopwords
from controversy_scope.subtopics import (
    extract_candidate_tokens,
    load_stopword_file,
    top_n_subtopics,
)

from conftest import record

NOUN = frozenset({"NOUN"})


def test_pos_filter_keeps_nouns_only():
    r = record("p1", "u1", tokens=(("vaccine", "NOUN"), ("is", "VERB")))
    assert extract_candidate_tokens(Corpus.from_records([r]), noun_tags=NOUN) == {"vaccine": 1}


def test_custom_stopword_excluded():
    r = record("p1", "u1", tokens=(("news", "NOUN"), ("school", "NOUN")))
    assert extract_candidate_tokens(Corpus.from_records([r]), frozenset({"news"}), NOUN) == {"school": 1}


def test_occurrence_counting_across_records():
    rs = [
        record("p1", "u1", tokens=(("school", "NOUN"), ("school", "NOUN"))),
        record("p2", "u2", tokens=(("school", "NOUN"), ("school", "NOUN"))),
    ]
    assert extract_candidate_tokens(Corpus.from_records(rs), noun_tags=NOUN) == {"school": 4}
    assert extract_candidate_tokens(Corpus.from_records(rs), noun_tags=NOUN, count_mode="documents") == {"school": 2}


def test_bare_reposts_contribute_nothing():
    rs = [
        record("p1", "u1", tokens=(("park", "NOUN"),)),
        record("p2", "u2", tokens=(), repost_of=("p1", "u1")),
    ]
    assert extract_candidate_tokens(Corpus.from_records(rs), noun_tags=NOUN) == {"park": 1}


def test_extraction_permutation_invariant():
    rng = np.random.default_rng(0)
    rs = [
        record(f"p{i}", "u", tokens=((f"t{rng.integers(0, 5)}", "NOUN"),))
        for i in range(30)
    ]
    forward = extract_candidate_tokens(Corpus.from_records(rs), noun_tags=NOUN)
    backward = extract_candidate_tokens(Corpus.from_records(reversed(rs)), noun_tags=NOUN)
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
    stopwords = frozenset({"the", "virus"})
    rs = [
        record("p1", "u", tokens=(("the", "NOUN"), ("virus", "NOUN"),
                                  ("mask", "NOUN"), ("run", "VERB"))),
        record("p2", "u", tokens=(("mask", "NOUN"), ("school", "NOUN"))),
    ]
    freq = extract_candidate_tokens(Corpus.from_records(rs), stopwords, NOUN)
    out = top_n_subtopics(freq, 10)
    assert out == ["mask", "school"]
    assert not set(out) & stopwords


def test_stopword_file_drops_a_leading_bom(tmp_path):
    path = tmp_path / "bom.txt"
    path.write_text("\ufeffvaxx\nnews\n", encoding="utf-8")
    assert load_stopword_file(str(path)) == frozenset({"vaxx", "news"})


def test_stopword_file_loading(tmp_path):
    one = tmp_path / "one.txt"
    one.write_text("# topic words\nvirus\ncorona\n\n", encoding="utf-8")
    two = tmp_path / "two.txt"
    two.write_text("news\nvirus\n", encoding="utf-8")
    assert load_stopword_file(str(one)) == frozenset({"virus", "corona"})
    cfg = PipelineConfig(windows=(month_window("2020-01"),), stopword_paths=(str(one), str(two)))
    assert _stopwords(cfg) == frozenset({"virus", "corona", "news"})
