import math

import numpy as np
import pytest

from controversy_scope.ingest import Corpus
from controversy_scope.sentiment import (
    AllUnmatched,
    PolarityLexicon,
    aggregate_sentiment,
    load_lexicon,
    score_text,
)

from conftest import record

LEX = PolarityLexicon({"good": 1.0, "bad": -1.0, "meh": 0.25})


def toks(*surfaces):
    return tuple((s, "ADJ") for s in surfaces)


def test_score_single_match():
    assert score_text(toks("good"), LEX) == 1.0


def test_score_cancellation():
    assert score_text(toks("good", "bad"), LEX) == 0.0


def test_score_mean_of_matches_only():
    assert score_text(toks("good", "good", "bad"), LEX) == pytest.approx(1 / 3)
    assert score_text(toks("good", "unknown", "unknown"), LEX) == 1.0


def test_score_no_match_is_none():
    assert score_text(toks("unknown"), LEX) is None
    assert score_text((), LEX) is None


def test_score_bounded_and_antisymmetric():
    rng = np.random.default_rng(2)
    surfaces = list(LEX.polarity)
    negated = PolarityLexicon({s: -v for s, v in LEX.polarity.items()})
    for _ in range(50):
        sample = toks(*rng.choice(surfaces, size=int(rng.integers(1, 6))))
        score = score_text(sample, LEX)
        assert score is not None and -1.0 <= score <= 1.0
        assert score_text(sample, negated) == pytest.approx(-score)


def test_aggregate_two_records_mean_zero_std_one():
    records = [record("p1", "u", tokens=toks("good")),
               record("p2", "u", tokens=toks("bad"))]
    mean, std, matched = aggregate_sentiment(Corpus.from_records(records), LEX)
    assert (mean, std, matched) == (0.0, 1.0, 2)


def test_aggregate_single_record_zero_std():
    mean, std, matched = aggregate_sentiment(Corpus.from_records([record("p1", "u", tokens=toks("meh"))]), LEX)
    assert (mean, std, matched) == (0.25, 0.0, 1)


def test_aggregate_matches_two_pass_oracle():
    rng = np.random.default_rng(5)
    surfaces = list(LEX.polarity) + ["noise"]
    records = [
        record(f"p{i}", "u", tokens=toks(*rng.choice(surfaces, size=3)))
        for i in range(20)
    ]
    scores = [s for s in (score_text(r.tokens, LEX) for r in records) if s is not None]
    oracle_mean = sum(scores) / len(scores)
    oracle_std = math.sqrt(sum((s - oracle_mean) ** 2 for s in scores) / len(scores))
    mean, std, matched = aggregate_sentiment(Corpus.from_records(records), LEX)
    assert matched == len(scores)
    assert mean == pytest.approx(oracle_mean, abs=1e-12)
    assert std == pytest.approx(oracle_std, abs=1e-12)


def test_aggregate_skips_unmatched_records():
    records = [record("p1", "u", tokens=toks("good")),
               record("p2", "u", tokens=toks("noise"))]
    mean, std, matched = aggregate_sentiment(Corpus.from_records(records), LEX)
    assert (mean, matched) == (1.0, 1)


def test_aggregate_all_unmatched_raises():
    with pytest.raises(AllUnmatched):
        aggregate_sentiment(Corpus.from_records([record("p1", "u", tokens=toks("noise"))]), LEX)


def test_aggregate_duplication_invariance():
    records = [record(f"p{i}", "u", tokens=toks(s))
               for i, s in enumerate(("good", "bad", "meh"))]
    doubled = records + [
        record(f"q{i}", "u", tokens=r.tokens) for i, r in enumerate(records)
    ]
    mean1, std1, _ = aggregate_sentiment(Corpus.from_records(records), LEX)
    mean2, std2, _ = aggregate_sentiment(Corpus.from_records(doubled), LEX)
    assert mean2 == pytest.approx(mean1, abs=1e-12)
    assert std2 == pytest.approx(std1, abs=1e-12)


def test_lexicon_file_roundtrip(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("# comment\ngood\t1.0\nbad\t-1.0\n", encoding="utf-8")
    lex = load_lexicon(str(path))
    assert lex.polarity == {"good": 1.0, "bad": -1.0}
    bad = tmp_path / "bad.tsv"
    bad.write_text("nopolarity\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_lexicon(str(bad))


def test_lexicon_file_drops_a_leading_bom(tmp_path):
    path = tmp_path / "bom.tsv"
    path.write_text("\ufeffgood\t1.0\nbad\t-1.0\n", encoding="utf-8")
    assert load_lexicon(str(path)).polarity == {"good": 1.0, "bad": -1.0}


def test_lexicon_validation():
    with pytest.raises(ValueError):
        PolarityLexicon({"over": 1.5})
    with pytest.raises(ValueError):
        PolarityLexicon({"": 0.5})
