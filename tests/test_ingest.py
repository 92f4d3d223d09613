import gc
import inspect
import json
import marshal
import math
import re
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from controversy_scope import ingest, ingest_kernel
from controversy_scope.graph import build_graph
from controversy_scope.ingest import (
    Corpus,
    DuplicatePostId,
    EmptyInput,
    InteractionRecord,
    TimeWindow,
    filter_window,
    month_window,
    parse_records,
    parse_records_file,
    parse_window,
    serialize_records,
)

from controversy_scope.sentiment import PolarityLexicon, aggregate_sentiment
from controversy_scope.subtopics import extract_candidate_tokens
from controversy_scope.synth import CommunitySpec, CorpusSpec, synth_corpus

from conftest import (
    as_records,
    naive_aggregate_sentiment,
    naive_build_graph,
    naive_candidate_counts,
    naive_filter_window,
    naive_parse_records,
    normalize_ids,
    record,
)


def lines(*objs):
    return [json.dumps(o) for o in objs]


GOOD_LINE = {
    "post_id": "p1",
    "author_id": "u1",
    "timestamp": 100,
    "tokens": [["vaccine", "NOUN"], ["works", "VERB"]],
}


def test_parse_single_line():
    result = parse_records(lines(GOOD_LINE))
    assert result.malformed == 0
    assert len(result.records) == 1
    [r] = as_records(result.records)
    assert (r.author_id, r.timestamp) == ("u1", 100)
    assert r.tokens == (("vaccine", "NOUN"), ("works", "VERB"))
    assert r.repost_of is None


def test_parse_skips_line_missing_author():
    bad = dict(GOOD_LINE)
    del bad["author_id"]
    bad2 = dict(GOOD_LINE, post_id="p2", author_id="u2")
    result = parse_records(lines(bad, bad2))
    assert result.malformed == 1
    assert [r.author_id for r in as_records(result.records)] == ["u2"]


def test_parse_three_line_fixture_with_repost():
    objs = [
        {"post_id": "p1", "author_id": "alice", "timestamp": 10,
         "tokens": [["vaccine", "NOUN"]]},
        {"post_id": "p2", "author_id": "bob", "timestamp": 20,
         "tokens": [], "repost_of": ["p1", "alice"]},
        {"post_id": "p3", "author_id": "carol", "timestamp": 30,
         "tokens": [["school", "NOUN"], ["opens", "VERB"]]},
    ]
    result = parse_records(lines(*objs))
    assert result.malformed == 0
    r1, r2, r3 = as_records(result.records)
    assert r1.author_id == "alice" and r1.timestamp == 10
    assert r1.tokens == (("vaccine", "NOUN"),) and r1.repost_of is None
    assert r2.post_id != r1.post_id and r2.author_id == "bob"
    assert r2.tokens == () and r2.repost_of == (r1.post_id, "alice")
    assert r3.tokens == (("school", "NOUN"), ("opens", "VERB"))


def test_parse_rejects_bare_post_without_tokens():
    bad = {"post_id": "p1", "author_id": "u1", "timestamp": 1, "tokens": []}
    with pytest.raises(EmptyInput):
        parse_records(lines(bad))


def test_parse_empty_input_raises():
    with pytest.raises(EmptyInput):
        parse_records([])
    with pytest.raises(EmptyInput):
        parse_records(["not json", "{broken"])


def test_parse_duplicate_post_id_raises():
    twice = [record("a", "u1", 150, (("vaxx", "NOUN"),)),
             record("a", "u2", 160, (("school", "NOUN"),)),
             record("b", "u1", 170, (), ("a", "u1"))]
    for build in (lambda: parse_records(serialize_records(twice).splitlines()),
                  lambda: Corpus.from_records(twice)):
        with pytest.raises(DuplicatePostId, match="^a$"):
            build()
    with pytest.raises(DuplicatePostId, match="^p1$"):
        parse_records(lines(GOOD_LINE, GOOD_LINE))


def test_a_repost_target_that_posts_later_is_no_duplicate():
    records = [record("b", "u2", 150, (), ("a", "u1")),
               record("a", "u1", 160, (("vaxx", "NOUN"),))]
    for corpus in (parse_records(serialize_records(records).splitlines()).records,
                   Corpus.from_records(records)):
        assert as_records(corpus) == normalize_ids(records)
        assert as_records(filter_window(corpus, W, "vaxx")) == normalize_ids(records)


def test_parse_counts_many_malformed_shapes():
    shapes = [
        "[1, 2, 3]",
        json.dumps({"post_id": "", "author_id": "u", "timestamp": 1, "tokens": [["a", "N"]]}),
        json.dumps({"post_id": "x", "author_id": "u", "timestamp": "1", "tokens": [["a", "N"]]}),
        json.dumps({"post_id": "y", "author_id": "u", "timestamp": 1, "tokens": [["a"]]}),
        json.dumps({"post_id": "z", "author_id": "u", "timestamp": 1, "tokens": [],
                    "repost_of": ["p", ""]}),
        json.dumps(GOOD_LINE),
    ]
    result = parse_records(shapes)
    assert result.malformed == 5
    assert len(result.records) == 1


def test_roundtrip_serialize_parse_identity():
    originals = (
        record("p1", "u1", 5, (("a", "NOUN"),)),
        record("p2", "u2", 6, (), ("p1", "u1")),
        record("p3", "u3", 7, (("b", "NOUN"), ("c", "VERB")), ("p1", "u1")),
    )
    parsed = parse_records(serialize_records(originals).splitlines())
    assert as_records(parsed.records) == normalize_ids(originals)
    assert parsed.malformed == 0


def test_month_window_utc_and_tokyo():
    w = month_window("2020-02")
    assert w.label == "2020-02"
    assert w.start == 1580515200  # 2020-02-01T00:00:00Z
    assert w.end == 1583020800  # 2020-03-01T00:00:00Z
    tokyo = month_window("2020-02", tz="Asia/Tokyo")
    assert tokyo.start == w.start - 9 * 3600


def test_parse_window_range_forms():
    w = parse_window("100..200")
    assert (w.start, w.end, w.label) == (100, 200, "100..200")
    w2 = parse_window("2020-02-01..2020-02-03")
    assert w2.end - w2.start == 2 * 86400
    with pytest.raises(ValueError):
        parse_window("not-a-window")
    with pytest.raises(ValueError):
        TimeWindow(10, 10, "empty")


W = TimeWindow(100, 200, "w")


def filtered(records, window, query=None):
    """filter_window over the records' corpus, as id-normalized records."""
    return as_records(filter_window(Corpus.from_records(records), window, query))


def test_filter_window_boundaries():
    at_start = record("p1", "u1", ts=100)
    at_end = record("p2", "u2", ts=200)
    inside = record("p3", "u3", ts=150)
    normal = normalize_ids([at_start, at_end, inside])
    assert filtered([at_start, at_end, inside], W) == [normal[0], normal[2]]


def test_filter_window_query_and_repost_propagation():
    original = record("p1", "alice", ts=110, tokens=(("vaccine", "NOUN"),))
    bare_repost = record("p2", "bob", ts=120, tokens=(), repost_of=("p1", "alice"))
    chained = record("p3", "carol", ts=130, tokens=(), repost_of=("p2", "bob"))
    unrelated = record("p4", "dan", ts=140, tokens=(("school", "NOUN"),))
    outside = record("p5", "eve", ts=500, tokens=(("vaccine", "NOUN"),))
    repost_of_outside = record("p6", "fay", ts=150, tokens=(), repost_of=("p5", "eve"))
    records = [original, bare_repost, chained, unrelated, outside, repost_of_outside]
    assert filtered(records, W, query="vaccine") == normalize_ids(records)[:3]


def test_filter_window_idempotent_and_subset():
    records = [record(f"p{i}", f"u{i}", ts=90 + i * 7, tokens=(("t", "NOUN"),))
               for i in range(10)]
    once = filter_window(Corpus.from_records(records), W)
    twice = filter_window(once, W)
    assert as_records(once) == as_records(twice)
    with_query = filtered(records, W, query="absent")
    assert {r.post_id for r in with_query} <= {r.post_id for r in as_records(once)}


# --- the columnar stages against the record oracles -------------------------

IDS = ("a", "b", "c", "d", "e", "f", "g", "h")
VOCAB = ("vaxx", "mask", "school")
# polarities whose sums round, so a sum taken in another order shows in the bits
LEX = PolarityLexicon({"good": 0.1, "bad": -0.7, "meh": 0.3, "mask": 0.2})
STOPWORDS = frozenset({"school"})
NOUNS = frozenset({"NOUN"})


def _noun(*surfaces):
    return tuple((s, "NOUN") for s in surfaces)


def _adj(text):
    return tuple((s, "ADJ") for s in text.split())


# unique post ids from a small set, repost targets from the same set plus
# "z" (which never posts), and timestamps on both sides of W's bounds, so
# lists often hold self-reposts, cycles, out-of-window originals, targets
# missing from the list and chains in either file order
record_lists = st.lists(
    st.builds(
        InteractionRecord,
        post_id=st.sampled_from(IDS),
        author_id=st.sampled_from(("u1", "u2")),
        timestamp=st.sampled_from((99, 100, 150, 199, 200)),
        tokens=st.lists(st.tuples(st.sampled_from(VOCAB + ("good", "bad", "meh")),
                                  st.sampled_from(("NOUN", "ADJ"))), max_size=3).map(tuple),
        repost_of=st.none() | st.tuples(st.sampled_from(IDS + ("z",)),
                                        st.sampled_from(("u1", "u2", "u3"))),
    ),
    max_size=len(IDS),
    unique_by=lambda r: r.post_id,
)


def _bits(aggregate, records):
    """An aggregate's floats as hex, so equal means bit-identical; or its error."""
    try:
        mean, std, matched = aggregate(records, LEX)
    except Exception as exc:
        return type(exc)
    return mean.hex(), std.hex(), matched


ORACLE_EXAMPLES = (
    [  # a repost of an out-of-window original inherits nothing
        record("a", "u1", 300, _noun("vaxx")),
        record("b", "u2", 150, (), ("a", "u1")),
    ],
    [  # self-reposts
        record("a", "u1", 150, (), ("a", "u1")),
        record("b", "u2", 150, _noun("vaxx"), ("b", "u2")),
    ],
    [  # a cycle fed by one carrier, and one with none
        record("a", "u1", 150, (), ("b", "u1")),
        record("b", "u1", 150, (), ("c", "u1")),
        record("c", "u1", 150, _noun("vaxx"), ("a", "u1")),
        record("d", "u2", 150, (), ("e", "u2")),
        record("e", "u2", 150, (), ("d", "u2")),
    ],
    [  # a chain in reverse file order
        record("d", "u1", 150, (), ("c", "u1")),
        record("c", "u1", 150, (), ("b", "u1")),
        record("b", "u1", 150, (), ("a", "u1")),
        record("a", "u2", 150, _noun("vaxx")),
    ],
    [  # scores of 1/3 and 0.2 whose sum rounds
        record("a", "u1", 150, (("good", "ADJ"), ("meh", "ADJ"), ("bad", "ADJ"),
                                ("vaxx", "NOUN"))),
        record("b", "u2", 150, (("mask", "NOUN"), ("vaxx", "NOUN"))),
    ],
    [  # nine polarities whose mean differs in the last bits when summed pairwise
        record("a", "u1", 150, (*_adj("bad meh good meh good bad good good meh"),
                                ("vaxx", "NOUN"))),
    ],
)


def given_record_lists(test):
    """Run a test on the record_lists strategy and on every ORACLE_EXAMPLES list."""
    for records in ORACLE_EXAMPLES:
        test = example(records)(test)
    return given(record_lists)(test)


def _cells(records):
    """Each VOCAB query's columnar cell of W, taken from one window corpus."""
    in_window = filter_window(Corpus.from_records(records), W)
    return {query: filter_window(in_window, W, query) for query in VOCAB}


@given_record_lists
def test_filter_window_matches_fixpoint_oracle(records):
    normal = normalize_ids(records)
    corpus = Corpus.from_records(records)
    assert as_records(corpus) == normal
    assert as_records(filter_window(corpus, W)) == naive_filter_window(normal, W)
    for query, cell in _cells(records).items():
        assert as_records(cell) == naive_filter_window(normal, W, query)


@given_record_lists
def test_columnar_stages_match_record_oracles(records):
    for query, cell in _cells(records).items():
        expected = naive_filter_window(records, W, query)
        for min_rt in (1, 2):
            got, want = build_graph(cell, min_rt), naive_build_graph(expected, min_rt)
            assert got.nodes == want.nodes and got.edges == want.edges
        for mode in ("occurrences", "documents"):
            assert (extract_candidate_tokens(cell, STOPWORDS, NOUNS, mode)
                    == naive_candidate_counts(expected, STOPWORDS, NOUNS, mode))
        assert _bits(aggregate_sentiment, cell) == _bits(naive_aggregate_sentiment, expected)


def _reduceat_sentiment(corpus, lex):
    """aggregate_sentiment with each record's polarities summed by np.add.reduceat."""
    value = np.array([lex.polarity.get(corpus.surfaces[s], math.nan)
                      for s in corpus.token_surface.tolist()])
    hit = ~np.isnan(value)
    rows, value = corpus.token_row[hit], value[hit]
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    scores = (np.add.reduceat(value, starts) / np.diff(starts, append=rows.size)).tolist()
    mean = sum(scores) / len(scores)
    return mean, math.sqrt(sum((s - mean) ** 2 for s in scores) / len(scores)), len(scores)


def test_oracle_examples_catch_a_sentiment_sum_in_another_order():
    cell = Corpus.from_records(ORACLE_EXAMPLES[-1])
    assert _bits(aggregate_sentiment, cell) == _bits(naive_aggregate_sentiment,
                                                     ORACLE_EXAMPLES[-1])
    assert _bits(_reduceat_sentiment, cell) != _bits(aggregate_sentiment, cell)


def test_filter_window_linear_on_deep_chain_and_wide_hub():
    depth, fan = 10_000, 100_000
    chain = [record(f"c{i}", f"u{i}", 150, (), (f"c{i - 1}", f"u{i - 1}"))
             for i in range(depth - 1, 0, -1)]
    chain.append(record("c0", "u0", 150, _noun("vaxx")))
    hub = [record("h", "uh", 150, _noun("vaxx"))]
    hub += [record(f"r{j}", f"v{j}", 150, (), ("h", "uh")) for j in range(fan)]
    records = chain + hub
    start = time.perf_counter()
    kept = filter_window(Corpus.from_records(records), W, "vaxx")
    elapsed = time.perf_counter() - start
    assert as_records(kept) == normalize_ids(records)
    assert elapsed < 10.0


def test_a_window_corpus_groups_its_rows_once_for_all_queries(monkeypatch):
    grouped = []
    group = ingest._group

    def counting(keys, size):
        grouped.append(size)
        return group(keys, size)

    monkeypatch.setattr(ingest, "_group", counting)
    records = [record("a", "u1", 150, _noun("vaxx", "mask")),
               record("b", "u2", 160, (), ("a", "u1")),
               record("c", "u2", 500, _noun("mask"))]
    in_window = Corpus.from_records(records).within(W)
    assert in_window.within(W) is in_window
    inside = Corpus.from_records(records[:2])
    assert inside.within(W) is inside  # no row outside the window: nothing to cut
    for query in VOCAB:
        filter_window(in_window, W, query)
    assert len(grouped) == 2  # reposts by target, tokens by surface
    assert as_records(filter_window(in_window, W, "mask")) == normalize_ids(records)[:2]


def test_a_timestamp_outside_int64_is_malformed(tmp_path):
    top, bottom = 2**63 - 1, -2**63
    records = (record("p1", "u1", top, _noun("vaxx")),
               record("p2", "u2", 150, (), ("p1", "u1")),
               record("p3", "u1", bottom, _noun("vaxx")))
    outside = (record("p4", "u3", top + 1, _noun("vaxx")),
               record("p5", "u3", bottom - 1, _noun("vaxx")))
    text = serialize_records([outside[0], *records, outside[1]])
    path = tmp_path / "corpus.jsonl"
    path.write_text(text, encoding="utf-8")
    for result in (parse_records(text.splitlines()), parse_records_file(str(path))):
        assert result.malformed == 2
        corpus = result.records
        assert corpus.timestamp.dtype == np.int64
        assert as_records(corpus) == normalize_ids(records)
        low = TimeWindow(bottom, bottom + 1, "low")
        assert as_records(filter_window(corpus, low, "vaxx")) == normalize_ids(records)[2:]
        assert as_records(filter_window(corpus, W, "vaxx")) == []
    for stamped in outside:  # a record has no malformed verdict: it does not fit
        with pytest.raises(OverflowError):
            Corpus.from_records([*records, stamped])


def test_parsed_corpus_holds_at_most_45_bytes_per_row():
    communities = (CommunitySpec(420, ("vaxx",), 0.5), CommunitySpec(420, ("vaxx",), -0.5))
    records = synth_corpus(CorpusSpec(communities, 0.05, W, seed=1))
    lines = serialize_records(records).splitlines()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        corpus = parse_records(lines).records
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(corpus) == len(records) > 19_000
    assert held / len(corpus) <= 45


# --- ingest fuzzing ----------------------------------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=8,
)
# objects with the record's keys, holding valid-looking and arbitrary values
record_like = st.dictionaries(
    st.sampled_from(("post_id", "author_id", "timestamp", "tokens", "repost_of")),
    json_values | st.lists(st.lists(st.text(max_size=3), min_size=2, max_size=2), max_size=2),
).map(json.dumps)


@given(st.lists(st.text() | json_values.map(json.dumps) | record_like, max_size=8))
@example(["1" * 5000])  # an integer past the interpreter's digit limit
@example(["[" * 100_000])  # nesting past the recursion limit
@example([json.dumps(GOOD_LINE), json.dumps(dict(GOOD_LINE, post_id="p2"))[:-1]
          + ',"x":' + "9" * 5000 + "}"])
def test_parse_records_raises_only_its_own_errors(lines):
    try:
        result = parse_records(lines)
    except (EmptyInput, DuplicatePostId):
        return
    assert result.malformed + len(result.records) == sum(1 for line in lines if line.strip())


valid_records = st.lists(
    st.builds(
        InteractionRecord,
        post_id=st.text(min_size=1, max_size=6),
        author_id=st.text(min_size=1, max_size=6),
        timestamp=st.integers(-2**63, 2**63 - 1),  # a parsed timestamp fits int64
        tokens=st.lists(st.tuples(st.text(max_size=5), st.text(max_size=5)), max_size=3)
        .map(tuple),
        repost_of=st.none() | st.tuples(st.text(max_size=5), st.text(min_size=1, max_size=5)),
    ).filter(lambda r: r.tokens or r.repost_of),
    min_size=1,
    max_size=6,
    unique_by=lambda r: r.post_id,
)


@given(valid_records)
def test_serialize_parse_round_trip(records):
    parsed = parse_records(serialize_records(records).split("\n"))
    assert as_records(parsed.records) == normalize_ids(records)
    assert parsed.malformed == 0


# --- the parser against its oracle -------------------------------------------

G1 = json.dumps(GOOD_LINE)
G2 = json.dumps(dict(GOOD_LINE, post_id="p2", author_id="u2"))
G3 = json.dumps(dict(GOOD_LINE, post_id="p3", author_id="u3"))


def with_timestamp(text: str) -> str:
    return G1.replace('"timestamp": 100', f'"timestamp": {text}')


# characters, surrogates (which pair up when escaped next to each other) and
# the characters escapes and BOMs are made of
any_char = st.characters() | st.sampled_from('\\"\ufeff\ud83d\ude00\udcff')
any_text = st.text(any_char, max_size=4)
names = st.sampled_from(["p1", "p2", "u1"]) | any_text
pairs = st.lists(names, min_size=2, max_size=2)
# record-shaped objects; record_like varies the value types instead
record_objs = st.fixed_dictionaries(
    {"post_id": names, "author_id": names, "timestamp": st.integers(),
     "tokens": st.lists(pairs, max_size=2)},
    optional={"repost_of": st.none() | pairs},
)
KEYS = ("post_id", "author_id", "timestamp", "tokens", "repost_of")


def in_writer_order(obj: dict) -> dict:
    """The record object with its keys in serialize_records's order."""
    return {key: obj[key] for key in KEYS if key in obj}


# keys in any order or in the writer's, escaped (ensure_ascii) or raw, spaced
# or compact, alone or with a BOM, a space or trailing data around
records_json = st.builds(json.dumps, record_objs | record_objs.map(in_writer_order),
                         ensure_ascii=st.booleans(),
                         separators=st.sampled_from([None, (",", ":")]))
oracle_lines = records_json | st.builds(
    lambda head, body, tail: head + body + tail,
    st.sampled_from(["", " ", "\ufeff"]),
    records_json | json_values.map(json.dumps) | record_like | any_text,
    st.sampled_from(["", " ", " x", "{}", "\ufeff"]),
)


def compact(**fields) -> str:
    """GOOD_LINE with the given fields, as serialize_records writes a line."""
    return json.dumps(dict(GOOD_LINE, **fields), ensure_ascii=False, separators=(",", ":"))


C1 = compact()
# compact lines at each edge of the kernel's compact pattern
COMPACT_EDGES = [
    compact(post_id="t18", timestamp=10**18 - 1),  # 18 digits: the longest the pattern reads
    compact(post_id="t19", timestamp=10**18),  # 19 digits fit int64 too
    C1.replace("100", "-0"),  # decodes to 0
    compact(post_id="z").replace("100", "0100"),  # a leading zero
    compact(post_id="tmin", timestamp=-2**63),
    compact(post_id="tbig", timestamp=2**63),
    compact(post_id=""),
    compact(post_id="a", author_id=""),
    compact(post_id="r1", tokens=[], repost_of=["", "u0"]),  # an empty target is a post id
    compact(post_id="r2", tokens=[], repost_of=["p0", ""]),  # an empty author is not
    compact(post_id="n1", repost_of=None),
    compact(post_id="n2", tokens=[], repost_of=None),
    compact(post_id="e1", tokens=[]),
    compact(post_id="r3", repost_of=["p0", "u0"]),
    compact(post_id='q"', tokens=[["a\\", '"']]),  # an escaped quote and backslash
    compact(post_id="del\x7f", tokens=[["\x7f", "\x1f"]]),  # a raw DEL; an escaped control
    compact(post_id="tab").replace("vaccine", "vac\tcine"),  # a raw control character
    compact(post_id="ja", tokens=[["ワクチン", "名詞"]], repost_of=["p\u00e9", "ü"]),
    compact(post_id="s\udcff"),  # a raw lone surrogate
    json.dumps({"author_id": "u1", "post_id": "k1", "timestamp": 1, "tokens": [["a", "b"]]},
               separators=(",", ":")),  # a swapped key order
    compact(post_id="x1")[:-1] + ',"extra":1}',
    compact(post_id="c1").replace("]]}", "],]}"),
    compact(post_id="p2"),
]


def parse_outcome(parse, lines):
    """The records, id-normalized, and the malformed count, or the error raised."""
    try:
        result = parse(lines)
    except Exception as exc:
        return type(exc), str(exc)
    records = result.records
    return (as_records(records) if isinstance(records, Corpus) else normalize_ids(records),
            result.malformed)


@given(st.lists(oracle_lines, max_size=8))
@example([G1 + " x", G2])  # trailing data
@example([G1 + G2, G1 + " " + G2])  # two values on one line
@example([with_timestamp("NaN"), with_timestamp("Infinity"), with_timestamp("-Infinity"), G2])
@example(["\ufeff" + G1, G2])  # a BOM opening a line
@example([with_timestamp("1" * 5000), G2])  # an integer past the digit limit
@example(["[" * 100_000, G1[:-1] + ', "x": ' + "[" * 100_000 + "}", G2])  # deep nesting
@example([with_timestamp("true"), G2])
@example([json.dumps(dict(GOOD_LINE, repost_of=None)),
          json.dumps({"post_id": "p2", "author_id": "u2", "timestamp": 1, "tokens": [],
                      "repost_of": None})])
@example([json.dumps({"post_id": "p1", "author_id": "u1", "timestamp": 1, "tokens": [],
                      "repost_of": ["p0", ""]}),
          json.dumps({"post_id": "p2", "author_id": "u2", "timestamp": 1, "tokens": [],
                      "repost_of": ["", "u1"]})])  # an empty target author, an empty target
@example([json.dumps(dict(GOOD_LINE, tokens=[["\ud800x", "NOUN"]])), G2])  # escaped surrogate
@example([json.dumps(dict(GOOD_LINE, post_id="p\udcff"), ensure_ascii=False), G2])  # raw
@example([json.dumps(dict(GOOD_LINE, author_id="\U0001f600")), G2])  # an escaped pair is fine
@example([G1[:-1] + ', "x": "\\ud800"}', G2])  # a surrogate outside the record's fields
@example([G1, G1])
@example(COMPACT_EDGES)
@example([json.dumps(dict(GOOD_LINE, tokens=[["é", "NOUN"]]), separators=(",", ":")),
          compact(post_id="p2") + " ", C1 + "x", "\ufeff" + C1, C1 + C1])  # escaped; around
def test_parse_records_matches_naive_parser(lines):
    assert parse_outcome(parse_records, lines) == parse_outcome(naive_parse_records, lines)


def kernel_rows(lines):
    """The rows ``ingest_kernel.parse`` builds the lines' part from."""
    rows, build = [], ingest_kernel.build
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest_kernel, "build", lambda given: build(rows.extend(given) or ()))
        ingest_kernel.parse(lines)
    return rows


def as_row(fields):
    """A (post_id, author_id, timestamp, tokens, repost_of) row with tuples for lists."""
    post_id, author_id, timestamp, tokens, repost_of = fields
    return (post_id, author_id, timestamp, [tuple(pair) for pair in tokens],
            None if repost_of is None else tuple(repost_of))


def record_obj(post_id="p", author_id="u", timestamp=1, tokens=(("a", "b"),), **repost_of):
    """A record object in the writer's key order; ``repost_of`` only when given."""
    return dict(post_id=post_id, author_id=author_id, timestamp=timestamp,
                tokens=[list(pair) for pair in tokens], **repost_of)


@settings(max_examples=600)  # about one in ten reaches the pattern
@given(record_objs.map(in_writer_order), st.booleans())
# each rule of _fields the pattern repeats, on both sides of its edge
@example(record_obj(), False)  # one-character ids
@example(record_obj(post_id=""), False)
@example(record_obj(author_id=""), False)
@example(record_obj(timestamp=10**18 - 1), False)  # 18 digits
@example(record_obj(timestamp=-(10**18 - 1)), False)
@example(record_obj(timestamp=0), False)
@example(record_obj(timestamp=10**18), False)  # valid, but past the pattern's 18 digits
@example(record_obj(timestamp=-2**63), False)
@example(record_obj(timestamp=2**63), False)  # outside int64
@example(record_obj(tokens=[("", "")]), False)  # empty strings in a pair
@example(record_obj(tokens=[]), False)  # empty tokens only in a repost
@example(record_obj(tokens=[], repost_of=["", "v"]), False)  # an empty target is an id
@example(record_obj(tokens=[], repost_of=["p0", ""]), False)  # an empty author is not
@example(record_obj(repost_of=None), False)  # valid, but the writer omits the key
@example(record_obj(post_id="ワ", tokens=[("é", "\x7f")], repost_of=["", "u\x7f"]), False)
@example(record_obj(post_id="ワ"), True)  # escaped
def test_a_line_the_compact_pattern_accepts_is_valid_and_read_as_decoded(obj, ensure_ascii):
    """The pattern accepts a compact line exactly when ``_fields`` accepts it
    and it is in the pattern's subset, and it reads the row ``_fields`` does:
    a change to either rule that the other does not follow fails here."""
    line = json.dumps(obj, ensure_ascii=ensure_ascii, separators=(",", ":"))
    # the kernel tries the pattern on encodable lines only
    if not ingest_kernel._utf8_encodable(line):
        return
    fields = ingest_kernel._fields(json.loads(line))
    in_subset = ("\\" not in line and obj.get("repost_of", ()) is not None
                 and abs(obj["timestamp"]) < 10**18)
    assert bool(ingest_kernel._compact(line)) == (fields is not None and in_subset)
    if fields is not None and in_subset:
        assert [as_row(row) for row in kernel_rows([line])] == [as_row(fields)]


def test_the_compact_pattern_compiles_on_python_3_10():
    # pyproject allows 3.10, whose re has no possessive repeats or atomic groups
    pattern = ingest_kernel._compact.__self__.pattern
    assert not re.search(r"[*+?}]\+|\(\?>", pattern)


def test_every_line_serialize_records_writes_of_a_synth_corpus_is_compact():
    communities = (CommunitySpec(40, ("vaxx",), 0.5), CommunitySpec(40, ("vaxx",), -0.5))
    lines = serialize_records(synth_corpus(CorpusSpec(communities, 0.05, W, seed=2)))
    assert all(map(ingest_kernel._compact, lines.splitlines()))


def test_hostile_compact_lines_get_the_oracle_verdict_in_linear_time():
    head = '{"post_id":"h","author_id":"u","timestamp":1,"tokens":['
    pairs = ",".join(['["vaccine","NOUN"]'] * 100_000)
    hostile = [head + pairs + ',["vaccine"]]}',  # the last pair is broken
               head + pairs + "]}x",  # a whole line, and a stray byte after its brace
               '{"post_id":"' + "p" * 1_000_000]  # a post id with no closing quote
    for line in hostile:
        start = time.perf_counter()
        got = parse_outcome(parse_records, [line, G1])
        elapsed = time.perf_counter() - start
        assert got == parse_outcome(naive_parse_records, [line, G1])
        assert got[1] == 1
        assert elapsed < 5.0


def test_parse_file_counts_an_invalid_utf8_line_as_malformed(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_bytes("\n".join([G1, G2.replace('"p2"', '"p\udcff2"'), G3, ""])
                     .encode("utf-8", "surrogateescape"))
    assert b"\xff" in path.read_bytes()
    result = parse_records_file(str(path))
    assert [r.author_id for r in as_records(result.records)] == ["u1", "u3"]
    assert result.malformed == 1


def test_parse_file_counts_an_escaped_lone_surrogate_as_malformed(tmp_path):
    path = tmp_path / "corpus.jsonl"
    bad = json.dumps(dict(GOOD_LINE, post_id="p2", tokens=[["\ud800x", "NOUN"]]))
    path.write_text("\n".join([G1, bad, G3]), encoding="utf-8")
    result = parse_records_file(str(path))
    assert [r.author_id for r in as_records(result.records)] == ["u1", "u3"]
    assert result.malformed == 1


def test_parse_file_drops_a_leading_bom_only(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join([G1, G2]), encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    result = parse_records_file(str(path))
    assert [r.author_id for r in as_records(result.records)] == ["u1", "u2"]
    assert result.malformed == 0
    assert parse_records(["\ufeff" + G1, G2]).malformed == 1


def nested(depth: int) -> str:
    """G1 with one more key, holding lists that nest the line ``depth`` deep."""
    return G1[:-1] + ', "x": ' + "[" * (depth - 1) + "]" * (depth - 1) + "}"


@pytest.mark.parametrize("depth, malformed", [(ingest_kernel.MAX_DEPTH, 0),
                                              (ingest_kernel.MAX_DEPTH + 1, 1)])
def test_a_line_nested_past_max_depth_is_malformed(depth, malformed):
    lines = [nested(depth), G2]
    assert parse_records(lines).malformed == malformed
    assert parse_outcome(parse_records, lines) == parse_outcome(naive_parse_records, lines)


def frames_deeper(frames, call):
    return call() if frames == 0 else frames_deeper(frames - 1, call)


@pytest.mark.parametrize("depth", [ingest_kernel.MAX_DEPTH, 700])
def test_a_line_gets_one_verdict_at_any_stack_depth(tmp_path, depth):
    line = nested(depth)
    # the deepest call leaves the decode too little stack, so it is retried
    deepest = sys.getrecursionlimit() - len(inspect.stack()) - 50
    verdicts = [frames_deeper(frames, lambda: ingest_kernel.parse([line]).malformed)
                for frames in (0, 400, deepest)]
    path = tmp_path / "corpus.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    child = subprocess.run([sys.executable, "-I", "-S", ingest_kernel.__file__, str(path), "0",
                            str(path.stat().st_size)], capture_output=True, timeout=60, check=True)
    verdicts.append(marshal.loads(child.stdout)[0])
    assert verdicts == [int(depth > ingest_kernel.MAX_DEPTH)] * 4


# --- the collector around a parse --------------------------------------------


class StreamFailed(Exception):
    pass


def failing_stream():
    yield G1
    raise StreamFailed


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("stream, error", [
    (lambda: iter([G1, G2]), None),
    (lambda: iter([G1, G1]), DuplicatePostId),
    (lambda: iter(["not json"]), EmptyInput),
    (failing_stream, StreamFailed),
])
def test_parse_records_leaves_the_collector_as_found(enabled, stream, error):
    during = []

    def watched():
        for line in stream():
            during.append(gc.isenabled())
            yield line

    (gc.enable if enabled else gc.disable)()
    try:
        if error is None:
            parse_records(watched())
        else:
            with pytest.raises(error):
                parse_records(watched())
        after = gc.isenabled()
    finally:
        gc.enable()
    assert during and all(state == enabled for state in during)
    assert after == enabled
