import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from controversy_scope.graph import build_graph, dump_edgelist
from controversy_scope.ingest import Corpus, TimeWindow, serialize_records
from controversy_scope.synth import (
    CommunitySpec,
    CorpusSpec,
    PlantedSpec,
    planted_partition,
    synth_corpus,
)

from conftest import bfs_components, side_nodes

WINDOW = TimeWindow(1_600_000_000, 1_602_592_000, "2020-09")


def test_planted_zero_pout_single_bridge():
    pg = planted_partition(PlantedSpec(50, 0.5, 0.0, seed=1))
    assert len(pg.bridges) == 1
    (u, v), = pg.bridges
    assert pg.ground_truth.side_of[u] != pg.ground_truth.side_of[v]
    assert len(bfs_components(pg.graph)) == 1


def test_planted_cliques_plus_bridge():
    pg = planted_partition(PlantedSpec(10, 1.0, 0.0, seed=2))
    # each block is a complete graph; one forced bridge joins them
    assert pg.graph.edge_count == 2 * (10 * 9 // 2) + 1
    assert pg.bridges == (("x0", "y0"),)
    assert pg.ground_truth.cut == 1


def test_planted_edge_count_matches_binomial_mean():
    n = 60
    p = 0.1
    pairs_intra = n * (n - 1) // 2
    expected = 2 * pairs_intra * p + n * n * p
    sigma = np.sqrt(expected * (1 - p))
    counts = [
        planted_partition(PlantedSpec(n, p, p, seed=s)).graph.edge_count
        for s in range(10)
    ]
    assert abs(np.mean(counts) - expected) < 3 * sigma / np.sqrt(len(counts))


def test_planted_ground_truth_sides_and_determinism():
    spec = PlantedSpec(25, 0.3, 0.05, seed=9)
    pg1 = planted_partition(spec)
    pg2 = planted_partition(spec)
    assert pg1.graph.nodes == pg2.graph.nodes and pg1.graph.edges == pg2.graph.edges
    assert pg1.ground_truth == pg2.ground_truth
    assert len(side_nodes(pg1.ground_truth, "X")) == 25
    assert len(side_nodes(pg1.ground_truth, "Y")) == 25


@pytest.mark.parametrize("spec, n_bridges, digest", [
    # p_out = 0: one forced bridge
    (PlantedSpec(12, 0.5, 0.0, seed=1), 1,
     "60bedfa637e249eb9c1793189d556ed5b7c67e370fae9bbd9218eac1010a1a88"),
    # p_in = 1: complete blocks, no bridge
    (PlantedSpec(7, 1.0, 0.2, seed=2), 0,
     "f4f46c15d4046fb339ddd6e66dacda6aa743d6409ea05279609f4b8f0f2d5e79"),
    (PlantedSpec(30, 0.06, 0.01, seed=3), 4,
     "9604ec4023a5d3636809a97f56615122b46715ab535197ba9edfbe20e1e9331f"),
    (PlantedSpec(500, 0.006, 0.0005, seed=4), 50,
     "0803a56f8b2128eb7d9f99b851901b029e539c5675f7a8aa093da55649bcb462"),
])
def test_planted_graph_sides_and_bridges_keep_their_bytes(spec, n_bridges, digest):
    # sha256 of the edge list, the .sides lines and the bridges, as generated
    # by the string-keyed edge-map builder this one replaced
    pg = planted_partition(spec)
    sides = "".join(f"{node} {side}\n" for node, side in pg.ground_truth.side_of.items())
    text = dump_edgelist(pg.graph) + sides + repr(pg.bridges)
    assert len(pg.bridges) == n_bridges
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_planted_spec_validation():
    with pytest.raises(ValueError):
        PlantedSpec(1, 0.5, 0.1)
    with pytest.raises(ValueError):
        PlantedSpec(10, 0.1, 0.5)
    with pytest.raises(ValueError):
        PlantedSpec(10, 0.5, 0.1, seed=-1)


def two_community_spec(seed=0, **overrides):
    defaults = dict(
        communities=(
            CommunitySpec(120, ("vaxx",), 0.5),
            CommunitySpec(120, ("vaxx",), -0.5),
        ),
        cross_repost_rate=0.02,
        window=WINDOW,
        seed=seed,
    )
    defaults.update(overrides)
    return CorpusSpec(**defaults)


def test_corpus_zero_cross_rate_has_no_intercommunity_pairs():
    records = synth_corpus(two_community_spec(seed=3, cross_repost_rate=0.0))
    for r in records:
        if r.repost_of is not None:
            assert r.author_id[:2] == r.repost_of[1][:2]


def test_corpus_record_count_conservation():
    spec = two_community_spec(seed=4)
    records = synth_corpus(spec)
    per_author: dict[str, int] = {}
    for r in records:
        per_author[r.author_id] = per_author.get(r.author_id, 0) + 1
    assert len(per_author) == 240
    lo, hi = spec.posts_per_author
    assert all(lo <= c <= hi for c in per_author.values())


def test_corpus_deterministic_by_seed():
    spec = two_community_spec(seed=5)
    assert synth_corpus(spec) == synth_corpus(spec)
    assert synth_corpus(spec) != synth_corpus(two_community_spec(seed=6))


@pytest.mark.parametrize("spec, n_records, digest", [
    (two_community_spec(seed=5), 5757,
     "7c4011d640ad8c94ac5ad86b1e10e6fd065b7de4ba48344ada462cd8eef7d89c"),
    # topic-less authors, a lone author with two topic tokens, a fully negative
    # camp; background reposts never cross, and few posts are originals
    (CorpusSpec(
        communities=(
            CommunitySpec(3, ()),
            CommunitySpec(1, ("masks", "schools")),
            CommunitySpec(5, ("vaxx",), -1.0),
        ),
        cross_repost_rate=0.5,
        window=WINDOW,
        seed=5,
        background_cross_rate=0.0,
        posts_per_author=(1, 3),
        repost_fraction=0.9,
        n_favorites=2,
    ), 20, "bdf379924e3c02c5354867825d64e2991727714d27c3e04cc27fa26879655301"),
    # one author: nobody to repost, so every post is an original
    (CorpusSpec(communities=(CommunitySpec(1, ("vaxx",)),), cross_repost_rate=0.02,
                window=WINDOW, seed=5), 26,
     "0fd33a10f22274916e92c40c1e3c60214293aa5be30e16319a0f9f03853c42fc"),
])
def test_corpus_keeps_its_bytes(spec, n_records, digest):
    # sha256 of the serialized corpus: any change to synth_corpus's draws,
    # their order or the records it builds from them moves it
    records = synth_corpus(spec)
    assert len(records) == n_records
    assert hashlib.sha256(serialize_records(records).encode()).hexdigest() == digest


rates = st.floats(0.0, 1.0)
small_specs = st.builds(
    CorpusSpec,
    communities=st.lists(
        st.builds(CommunitySpec, st.integers(1, 6),
                  st.lists(st.sampled_from(["vaxx", "masks"]), max_size=2, unique=True).map(tuple),
                  st.floats(-1.0, 1.0)),
        min_size=1, max_size=3,
    ).map(tuple),
    cross_repost_rate=rates,
    window=st.just(WINDOW),
    posts_per_author=st.tuples(st.integers(1, 4), st.integers(1, 4)).map(sorted).map(tuple),
    seed=st.integers(0, 1000),
    repost_fraction=st.floats(0.0, 1.0, exclude_max=True),
    topic_post_rate=rates,
    n_favorites=st.integers(1, 3),
    background_cross_rate=st.none() | rates,
)


@settings(max_examples=50)
@given(small_specs)
def test_any_valid_spec_gives_a_well_formed_corpus(spec):
    records = synth_corpus(spec)
    by_id = {r.post_id: r for r in records}
    per_author: dict[str, int] = {}
    for r in records:
        per_author[r.author_id] = per_author.get(r.author_id, 0) + 1
        assert WINDOW.contains(r.timestamp)
        if r.repost_of is not None:
            original = by_id[r.repost_of[0]]
            assert r.tokens == ()
            assert original.repost_of is None and original.author_id == r.repost_of[1]
    assert len(by_id) == len(records)
    assert len(per_author) == sum(c.n_authors for c in spec.communities)
    lo, hi = spec.posts_per_author
    assert all(lo <= n <= hi for n in per_author.values())


def test_corpus_timestamps_inside_window():
    records = synth_corpus(two_community_spec(seed=7))
    assert all(WINDOW.contains(r.timestamp) for r in records)


def test_corpus_reposts_reference_real_originals():
    records = synth_corpus(two_community_spec(seed=8))
    by_id = {r.post_id: r for r in records}
    for r in records:
        if r.repost_of is None:
            continue
        original_id, original_author = r.repost_of
        original = by_id[original_id]
        assert original.repost_of is None
        assert original.author_id == original_author
        assert r.tokens == ()


def test_corpus_topic_posts_carry_planted_token():
    records = synth_corpus(two_community_spec(seed=9))
    surfaces = {s for r in records for s in r.surfaces()}
    assert "vaxx" in surfaces and "covid" in surfaces
    for r in records:
        if r.repost_of is None:
            nouns = {s for s, pos in r.tokens if pos == "NOUN"}
            assert nouns == {"vaxx"} or nouns == {"covid"}


def test_corpus_sentiment_bias_direction():
    records = synth_corpus(two_community_spec(seed=10))
    pos = {"c0": 0, "c1": 0}
    neg = {"c0": 0, "c1": 0}
    for r in records:
        community = r.author_id[:2]
        for surface, _ in r.tokens:
            if surface == "good":
                pos[community] += 1
            elif surface == "bad":
                neg[community] += 1
    assert pos["c0"] > neg["c0"]  # bias +0.5
    assert neg["c1"] > pos["c1"]  # bias -0.5


def test_corpus_cross_mixing_differs_by_content_class():
    # topical endorsement stays inside the camp (rate 0.02) while background
    # endorsement mixes freely (rate 0.5), so the per-class graphs separate
    spec = two_community_spec(
        seed=11,
        communities=(
            CommunitySpec(400, ("vaxx",), 0.0),
            CommunitySpec(400, ("vaxx",), 0.0),
        ),
        background_cross_rate=0.5,
    )
    records = synth_corpus(spec)
    by_id = {r.post_id: r for r in records}

    def cross_fraction(token: str) -> float:
        class_reposts = [
            r for r in records
            if r.repost_of is not None and token in by_id[r.repost_of[0]].surfaces()
        ]
        g = build_graph(Corpus.from_records(class_reposts), min_rt=2)
        cross = sum(1 for (u, v) in g.edges if u[:2] != v[:2])
        return cross / g.edge_count

    assert cross_fraction("vaxx") < 0.05
    assert cross_fraction("covid") > 0.3


def test_corpus_spec_validation():
    with pytest.raises(ValueError):
        CorpusSpec(communities=(), cross_repost_rate=0.1, window=WINDOW)
    with pytest.raises(ValueError):
        two_community_spec(cross_repost_rate=1.5)
    with pytest.raises(ValueError):
        two_community_spec(posts_per_author=(0, 5))
    with pytest.raises(ValueError):
        CommunitySpec(10, (), polarity_bias=2.0)
    with pytest.raises(ValueError):
        two_community_spec(seed=-3)
    with pytest.raises(ValueError):
        two_community_spec(repost_fraction=1.0)


def test_single_community_topic_token_not_polarized():
    from controversy_scope.pipeline import PipelineConfig, run_pipeline

    for seed in range(5):
        spec = CorpusSpec(
            communities=(CommunitySpec(1200, ("rates",), 0.0),),
            cross_repost_rate=0.02,
            window=WINDOW,
            seed=seed,
            posts_per_author=(32, 44),
            topic_post_rate=0.6,
            n_favorites=6,
        )
        records = synth_corpus(spec)
        cfg = PipelineConfig(windows=(WINDOW,), queries=("rates",), seed=9)
        report = run_pipeline(cfg, records=records)[0]
        assert not report.undersized
        assert abs(report.rwc.score) < 0.15, (seed, report.rwc.score)
