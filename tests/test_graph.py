import time

import numpy as np
import pytest

from controversy_scope.graph import (
    EndorsementGraph,
    UnderSized,
    build_graph,
    dump_edgelist,
    is_connected,
    k_core,
    largest_component,
    prepare_conversation_graph,
)
from controversy_scope.ingest import Corpus, TimeWindow, filter_window
from controversy_scope.partition import SIDE_X, bisect, max_side_nodes
from controversy_scope.pipeline import PipelineConfig, run_pipeline
from controversy_scope.rwc import rwc_monte_carlo, rwc_score
from controversy_scope.synth import CommunitySpec, CorpusSpec, synth_corpus

from conftest import (
    bfs_components,
    clique_edges,
    connected_components,
    edge_counts,
    edge_key,
    graph_from_edges,
    naive_k_core,
    random_graph,
    record,
    same_csr,
)


def repost(post_id, author, of_post, of_author, ts=150):
    return record(post_id, author, ts=ts, tokens=(), repost_of=(of_post, of_author))


def test_build_graph_combined_threshold():
    rs = [
        record("p1", "v", tokens=(("t", "NOUN"),)),
        repost("p2", "u", "p1", "v"),
        repost("p3", "u", "p1", "v"),
    ]
    g = build_graph(Corpus.from_records(rs), min_rt=2)
    assert g.edges == {("u", "v"): 2}
    assert g.nodes == ("u", "v")


def test_build_graph_mutual_reposts_meet_threshold():
    rs = [
        record("p1", "v", tokens=(("t", "NOUN"),)),
        record("p2", "u", tokens=(("t", "NOUN"),)),
        repost("p3", "u", "p1", "v"),
        repost("p4", "v", "p2", "u"),
    ]
    g = build_graph(Corpus.from_records(rs), min_rt=2)
    assert g.edges == {("u", "v"): 2}


def test_build_graph_ignores_self_reposts_and_singletons():
    rs = [
        record("p1", "u", tokens=(("t", "NOUN"),)),
        repost("p2", "u", "p1", "u"),
        repost("p3", "w", "p1", "u"),  # single repost, below threshold
    ]
    g = build_graph(Corpus.from_records(rs), min_rt=2)
    assert g.nodes == () and g.edges == {}


def test_build_graph_permutation_invariant():
    rng = np.random.default_rng(5)
    rs = [record("p0", "a0", tokens=(("t", "NOUN"),))]
    for i in range(40):
        u, v = f"a{rng.integers(0, 6)}", f"a{rng.integers(0, 6)}"
        rs.append(repost(f"p{i+1}", u, "p0", v))
    g1 = build_graph(Corpus.from_records(rs))
    order = rng.permutation(len(rs))
    g2 = build_graph(Corpus.from_records(rs[i] for i in order))
    assert g1.nodes == g2.nodes and g1.edges == g2.edges


def test_k_core_path_peels_to_empty():
    g = graph_from_edges({("a", "b"): 1, ("b", "c"): 1})
    result = k_core(g, 2)
    assert result.node_count == 0 and result.edge_count == 0


def test_k_core_triangle_unchanged():
    g = graph_from_edges(clique_edges(["a", "b", "c"]))
    assert k_core(g, 2) == g


def test_k_core_matches_naive_peeling_oracle():
    rng = np.random.default_rng(11)
    for _ in range(60):
        g = random_graph(int(rng.integers(2, 13)), float(rng.uniform(0.1, 0.7)), rng)
        for k in (1, 2, 3):
            core = k_core(g, k)
            assert set(core.nodes) == naive_k_core(g, k)
            assert same_csr(core, EndorsementGraph.from_edges(core.nodes, core.edges))


def test_k_core_idempotent_and_nested():
    rng = np.random.default_rng(13)
    for _ in range(20):
        g = random_graph(10, 0.4, rng)
        core2 = k_core(g, 2)
        assert k_core(core2, 2) == core2
        assert set(k_core(g, 3).nodes) <= set(core2.nodes)


def test_largest_component_picks_bigger():
    g = graph_from_edges({**clique_edges(["a", "b", "c", "d", "e"]),
                          **clique_edges(["x", "y", "z"])})
    assert largest_component(g).nodes == ("a", "b", "c", "d", "e")


def test_largest_component_connected_identity():
    g = graph_from_edges(clique_edges(["a", "b", "c"]))
    assert largest_component(g) == g


def test_largest_component_tie_break_by_min_id():
    g = graph_from_edges({**clique_edges(["m", "n", "o", "p"]),
                          **clique_edges(["a", "b", "c", "d"])})
    assert largest_component(g).nodes == ("a", "b", "c", "d")


def test_largest_component_matches_bfs_oracle():
    rng = np.random.default_rng(17)
    for _ in range(60):
        g = random_graph(int(rng.integers(1, 13)), float(rng.uniform(0.05, 0.5)), rng)
        got = largest_component(g)
        comps = bfs_components(g)
        expected = min(comps, key=lambda c: (-len(c), min(c)))
        assert set(got.nodes) == expected
        assert len(bfs_components(got)) <= 1
        assert same_csr(got, EndorsementGraph.from_edges(got.nodes, got.edges))
        assert got.edges == {pair: w for pair, w in g.edges.items()
                             if pair[0] in expected and pair[1] in expected}


def test_prepare_small_corpus_undersized():
    rs = [record("p0", "a", tokens=(("t", "NOUN"),))]
    rs += [repost(f"p{i+1}", f"b{i%3}", "p0", "a") for i in range(12)]
    result = prepare_conversation_graph(Corpus.from_records(rs), min_nodes=800)
    assert isinstance(result, UnderSized)
    assert result.node_count <= 4


def test_prepare_emptied_by_k_core_reports_zero():
    rs = [record("p0", "a", tokens=(("t", "NOUN"),))]
    rs += [repost(f"p{i+1}", "b", "p0", "a") for i in range(3)]  # one edge only
    result = prepare_conversation_graph(Corpus.from_records(rs), min_nodes=10)
    assert result == UnderSized(0)


def test_prepare_success_is_connected_min_degree_two():
    # ring of 20 authors, each reposting the next one twice
    rs = [record(f"o{i}", f"a{i:02d}", tokens=(("t", "NOUN"),)) for i in range(20)]
    pid = 0
    for i in range(20):
        for _ in range(2):
            rs.append(repost(f"r{pid}", f"a{i:02d}", f"o{(i+1) % 20}", f"a{(i+1) % 20:02d}"))
            pid += 1
    g = prepare_conversation_graph(Corpus.from_records(rs), min_nodes=5)
    assert isinstance(g, EndorsementGraph)
    assert g.node_count == 20
    degrees = edge_counts(g)
    assert min(degrees.values()) >= 2
    assert len(bfs_components(g)) == 1


def test_a_pair_with_no_cross_reposts_keeps_one_camp_and_scores_unpolarized():
    # Pins the largest-component rule: with no cross reposts the 2-core is
    # one component per camp, and keeping the largest reads the strongest
    # echo chamber as no controversy. A change to the rule changes this.
    window = TimeWindow(1_600_000_000, 1_602_592_000, "2020-09")
    camps = (CommunitySpec(600, ("vaxx",), 0.6), CommunitySpec(600, ("vaxx",), -0.6))
    records = synth_corpus(CorpusSpec(camps, 0.0, window, seed=1))
    cell = filter_window(Corpus.from_records(records), window, "vaxx")
    components = connected_components(k_core(build_graph(cell), 2))
    assert len(components) == 2
    assert all(len({node[:2] for node in c}) == 1 for c in components)  # "c0…" or "c1…"
    prepared = prepare_conversation_graph(cell, min_nodes=300)
    assert list(prepared.nodes) in components  # one camp's component, whole
    assert prepared.node_count == max(map(len, components))
    [row] = run_pipeline(PipelineConfig(windows=(window,), min_nodes=300, seed=1,
                                        queries=("vaxx",)), records=records)
    assert row.node_count == prepared.node_count
    assert row.rwc is not None and row.rwc.score < 0.3


@pytest.mark.parametrize("cross_rate, polarized", [(0.05, True), (0.3, False)])
def test_a_planted_pair_reads_polarized_at_a_low_cross_rate_only(cross_rate, polarized):
    # The calibration curve: the mean score over seeds 1-3 falls with the
    # cross rate and crosses the 0.3 cut between rates 0.1 and 0.2.
    window = TimeWindow(1_600_000_000, 1_602_592_000, "2020-09")
    camps = (CommunitySpec(600, ("vaxx",), 0.6), CommunitySpec(600, ("vaxx",), -0.6))
    scores = []
    for seed in (1, 2, 3):
        records = synth_corpus(CorpusSpec(camps, cross_rate, window, seed=seed))
        [row] = run_pipeline(PipelineConfig(windows=(window,), min_nodes=300, seed=seed,
                                            queries=("vaxx",)), records=records)
        scores.append(row.rwc.score)
    assert (sum(scores) / len(scores) > 0.3) == polarized


def test_dump_edgelist_format():
    g = graph_from_edges({("b", "a"): 2, ("c", "a"): 5})
    assert dump_edgelist(g) == "a b 2\na c 5\n"


def test_build_graph_rejects_bad_threshold():
    with pytest.raises(ValueError):
        build_graph(Corpus.from_records([]), min_rt=0)
    with pytest.raises(ValueError):
        k_core(graph_from_edges({}), 0)


def test_connected_components_ordered_by_smallest_id():
    rng = np.random.default_rng(19)
    for _ in range(40):
        g = random_graph(int(rng.integers(1, 13)), float(rng.uniform(0.05, 0.5)), rng)
        expected = sorted((sorted(c) for c in bfs_components(g)), key=lambda c: c[0])
        assert connected_components(g) == expected
        assert is_connected(g) == (len(expected) == 1)


def _cycle_edges(names):
    return {edge_key(u, v): 1 for u, v in zip(names, names[1:] + names[:1])}


def test_hostile_shapes_peel_and_split_in_linear_time():
    n = 100_000
    names = [f"v{i:06d}" for i in range(n)]
    walk = [names[i] for i in np.random.default_rng(23).permutation(n)]  # ids out of path order
    path = EndorsementGraph.from_edges(names, {edge_key(u, v): 1 for u, v in zip(walk, walk[1:])})
    star = EndorsementGraph.from_edges(names + ["hub"], {edge_key("hub", leaf): 1 for leaf in names})
    # two equal cycles; the one holding the smallest id "a" has otherwise larger ids
    small = ["a"] + [f"z{i:05d}" for i in range(n // 2 - 1)]
    other = [f"b{i:05d}" for i in range(n // 2)]
    cycles = EndorsementGraph.from_edges(small + other,
                                         {**_cycle_edges(other), **_cycle_edges(small)})
    start = time.perf_counter()
    for chain in (path, star):
        assert k_core(chain, 2).node_count == 0
        assert largest_component(chain) == chain
    assert k_core(cycles, 2) == cycles
    assert [c[0] for c in connected_components(cycles)] == ["a", "b00000"]
    assert set(largest_component(cycles).nodes) == set(small)
    assert time.perf_counter() - start < 10.0  # about 1 s on a 2-vCPU VM


def test_hostile_shapes_split_and_score_in_linear_time():
    rng = np.random.default_rng(29)
    n = 100_000
    names = [f"v{i:06d}" for i in rng.permutation(n)]  # ids out of cycle order
    cycle = EndorsementGraph.from_edges(names, _cycle_edges(names))
    leaves = [f"l{i:05d}" for i in range(50_000)]
    k2n = EndorsementGraph.from_edges(
        leaves + ["hub0", "hub1"],
        {edge_key(hub, leaf): 1 for hub in ("hub0", "hub1") for leaf in leaves})
    side = 316
    cell = [[f"g{r:03d}_{c:03d}" for c in range(side)] for r in range(side)]
    grid = EndorsementGraph.from_edges(
        (name for row in cell for name in row),
        {**{edge_key(row[c], row[c + 1]): 1 for row in cell for c in range(side - 1)},
         **{edge_key(cell[r][c], cell[r + 1][c]): 1 for r in range(side - 1) for c in range(side)}},
    )
    start = time.perf_counter()
    for g in (cycle, k2n, grid):
        part = bisect(g, eps=0.05, seed=0)
        n_x = sum(1 for s in part.side_of.values() if s == SIDE_X)
        assert max(n_x, g.node_count - n_x) <= max_side_nodes(g.node_count, 0.05)
        assert -1.0 <= rwc_score(g, part).score <= 1.0
    assert time.perf_counter() - start < 30.0  # about 3 s on a 2-vCPU VM


def test_pipeline_stages_read_the_csr_without_a_string_keyed_build(monkeypatch):
    records = synth_corpus(CorpusSpec(
        communities=(CommunitySpec(150, ("vaxx",), 0.5), CommunitySpec(150, ("vaxx",), -0.5)),
        cross_repost_rate=0.02,
        window=TimeWindow(1_600_000_000, 1_602_592_000, "2020-09"),
        seed=2,
    ))
    built = []
    from_edges = EndorsementGraph.from_edges.__func__

    def counting(cls, nodes, edges):
        built.append(edges)
        return from_edges(cls, nodes, edges)

    monkeypatch.setattr(EndorsementGraph, "from_edges", classmethod(counting))
    g = prepare_conversation_graph(Corpus.from_records(records), min_nodes=100)
    assert isinstance(g, EndorsementGraph)
    part = bisect(g, seed=1)
    rwc_score(g, part)
    rwc_monte_carlo(g, part, n_walks=500)
    assert built == []
    assert not any(array.flags.writeable for array in g.csr[1:])


@pytest.mark.parametrize("nodes, edges, why", [
    (["a", "b", "c"], {("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 1, ("b", "a"): 1}, "smaller first"),
    (["a", "b"], {("a", "b"): 1, ("a", "z"): 1}, "outside the nodes"),
    (["a", "b"], {("a", "b"): 1, ("a", "a"): 1}, "two ids"),
    (["a", "b"], {("a", "b"): 0}, "weight 0"),
])
def test_from_edges_rejects_malformed_edges(nodes, edges, why):
    with pytest.raises(ValueError, match=why):
        EndorsementGraph.from_edges(nodes, edges)


def test_edges_view_is_a_new_dict_over_read_only_arrays():
    g = graph_from_edges({("a", "b"): 1, ("b", "c"): 1})
    g.edges[("a", "b")] = 9
    assert g.edges == {("a", "b"): 1, ("b", "c"): 1}
    assert g.weights.tolist() == [1, 1, 1, 1]
    with pytest.raises(ValueError):
        g.weights[0] = 9
