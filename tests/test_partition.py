import numpy as np
import pytest

from controversy_scope.graph import EndorsementGraph, edge_key
from controversy_scope.partition import (
    Bipartition,
    DisconnectedGraph,
    TooSmall,
    UnassignedNode,
    _boundary_gains,
    _coarsen,
    _heavy_edge_matching,
    _IndexGraph,
    _weighted_cut,
    bisect,
    cut_size,
    cut_weight,
    make_bipartition,
    max_side_nodes,
)

from conftest import (
    clique_edges,
    exhaustive_min_balanced_cut,
    graph_from_edges,
    naive_boundary_gains,
    naive_coarsen,
    naive_csr,
    naive_weighted_cut,
    random_connected_graph,
    random_graph,
    unit_weights,
)


def two_cliques_bridged(m: int, bridges: int, weight: int = 1) -> EndorsementGraph:
    left = [f"a{i:02d}" for i in range(m)]
    right = [f"b{i:02d}" for i in range(m)]
    edges = {**clique_edges(left, weight), **clique_edges(right, weight)}
    for i in range(bridges):
        edges[edge_key(left[i], right[i])] = weight
    return graph_from_edges(edges)


def test_two_five_cliques_single_bridge_exact():
    g = two_cliques_bridged(5, 1)
    p = bisect(g, seed=0)
    assert p.cut == 1
    sides = {p.side_nodes("X"), p.side_nodes("Y")}
    assert sides == {frozenset(f"a{i:02d}" for i in range(5)),
                     frozenset(f"b{i:02d}" for i in range(5))}


def test_single_edge_graph():
    g = graph_from_edges({("u", "v"): 3})
    p = bisect(g, seed=0)
    assert p.cut == 1 and p.balance == 0.5
    assert {p.side_of["u"], p.side_of["v"]} == {"X", "Y"}


def test_k4_zero_eps_cut_four():
    g = graph_from_edges(clique_edges(["a", "b", "c", "d"]))
    p = bisect(g, eps=0.0, seed=0)
    assert p.cut == 4
    assert p.balance == 0.5


def test_planted_cliques_recovered_across_sizes_and_seeds():
    for m, b in ((4, 1), (5, 3), (6, 2), (8, 7), (10, 4)):
        g = two_cliques_bridged(m, b)
        for seed in (0, 1, 2):
            p = bisect(g, seed=seed)
            assert p.cut == b, (m, b, seed)
            assert p.side_nodes(p.side_of["a00"]) == frozenset(
                f"a{i:02d}" for i in range(m)
            )


def test_bisect_respects_balance_bound():
    rng = np.random.default_rng(23)
    for _ in range(25):
        n = int(rng.integers(2, 13))
        g = random_connected_graph(n, 0.5, rng)
        for eps in (0.0, 0.05, 0.1):
            p = bisect(g, eps=eps, seed=int(rng.integers(1 << 16)))
            largest = max(len(p.side_nodes("X")), len(p.side_nodes("Y")))
            assert largest <= max_side_nodes(n, eps)
            assert min(len(p.side_nodes("X")), len(p.side_nodes("Y"))) >= 1


def test_bisect_near_optimal_on_small_graphs():
    # edge-count bound on unit weights, weighted-cut bound on weighted graphs:
    # each objective is compared against its own exhaustive optimum
    rng = np.random.default_rng(29)
    for i in range(40):
        n = int(rng.integers(4, 13))
        g = random_connected_graph(n, float(rng.uniform(0.3, 0.7)), rng)
        bound = max_side_nodes(n, 0.05)
        unit = unit_weights(g)
        p_unit = bisect(unit, seed=7)
        assert p_unit.cut <= 1.5 * exhaustive_min_balanced_cut(unit, bound)
        p = bisect(g, seed=7)
        optimal_w = exhaustive_min_balanced_cut(g, bound, weighted=True)
        assert p.cut_weight <= 1.5 * optimal_w


def test_bisect_multilevel_path_on_larger_graph():
    # above the coarsening threshold so matching + projection are exercised
    g = two_cliques_bridged(80, 3)
    p = bisect(g, seed=4)
    assert p.cut == 3
    assert p.balance == 0.5


def test_bisect_relabel_equivariance_order_preserving():
    rng = np.random.default_rng(31)
    g = random_connected_graph(10, 0.4, rng)
    p = bisect(g, seed=9)
    renamed = {n: f"z_{n}" for n in g.nodes}  # shared prefix keeps the order
    g2 = EndorsementGraph(
        frozenset(renamed.values()),
        {edge_key(renamed[u], renamed[v]): w for (u, v), w in g.edges.items()},
    )
    p2 = bisect(g2, seed=9)
    assert {renamed[n]: s for n, s in p.side_of.items()} == dict(p2.side_of)


def test_bisect_deterministic_for_seed():
    rng = np.random.default_rng(37)
    g = random_connected_graph(12, 0.4, rng)
    assert bisect(g, seed=5) == bisect(g, seed=5)


def test_bisect_rejects_bad_inputs():
    with pytest.raises(TooSmall):
        bisect(graph_from_edges({}), seed=0)
    disconnected = graph_from_edges({("a", "b"): 1, ("c", "d"): 1})
    with pytest.raises(DisconnectedGraph):
        bisect(disconnected, seed=0)
    g = graph_from_edges({("a", "b"): 1})
    with pytest.raises(ValueError):
        bisect(g, eps=0.2, seed=0)


def test_cut_size_examples_and_oracle():
    g = graph_from_edges({("u", "v"): 3})
    p = make_bipartition(g, {"u": "X", "v": "Y"})
    assert cut_size(g, p) == 1 and cut_weight(g, p) == 3

    tri = {**clique_edges(["a", "b", "c"]), **clique_edges(["x", "y", "z"]),
           ("a", "x"): 1, ("b", "y"): 1}
    g2 = graph_from_edges(tri)
    p2 = make_bipartition(g2, {n: ("X" if n in "abc" else "Y") for n in g2.nodes})
    assert cut_size(g2, p2) == 2

    rng = np.random.default_rng(41)
    for _ in range(20):
        g3 = random_connected_graph(10, 0.4, rng)
        side_of = {n: ("X" if rng.random() < 0.5 else "Y") for n in g3.nodes}
        if len(set(side_of.values())) < 2:
            continue
        p3 = make_bipartition(g3, side_of)
        brute = sum(1 for (u, v) in g3.edges if side_of[u] != side_of[v])
        assert cut_size(g3, p3) == brute == p3.cut


def test_cut_size_unassigned_node():
    g = graph_from_edges({("a", "b"): 1, ("b", "c"): 1})
    p = Bipartition({"a": "X", "b": "Y"}, 0, 0, 0.5)
    with pytest.raises(UnassignedNode):
        cut_size(g, p)
    with pytest.raises(UnassignedNode):
        cut_weight(g, p)
    with pytest.raises(UnassignedNode):
        make_bipartition(g, p.side_of)


def test_swapped_labels_preserve_structure():
    g = two_cliques_bridged(5, 2)
    p = bisect(g, seed=0)
    sw = p.swapped()
    assert sw.cut == p.cut
    assert sw.side_nodes("X") == p.side_nodes("Y")


# --- NumPy helpers against their per-vertex reference loops -------------------


def index_graph_from_lists(xadj, adjncy, adjwgt, vwgt) -> _IndexGraph:
    return _IndexGraph(
        len(xadj) - 1,
        np.asarray(xadj, dtype=np.int64),
        np.asarray(adjncy, dtype=np.int64),
        np.asarray(adjwgt, dtype=np.int64),
        np.asarray(vwgt, dtype=np.int64),
    )


def test_sorted_csr_matches_reference_loop():
    rng = np.random.default_rng(43)
    graphs = [graph_from_edges({}), graph_from_edges({("a", "b"): 3})]
    graphs += [random_graph(int(rng.integers(1, 40)), float(rng.uniform(0.0, 0.6)), rng)
               for _ in range(30)]
    for g in graphs:
        nodes, indptr, indices, weights = g.csr
        assert (nodes, indptr.tolist(), indices.tolist(), weights.tolist()) == naive_csr(g)


def test_coarsen_matches_reference_loop():
    rng = np.random.default_rng(47)
    for trial in range(40):
        g = random_graph(int(rng.integers(2, 40)), float(rng.uniform(0.05, 0.6)), rng)
        _, xadj, adjncy, adjwgt = naive_csr(g)
        n = len(xadj) - 1
        vwgt = rng.integers(1, 4, n).tolist()
        ig = index_graph_from_lists(xadj, adjncy, adjwgt, vwgt)
        if trial % 2:
            cmap, n_coarse = _heavy_edge_matching(ig, rng, max_vwgt=6)
        else:
            # random groups, relabelled so every coarse id is used
            _, cmap = np.unique(rng.integers(0, int(rng.integers(1, n + 1)), n),
                                return_inverse=True)
            n_coarse = int(cmap.max()) + 1
        coarse = _coarsen(ig, cmap, n_coarse)
        want = naive_coarsen(xadj, adjncy, adjwgt, vwgt, cmap.tolist(), n_coarse)
        got = (coarse.xadj.tolist(), coarse.adjncy.tolist(), coarse.adjwgt.tolist(),
               coarse.vwgt.tolist())
        assert got == want
        assert coarse.n == n_coarse
        assert coarse.rows.tolist() == [
            v for v in range(n_coarse) for _ in range(want[0][v], want[0][v + 1])
        ]


def test_boundary_gains_and_weighted_cut_match_reference_loops():
    rng = np.random.default_rng(53)
    for _ in range(40):
        g = random_graph(int(rng.integers(2, 40)), float(rng.uniform(0.05, 0.6)), rng)
        _, xadj, adjncy, adjwgt = naive_csr(g)
        ig = index_graph_from_lists(xadj, adjncy, adjwgt, [1] * (len(xadj) - 1))
        side = rng.integers(0, 2, ig.n).astype(np.int8)
        gain, boundary = _boundary_gains(ig, side)
        assert (gain.tolist(), boundary.tolist()) == naive_boundary_gains(
            xadj, adjncy, adjwgt, side.tolist()
        )
        assert _weighted_cut(ig, side) == naive_weighted_cut(xadj, adjncy, adjwgt, side.tolist())
