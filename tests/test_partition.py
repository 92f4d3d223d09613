import numpy as np
import pytest

from controversy_scope import partition
from controversy_scope.graph import EndorsementGraph
from controversy_scope.partition import (
    INIT_ATTEMPTS,
    Bipartition,
    DisconnectedGraph,
    InvalidSideMap,
    TooSmall,
    UnassignedNode,
    _boundary_gains,
    _coarsen,
    _fm_limit,
    _fm_refine,
    _grow_bisection,
    _heavy_edge_matching,
    _IndexGraph,
    _side_weights,
    _weighted_cut,
    bisect,
    make_bipartition,
    max_side_nodes,
)

from conftest import (
    clique_edges,
    edge_key,
    exhaustive_min_balanced_cut,
    graph_from_edges,
    naive_boundary_gains,
    naive_coarsen,
    naive_csr,
    naive_weighted_cut,
    random_connected_graph,
    random_graph,
    side_nodes,
    swapped,
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
    sides = {side_nodes(p, "X"), side_nodes(p, "Y")}
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
            assert side_nodes(p, p.side_of["a00"]) == frozenset(
                f"a{i:02d}" for i in range(m)
            )


def test_bisect_respects_balance_bound():
    rng = np.random.default_rng(23)
    for _ in range(25):
        n = int(rng.integers(2, 13))
        g = random_connected_graph(n, 0.5, rng)
        for eps in (0.0, 0.05, 0.1):
            p = bisect(g, eps=eps, seed=int(rng.integers(1 << 16)))
            largest = max(len(side_nodes(p, "X")), len(side_nodes(p, "Y")))
            assert largest <= max_side_nodes(n, eps)
            assert min(len(side_nodes(p, "X")), len(side_nodes(p, "Y"))) >= 1


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
    g2 = EndorsementGraph.from_edges(
        renamed.values(),
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


def test_make_bipartition_cut_examples_and_oracle():
    g = graph_from_edges({("u", "v"): 3})
    p = make_bipartition(g, {"u": "X", "v": "Y"})
    assert p.cut == 1 and p.cut_weight == 3

    tri = {**clique_edges(["a", "b", "c"]), **clique_edges(["x", "y", "z"]),
           ("a", "x"): 1, ("b", "y"): 1}
    g2 = graph_from_edges(tri)
    p2 = make_bipartition(g2, {n: ("X" if n in "abc" else "Y") for n in g2.nodes})
    assert p2.cut == 2

    rng = np.random.default_rng(41)
    for _ in range(20):
        g3 = random_connected_graph(10, 0.4, rng)
        side_of = {n: ("X" if rng.random() < 0.5 else "Y") for n in g3.nodes}
        if len(set(side_of.values())) < 2:
            continue
        p3 = make_bipartition(g3, side_of)
        crossing = {pair: w for pair, w in g3.edges.items() if side_of[pair[0]] != side_of[pair[1]]}
        assert p3.cut == len(crossing)
        assert p3.cut_weight == sum(crossing.values())


def test_make_bipartition_rejects_unassigned_node():
    g = graph_from_edges({("a", "b"): 1, ("b", "c"): 1})
    with pytest.raises(UnassignedNode):
        make_bipartition(g, {"a": "X", "b": "Y"})


def test_make_bipartition_rejects_nodes_outside_the_graph():
    path = graph_from_edges({("a", "b"): 1, ("b", "c"): 1, ("c", "d"): 1})
    side_of = {"a": "X", "b": "X", "c": "Y", "d": "Y"}
    assert make_bipartition(path, side_of).balance == 0.5
    with pytest.raises(InvalidSideMap, match="'e'"):
        make_bipartition(path, {**side_of, "e": "X", "f": "X"})


def test_make_bipartition_rejects_labels_other_than_x_and_y():
    path = graph_from_edges({("a", "b"): 1, ("b", "c"): 1, ("c", "d"): 1})
    with pytest.raises(InvalidSideMap, match="'Q'"):
        make_bipartition(path, {"a": "X", "b": "X", "c": "Q", "d": "Y"})


def test_swapped_labels_preserve_structure():
    g = two_cliques_bridged(5, 2)
    p = bisect(g, seed=0)
    sw = swapped(p)
    assert sw.cut == p.cut
    assert side_nodes(sw, "X") == side_nodes(p, "Y")
    assert sw != p and swapped(sw) == p


def test_side_array_is_read_only_and_one_entry_per_node():
    g = two_cliques_bridged(5, 2)
    p = bisect(g, seed=0)
    assert p.nodes is g.nodes and p.in_x.dtype == bool and p.in_x.shape == (10,)
    for part in (p, swapped(p), make_bipartition(g, p.side_of)):
        with pytest.raises(ValueError, match="read-only"):
            part.in_x[0] = not part.in_x[0]
    assert make_bipartition(g, p.side_of) == p
    # a side array that misses a node, or holds other than bools, is no partition
    for in_x in (np.ones(9, dtype=bool), np.ones(10, dtype=np.int8)):
        with pytest.raises(InvalidSideMap):
            Bipartition(g.nodes, in_x, 0, 0, 0.5)


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
        assert (list(nodes), indptr.tolist(), indices.tolist(), weights.tolist()) == naive_csr(g)


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


# --- FM refinement and the initial partition ----------------------------------


def index_graph_of(g: EndorsementGraph, vwgt: np.ndarray | None = None) -> _IndexGraph:
    nodes, xadj, adjncy, adjwgt = g.csr
    if vwgt is None:
        vwgt = np.ones(len(nodes), dtype=np.int64)
    return _IndexGraph(len(nodes), xadj, adjncy, adjwgt, vwgt)


def lighter_side_split(ig: _IndexGraph, rng: np.random.Generator) -> np.ndarray:
    """Each vertex, in random order, joins the lighter side.

    The sides end at most one vertex weight apart.
    """
    side = np.zeros(ig.n, dtype=np.int8)
    side_w = [0, 0]
    for v in rng.permutation(ig.n).tolist():
        s = int(side_w[1] < side_w[0])
        side[v] = s
        side_w[s] += int(ig.vwgt[v])
    return side


def test_fm_refine_never_raises_the_cut_or_breaks_the_balance_bound():
    rng = np.random.default_rng(61)
    for trial in range(24):
        n = int(rng.integers(20, 160))
        g = random_connected_graph(n, float(rng.uniform(6.0, 12.0)) / n, rng)
        if trial % 2:
            g = unit_weights(g)
        vwgt = rng.integers(1, 4, n) if trial % 3 == 0 else np.ones(n, dtype=np.int64)
        ig = index_graph_of(g, vwgt.astype(np.int64))
        w_max = max_side_nodes(int(ig.vwgt.sum()), 0.05)
        side = lighter_side_split(ig, rng)
        assert max(_side_weights(ig, side)) <= w_max
        before = _weighted_cut(ig, side)
        _fm_refine(ig, side, w_max)
        assert _weighted_cut(ig, side) <= before, trial
        assert max(_side_weights(ig, side)) <= w_max, trial


def test_fm_pass_stops_limit_moves_after_its_best_prefix(monkeypatch):
    # a near-complete graph like the coarsest bench graphs (48-69 vertices,
    # 68-79 % dense), refined until a call leaves it unchanged: from there
    # the best move prefix of a pass is empty, so the pass must end after
    # exactly _fm_limit(n) moves instead of moving every vertex once
    rng = np.random.default_rng(67)
    g = random_graph(64, 0.75, rng)
    assert 2 * len(g.edges) >= 0.7 * 64 * 63
    ig = index_graph_of(g)
    w_max = max_side_nodes(ig.n, 0.05)
    side = lighter_side_split(ig, rng)
    while True:
        before = side.copy()
        _fm_refine(ig, side, w_max)
        if np.array_equal(side, before):
            break

    events: list[str] = []
    real_pop, real_push = partition.heapq.heappop, partition.heapq.heappush

    def pop(heap):
        events.append("pop")
        return real_pop(heap)

    def push(heap, item):
        # a move pushes the moved vertex's unlocked neighbors
        if events[-1] == "pop":
            events[-1] = "move"
        real_push(heap, item)

    monkeypatch.setattr(partition.heapq, "heappop", pop)
    monkeypatch.setattr(partition.heapq, "heappush", push)
    _fm_refine(ig, side, w_max)
    assert np.array_equal(side, before)
    assert events.count("move") == _fm_limit(ig.n) == 15
    assert events[-1] == "move"


def test_repeated_initial_starts_run_once_and_keep_the_partition(monkeypatch):
    grown: list[int] = []
    refined: list[bytes] = []
    real_grow, real_refine = partition._grow_bisection, partition._fm_refine

    def grow(ig, w_max, start):
        grown.append(start)
        return real_grow(ig, w_max, start)

    def refine(ig, side, w_max):
        refined.append(side.tobytes())
        real_refine(ig, side, w_max)

    # on two bridged cliques, the starts in one clique grow that clique
    for g in (random_connected_graph(24, 0.3, np.random.default_rng(71)),
              two_cliques_bridged(12, 2)):
        ig = index_graph_of(g)
        seed = 3
        draws = np.random.default_rng(seed).integers(0, ig.n, size=INIT_ATTEMPTS).tolist()
        starts = [0, int(np.argmax(np.diff(ig.xadj))), *draws]
        assert len(set(starts)) < len(starts)

        # every start in turn, repeats included; a later key wins only when smaller
        w_max = max_side_nodes(ig.n, 0.05)
        best_key, best_side = None, None
        sides = []
        for start in starts:
            side = real_grow(ig, w_max, start)
            if side is None:
                continue
            sides.append(side.tobytes())
            real_refine(ig, side, w_max)
            key = (_weighted_cut(ig, side), max(_side_weights(ig, side)))
            if best_key is None or key < best_key:
                best_key, best_side = key, side
        nodes = g.csr[0]
        want = make_bipartition(
            g, {node: "X" if best_side[i] == best_side[0] else "Y" for i, node in enumerate(nodes)}
        )

        grown.clear()
        refined.clear()
        with monkeypatch.context() as patch:
            patch.setattr(partition, "_grow_bisection", grow)
            patch.setattr(partition, "_fm_refine", refine)
            assert bisect(g, eps=0.05, seed=seed) == want
        assert grown == list(dict.fromkeys(starts))
        # g is the coarsest level, and each distinct grown side is refined once
        assert refined == list(dict.fromkeys(sides))
    assert len(refined) < len(grown)
