import os
import subprocess
import sys

import numpy as np
import pytest

import controversy_scope
from controversy_scope.graph import edge_key
from controversy_scope.partition import Bipartition, UnassignedNode, bisect, make_bipartition
from controversy_scope.rwc import (
    NoConvergence,
    RwcConfig,
    RwcError,
    SideTooSmall,
    _times,
    _WalkChain,
    high_degree_nodes,
    rwc_monte_carlo,
    rwc_score,
)
from controversy_scope.synth import PlantedSpec, planted_partition

from conftest import (
    clique_edges,
    dense_absorption,
    edge_counts,
    graph_from_edges,
    naive_times,
    naive_transient_system,
    random_connected_graph,
)


def star_graph(center: str, leaves: int):
    return graph_from_edges({edge_key(center, f"l{i:02d}"): 1 for i in range(leaves)})


def balanced_sides(g, predicate):
    return make_bipartition(g, {n: ("X" if predicate(n) else "Y") for n in g.nodes})


def test_high_degree_star_center():
    g = star_graph("hub", 6)
    p = balanced_sides(g, lambda n: n == "hub" or n < "l03")
    assert high_degree_nodes(g, "X", p, 1) == frozenset({"hub"})


def test_high_degree_tie_breaks_lexicographically():
    g = graph_from_edges(clique_edges([f"n{i}" for i in range(6)]))
    p = balanced_sides(g, lambda n: n in {"n0", "n1", "n2"})
    assert high_degree_nodes(g, "X", p, 2) == frozenset({"n0", "n1"})


def test_high_degree_matches_sort_oracle():
    rng = np.random.default_rng(3)
    pg = planted_partition(PlantedSpec(30, 0.3, 0.1, seed=1))
    g, p = pg.graph, pg.ground_truth
    degree = edge_counts(g)
    for side in ("X", "Y"):
        expected = sorted(
            (n for n in g.nodes if p.side_of[n] == side),
            key=lambda n: (-degree[n], n),
        )[:5]
        assert high_degree_nodes(g, side, p, 5) == frozenset(expected)


def test_high_degree_side_too_small():
    g = graph_from_edges({("a", "b"): 1})
    p = balanced_sides(g, lambda n: n == "a")
    with pytest.raises(SideTooSmall):
        high_degree_nodes(g, "X", p, 1)


def test_absorption_conservation_and_symmetric_half():
    pg = planted_partition(PlantedSpec(40, 1.0, 1.0, seed=2))  # complete K_80
    cfg = RwcConfig(k_top=5)
    r = rwc_score(pg.graph, pg.ground_truth, cfg)
    p_same, p_cross = r.p_xx, r.p_xy
    assert p_same + p_cross == pytest.approx(1.0, abs=1e-8)
    assert p_same == pytest.approx(0.5, abs=1e-6)


def test_clique_bridge_absorption_vs_monte_carlo():
    pg = planted_partition(PlantedSpec(50, 1.0, 0.0, seed=3))
    cfg = RwcConfig(k_top=2)
    r = rwc_score(pg.graph, pg.ground_truth, cfg)
    p_same, p_cross = r.p_xx, r.p_xy
    assert p_cross < 0.1
    mc = rwc_monte_carlo(pg.graph, pg.ground_truth, cfg, n_walks=1_000_000, seed=9)
    assert abs(mc.p_xx - p_same) < 0.01
    assert abs(mc.p_xy - p_cross) < 0.01


def test_rwc_score_planted_cliques_high():
    pg = planted_partition(PlantedSpec(50, 1.0, 0.0, seed=5))
    result = rwc_score(pg.graph, pg.ground_truth)
    assert result.score > 0.85
    assert result.score == result.p_xx * result.p_yy - result.p_xy * result.p_yx
    assert -1.0 <= result.score <= 1.0


def test_rwc_score_complete_graph_zero():
    pg = planted_partition(PlantedSpec(40, 1.0, 1.0, seed=6))
    result = rwc_score(pg.graph, pg.ground_truth)
    assert abs(result.score) < 1e-6


def test_rwc_er_graphs_score_low():
    scores = []
    for seed in range(10):
        pg = planted_partition(PlantedSpec(500, 0.01, 0.01, seed=seed))
        part = bisect(pg.graph, seed=seed + 50)
        scores.append(rwc_score(pg.graph, part).score)
    assert all(abs(s) < 0.3 for s in scores)
    assert float(np.mean(np.abs(scores))) < 0.15


def test_rwc_swap_symmetry():
    pg = planted_partition(PlantedSpec(30, 0.4, 0.05, seed=8))
    r1 = rwc_score(pg.graph, pg.ground_truth)
    r2 = rwc_score(pg.graph, pg.ground_truth.swapped())
    assert r2.score == pytest.approx(r1.score, abs=1e-9)
    assert r2.p_xx == pytest.approx(r1.p_yy, abs=1e-9)
    assert r2.p_xy == pytest.approx(r1.p_yx, abs=1e-9)


def test_monte_carlo_matches_solver_mixed_graph():
    pg = planted_partition(PlantedSpec(100, 0.1, 0.02, seed=10))
    exact = rwc_score(pg.graph, pg.ground_truth)
    mc = rwc_monte_carlo(pg.graph, pg.ground_truth, n_walks=100_000, seed=11)
    assert abs(mc.score - exact.score) < 0.02


def test_monte_carlo_single_walk_support():
    pg = planted_partition(PlantedSpec(20, 0.5, 0.1, seed=12))
    mc = rwc_monte_carlo(pg.graph, pg.ground_truth, n_walks=1, seed=13)
    for prob in (mc.p_xx, mc.p_xy, mc.p_yy, mc.p_yx):
        assert prob in (0.0, 1.0)
    assert mc.score in (-1.0, 0.0, 1.0)


def test_monte_carlo_deterministic_across_shard_merging():
    pg = planted_partition(PlantedSpec(30, 0.3, 0.05, seed=14))
    a = rwc_monte_carlo(pg.graph, pg.ground_truth, n_walks=30_000, seed=15)
    b = rwc_monte_carlo(pg.graph, pg.ground_truth, n_walks=30_000, seed=15)
    assert a == b


def test_weighted_walk_flag_changes_biased_graph():
    # heavy bridge from a transient leaf straight into the far side's
    # absorbing hub: weighted walks funnel across, unweighted ones rarely do
    edges = clique_edges([f"a{i}" for i in range(6)], weight=1)
    edges.update(clique_edges([f"b{i}" for i in range(6)], weight=1))
    edges[edge_key("aL", "a1")] = 1
    edges[edge_key("aL", "a2")] = 1
    edges[edge_key("aL", "b0")] = 50
    g = graph_from_edges(edges)
    p = balanced_sides(g, lambda n: n.startswith("a"))
    unweighted = rwc_score(g, p, RwcConfig(k_top=1))
    weighted = rwc_score(g, p, RwcConfig(k_top=1, weighted_walk=True))
    assert weighted.p_xy > 2 * unweighted.p_xy
    assert weighted.score < unweighted.score
    mc_w = rwc_monte_carlo(g, p, RwcConfig(k_top=1, weighted_walk=True),
                           n_walks=200_000, seed=1)
    assert abs(mc_w.score - weighted.score) < 0.02


def test_rwc_requires_connected_graph():
    g = graph_from_edges({**clique_edges(["a", "b", "c"]), **clique_edges(["x", "y", "z"])})
    p = balanced_sides(g, lambda n: n in "abc")
    with pytest.raises(RwcError):
        rwc_score(g, p, RwcConfig(k_top=1))
    with pytest.raises(RwcError):
        rwc_monte_carlo(g, p, RwcConfig(k_top=1), n_walks=10, seed=0)
    # the walk itself checks, ahead of the side map
    with pytest.raises(RwcError, match="connected"):
        _WalkChain(g, p, RwcConfig(k_top=1))
    with pytest.raises(RwcError, match="connected"):
        _WalkChain(g, Bipartition({"a": "X"}, 0, 0, 1.0), RwcConfig(k_top=1))


def test_config_validation():
    with pytest.raises(ValueError):
        RwcConfig(k_top=0)
    with pytest.raises(ValueError):
        RwcConfig(restart_prob=1.0)
    with pytest.raises(ValueError):
        RwcConfig(solver_tol=0.0)


def test_restart_probability_shifts_outcome():
    pg = planted_partition(PlantedSpec(60, 0.2, 0.02, seed=20))
    lo = rwc_score(pg.graph, pg.ground_truth, RwcConfig(restart_prob=0.01))
    hi = rwc_score(pg.graph, pg.ground_truth, RwcConfig(restart_prob=0.6))
    # stronger restart keeps walkers near their start side, raising the score
    assert hi.score >= lo.score


def random_halves(g, rng) -> dict[str, str]:
    names = sorted(g.nodes)
    order = rng.permutation(len(names))
    return {names[i]: ("X" if rank % 2 == 0 else "Y") for rank, i in enumerate(order)}


def test_exact_solver_matches_dense_oracle():
    rng = np.random.default_rng(59)
    for _ in range(10):
        g = random_connected_graph(int(rng.integers(8, 24)), float(rng.uniform(0.25, 0.6)), rng)
        side_of = random_halves(g, rng)
        p = make_bipartition(g, side_of)
        for weighted in (False, True):
            cfg = RwcConfig(k_top=2, restart_prob=float(rng.uniform(0.05, 0.5)),
                            weighted_walk=weighted)
            r = rwc_score(g, p, cfg)
            for side, got in (("X", (r.p_xx, r.p_xy)), ("Y", (r.p_yy, r.p_yx))):
                want = dense_absorption(g, side_of, 2, cfg.restart_prob, weighted, side)
                assert got == pytest.approx(want, abs=1e-9)


def test_chain_absorbing_sets_match_high_degree_nodes():
    rng = np.random.default_rng(61)
    for _ in range(20):
        g = random_connected_graph(int(rng.integers(10, 30)), float(rng.uniform(0.15, 0.5)), rng)
        p = make_bipartition(g, random_halves(g, rng))
        k_top = int(rng.integers(1, 4))
        chain = _WalkChain(g, p, RwcConfig(k_top=k_top))
        degree = edge_counts(g)
        for side, absorb in (("X", chain.absorb_x), ("Y", chain.absorb_y)):
            by_sort = sorted(p.side_nodes(side), key=lambda n: (-degree[n], n))[:k_top]
            got = frozenset(chain.nodes[i] for i in absorb)
            assert got == high_degree_nodes(g, side, p, k_top) == frozenset(by_sort)


def test_chain_rejects_side_too_small():
    g = graph_from_edges(clique_edges(["a", "b", "c", "d", "e"]))
    p = balanced_sides(g, lambda n: n in "ab")
    with pytest.raises(SideTooSmall):
        rwc_score(g, p, RwcConfig(k_top=2))


def test_unassigned_node_raises_instead_of_joining_side_y():
    pg = planted_partition(PlantedSpec(30, 0.4, 0.05, seed=8))
    dropped = sorted(pg.ground_truth.side_nodes("X"))[:5]
    side_of = {n: s for n, s in pg.ground_truth.side_of.items() if n not in dropped}
    p = Bipartition(side_of, 0, 0, 0.5)
    with pytest.raises(UnassignedNode):
        rwc_score(pg.graph, p)
    with pytest.raises(UnassignedNode):
        rwc_monte_carlo(pg.graph, p, n_walks=10, seed=0)


def test_max_iter_cap_raises_no_convergence():
    pg = planted_partition(PlantedSpec(30, 0.4, 0.05, seed=8))
    with pytest.raises(NoConvergence):
        rwc_score(pg.graph, pg.ground_truth, RwcConfig(max_iter=1))


def test_transient_system_and_product_match_per_row_loops():
    rng = np.random.default_rng(67)
    seen_all_absorbing = seen_unsorted_absorb = seen_long_row = False
    for _ in range(12):
        base = random_connected_graph(int(rng.integers(24, 40)), float(rng.uniform(0.3, 0.8)), rng)
        degree = edge_counts(base)
        hub = min(base.nodes, key=lambda n: (-degree[n], n))
        # leaves of the hub, which absorbs: transient rows with no transient neighbor
        g = graph_from_edges({**base.edges, **{edge_key(hub, f"z{i}"): 1 for i in range(3)}})
        p = make_bipartition(g, random_halves(g, rng))
        k_top = int(rng.integers(1, 12))
        for weighted in (False, True):
            chain = _WalkChain(g, p, RwcConfig(k_top=k_top, weighted_walk=weighted))
            got = chain.transient_system()
            want = naive_transient_system(g, chain.absorb_x.tolist(), chain.absorb_y.tolist(),
                                          weighted)
            assert [array.tolist() for array in got] == list(want)
            rows, cols, prob = want[:3]
            z = rng.random(chain.transient.size)
            assert _times(*got[:3], z).tolist() == naive_times(rows, cols, prob, z.tolist())

            seen_all_absorbing |= len(set(rows)) < chain.transient.size
            seen_unsorted_absorb |= any(list(a) != sorted(a) for a in (chain.absorb_x, chain.absorb_y))
            _, indptr, indices, _ = g.csr
            into_x = np.isin(indices, chain.absorb_x)
            seen_long_row |= max(into_x[indptr[v]:indptr[v + 1]].sum() for v in chain.transient) > 8
    assert seen_all_absorbing and seen_unsorted_absorb and seen_long_row


def test_solver_matches_the_sparse_matrix_solver_bit_for_bit():
    # float.hex of (p_xx, p_xy, p_yy, p_yx) from the scipy.sparse solver this one replaced
    rng = np.random.default_rng(71)
    g = random_connected_graph(40, 0.5, rng)
    p = make_bipartition(g, random_halves(g, rng))
    planted = planted_partition(PlantedSpec(40, 0.5, 0.05, seed=3))
    cases = [
        (g, p, False, ["0x1.022824a2193a0p-1", "0x1.fbafb6bb9fb51p-2",
                       "0x1.09f5a95961531p-1", "0x1.ec14ad4d0bc60p-2"]),
        (g, p, True, ["0x1.0d7abc12afe5dp-1", "0x1.e50a87da7a1abp-2",
                      "0x1.0eb5aa06f5310p-1", "0x1.e294abf1ec446p-2"]),
        (planted.graph, planted.ground_truth, False,
         ["0x1.b1733369ff5d3p-1", "0x1.3a33325700299p-3",
          "0x1.923d2db46f1e8p-1", "0x1.b70b492d56a76p-3"]),
    ]
    for graph, partition, weighted, want in cases:
        r = rwc_score(graph, partition, RwcConfig(k_top=10, weighted_walk=weighted))
        assert [x.hex() for x in (r.p_xx, r.p_xy, r.p_yy, r.p_yx)] == want


def test_scoring_never_imports_scipy():
    code = (
        "import sys\n"
        "import controversy_scope as cs\n"
        "pg = cs.planted_partition(cs.PlantedSpec(20, 0.5, 0.05, seed=1))\n"
        "cs.rwc_score(pg.graph, pg.ground_truth)\n"
        "cs.rwc_monte_carlo(pg.graph, pg.ground_truth, n_walks=100)\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    # the child imports the same package as this test, installed or not
    package_root = os.path.dirname(os.path.dirname(controversy_scope.__file__))
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
