import os
import subprocess
import sys

import numpy as np
import pytest

import controversy_scope
from controversy_scope.graph import is_connected
from controversy_scope.partition import PartitionError, bisect, make_bipartition
from controversy_scope.rwc import (
    _SHARD_WALKS,
    NoConvergence,
    RwcConfig,
    RwcError,
    SideTooSmall,
    Settle,
    _pick,
    _settled,
    _times,
    _walk_pair,
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
    edge_key,
    graph_from_edges,
    jacobi_solve,
    naive_times,
    naive_transient_system,
    naive_walk_shard,
    random_connected_graph,
    side_nodes,
    swapped,
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
    r2 = rwc_score(pg.graph, swapped(pg.ground_truth))
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
    # one more walk than a shard holds: two shard pairs, each shard on its own
    # (seed, side, shard) substream; with no target, a run's counts are the
    # sums of its shards' counts
    pg = planted_partition(PlantedSpec(30, 0.3, 0.05, seed=14))
    chain = _WalkChain(pg.graph, pg.ground_truth, RwcConfig())
    n_walks = _SHARD_WALKS + 1
    mc = rwc_monte_carlo(pg.graph, pg.ground_truth, n_walks=n_walks, seed=15)
    for side, start in enumerate((chain.start_x, chain.start_y)):
        shards = [naive_walk_shard(chain, start, count, np.random.default_rng((15, side, shard)))
                  for shard, count in enumerate((_SHARD_WALKS, 1))]
        hit_x, hit_y = map(sum, zip(*shards))
        assert hit_x + hit_y == n_walks
        from_side = (mc.p_xx, mc.p_xy) if side == 0 else (mc.p_yx, mc.p_yy)
        assert from_side == (hit_x / n_walks, hit_y / n_walks)
    assert mc.p_xx + mc.p_xy == 1.0
    assert mc.p_yy + mc.p_yx == 1.0
    assert mc == rwc_monte_carlo(pg.graph, pg.ground_truth, n_walks=n_walks, seed=15)


def test_walk_pair_counts_are_the_per_side_walks_counts():
    # the two sides stepped together draw from their own generators, as
    # many values a step as each has live walkers, so every count is that
    # of the side's walks run alone
    rng = np.random.default_rng(83)
    planted = planted_partition(PlantedSpec(30, 0.3, 0.05, seed=14))
    cases = [(planted.graph, planted.ground_truth)]
    for _ in range(3):
        g = random_connected_graph(int(rng.integers(20, 40)), float(rng.uniform(0.15, 0.4)), rng)
        cases.append((g, make_bipartition(g, random_halves(g, rng))))
    # a lopsided split: X's start set is about three times Y's
    g = cases[-1][0]
    lopsided = {n: "X" if i % 4 else "Y" for i, n in enumerate(g.nodes)}
    cases.append((g, make_bipartition(g, lopsided)))
    for g, p in cases:
        for weighted in (False, True):
            chain = _WalkChain(g, p, RwcConfig(k_top=3, weighted_walk=weighted))
            for count in (1, 7, _SHARD_WALKS + 1):
                seeds = [(count, side) for side in (0, 1)]
                got = _walk_pair(chain, count, *map(np.random.default_rng, seeds))
                want = [naive_walk_shard(chain, start, count, np.random.default_rng(seed))
                        for start, seed in zip((chain.start_x, chain.start_y), seeds)]
                assert got == (*want[0], *want[1])
                assert sum(got[:2]) == sum(got[2:]) == count
    assert chain.start_x.size > 2 * chain.start_y.size


def test_settled_needs_two_pairs():
    for n in (0, 1):
        assert _settled(n, n, n, _SHARD_WALKS, 0.0, 10.0) is None
        assert _settled(n, n, n, _SHARD_WALKS, 5.0, 0.0) is None


@pytest.mark.parametrize("sum_d, sum_d2, n, cap, half", [
    # K = 4 checks, ln(4 * 4 / 1e-6) = 16.5881; mean D = 0.2; X's sample
    # variance (15000 - 5000 * 0.2) / 24999 / 4 = 0.140006; half-width
    # 2 * (sqrt(2 * 0.140006 * 16.5881 / 25000) + 7 * 16.5881 / (3 * 24999))
    (5000, 15000, 25_000, 100_000, 0.0303578),
    # K = 1, every D = 1: no variance, only the range term,
    # 2 * 7 * ln(4 / 1e-6) / (3 * 19999) = 2 * 7 * 15.2018 / 59997
    (20_000, 20_000, 20_000, _SHARD_WALKS, 0.0035473),
])
def test_settled_interval_widths_by_hand(sum_d, sum_d2, n, cap, half):
    mean = sum_d / n
    tol = 0.05
    for sign in (1, -1):
        # inside exactly when |mean - exact| + half <= tol
        assert _settled(sum_d, sum_d2, n, cap, mean + sign * (tol - half - 1e-6), tol) == "pass"
        assert _settled(sum_d, sum_d2, n, cap, mean + sign * (tol - half + 1e-6), tol) is None
        # outside exactly when |mean - exact| - half > tol
        assert _settled(sum_d, sum_d2, n, cap, mean + sign * (tol + half + 1e-6), tol) == "fail"
        assert _settled(sum_d, sum_d2, n, cap, mean + sign * (tol + half - 1e-6), tol) is None


def test_settled_intervals_cover_the_truth_at_every_check():
    # pairs of Bernoulli(p) and Bernoulli(q) walks: each shard's counts of
    # D = -1, 0, 1 are multinomial. With tol 0 an interval "fails" exactly
    # when it misses the true mean p + q - 1; a run checks after each of its
    # four shards, and all four intervals hold at once with probability
    # 1 - delta, so at most a delta share of runs may miss anywhere.
    delta, runs, cap = 0.05, 1000, 4 * _SHARD_WALKS
    rng = np.random.default_rng(2009)
    for p, q in ((0.5, 0.5), (0.6, 0.62), (0.98, 0.995)):
        cells = ((1 - p) * (1 - q), p * (1 - q) + q * (1 - p), p * q)
        counts = rng.multinomial(_SHARD_WALKS, cells, size=(runs, cap // _SHARD_WALKS))
        sum_d = np.cumsum(counts[..., 2] - counts[..., 0], axis=1)
        sum_d2 = np.cumsum(counts[..., 2] + counts[..., 0], axis=1)
        missed = sum(
            any(_settled(int(d), int(d2), (j + 1) * _SHARD_WALKS, cap, p + q - 1, 0.0, delta)
                == "fail" for j, (d, d2) in enumerate(zip(row_d, row_d2)))
            for row_d, row_d2 in zip(sum_d, sum_d2)
        )
        assert missed <= delta * runs, (p, q, missed)


def test_settled_check_passes_early_with_the_estimate_of_the_walks_run():
    pg = planted_partition(PlantedSpec(100, 0.1, 0.02, seed=10))
    exact = rwc_score(pg.graph, pg.ground_truth)
    target = Settle(exact.score, 0.02)
    mc = rwc_monte_carlo(pg.graph, pg.ground_truth, n_walks=100_000, seed=11, settle=target)
    assert target.verdict == "pass"
    assert 0 < target.walks < 100_000 and target.walks % _SHARD_WALKS == 0
    assert abs(mc.score - exact.score) <= 0.02
    # the same figures as an unsettled run of the walks used
    assert mc == rwc_monte_carlo(pg.graph, pg.ground_truth, n_walks=target.walks, seed=11)


@pytest.mark.parametrize("offset", [0.2, -0.2])
def test_settled_check_fails_after_one_shard_pair_on_a_far_target(offset):
    pg = planted_partition(PlantedSpec(100, 0.1, 0.02, seed=10))
    exact = rwc_score(pg.graph, pg.ground_truth)
    target = Settle(exact.score + offset, 0.02)
    mc = rwc_monte_carlo(pg.graph, pg.ground_truth, n_walks=100_000, seed=11, settle=target)
    assert (target.verdict, target.walks) == ("fail", _SHARD_WALKS)
    assert abs(mc.score - target.exact) > 0.02


@pytest.mark.parametrize("n_walks", [1, _SHARD_WALKS])
def test_settled_check_at_the_cap_matches_the_unsettled_run(n_walks):
    # a run whose cap is one shard never checks: it ends at the cap with no
    # verdict, and the point rule is left to the caller
    pg = planted_partition(PlantedSpec(30, 0.3, 0.05, seed=14))
    exact = rwc_score(pg.graph, pg.ground_truth)
    target = Settle(exact.score, 0.02, walks=-1, verdict="stale")
    mc = rwc_monte_carlo(pg.graph, pg.ground_truth, n_walks=n_walks, seed=15, settle=target)
    assert (target.verdict, target.walks) == (None, n_walks)
    assert mc == rwc_monte_carlo(pg.graph, pg.ground_truth, n_walks=n_walks, seed=15)


STEP_ALPHA = 0.15
# the draws at the ends of the restart and move ranges
STEP_U = (0.0, np.nextafter(STEP_ALPHA, 0.0), STEP_ALPHA, np.nextafter(1.0, 0.0))


@pytest.mark.parametrize("weighted", [False, True])
# named by the size of X's start set
@pytest.mark.parametrize("sizes", [(41, 79), (79, 41)], ids=["41", "79"])
def test_pick_stays_in_range_at_the_draw_edges(weighted, sizes):
    # a pair's walkers: every draw on every row, for X's walkers and then Y's
    alpha = STEP_ALPHA
    degree = np.array([1, 5, 7, 10])
    indptr = np.concatenate(([0], np.cumsum(degree)))
    row = np.tile(np.repeat(np.arange(degree.size), len(STEP_U)), 2)
    u = np.tile(STEP_U, 2 * degree.size)
    n_x = u.size // 2
    first, last = indptr[:-1][row], indptr[1:][row] - 1
    cum0 = None
    scale = degree[row] / (1 - alpha)
    if weighted:
        cum0 = np.concatenate(([0.0], np.cumsum(np.arange(1.0, indptr[-1] + 1))))
        scale = (cum0[last + 1] - cum0[first]) / (1 - alpha)
    # unclipped, rounding carries these draws one past the last slot or edge
    assert all(int(STEP_U[1] * (n / alpha)) == n for n in sizes)
    assert all(int((STEP_U[3] - alpha) * (d / (1 - alpha))) == d for d in (5, 7, 10))

    restart, slot, edge = _pick(u, n_x, alpha, sizes, first, last, scale, cum0)
    assert np.array_equal(restart, np.flatnonzero(u < alpha))
    # each side's slots index its own part of X's start set followed by Y's
    base = np.where(restart < n_x, 0, sizes[0])
    size = np.where(restart < n_x, sizes[0], sizes[1])
    assert np.all((slot >= base) & (slot < base + size))
    draw = u[restart]
    assert np.array_equal(slot[draw == STEP_U[0]], base[draw == STEP_U[0]])
    assert np.array_equal(slot[draw == STEP_U[1]], (base + size - 1)[draw == STEP_U[1]])
    assert np.all((edge >= first) & (edge <= last))
    at_alpha, below_one = u == STEP_U[2], u == STEP_U[3]
    assert np.array_equal(edge[at_alpha], first[at_alpha])
    assert np.array_equal(edge[below_one], last[below_one])


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
    # the walk itself checks, ahead of the partition's graph
    with pytest.raises(RwcError, match="connected"):
        _WalkChain(g, p, RwcConfig(k_top=1))
    other = graph_from_edges(clique_edges(["a", "b", "c", "d"]))
    with pytest.raises(RwcError, match="connected"):
        _WalkChain(g, balanced_sides(other, lambda n: n in "ab"), RwcConfig(k_top=1))


def test_config_validation():
    with pytest.raises(ValueError):
        RwcConfig(k_top=0)
    with pytest.raises(ValueError):
        RwcConfig(restart_prob=1.0)
    with pytest.raises(ValueError):
        RwcConfig(solver_tol=0.0)
    # an infinite tolerance stopped the solver after a few sweeps with a wrong
    # score, and nan ran every sweep before NoConvergence
    for tol in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="solver_tol must be positive and finite"):
            RwcConfig(solver_tol=tol)


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
            by_sort = sorted(side_nodes(p, side), key=lambda n: (-degree[n], n))[:k_top]
            got = frozenset(chain.nodes[i] for i in absorb)
            assert got == high_degree_nodes(g, side, p, k_top) == frozenset(by_sort)


def test_chain_rejects_side_too_small():
    g = graph_from_edges(clique_edges(["a", "b", "c", "d", "e"]))
    p = balanced_sides(g, lambda n: n in "ab")
    with pytest.raises(SideTooSmall):
        rwc_score(g, p, RwcConfig(k_top=2))


def test_a_partition_of_another_graph_is_rejected():
    pg = planted_partition(PlantedSpec(30, 0.4, 0.05, seed=8))
    dropped = sorted(side_nodes(pg.ground_truth, "X"))[:5]
    # the graph without five nodes, and with one more node
    smaller = graph_from_edges({e: w for e, w in pg.graph.edges.items()
                                if not set(e) & set(dropped)})
    larger = graph_from_edges({**pg.graph.edges, edge_key(dropped[0], "zz"): 1})
    for g in (smaller, larger):
        assert is_connected(g)
        for score in (rwc_score, lambda g, p: rwc_monte_carlo(g, p, n_walks=10, seed=0),
                      lambda g, p: high_degree_nodes(g, "X", p, 1)):
            with pytest.raises(PartitionError, match="not of the graph"):
                score(g, pg.ground_truth)


def test_make_bipartition_of_a_bisection_is_the_bisection():
    rng = np.random.default_rng(73)
    for _ in range(15):
        g = random_connected_graph(int(rng.integers(10, 40)), float(rng.uniform(0.1, 0.5)), rng)
        p = bisect(g, seed=int(rng.integers(1 << 30)))
        again = make_bipartition(g, p.side_of)
        assert again == p and again.nodes is p.nodes is g.nodes
        assert p.side_of[g.nodes[0]] == "X"  # the side holding the smallest id
        cfg = RwcConfig(k_top=2, weighted_walk=bool(rng.integers(2)))
        a, b = rwc_score(g, p, cfg), rwc_score(g, again, cfg)
        assert [x.hex() for x in vars(a).values()] == [x.hex() for x in vars(b).values()]


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
            transient = np.flatnonzero(chain.absorb_label == 0)
            z = np.zeros(g.node_count)
            z[transient] = rng.random(transient.size)
            assert _times(*got[:3], z).tolist() == naive_times(rows, cols, prob, z.tolist())

            seen_all_absorbing |= len(set(rows)) < transient.size
            seen_unsorted_absorb |= any(list(a) != sorted(a) for a in (chain.absorb_x, chain.absorb_y))
            _, indptr, indices, _ = g.csr
            into_x = np.isin(indices, chain.absorb_x)
            seen_long_row |= max(into_x[indptr[v]:indptr[v + 1]].sum() for v in transient) > 8
    assert seen_all_absorbing and seen_unsorted_absorb and seen_long_row


def test_solver_matches_the_sparse_matrix_solver_bit_for_bit():
    # float.hex of (p_xx, p_xy, p_yy, p_yx) from the scipy.sparse solver that
    # the Jacobi reference replaced; the Chebyshev solve sums in another
    # order, and each solver is within solver_tol of the exact value
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
        cfg = RwcConfig(k_top=10, weighted_walk=weighted)
        assert [x.hex() for x in jacobi_solve(_WalkChain(graph, partition, cfg))] == want
        r = rwc_score(graph, partition, cfg)
        for got, pinned in zip((r.p_xx, r.p_xy, r.p_yy, r.p_yx), want):
            assert abs(got - float.fromhex(pinned)) <= 2 * cfg.solver_tol


def test_chebyshev_solve_is_within_twice_the_tolerance_of_jacobi():
    rng = np.random.default_rng(79)
    for _ in range(8):
        g = random_connected_graph(int(rng.integers(20, 60)), float(rng.uniform(0.1, 0.4)), rng)
        p = make_bipartition(g, random_halves(g, rng))
        for weighted in (False, True):
            for alpha in (0.05, 0.3):
                cfg = RwcConfig(k_top=3, restart_prob=alpha, weighted_walk=weighted)
                r = rwc_score(g, p, cfg)
                want = jacobi_solve(_WalkChain(g, p, cfg))
                for got, ref in zip((r.p_xx, r.p_xy, r.p_yy, r.p_yx), want):
                    assert abs(got - ref) <= 2 * cfg.solver_tol


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
