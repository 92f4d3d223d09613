"""Balanced two-way graph partitioning with a multilevel scheme.

The bisection pipeline mirrors the classic multilevel recipe: coarsen by
heavy-edge matching until the graph is small, seed a greedy balanced
bisection there, then uncoarsen while running boundary Fiduccia-Mattheyses
passes at every level. Edge weights drive matching and move gains; balance
is counted in nodes. Everything is deterministic for a fixed seed, with
ties broken by position in the sorted node-id order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .graph import EndorsementGraph, is_connected

SIDE_X = "X"
SIDE_Y = "Y"

COARSEN_TARGET = 64
FM_MAX_PASSES = 10
INIT_ATTEMPTS = 12


class PartitionError(Exception):
    """Base class for bisection failures."""


class TooSmall(PartitionError):
    """Fewer than two nodes; no bisection exists."""


class DisconnectedGraph(PartitionError):
    """Bisection requires a connected input graph."""


class UnassignedNode(PartitionError):
    """A graph node is missing from the partition's side map."""


@dataclass(frozen=True)
class Bipartition:
    """Two-sided node assignment with its cut and balance diagnostics."""

    side_of: dict[str, str]
    cut: int
    cut_weight: int
    balance: float

    def side_nodes(self, side: str) -> frozenset[str]:
        return frozenset(n for n, s in self.side_of.items() if s == side)

    def swapped(self) -> "Bipartition":
        """Same split with the X/Y labels exchanged."""
        flipped = {
            n: (SIDE_X if s == SIDE_Y else SIDE_Y) for n, s in self.side_of.items()
        }
        return Bipartition(flipped, self.cut, self.cut_weight, self.balance)


def cut_size(g: EndorsementGraph, p: Bipartition) -> int:
    """Number of edges whose endpoints sit on opposite sides."""
    return make_bipartition(g, p.side_of).cut


def cut_weight(g: EndorsementGraph, p: Bipartition) -> int:
    """Total weight of crossing edges."""
    return make_bipartition(g, p.side_of).cut_weight


def _require_assigned(g: EndorsementGraph, side_of: dict[str, str]) -> None:
    missing = g.nodes - side_of.keys()
    if missing:
        raise UnassignedNode(f"{len(missing)} nodes unassigned, e.g. {min(missing)!r}")


def make_bipartition(g: EndorsementGraph, side_of: dict[str, str]) -> Bipartition:
    """Assemble a Bipartition with cut/balance computed from the graph."""
    _require_assigned(g, side_of)
    cut = 0
    cutw = 0
    for (u, v), w in g.edges.items():
        if side_of[u] != side_of[v]:
            cut += 1
            cutw += w
    n_x = sum(1 for s in side_of.values() if s == SIDE_X)
    balance = max(n_x, len(side_of) - n_x) / len(side_of) if side_of else 0.0
    return Bipartition(dict(side_of), cut, cutw, balance)


def max_side_nodes(n: int, eps: float) -> int:
    """Largest admissible side size: the eps bound, but never below ceil(n/2)."""
    return max(int((0.5 + eps) * n), (n + 1) // 2)


# --- index-level machinery -------------------------------------------------
#
# The multilevel passes work on a CSR-style view: nodes are 0..n-1 in sorted
# id order, vertex weights track how many original nodes a coarse vertex
# absorbed.


class _IndexGraph:
    __slots__ = ("n", "xadj", "adjncy", "adjwgt", "vwgt", "rows")

    def __init__(self, n, xadj, adjncy, adjwgt, vwgt):
        self.n = n
        self.xadj = xadj
        self.adjncy = adjncy
        self.adjwgt = adjwgt
        self.vwgt = vwgt
        # rows[idx] is the vertex whose adjacency holds entry idx
        self.rows = np.repeat(np.arange(n), np.diff(xadj))

    def as_lists(self) -> tuple[list[int], list[int], list[int], list[int]]:
        """xadj, adjncy, adjwgt and vwgt as plain lists, for per-entry loops.

        Indexing a list is much cheaper than indexing a NumPy array one
        scalar at a time.
        """
        return self.xadj.tolist(), self.adjncy.tolist(), self.adjwgt.tolist(), self.vwgt.tolist()


def _heavy_edge_matching(
    ig: _IndexGraph, rng: np.random.Generator, max_vwgt: int
) -> tuple[np.ndarray, int]:
    """Match each vertex with its heaviest unmatched neighbor; returns a coarse map.

    Vertices left unpaired afterwards are absorbed into a neighbor's coarse
    group when the weight cap allows, which keeps star-like graphs (many
    leaves sharing few hubs) coarsening instead of stalling.
    """
    order = rng.permutation(ig.n).tolist()
    xadj, adjncy, adjwgt, vwgt = ig.as_lists()
    cmap = [-1] * ig.n
    n_coarse = 0
    for v in order:
        if cmap[v] >= 0:
            continue
        best = -1
        best_w = -1
        for idx in range(xadj[v], xadj[v + 1]):
            u = adjncy[idx]
            if cmap[u] >= 0:
                continue
            if vwgt[v] + vwgt[u] > max_vwgt:
                continue
            w = adjwgt[idx]
            if w > best_w or (w == best_w and u < best):
                best, best_w = u, w
        if best >= 0:
            cmap[v] = n_coarse
            cmap[best] = n_coarse
            n_coarse += 1
    group_w = [0] * ig.n
    for v in range(ig.n):
        if cmap[v] >= 0:
            group_w[cmap[v]] += vwgt[v]
    # parked[u] holds an unpaired vertex waiting at anchor u for a 2-hop partner
    parked = [-1] * ig.n
    for v in order:
        if cmap[v] >= 0:
            continue
        best = -1
        best_w = -1
        for idx in range(xadj[v], xadj[v + 1]):
            u = adjncy[idx]
            if cmap[u] < 0 or group_w[cmap[u]] + vwgt[v] > max_vwgt:
                continue
            w = adjwgt[idx]
            if w > best_w or (w == best_w and u < best):
                best, best_w = u, w
        if best >= 0:
            cmap[v] = cmap[best]
            group_w[cmap[v]] += vwgt[v]
            continue
        partner = -1
        park_at = -1
        for idx in range(xadj[v], xadj[v + 1]):
            u = adjncy[idx]
            waiting = parked[u]
            if waiting >= 0 and vwgt[v] + vwgt[waiting] <= max_vwgt:
                partner = waiting
                parked[u] = -1
                break
            if waiting < 0 and park_at < 0:
                park_at = u
        if partner >= 0:
            cmap[v] = n_coarse
            cmap[partner] = n_coarse
            group_w[n_coarse] = vwgt[v] + vwgt[partner]
            n_coarse += 1
        elif park_at >= 0:
            parked[park_at] = v
    for v in order:
        if cmap[v] < 0:
            cmap[v] = n_coarse
            group_w[n_coarse] = vwgt[v]
            n_coarse += 1
    return np.asarray(cmap, dtype=np.int64), n_coarse


def _coarsen(ig: _IndexGraph, cmap: np.ndarray, n_coarse: int) -> _IndexGraph:
    """Contract each coarse group to one vertex, summing the weights between groups."""
    vwgt = np.bincount(cmap, weights=ig.vwgt, minlength=n_coarse).astype(np.int64)
    cu = cmap[ig.rows]
    cv = cmap[ig.adjncy]
    crossing = cu != cv
    # both directions of every fine edge are present, so the coarse CSR is symmetric
    keys, inverse = np.unique(cu[crossing] * n_coarse + cv[crossing], return_inverse=True)
    adjwgt = np.bincount(inverse, weights=ig.adjwgt[crossing]).astype(np.int64)
    xadj = np.zeros(n_coarse + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n_coarse, minlength=n_coarse), out=xadj[1:])
    return _IndexGraph(n_coarse, xadj, keys % n_coarse, adjwgt, vwgt)


def _side_weights(ig: _IndexGraph, side: np.ndarray) -> list[int]:
    return [int(ig.vwgt[side == 0].sum()), int(ig.vwgt[side == 1].sum())]


def _weighted_cut(ig: _IndexGraph, side: np.ndarray) -> int:
    crossing = side[ig.rows] != side[ig.adjncy]
    return int(ig.adjwgt[crossing].sum()) // 2  # each crossing edge is stored twice


def _grow_bisection(ig: _IndexGraph, w_max: int, start: int) -> np.ndarray | None:
    """Greedy graph growing: pull the most-attached vertex into side 0 until balanced."""
    xadj, adjncy, adjwgt, vwgt = ig.as_lists()
    need = sum(vwgt) - w_max
    conn = [0] * ig.n
    in_x = [False] * ig.n
    w_x = 0

    def add(v: int) -> None:
        nonlocal w_x
        in_x[v] = True
        w_x += vwgt[v]
        for idx in range(xadj[v], xadj[v + 1]):
            conn[adjncy[idx]] += adjwgt[idx]

    add(start)
    while w_x < need:
        best = -1
        best_conn = -1
        for v in range(ig.n):
            if in_x[v] or w_x + vwgt[v] > w_max:
                continue
            if conn[v] > best_conn:
                best, best_conn = v, conn[v]
        if best < 0:
            return None
        add(best)
    return np.where(in_x, 0, 1).astype(np.int8)


def _boundary_gains(ig: _IndexGraph, side: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Move gain of every vertex, and the ascending boundary vertices.

    A vertex's gain is the weight of its crossing edges minus the weight of
    the rest; it is on the boundary when at least one edge crosses.
    """
    crossing = side[ig.rows] != side[ig.adjncy]
    signed = np.where(crossing, ig.adjwgt, -ig.adjwgt)
    gain = np.bincount(ig.rows, weights=signed, minlength=ig.n).astype(np.int64)
    return gain, np.unique(ig.rows[crossing])


def _fm_refine(ig: _IndexGraph, side: np.ndarray, w_max: int) -> None:
    """Boundary FM passes: hill-climb with rollback to the best move prefix."""
    xadj, adjncy, adjwgt, vwgt = ig.as_lists()
    n = ig.n
    for _ in range(FM_MAX_PASSES):
        gains, boundary = _boundary_gains(ig, side)
        # key -gain * n + v orders as the pair (-gain, v) does, without
        # allocating a tuple per push; keys of distinct vertices are
        # distinct, so the heap pops in one order however it was built
        heap = (-gains[boundary] * n + boundary).tolist()
        heapq.heapify(heap)
        gain = gains.tolist()
        where = side.tolist()
        side_w = _side_weights(ig, side)
        locked = [False] * n
        moves: list[int] = []
        cum = 0
        best_cum = 0
        best_len = 0
        while heap:
            neg_g, v = divmod(heapq.heappop(heap), n)
            if locked[v] or -neg_g != gain[v]:
                continue
            target = 1 - where[v]
            if side_w[target] + vwgt[v] > w_max:
                continue
            origin = where[v]
            where[v] = target
            side_w[origin] -= vwgt[v]
            side_w[target] += vwgt[v]
            locked[v] = True
            cum += gain[v]
            moves.append(v)
            if cum > best_cum:
                best_cum = cum
                best_len = len(moves)
            for idx in range(xadj[v], xadj[v + 1]):
                u = adjncy[idx]
                if locked[u]:
                    continue
                w = adjwgt[idx]
                gain[u] += 2 * w if where[u] == origin else -2 * w
                heapq.heappush(heap, -gain[u] * n + u)
        for v in moves[best_len:]:
            where[v] = 1 - where[v]
        side[:] = where
        if best_cum <= 0:
            break


def _initial_partition(
    ig: _IndexGraph, w_max: int, rng: np.random.Generator
) -> np.ndarray:
    degrees = ig.xadj[1:] - ig.xadj[:-1]
    if ig.n <= 16:
        starts = list(range(ig.n))
    else:
        starts = [0, int(np.argmax(degrees))]
        starts.extend(int(s) for s in rng.integers(0, ig.n, size=INIT_ATTEMPTS))
    best_side: np.ndarray | None = None
    best_key: tuple[int, int] | None = None
    for start in starts:
        side = _grow_bisection(ig, w_max, start)
        if side is None:
            continue
        _fm_refine(ig, side, w_max)
        side_w = _side_weights(ig, side)
        key = (_weighted_cut(ig, side), max(side_w))
        if best_key is None or key < best_key:
            best_side, best_key = side.copy(), key
    if best_side is None:
        raise PartitionError("no feasible initial bisection found")
    return best_side


def bisect(g: EndorsementGraph, eps: float = 0.05, seed: int = 0) -> Bipartition:
    """Split a connected graph into two near-equal sides with small edge cut.

    eps is the node-count imbalance tolerance in [0, 0.1]; the admissible
    side size never drops below ceil(n/2), so odd orders stay feasible.
    """
    if not 0.0 <= eps <= 0.1:
        raise ValueError(f"eps must be within [0, 0.1], got {eps}")
    if g.node_count < 2:
        raise TooSmall(f"need at least 2 nodes, got {g.node_count}")
    if not is_connected(g):
        raise DisconnectedGraph("bisect requires a connected graph")

    nodes, xadj, adjncy, adjwgt = g.csr
    total = len(nodes)
    rng = np.random.default_rng(seed)
    levels = [_IndexGraph(total, xadj, adjncy, adjwgt, np.ones(total, dtype=np.int64))]
    cmaps: list[np.ndarray] = []
    max_vwgt = max(2, -(-3 * total // (2 * COARSEN_TARGET)))
    while levels[-1].n > COARSEN_TARGET:
        cmap, n_coarse = _heavy_edge_matching(levels[-1], rng, max_vwgt)
        if n_coarse >= 0.95 * levels[-1].n:
            break
        cmaps.append(cmap)
        levels.append(_coarsen(levels[-1], cmap, n_coarse))

    w_max = max_side_nodes(total, eps)
    side = _initial_partition(levels[-1], w_max, rng)
    for level in range(len(cmaps) - 1, -1, -1):
        side = side[cmaps[level]]
        _fm_refine(levels[level], side, w_max)

    # anchor labels: the side holding the smallest node id is X
    label_of = (SIDE_X, SIDE_Y) if side[0] == 0 else (SIDE_Y, SIDE_X)
    side_of = {node: label_of[int(side[i])] for i, node in enumerate(nodes)}
    return make_bipartition(g, side_of)
