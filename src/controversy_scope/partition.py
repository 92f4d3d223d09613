"""Balanced two-way graph partitioning with a multilevel scheme.

The bisection pipeline mirrors the classic multilevel recipe: coarsen by
heavy-edge matching until the graph is small, seed a greedy balanced
bisection there, then uncoarsen while running boundary Fiduccia-Mattheyses
passes at every level. Edge weights drive matching and move gains; balance
is counted in nodes. Everything is deterministic for a fixed seed, with
ties broken by position in the sorted node-id order.

An FM pass ends once min(max(n // 100, 15), 100) consecutive moves on an
n-vertex level have not improved its best move prefix, and rolls back to
that prefix. The rule is METIS's two-way refinement bound (Karypis & Kumar,
SIAM J. Sci. Comput. 1998), after Fiduccia & Mattheyses (DAC 1982). The
bound holds for the initial attempts on the coarsest graph and for the
refinement at every level.

The initial attempts grow a side from every vertex of a coarsest graph of
at most 16 vertices, else from vertex 0, the highest-degree vertex and
INIT_ATTEMPTS random draws. Each distinct start grows once, each distinct
grown side is FM-refined once, and the refined side with the smallest
(cut weight, heavier side) wins, the earliest on a tie.

A Bipartition is one read-only side array over its graph's sorted ids, as
METIS returns a partition. bisect and planted_partition build it directly;
make_bipartition is the one entry, and the one check, for a
{node: "X"|"Y"} map.
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


class InvalidSideMap(PartitionError):
    """The side map names a node outside the graph or a label other than X and Y."""


@dataclass(frozen=True, eq=False)
class Bipartition:
    """A split of a graph: in_x, read-only, is True on side X at each index of
    nodes, the graph's own sorted-id tuple. Cut and balance ride along."""

    nodes: tuple[str, ...]
    in_x: np.ndarray
    cut: int
    cut_weight: int
    balance: float

    def __post_init__(self) -> None:
        if self.in_x.dtype != bool or self.in_x.shape != (len(self.nodes),):
            raise InvalidSideMap(f"in_x must hold one bool per node, "
                                 f"got {self.in_x.dtype} {self.in_x.shape}")
        self.in_x.flags.writeable = False

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Bipartition) and np.array_equal(self.in_x, other.in_x)
                and (self.nodes, self.cut, self.cut_weight, self.balance)
                == (other.nodes, other.cut, other.cut_weight, other.balance))

    @property
    def side_of(self) -> dict[str, str]:
        """{node: "X"|"Y"} in sorted-id order; a new dict on each access."""
        return {n: SIDE_X if x else SIDE_Y for n, x in zip(self.nodes, self.in_x.tolist())}


def _split(g: EndorsementGraph, in_x: np.ndarray) -> Bipartition:
    """The Bipartition of g with side X where in_x is True, cut and balance read off g.csr."""
    nodes, indptr, indices, weights = g.csr
    crossing = in_x[np.repeat(np.arange(len(nodes)), np.diff(indptr))] != in_x[indices]
    # each crossing edge is stored twice
    cut, cutw = int(crossing.sum()) // 2, int(weights[crossing].sum()) // 2
    n_x = int(in_x.sum())
    balance = max(n_x, len(nodes) - n_x) / len(nodes) if nodes else 0.0
    return Bipartition(nodes, in_x, cut, cutw, balance)


def make_bipartition(g: EndorsementGraph, side_of: dict[str, str]) -> Bipartition:
    """The Bipartition of g a side map names; the map must give each node of g
    a side, and name no other node and no label but X and Y."""
    missing = [n for n in g.nodes if n not in side_of]
    if missing:
        raise UnassignedNode(f"{len(missing)} nodes unassigned, e.g. {missing[0]!r}")
    extra = side_of.keys() - g.nodes
    if extra:
        raise InvalidSideMap(f"{len(extra)} nodes not in the graph, e.g. {min(extra)!r}")
    labels = set(side_of.values()) - {SIDE_X, SIDE_Y}
    if labels:
        bad = min(labels, key=repr)
        raise InvalidSideMap(f"side labels must be {SIDE_X!r} or {SIDE_Y!r}, got {bad!r}")
    return _split(g, np.fromiter((side_of[n] == SIDE_X for n in g.nodes), dtype=bool,
                                 count=g.node_count))


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


def _fm_limit(n: int) -> int:
    """Non-improving moves after which an FM pass on n vertices ends (METIS's rule)."""
    return min(max(n // 100, 15), 100)


def _fm_refine(ig: _IndexGraph, side: np.ndarray, w_max: int) -> None:
    """Boundary FM passes: hill-climb with rollback to the best move prefix.

    A pass ends when its heap is empty or _fm_limit(n) moves have gone by
    since the best prefix.
    """
    xadj, adjncy, adjwgt, vwgt = ig.as_lists()
    n = ig.n
    limit = _fm_limit(n)
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
        while heap and len(moves) - best_len < limit:
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
        draws = rng.integers(0, ig.n, size=INIT_ATTEMPTS).tolist()
        # a repeated start would grow and refine to the same side again
        starts = list(dict.fromkeys([0, int(np.argmax(degrees)), *draws]))
    best_side: np.ndarray | None = None
    best_key: tuple[int, int] | None = None
    # FM is deterministic and only a strictly smaller key wins, so a side
    # grown again would refine to the same side and change nothing
    grown: set[bytes] = set()
    for start in starts:
        side = _grow_bisection(ig, w_max, start)
        if side is None or side.tobytes() in grown:
            continue
        grown.add(side.tobytes())
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
    return _split(g, side == side[0])
