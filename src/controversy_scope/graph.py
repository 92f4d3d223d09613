"""Endorsement network construction and structural preprocessing.

The endorsement graph is undirected: nodes are authors, an edge {u, v}
carries the combined repost count between the pair and exists only when
that count reaches the threshold (default 2, mutual reposts included).
Preprocessing applies k-core decomposition (default k=2) and keeps the
largest connected component; graphs below the minimum node count (default
800) are reported as UnderSized rather than scored.

A graph is its sorted-id CSR alone, which every structural pass here and
in the partitioner and the walk solver reads. build_graph and
synth.planted_partition fill it from int pairs, and k_core and
largest_component slice and renumber it, so none of them builds a
string-keyed edge map or sorts node ids.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

import numpy as np

from .ingest import Corpus


@dataclass(frozen=True, eq=False)
class EndorsementGraph:
    """Undirected weighted author graph as a symmetric CSR over sorted ids.

    Index i stands for nodes[i], and row i, indices[indptr[i]:indptr[i + 1]],
    lists each neighbor once, in ascending index order, with the edge weight
    at the same position of weights. The arrays are read-only. Equality is
    identity: compare nodes and edges to compare two graphs.
    """

    nodes: tuple[str, ...]
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        for array in (self.indptr, self.indices, self.weights):
            array.flags.writeable = False

    @classmethod
    def from_edges(
        cls, nodes: Iterable[str], edges: Mapping[tuple[str, str], int]
    ) -> EndorsementGraph:
        """Graph over nodes with {(u, v): weight} edges, each keyed u < v as in edges.

        Nodes without an edge stay as isolates. A self-loop, a pair keyed
        larger id first (so one listed in both orders too), an endpoint
        outside nodes or a weight below 1 raises ValueError.
        """
        names = sorted(set(nodes))
        index = {name: i for i, name in enumerate(names)}
        for (a, b), w in edges.items():
            if not a < b:
                raise ValueError(f"edge ({a!r}, {b!r}) must join two ids, smaller first")
            if a not in index or b not in index:
                raise ValueError(f"edge ({a!r}, {b!r}) has an endpoint outside the nodes")
            if w < 1:
                raise ValueError(f"edge ({a!r}, {b!r}) has weight {w}, need >= 1")
        ends = np.array([(index[a], index[b]) for a, b in edges], dtype=np.int64).reshape(-1, 2)
        return _from_pairs(names, *ends.T, np.array(list(edges.values()), dtype=np.int64))

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return self.indices.size // 2

    @property
    def csr(self) -> tuple[tuple[str, ...], np.ndarray, np.ndarray, np.ndarray]:
        """(nodes, indptr, indices, weights), the graph's four fields."""
        return self.nodes, self.indptr, self.indices, self.weights

    @property
    def edges(self) -> dict[tuple[str, str], int]:
        """{(u, v): weight} with u < v, in sorted order; a new dict on each access."""
        nodes = self.nodes
        u, v, w = _upper(self)
        return {(nodes[a], nodes[b]): c for a, b, c in zip(u.tolist(), v.tolist(), w.tolist())}


@dataclass(frozen=True)
class UnderSized:
    """Marker result: the prepared graph missed the node threshold (a dash cell)."""

    node_count: int


def _upper(g: EndorsementGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, v, w) with each edge once, u < v, ordered by (u, v)."""
    rows = np.repeat(np.arange(g.node_count), np.diff(g.indptr))
    upper = rows < g.indices
    return rows[upper], g.indices[upper], g.weights[upper]


def _from_pairs(names: list[str], u: np.ndarray, v: np.ndarray, w: np.ndarray) -> EndorsementGraph:
    """Graph over sorted names with edges {u[e], v[e]} of weight w[e], each listed once."""
    rows, cols = np.concatenate((u, v)), np.concatenate((v, u))
    order = np.lexsort((cols, rows))
    indptr = np.concatenate(([0], np.bincount(rows, minlength=len(names)).cumsum()))
    return EndorsementGraph(tuple(names), indptr, cols[order], np.concatenate((w, w))[order])


def build_graph(corpus: Corpus, min_rt: int = 2) -> EndorsementGraph:
    """Aggregate repost interactions into the thresholded endorsement graph.

    The pair weight sums both directions, so two mutual single reposts meet
    the default threshold. Self-reposts are ignored and authors without a
    surviving edge are excluded. Pairs are counted as int keys over the
    sorted author table, so each key's smaller index is its smaller id.
    """
    if min_rt < 1:
        raise ValueError(f"min_rt must be >= 1, got {min_rt}")
    author, original = corpus.author, corpus.target_author
    endorses = (original >= 0) & (original != author)
    u = np.minimum(author, original)[endorses].astype(np.int64)
    v = np.maximum(author, original)[endorses]
    n = len(corpus.authors)
    keys, counts = np.unique(u * n + v, return_counts=True)
    strong = counts >= min_rt
    # the authors with an edge, renumbered in table order, so still sorted
    present, ends = np.unique(np.divmod(keys[strong], n), return_inverse=True)
    u, v = ends.reshape(2, -1)
    return _from_pairs([corpus.authors[a] for a in present.tolist()], u, v, counts[strong])


def _subgraph(g: EndorsementGraph, keep: np.ndarray) -> EndorsementGraph:
    """Node-induced subgraph, weights kept, on the sorted-id indices where keep is set.

    The kept indices are renumbered in order, so the kept names need no sort.
    """
    if keep.all():  # also for the empty graph
        return g
    u, v, w = _upper(g)
    both = keep[u] & keep[v]
    renumber = np.cumsum(keep) - 1
    return _from_pairs([g.nodes[i] for i in np.flatnonzero(keep).tolist()],
                       renumber[u[both]], renumber[v[both]], w[both])


def k_core(g: EndorsementGraph, k: int) -> EndorsementGraph:
    """Maximal subgraph where every node keeps at least k incident edges.

    Computed by queue-based peeling, linear however long the peeling chains;
    equivalent to the fixpoint of removing nodes of degree < k.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    ptr = g.indptr.tolist()
    neighbors = g.indices.tolist()
    degree = np.diff(g.indptr).tolist()
    removed = [d < k for d in degree]
    queue = deque(v for v, gone in enumerate(removed) if gone)
    while queue:
        v = queue.popleft()
        for u in neighbors[ptr[v]:ptr[v + 1]]:
            if removed[u]:
                continue
            degree[u] -= 1
            if degree[u] < k:
                removed[u] = True
                queue.append(u)
    return _subgraph(g, ~np.array(removed, dtype=bool))


def _component_roots(g: EndorsementGraph) -> np.ndarray:
    """Per sorted-id index, the smallest index in its connected component.

    Min-label hooking with full shortcuts: each round, every tree root with a
    smaller root among its neighboring trees hooks to the smallest one, then
    every index is pointed straight at its root. A root that outlives the next
    round had every neighboring root hook to it, and no two roots share one,
    so each two rounds at least halve the roots of an unfinished component:
    O(log n) rounds, each a few NumPy passes over the edges.
    """
    small, big, _ = _upper(g)
    root = np.arange(g.node_count)
    while big.size:
        np.minimum.at(root, big, small)
        while not np.array_equal(flat := root[root], root):
            root = flat
        a, b = root[big], root[small]
        crossing = a != b
        big, small = np.maximum(a, b)[crossing], np.minimum(a, b)[crossing]
    return root


def is_connected(g: EndorsementGraph) -> bool:
    """True when every node shares the smallest id's component (or there is none)."""
    return not _component_roots(g).any()


def largest_component(g: EndorsementGraph) -> EndorsementGraph:
    """Component with the most nodes; ties go to the smallest minimum node id."""
    roots = _component_roots(g)
    # the first maximum is the tied component with the smallest root
    return _subgraph(g, roots == np.argmax(np.bincount(roots, minlength=1)))


def prepare_conversation_graph(
    corpus: Corpus,
    min_rt: int = 2,
    k: int = 2,
    min_nodes: int = 800,
) -> EndorsementGraph | UnderSized:
    """build -> k-core -> largest component, gated on the node threshold."""
    g = largest_component(k_core(build_graph(corpus, min_rt=min_rt), k))
    if g.node_count < min_nodes:
        return UnderSized(g.node_count)
    return g


def dump_edgelist(g: EndorsementGraph) -> str:
    """Plain "u v w" edge list for external visualization tools."""
    names = g.nodes
    u, v, w = _upper(g)
    return "".join(f"{names[a]} {names[b]} {c}\n"
                   for a, b, c in zip(u.tolist(), v.tolist(), w.tolist()))
