"""Endorsement network construction and structural preprocessing.

The endorsement graph is undirected: nodes are authors, an edge {u, v}
carries the combined repost count between the pair and exists only when
that count reaches the threshold (default 2, mutual reposts included).
Preprocessing applies k-core decomposition (default k=2) and keeps the
largest connected component; graphs below the minimum node count (default
800) are reported as UnderSized rather than scored.

Every structural pass, here and in the partitioner and the walk solver,
reads one view of a graph: its sorted-id CSR (EndorsementGraph.csr), built
on first use and kept, so each graph object sorts its ids at most once.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ingest import Corpus


def edge_key(u: str, v: str) -> tuple[str, str]:
    """Canonical unordered pair."""
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class EndorsementGraph:
    """Undirected weighted author graph; treat as immutable once built."""

    nodes: frozenset[str]
    edges: dict[tuple[str, str], int]

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def csr(self) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
        """Symmetric CSR view over the nodes in sorted-id order, built on first use.

        Returns (nodes, indptr, indices, weights): index i stands for nodes[i],
        and row i lists each neighbor once, in ascending index order, with the
        edge weight. Every caller shares the one view, so the arrays are
        read-only and the node list must not be modified.
        """
        nodes = sorted(self.nodes)
        index = {node: i for i, node in enumerate(nodes)}
        m = len(self.edges)
        ends = np.fromiter((index[x] for pair in self.edges for x in pair), dtype=np.int64,
                           count=2 * m).reshape(m, 2)
        weights = np.fromiter(self.edges.values(), dtype=np.int64, count=m)
        rows = np.concatenate((ends[:, 0], ends[:, 1]))
        cols = np.concatenate((ends[:, 1], ends[:, 0]))
        order = np.lexsort((cols, rows))
        indptr = np.zeros(len(nodes) + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=len(nodes)), out=indptr[1:])
        arrays = indptr, cols[order], np.concatenate((weights, weights))[order]
        for array in arrays:
            array.flags.writeable = False
        return (nodes, *arrays)


@dataclass(frozen=True)
class UnderSized:
    """Marker result: the prepared graph missed the node threshold (a dash cell)."""

    node_count: int


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
    u, v = np.divmod(keys[strong], n)
    names = corpus.authors
    edges = {
        (names[a], names[b]): w
        for a, b, w in zip(u.tolist(), v.tolist(), counts[strong].tolist())
    }
    return EndorsementGraph(frozenset(n for pair in edges for n in pair), edges)


def _subgraph(g: EndorsementGraph, keep: np.ndarray) -> EndorsementGraph:
    """Node-induced subgraph, weights kept, on the sorted-id indices where keep is set."""
    if keep.all():  # also for the empty graph
        return g
    nodes, indptr, indices, weights = g.csr
    rows = np.repeat(np.arange(len(nodes)), np.diff(indptr))
    # each edge once, from its smaller index, so (nodes[u], nodes[v]) is canonical
    upper = (rows < indices) & keep[rows] & keep[indices]
    edges = {
        (nodes[u], nodes[v]): w
        for u, v, w in zip(rows[upper].tolist(), indices[upper].tolist(),
                           weights[upper].tolist())
    }
    return EndorsementGraph(frozenset(nodes[i] for i in np.flatnonzero(keep).tolist()), edges)


def k_core(g: EndorsementGraph, k: int) -> EndorsementGraph:
    """Maximal subgraph where every node keeps at least k incident edges.

    Computed by queue-based peeling, linear however long the peeling chains;
    equivalent to the fixpoint of removing nodes of degree < k.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _, indptr, indices, _ = g.csr
    ptr = indptr.tolist()
    neighbors = indices.tolist()
    degree = np.diff(indptr).tolist()
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
    _, indptr, indices, _ = g.csr
    n = indptr.size - 1
    rows = np.repeat(np.arange(n), np.diff(indptr))
    upper = rows < indices
    big, small = indices[upper], rows[upper]  # each edge once, larger end first
    root = np.arange(n)
    while big.size:
        np.minimum.at(root, big, small)
        while not np.array_equal(flat := root[root], root):
            root = flat
        a, b = root[big], root[small]
        crossing = a != b
        big, small = np.maximum(a, b)[crossing], np.minimum(a, b)[crossing]
    return root


def connected_components(g: EndorsementGraph) -> list[list[str]]:
    """All components as ascending node-id lists, ordered by their smallest id."""
    components: dict[int, list[str]] = {}
    for node, root in zip(g.csr[0], _component_roots(g).tolist()):
        components.setdefault(root, []).append(node)
    return list(components.values())


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
    lines = [f"{u} {v} {w}" for (u, v), w in sorted(g.edges.items())]
    return "\n".join(lines) + ("\n" if lines else "")
