"""Endorsement network construction and structural preprocessing.

The endorsement graph is undirected: nodes are authors, an edge {u, v}
carries the combined repost count between the pair and exists only when
that count reaches the threshold (default 2, mutual reposts included).
Preprocessing applies k-core decomposition (default k=2) and keeps the
largest connected component; graphs below the minimum node count (default
800) are reported as UnderSized rather than scored.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .ingest import InteractionRecord


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

    def adjacency(self) -> dict[str, list[str]]:
        """Neighbor lists, sorted for deterministic iteration."""
        adj: dict[str, list[str]] = {node: [] for node in self.nodes}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for neighbors in adj.values():
            neighbors.sort()
        return adj

    def degrees(self) -> dict[str, int]:
        """Unweighted degree (number of incident edges) per node."""
        deg = dict.fromkeys(self.nodes, 0)
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def weight(self, u: str, v: str) -> int:
        return self.edges.get(edge_key(u, v), 0)

    def induced(self, keep: set[str] | frozenset[str]) -> "EndorsementGraph":
        """Node-induced subgraph preserving edge weights."""
        edges = {
            (u, v): w
            for (u, v), w in self.edges.items()
            if u in keep and v in keep
        }
        return EndorsementGraph(frozenset(keep & self.nodes), edges)


def sorted_csr(g: EndorsementGraph) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    """Symmetric CSR view of g over its nodes in sorted-id order.

    Returns (nodes, indptr, indices, weights): index i stands for nodes[i],
    and row i lists each neighbor once, in ascending index order, with the
    edge weight.
    """
    nodes = sorted(g.nodes)
    index = {node: i for i, node in enumerate(nodes)}
    m = len(g.edges)
    ends = np.fromiter((index[x] for pair in g.edges for x in pair), dtype=np.int64,
                       count=2 * m).reshape(m, 2)
    weights = np.fromiter(g.edges.values(), dtype=np.int64, count=m)
    rows = np.concatenate((ends[:, 0], ends[:, 1]))
    cols = np.concatenate((ends[:, 1], ends[:, 0]))
    order = np.lexsort((cols, rows))
    indptr = np.zeros(len(nodes) + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=len(nodes)), out=indptr[1:])
    return nodes, indptr, cols[order], np.concatenate((weights, weights))[order]


@dataclass(frozen=True)
class UnderSized:
    """Marker result: the prepared graph missed the node threshold (a dash cell)."""

    node_count: int


def build_graph(records: Iterable[InteractionRecord], min_rt: int = 2) -> EndorsementGraph:
    """Aggregate repost interactions into the thresholded endorsement graph.

    The pair weight sums both directions, so two mutual single reposts meet
    the default threshold. Self-reposts are ignored and authors without a
    surviving edge are excluded.
    """
    if min_rt < 1:
        raise ValueError(f"min_rt must be >= 1, got {min_rt}")
    pair_counts: Counter[tuple[str, str]] = Counter()
    for record in records:
        if record.repost_of is None:
            continue
        _original_post, original_author = record.repost_of
        if original_author == record.author_id:
            continue
        pair_counts[edge_key(record.author_id, original_author)] += 1
    edges = {pair: count for pair, count in pair_counts.items() if count >= min_rt}
    nodes: set[str] = set()
    for u, v in edges:
        nodes.add(u)
        nodes.add(v)
    return EndorsementGraph(frozenset(nodes), edges)


def k_core(g: EndorsementGraph, k: int) -> EndorsementGraph:
    """Maximal subgraph where every node keeps at least k incident edges.

    Computed by queue-based peeling; equivalent to the fixpoint of removing
    nodes of degree < k.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    adj = g.adjacency()
    degree = {node: len(neighbors) for node, neighbors in adj.items()}
    queue = deque(node for node, d in degree.items() if d < k)
    removed: set[str] = set(queue)
    while queue:
        node = queue.popleft()
        for neighbor in adj[node]:
            if neighbor in removed:
                continue
            degree[neighbor] -= 1
            if degree[neighbor] < k:
                removed.add(neighbor)
                queue.append(neighbor)
    return g.induced(set(g.nodes) - removed)


def connected_components(g: EndorsementGraph) -> list[set[str]]:
    """All components via BFS, each discovered from its smallest unvisited node."""
    adj = g.adjacency()
    components: list[set[str]] = []
    visited: set[str] = set()
    for start in sorted(g.nodes):
        if start in visited:
            continue
        component = {start}
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for neighbor in adj[node]:
                if neighbor not in component:
                    component.add(neighbor)
                    queue.append(neighbor)
        visited |= component
        components.append(component)
    return components


def is_connected(g: EndorsementGraph) -> bool:
    return g.node_count <= 1 or len(connected_components(g)) == 1


def largest_component(g: EndorsementGraph) -> EndorsementGraph:
    """Component with the most nodes; ties go to the smallest minimum node id."""
    if g.node_count == 0:
        return g
    components = connected_components(g)
    best = min(components, key=lambda c: (-len(c), min(c)))
    return g.induced(best)


def prepare_conversation_graph(
    records: Iterable[InteractionRecord],
    min_rt: int = 2,
    k: int = 2,
    min_nodes: int = 800,
) -> EndorsementGraph | UnderSized:
    """build -> k-core -> largest component, gated on the node threshold."""
    g = largest_component(k_core(build_graph(records, min_rt=min_rt), k))
    if g.node_count < min_nodes:
        return UnderSized(g.node_count)
    return g


def dump_edgelist(g: EndorsementGraph) -> str:
    """Plain "u v w" edge list for external visualization tools."""
    lines = [f"{u} {v} {w}" for (u, v), w in sorted(g.edges.items())]
    return "\n".join(lines) + ("\n" if lines else "")
