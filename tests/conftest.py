"""Shared fixtures and independent oracle implementations.

The oracles here stay deliberately naive (repeated scans, BFS, exhaustive
enumeration) so they exercise none of the code paths they are checking.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
from collections import Counter
from dataclasses import replace
from typing import Iterable

import numpy as np
import pytest
from hypothesis import settings

from controversy_scope.graph import EndorsementGraph, _component_roots
from controversy_scope.ingest import (
    Corpus,
    DuplicatePostId,
    EmptyInput,
    InteractionRecord,
    ParseResult,
    TimeWindow,
)
from controversy_scope.ingest_kernel import MAX_DEPTH
from controversy_scope.partition import SIDE_X, Bipartition
from controversy_scope.rwc import _times
from controversy_scope.sentiment import AllUnmatched, PolarityLexicon, score_text

# Property tests replay the same examples on every run and stay quick, so
# the tier-1 suite is deterministic; raise max_examples locally to search.
settings.register_profile("tier1", derandomize=True, max_examples=200,
                          deadline=None, database=None)
settings.load_profile("tier1")


@pytest.fixture(autouse=True)
def collector_left_as_found():
    """Fail a test that leaves the garbage collector paused or objects frozen.

    Nothing in the package pauses collection or freezes objects; a pause or
    a freeze leaking out of a call would change every later test's memory
    behaviour without failing it.
    """
    yield
    enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    if not enabled:
        gc.enable()
    if frozen:
        gc.unfreeze()
    if not enabled or frozen:
        pytest.fail(f"test left gc.isenabled()={enabled}, gc.get_freeze_count()={frozen}")


def record(
    post_id: str,
    author: str,
    ts: int = 1_000,
    tokens: tuple[tuple[str, str], ...] = (("word", "NOUN"),),
    repost_of: tuple[str, str] | None = None,
) -> InteractionRecord:
    return InteractionRecord(post_id, author, ts, tokens, repost_of)


def post_name(index: int) -> str:
    """How the id-normalized views spell the post numbered ``index``."""
    return f"#{index}"


def normalize_ids(records: Iterable[InteractionRecord]) -> list[InteractionRecord]:
    """The records with each post id renamed to its first-seen index.

    A record's own id is numbered before its repost target's, the order in
    which a ``Corpus`` numbers them. Which records share an id and which
    post each repost targets are kept; only the ids' spelling changes.
    """
    index: dict[str, str] = {}

    def name(post_id: str) -> str:
        return index.setdefault(post_id, post_name(len(index)))

    return [replace(r, post_id=name(r.post_id),
                    repost_of=None if r.repost_of is None else (name(r.repost_of[0]),
                                                                r.repost_of[1]))
            for r in records]


def as_records(corpus: Corpus) -> list[InteractionRecord]:
    """Each row of the corpus as an ``InteractionRecord``, its post ids
    spelled as ``normalize_ids`` spells them."""
    authors, surfaces, tags = corpus.authors, corpus.surfaces, corpus.tags
    ptr = corpus.token_ptr.tolist()
    tokens = list(zip(map(surfaces.__getitem__, corpus.token_surface.tolist()),
                      map(tags.__getitem__, corpus.token_tag.tolist())))
    return [
        InteractionRecord(post_name(p), authors[a], ts, tuple(tokens[ptr[row]:ptr[row + 1]]),
                          None if tp < 0 else (post_name(tp), authors[ta]))
        for row, (p, a, ts, tp, ta) in enumerate(zip(
            corpus.post.tolist(), corpus.author.tolist(), corpus.timestamp.tolist(),
            corpus.target_post.tolist(), corpus.target_author.tolist()))
    ]


def edge_key(u: str, v: str) -> tuple[str, str]:
    """Canonical unordered pair, so a dict of pairs holds each edge once."""
    return (u, v) if u <= v else (v, u)


def graph_from_edges(edges: dict[tuple[str, str], int]) -> EndorsementGraph:
    canonical = {edge_key(u, v): w for (u, v), w in edges.items()}
    nodes = frozenset(n for pair in canonical for n in pair)
    return EndorsementGraph.from_edges(nodes, canonical)


def same_csr(g: EndorsementGraph, h: EndorsementGraph) -> bool:
    """Equal indptr, indices and weights arrays."""
    return all(np.array_equal(a, b) for a, b in zip(g.csr[1:], h.csr[1:]))


def clique_edges(names: list[str], weight: int = 1) -> dict[tuple[str, str], int]:
    return {edge_key(u, v): weight for u, v in itertools.combinations(names, 2)}


def random_graph(n: int, p: float, rng: np.random.Generator) -> EndorsementGraph:
    """ER graph on n named nodes; may be disconnected and may have isolates."""
    names = [f"n{i:02d}" for i in range(n)]
    edges = {}
    for u, v in itertools.combinations(names, 2):
        if rng.random() < p:
            edges[edge_key(u, v)] = int(rng.integers(1, 5))
    return EndorsementGraph.from_edges(names, edges)


def random_connected_graph(n: int, p: float, rng: np.random.Generator) -> EndorsementGraph:
    """Rejection-sample an ER graph until connected (small n only)."""
    while True:
        g = random_graph(n, p, rng)
        if g.node_count and len(bfs_components(g)) == 1:
            return g


def unit_weights(g: EndorsementGraph) -> EndorsementGraph:
    return EndorsementGraph.from_edges(g.nodes, {pair: 1 for pair in g.edges})


def connected_components(g: EndorsementGraph) -> list[list[str]]:
    """All components as ascending node-id lists, ordered by their smallest id,
    grouped from the package's component roots."""
    components: dict[int, list[str]] = {}
    for node, root in zip(g.nodes, _component_roots(g).tolist()):
        components.setdefault(root, []).append(node)
    return list(components.values())


def side_nodes(p: Bipartition, side: str) -> frozenset[str]:
    """The nodes p puts on side "X" or "Y"."""
    return frozenset(n for n, x in zip(p.nodes, p.in_x.tolist()) if x == (side == SIDE_X))


def swapped(p: Bipartition) -> Bipartition:
    """The same split with the X/Y labels exchanged."""
    return Bipartition(p.nodes, ~p.in_x, p.cut, p.cut_weight, p.balance)


# --- naive oracles -----------------------------------------------------------


def naive_filter_window(
    records: Iterable[InteractionRecord],
    window: TimeWindow,
    query: str | None = None,
) -> list[InteractionRecord]:
    """Query match by full sweeps over the window until no repost inherits."""
    in_window = [r for r in records if window.contains(r.timestamp)]
    if query is None:
        return in_window
    kept_ids = {r.post_id for r in in_window if query in r.surfaces()}
    # propagate matches through repost links until stable
    changed = True
    while changed:
        changed = False
        for r in in_window:
            if r.post_id in kept_ids or r.repost_of is None:
                continue
            if r.repost_of[0] in kept_ids:
                kept_ids.add(r.post_id)
                changed = True
    return [r for r in in_window if r.post_id in kept_ids]


def naive_build_graph(records: Iterable[InteractionRecord], min_rt: int) -> EndorsementGraph:
    """The endorsement graph by a Counter of string pairs, one record at a time."""
    pair_counts: Counter[tuple[str, str]] = Counter()
    for r in records:
        if r.repost_of is not None and r.repost_of[1] != r.author_id:
            pair_counts[edge_key(r.author_id, r.repost_of[1])] += 1
    edges = {pair: count for pair, count in pair_counts.items() if count >= min_rt}
    return EndorsementGraph.from_edges((n for pair in edges for n in pair), edges)


def naive_candidate_counts(
    records: Iterable[InteractionRecord], stopwords: frozenset[str],
    noun_tags: frozenset[str], count_mode: str,
) -> dict[str, int]:
    """Eligible surfaces counted by a Counter, once per record in "documents" mode."""
    counts: Counter[str] = Counter()
    for r in records:
        eligible = [s for s, pos in r.tokens if pos in noun_tags and s not in stopwords]
        counts.update(set(eligible) if count_mode == "documents" else eligible)
    return dict(counts)


def naive_aggregate_sentiment(
    records: Iterable[InteractionRecord], lex: PolarityLexicon
) -> tuple[float, float, int]:
    """Mean and population std of score_text over the records, summed in record order."""
    scores = [s for s in (score_text(r.tokens, lex) for r in records) if s is not None]
    if not scores:
        raise AllUnmatched("no record matched the lexicon")
    n = len(scores)
    mean = sum(scores) / n
    return mean, math.sqrt(sum((s - mean) ** 2 for s in scores) / n), n


def _naive_record_from_obj(obj: object) -> InteractionRecord | None:
    if not isinstance(obj, dict):
        return None
    post_id = obj.get("post_id")
    author_id = obj.get("author_id")
    timestamp = obj.get("timestamp")
    raw_tokens = obj.get("tokens", [])
    if not isinstance(post_id, str) or not post_id:
        return None
    if not isinstance(author_id, str) or not author_id:
        return None
    if isinstance(timestamp, bool) or not isinstance(timestamp, int):
        return None
    if not -2**63 <= timestamp < 2**63:  # the timestamp column is int64
        return None
    if not isinstance(raw_tokens, list):
        return None
    tokens: list[tuple[str, str]] = []
    for entry in raw_tokens:
        if (not isinstance(entry, (list, tuple)) or len(entry) != 2
                or not isinstance(entry[0], str) or not isinstance(entry[1], str)):
            return None
        tokens.append((entry[0], entry[1]))
    repost_of: tuple[str, str] | None = None
    if "repost_of" in obj and obj["repost_of"] is not None:
        raw = obj["repost_of"]
        if (not isinstance(raw, (list, tuple)) or len(raw) != 2
                or not isinstance(raw[0], str) or not isinstance(raw[1], str)
                or not raw[1]):
            return None
        repost_of = (raw[0], raw[1])
    if not tokens and repost_of is None:
        return None
    return InteractionRecord(post_id, author_id, timestamp, tuple(tokens), repost_of)


def _naive_utf8(line: str, record: InteractionRecord) -> bool:
    """The line and every string of the record encode as UTF-8."""
    strings = [line, record.post_id, record.author_id]
    strings += [text for pair in record.tokens for text in pair]
    strings += record.repost_of or ()
    for text in strings:
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            return False
    return True


def _naive_depth(line: str) -> int:
    """How deep brackets and braces nest in a line's text outside its strings."""
    depth = deepest = 0
    in_string = escaped = False
    for char in line:
        if escaped:
            escaped = False
        elif in_string:
            escaped = char == "\\"
            in_string = char != '"'
        elif char == '"':
            in_string = True
        elif char in "[{":
            depth += 1
            deepest = max(deepest, depth)
        elif char in "]}":
            depth -= 1
    return deepest


def naive_parse_records(stream: Iterable[str]) -> ParseResult:
    """``json.loads`` and ``isinstance`` checks on every line, the collector untouched.

    The parser as it stood before its loop was tuned, plus two rules: a line
    that cannot be encoded as UTF-8, or whose record holds a string that
    cannot, is malformed; so is a line whose text nests deeper than
    ``MAX_DEPTH``, counted before it is decoded.
    """
    records: list[InteractionRecord] = []
    seen: set[str] = set()
    malformed = 0
    for line in stream:
        line = line.strip()
        if not line:
            continue
        if _naive_depth(line) > MAX_DEPTH:
            malformed += 1
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError):
            malformed += 1
            continue
        record = _naive_record_from_obj(obj)
        if record is None or not _naive_utf8(line, record):
            malformed += 1
            continue
        if record.post_id in seen:
            raise DuplicatePostId(record.post_id)
        seen.add(record.post_id)
        records.append(record)
    if not records:
        raise EmptyInput(f"no valid records ({malformed} malformed lines)")
    return ParseResult(tuple(records), malformed)


def edge_counts(g: EndorsementGraph) -> dict[str, int]:
    """Unweighted degree per node, by one pass over the edge dict."""
    degree = dict.fromkeys(g.nodes, 0)
    for u, v in g.edges:
        degree[u] += 1
        degree[v] += 1
    return degree


def naive_k_core(g: EndorsementGraph, k: int) -> frozenset[str]:
    """Fixpoint by full rescans: drop any node with degree < k, repeat."""
    alive = set(g.nodes)
    edges = g.edges
    while True:
        degree = {n: 0 for n in alive}
        for u, v in edges:
            if u in alive and v in alive:
                degree[u] += 1
                degree[v] += 1
        doomed = {n for n in alive if degree[n] < k}
        if not doomed:
            return frozenset(alive)
        alive -= doomed


def bfs_components(g: EndorsementGraph) -> list[frozenset[str]]:
    adj: dict[str, set[str]] = {n: set() for n in g.nodes}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    seen: set[str] = set()
    components = []
    for start in g.nodes:
        if start in seen:
            continue
        frontier = [start]
        comp = {start}
        while frontier:
            node = frontier.pop()
            for nxt in adj[node]:
                if nxt not in comp:
                    comp.add(nxt)
                    frontier.append(nxt)
        seen |= comp
        components.append(frozenset(comp))
    return components


def exhaustive_min_balanced_cut(
    g: EndorsementGraph, max_side: int, weighted: bool = False
) -> int:
    """Minimum crossing cut over all bipartitions within the size bound."""
    nodes = sorted(g.nodes)
    n = len(nodes)
    best = None
    anchor = nodes[0]
    rest = nodes[1:]
    edges = g.edges
    for size_x in range(1, n):
        if size_x > max_side or n - size_x > max_side:
            continue
        for chosen in itertools.combinations(rest, size_x - 1):
            side_x = {anchor, *chosen}
            if weighted:
                cut = sum(w for (u, v), w in edges.items()
                          if (u in side_x) != (v in side_x))
            else:
                cut = sum(1 for (u, v) in edges if (u in side_x) != (v in side_x))
            if best is None or cut < best:
                best = cut
    assert best is not None
    return best


# --- per-vertex reference loops for the partition and walk helpers ----------


def naive_csr(g: EndorsementGraph) -> tuple[list[str], list[int], list[int], list[int]]:
    """Sorted-id CSR built one edge and one vertex at a time."""
    nodes = sorted(g.nodes)
    index = {node: i for i, node in enumerate(nodes)}
    adj: list[list[tuple[int, int]]] = [[] for _ in nodes]
    for (u, v), w in g.edges.items():
        adj[index[u]].append((index[v], w))
        adj[index[v]].append((index[u], w))
    xadj, adjncy, adjwgt = [0], [], []
    for row in adj:
        for j, w in sorted(row):
            adjncy.append(j)
            adjwgt.append(w)
        xadj.append(len(adjncy))
    return nodes, xadj, adjncy, adjwgt


def naive_coarsen(xadj, adjncy, adjwgt, vwgt, cmap, n_coarse):
    """Contracted CSR (xadj, adjncy, adjwgt, vwgt) via a dict of coarse pairs."""
    n = len(xadj) - 1
    coarse_vwgt = [0] * n_coarse
    for v in range(n):
        coarse_vwgt[cmap[v]] += vwgt[v]
    edges: dict[tuple[int, int], int] = {}
    for v in range(n):
        for idx in range(xadj[v], xadj[v + 1]):
            u = adjncy[idx]
            if u > v and cmap[u] != cmap[v]:
                key = (min(cmap[u], cmap[v]), max(cmap[u], cmap[v]))
                edges[key] = edges.get(key, 0) + adjwgt[idx]
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n_coarse)]
    for (a, b), w in edges.items():
        adj[a].append((b, w))
        adj[b].append((a, w))
    out_xadj, out_adjncy, out_adjwgt = [0], [], []
    for row in adj:
        for j, w in sorted(row):
            out_adjncy.append(j)
            out_adjwgt.append(w)
        out_xadj.append(len(out_adjncy))
    return out_xadj, out_adjncy, out_adjwgt, coarse_vwgt


def naive_boundary_gains(xadj, adjncy, adjwgt, side) -> tuple[list[int], list[int]]:
    """FM gains (crossing minus internal weight) and the ascending boundary."""
    n = len(xadj) - 1
    gain = [0] * n
    boundary = []
    for v in range(n):
        crosses = False
        for idx in range(xadj[v], xadj[v + 1]):
            if side[adjncy[idx]] != side[v]:
                gain[v] += adjwgt[idx]
                crosses = True
            else:
                gain[v] -= adjwgt[idx]
        if crosses:
            boundary.append(v)
    return gain, boundary


def naive_weighted_cut(xadj, adjncy, adjwgt, side) -> int:
    total = 0
    for v in range(len(xadj) - 1):
        for idx in range(xadj[v], xadj[v + 1]):
            u = adjncy[idx]
            if u > v and side[u] != side[v]:
                total += adjwgt[idx]
    return total


def dense_absorption(
    g: EndorsementGraph, side_of: dict[str, str], k_top: int, alpha: float,
    weighted: bool, start_side: str,
) -> tuple[float, float]:
    """(p_same, p_cross) by a dense solve of the restart-augmented system.

    With M the transient-to-transient step matrix, b the step mass into an
    absorbing set and u the uniform start distribution,
    (I - (1-alpha) M - alpha 1 u^T) h = (1-alpha) b, and p = u^T h.
    """
    nodes = sorted(g.nodes)
    degree = {n: 0 for n in nodes}
    for u, v in g.edges:
        degree[u] += 1
        degree[v] += 1
    absorb = {}
    for side in ("X", "Y"):
        ranked = sorted((n for n in nodes if side_of[n] == side), key=lambda n: (-degree[n], n))
        for n in ranked[:k_top]:
            absorb[n] = side
    transient = [n for n in nodes if n not in absorb]
    t_index = {n: i for i, n in enumerate(transient)}
    t = len(transient)
    step = np.zeros((t, t))
    into = {"X": np.zeros(t), "Y": np.zeros(t)}
    out_w = {n: 0.0 for n in nodes}
    for (u, v), w in g.edges.items():
        out_w[u] += w if weighted else 1
        out_w[v] += w if weighted else 1
    for (u, v), w in g.edges.items():
        for a, b in ((u, v), (v, u)):
            if a not in t_index:
                continue
            prob = (w if weighted else 1) / out_w[a]
            if b in t_index:
                step[t_index[a], t_index[b]] += prob
            else:
                into[absorb[b]][t_index[a]] += prob
    start = np.array([side_of[n] == start_side for n in transient], dtype=float)
    start /= start.sum()
    system = np.eye(t) - (1 - alpha) * step - alpha * np.outer(np.ones(t), start)
    other = "Y" if start_side == "X" else "X"
    h_same = np.linalg.solve(system, (1 - alpha) * into[start_side])
    h_cross = np.linalg.solve(system, (1 - alpha) * into[other])
    return float(start @ h_same), float(start @ h_cross)


def naive_transient_system(g: EndorsementGraph, absorb_x, absorb_y, weighted: bool):
    """The walk's step from transient rows, one row at a time: (rows, cols, prob, b_x, b_y).

    Nodes keep their sorted-id index. Each transient row's terms come in
    ascending column order; an absorbing row has no terms and 0.0 in b_x
    and b_y. b_x and b_y add a row's steps into each absorbing set in that
    order with a one-segment NumPy add.reduceat, the reduction a CSR row sum
    runs (add.reduce adds in another order), so they can be compared with ==.
    """
    _, xadj, adjncy, adjwgt = naive_csr(g)
    absorb_x, absorb_y = set(absorb_x), set(absorb_y)
    absorbing = absorb_x | absorb_y
    rows, cols, prob, b_x, b_y = [], [], [], [], []
    for v in range(len(xadj) - 1):
        into_x, into_y = [], []
        if v not in absorbing:
            steps = [(adjncy[i], float(adjwgt[i]) if weighted else 1.0)
                     for i in range(xadj[v], xadj[v + 1])]
            total = 0.0
            for _, w in steps:
                total += w
            for u, w in steps:
                if u not in absorbing:
                    rows.append(v)
                    cols.append(u)
                    prob.append(w / total)
                else:
                    (into_x if u in absorb_x else into_y).append(w / total)
        b_x.append(float(np.add.reduceat(into_x, [0])[0]) if into_x else 0.0)
        b_y.append(float(np.add.reduceat(into_y, [0])[0]) if into_y else 0.0)
    return rows, cols, prob, b_x, b_y


def naive_times(rows, cols, prob, z) -> list[float]:
    """M @ z with each row's terms added one after another from zero."""
    out = [0.0] * len(z)
    for r, c, p in zip(rows, cols, prob):
        out[r] += p * z[c]
    return out


def naive_walk_shard(chain, start, count: int, rng: np.random.Generator) -> tuple[int, int]:
    """Absorptions in (X+, Y+) of count walks from uniform starts in one side, drawn from rng.

    One side at a time: each step draws one u per live walker, works out
    both the restart slot and the move for every walker, and keeps one of
    them with np.where.
    """
    alpha = chain.cfg.restart_prob
    first, last, scale, cum0 = chain.walk_rows
    hit_x = hit_y = 0
    pos = start[rng.integers(0, start.size, count)]
    while pos.size:
        u = rng.random(pos.size)
        slot = np.minimum((u * (start.size / alpha)).astype(np.intp), start.size - 1)
        offset = (u - alpha) * scale[pos]
        if cum0 is None:
            edge = first[pos] + offset.astype(np.intp)
        else:
            edge = np.searchsorted(cum0, cum0[first[pos]] + offset, side="right") - 1
        edge = np.clip(edge, first[pos], last[pos])
        pos = np.where(u < alpha, start[slot], chain.indices[edge])
        absorbed = chain.absorb_label[pos]
        hit_x += int(np.count_nonzero(absorbed == 1))
        hit_y += int(np.count_nonzero(absorbed == 2))
        pos = pos[absorbed == 0]
    return hit_x, hit_y


def jacobi_solve(chain) -> tuple[float, float, float, float]:
    """(p_xx, p_xy, p_yy, p_yx) by Jacobi sweeps on the system rwc._solve solves.

    Each sweep is Z <- (1-alpha) M Z + R, which contracts by 1-alpha in the
    max norm; it stops on the same a-posteriori bound as rwc._solve, so each
    probability is within solver_tol of the exact one.
    """
    cfg = chain.cfg
    alpha = cfg.restart_prob
    keep = 1.0 - alpha
    rows, cols, prob, b_x, b_y = chain.transient_system()
    rhs = (keep * b_x, keep * b_y, np.full(b_x.size, alpha))
    starts = (chain.start_x, chain.start_y)
    z = [np.zeros(b_x.size)] * 3
    for _ in range(cfg.max_iter):
        z_next = [keep * _times(rows, cols, prob, col) + r for col, r in zip(z, rhs)]
        error = keep / alpha * max(float(np.max(np.abs(a - b))) for a, b in zip(z_next, z))
        z = z_next
        if error > cfg.solver_tol:
            continue
        stacked = np.column_stack(z)
        means = np.stack([stacked[start].mean(axis=0) for start in starts])
        absorbed = 1.0 - means[:, 2:]
        probs = means[:, :2] / absorbed
        if np.all(error * (1.0 + probs) <= cfg.solver_tol * (absorbed - error)):
            (p_xx, p_xy), (p_yx, p_yy) = probs.tolist()
            return p_xx, p_xy, p_yy, p_yx
    raise AssertionError(f"Jacobi did not converge within {cfg.max_iter} sweeps")
