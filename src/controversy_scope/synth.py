"""Synthetic graphs and corpora with planted polarization for validation.

planted_partition builds a two-block random graph with known sides; when
sampling leaves it disconnected, minimum bridge edges are added and
reported so downstream preconditions (connected graph) hold even at
p_out = 0. It draws the edges as node index pairs and builds the graph's
CSR from them.

synth_corpus emits interaction records for a population of communities.
Each author endorses through a handful of durable favorite authors (slots),
drawn separately for topical and background content; reposting repeatedly
through the same slot is what pushes pair weights over the edge threshold.
A slot points into another community with probability cross_repost_rate
(topical slots) or background_cross_rate when set (background slots), so
per repost the chance of targeting another community equals the configured
rate. Every original carries either its community's topic tokens or the
shared background tokens (noun-tagged) plus one sentiment-bearing token;
reposts are bare. Post ids number the records in the order they are
written, from p0000000 on every call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import EndorsementGraph, _component_roots, _from_pairs
from .ingest import InteractionRecord, TimeWindow
from .partition import Bipartition, _split


@dataclass(frozen=True)
class PlantedSpec:
    n_per_side: int
    p_in: float
    p_out: float
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_per_side < 2:
            raise ValueError(f"n_per_side must be >= 2, got {self.n_per_side}")
        if not 0.0 <= self.p_out <= self.p_in <= 1.0:
            raise ValueError(
                f"need 0 <= p_out <= p_in <= 1, got p_in={self.p_in} p_out={self.p_out}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class PlantedGraph:
    graph: EndorsementGraph
    ground_truth: Bipartition
    bridges: tuple[tuple[str, str], ...]


# Every planted edge weighs 2, so a planted graph passes the standard repost
# threshold unchanged.
PLANTED_EDGE_WEIGHT = 2


def planted_partition(spec: PlantedSpec) -> PlantedGraph:
    """Two planted blocks with intra p_in / inter p_out edges, forced connected.

    Every edge weighs ``PLANTED_EDGE_WEIGHT``. The x names sort before the
    y names and zero padding keeps index order, so node i is names[i]: x at
    i < n, y at n + i. Bridges join the smallest nodes of consecutive
    components, in ascending order.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n_per_side
    width = len(str(n - 1))
    names = [f"{side}{i:0{width}d}" for side in "xy" for i in range(n)]

    iu, iv = np.triu_indices(n, k=1)
    x_edge = rng.random(iu.size) < spec.p_in
    y_edge = rng.random(iu.size) < spec.p_in
    gi, gj = np.divmod(np.flatnonzero(rng.random(n * n) < spec.p_out), n)
    u = np.concatenate((iu[x_edge], iu[y_edge] + n, gi))
    v = np.concatenate((iv[x_edge], iv[y_edge] + n, gj + n))
    graph = _from_pairs(names, u, v, np.full(u.size, PLANTED_EDGE_WEIGHT, dtype=np.int64))
    anchors = np.unique(_component_roots(graph)).tolist()  # each component's smallest index
    bridges = tuple((names[a], names[b]) for a, b in zip(anchors, anchors[1:]))
    if bridges:
        u, v = np.append(u, anchors[:-1]), np.append(v, anchors[1:])
        graph = _from_pairs(names, u, v, np.full(u.size, PLANTED_EDGE_WEIGHT, dtype=np.int64))
    return PlantedGraph(graph, _split(graph, np.arange(2 * n) < n), bridges)


@dataclass(frozen=True)
class CommunitySpec:
    n_authors: int
    topic_tokens: tuple[str, ...]
    polarity_bias: float = 0.0

    def __post_init__(self) -> None:
        if self.n_authors < 1:
            raise ValueError("a community needs at least one author")
        if not -1.0 <= self.polarity_bias <= 1.0:
            raise ValueError(f"polarity_bias out of [-1,1]: {self.polarity_bias}")


@dataclass(frozen=True)
class CorpusSpec:
    communities: tuple[CommunitySpec, ...]
    cross_repost_rate: float
    window: TimeWindow
    posts_per_author: tuple[int, int] = (20, 28)
    seed: int = 0
    repost_fraction: float = 0.8
    topic_post_rate: float = 0.45
    n_favorites: int = 4
    background_cross_rate: float | None = None
    background_tokens: tuple[str, ...] = ("covid",)
    sentiment_surfaces: tuple[str, str] = ("good", "bad")
    noun_tag: str = "NOUN"
    sentiment_tag: str = "ADJ"

    def __post_init__(self) -> None:
        if not self.communities:
            raise ValueError("need at least one community")
        if not 0.0 <= self.cross_repost_rate <= 1.0:
            raise ValueError(f"cross_repost_rate out of [0,1]: {self.cross_repost_rate}")
        if self.background_cross_rate is not None and not 0.0 <= self.background_cross_rate <= 1.0:
            raise ValueError(f"background_cross_rate out of [0,1]: {self.background_cross_rate}")
        lo, hi = self.posts_per_author
        if lo < 1 or hi < lo:
            raise ValueError(f"bad posts_per_author range: {self.posts_per_author}")
        if not 0.0 <= self.repost_fraction < 1.0:  # so every author writes an original
            raise ValueError(f"repost_fraction out of [0,1): {self.repost_fraction}")
        if not 0.0 <= self.topic_post_rate <= 1.0:
            raise ValueError(f"topic_post_rate out of [0,1]: {self.topic_post_rate}")
        if self.n_favorites < 1:
            raise ValueError("n_favorites must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def synth_corpus(spec: CorpusSpec) -> list[InteractionRecord]:
    """Generate a corpus with planted endorsement structure; see module notes."""
    rng = np.random.default_rng(spec.seed)
    bg_cross = spec.background_cross_rate
    if bg_cross is None:
        bg_cross = spec.cross_repost_rate
    members = [
        [f"c{ci}a{j:0{max(4, len(str(c.n_authors - 1)))}d}" for j in range(c.n_authors)]
        for ci, c in enumerate(spec.communities)
    ]
    lo, hi = spec.posts_per_author
    counts = {author: int(rng.integers(lo, hi + 1)) for own in members for author in own}
    n_reposts = {author: int(spec.repost_fraction * n) for author, n in counts.items()}

    records: list[InteractionRecord] = []
    # post ids of each author's pass-1 originals, by content class
    originals: dict[tuple[str, bool], list[str]] = {
        (author, topical): [] for author in counts for topical in (True, False)
    }

    def add(author: str, tokens: tuple, repost_of: tuple[str, str] | None = None) -> str:
        """Stamp and append the next record; returns its post id."""
        post_id = f"p{len(records):07d}"
        stamp = int(rng.integers(spec.window.start, spec.window.end))
        records.append(InteractionRecord(post_id, author, stamp, tokens, repost_of))
        return post_id

    def make_original(author: str, ci: int, topical: bool) -> str:
        community = spec.communities[ci]
        words = community.topic_tokens if topical else spec.background_tokens
        mood = spec.sentiment_surfaces[rng.random() >= (1.0 + community.polarity_bias) / 2.0]
        return add(author, (*((w, spec.noun_tag) for w in words), (mood, spec.sentiment_tag)))

    # pass 1: originals, so reposts always have a concrete target post; the
    # first two originals cover both content classes so class-matched repost
    # targeting never has to borrow from the other class
    for ci, community in enumerate(spec.communities):
        for author in members[ci]:
            for i in range(counts[author] - n_reposts[author]):
                topical = bool(community.topic_tokens) and (
                    i == 0 or i > 1 and rng.random() < spec.topic_post_rate
                )
                originals[author, topical].append(make_original(author, ci, topical))

    # row ci: the odds that a cross slot drawn in community ci lands in each other one
    sizes = np.array([len(own) for own in members], dtype=np.float64)
    others = sizes * (1.0 - np.eye(len(members)))
    other_weights = others / np.maximum(others.sum(axis=1, keepdims=True), 1.0)

    def draw_slot(author: str, ci: int, cross_p: float) -> str | None:
        """One durable favorite: another community's author w.p. cross_p, else a peer."""
        own = members[ci]
        if len(own) < len(counts) and rng.random() < cross_p:
            pool = members[int(rng.choice(len(members), p=other_weights[ci]))]
            return pool[int(rng.integers(0, len(pool)))]
        while len(own) > 1:
            pick = own[int(rng.integers(0, len(own)))]
            if pick != author:
                return pick
        return None

    # pass 2: reposts routed through per-author favorite slots
    for ci, community in enumerate(spec.communities):
        for author in members[ci]:
            slots = {
                topical: [
                    slot
                    for _ in range(spec.n_favorites)
                    if (slot := draw_slot(author, ci, cross_p)) is not None
                ]
                for topical, cross_p in ((True, spec.cross_repost_rate), (False, bg_cross))
            }
            for _ in range(n_reposts[author]):
                topical = bool(community.topic_tokens) and rng.random() < spec.topic_post_rate
                if not slots[topical]:
                    # nobody to endorse: emit an original to conserve the count
                    make_original(author, ci, topical)
                    continue
                target = slots[topical][int(rng.integers(0, len(slots[topical])))]
                pool = originals[target, topical] or originals[target, not topical]
                add(author, (), (pool[int(rng.integers(0, len(pool)))], target))
    return records
