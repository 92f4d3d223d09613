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
reposts are bare.
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
        if not 0.0 <= self.repost_fraction <= 1.0:
            raise ValueError(f"repost_fraction out of [0,1]: {self.repost_fraction}")
        if not 0.0 <= self.topic_post_rate <= 1.0:
            raise ValueError(f"topic_post_rate out of [0,1]: {self.topic_post_rate}")
        if self.n_favorites < 1:
            raise ValueError("n_favorites must be >= 1")


def synth_corpus(spec: CorpusSpec) -> list[InteractionRecord]:
    """Generate a corpus with planted endorsement structure; see module notes."""
    rng = np.random.default_rng(spec.seed)
    window = spec.window
    bg_cross = (
        spec.background_cross_rate
        if spec.background_cross_rate is not None
        else spec.cross_repost_rate
    )

    members: list[list[str]] = []
    authors: list[str] = []
    for ci, community in enumerate(spec.communities):
        width = max(4, len(str(community.n_authors - 1)))
        ids = [f"c{ci}a{j:0{width}d}" for j in range(community.n_authors)]
        members.append(ids)
        authors.extend(ids)

    counts = {
        author: int(rng.integers(spec.posts_per_author[0], spec.posts_per_author[1] + 1))
        for author in authors
    }
    n_reposts = {a: int(spec.repost_fraction * counts[a]) for a in authors}

    records: list[InteractionRecord] = []
    topic_originals: dict[str, list[InteractionRecord]] = {a: [] for a in authors}
    bg_originals: dict[str, list[InteractionRecord]] = {a: [] for a in authors}
    post_counter = 0

    def stamp() -> int:
        return int(rng.integers(window.start, window.end))

    def make_original(author: str, ci: int, topical: bool, pos_prob: float) -> InteractionRecord:
        nonlocal post_counter
        words = spec.communities[ci].topic_tokens if topical else spec.background_tokens
        tokens = [(w, spec.noun_tag) for w in words]
        mood = 0 if rng.random() < pos_prob else 1
        tokens.append((spec.sentiment_surfaces[mood], spec.sentiment_tag))
        record = InteractionRecord(f"p{post_counter:07d}", author, stamp(), tuple(tokens))
        post_counter += 1
        return record

    # pass 1: originals, so reposts always have a concrete target post; the
    # first two originals cover both content classes so class-matched repost
    # targeting never has to borrow from the other class
    for ci, community in enumerate(spec.communities):
        pos_prob = (1.0 + community.polarity_bias) / 2.0
        for author in members[ci]:
            n_orig = counts[author] - n_reposts[author]
            for i in range(n_orig):
                if bool(community.topic_tokens):
                    if i == 0:
                        topical = True
                    elif i == 1:
                        topical = False
                    else:
                        topical = rng.random() < spec.topic_post_rate
                else:
                    topical = False
                record = make_original(author, ci, topical, pos_prob)
                records.append(record)
                (topic_originals if topical else bg_originals)[author].append(record)

    other_weights: list[np.ndarray] = []
    for ci in range(len(members)):
        sizes = np.array(
            [len(members[cj]) if cj != ci else 0 for cj in range(len(members))],
            dtype=np.float64,
        )
        total = sizes.sum()
        other_weights.append(sizes / total if total else sizes)

    def draw_slot(author: str, ci: int, cross_p: float, has_others: bool) -> str | None:
        """One durable favorite: another community's author w.p. cross_p, else a peer."""
        own = members[ci]
        if has_others and rng.random() < cross_p:
            cj = int(rng.choice(len(members), p=other_weights[ci]))
            pool = members[cj]
            return pool[int(rng.integers(0, len(pool)))]
        if len(own) < 2:
            return None
        while True:
            pick = own[int(rng.integers(0, len(own)))]
            if pick != author:
                return pick

    def pick_original(target: str, topical: bool) -> InteractionRecord:
        pool = topic_originals[target] if topical else bg_originals[target]
        if not pool:
            pool = topic_originals[target] or bg_originals[target]
        return pool[int(rng.integers(0, len(pool)))]

    # pass 2: reposts routed through per-author favorite slots
    for ci, community in enumerate(spec.communities):
        has_others = len(authors) > len(members[ci])
        pos_prob = (1.0 + community.polarity_bias) / 2.0
        for author in members[ci]:
            topic_slots = [
                slot
                for _ in range(spec.n_favorites)
                if (slot := draw_slot(author, ci, spec.cross_repost_rate, has_others))
                is not None
            ]
            bg_slots = [
                slot
                for _ in range(spec.n_favorites)
                if (slot := draw_slot(author, ci, bg_cross, has_others)) is not None
            ]
            for _ in range(n_reposts[author]):
                topical = bool(community.topic_tokens) and rng.random() < spec.topic_post_rate
                slots = topic_slots if topical else bg_slots
                if not slots:
                    # nobody to endorse: emit an original to conserve the count
                    record = make_original(author, ci, topical, pos_prob)
                    records.append(record)
                    continue
                target = slots[int(rng.integers(0, len(slots)))]
                original = pick_original(target, topical)
                records.append(
                    InteractionRecord(
                        f"p{post_counter:07d}",
                        author,
                        stamp(),
                        (),
                        (original.post_id, target),
                    )
                )
                post_counter += 1
    return records
