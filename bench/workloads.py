"""Benchmark workloads: corpus shapes, pipeline configs and expected cells.

Why each workload exists is stated in BENCHMARK.json and bench/README.md.
Plain data only (standard library), so the runner can build configs and
check reports without importing the program. Each window of a workload is
one ``synth_corpus`` call; ``gen.py`` turns these tables into JSONL.
"""

from __future__ import annotations

from dataclasses import dataclass

SHIPPED_STOPWORDS = ("topic_itself", "news", "standard")
SHIPPED_LEXICON = "example_polarity"

# Twelve single-community topics for many-cells; none is a shipped stopword.
SOLO_TOPICS = (
    "budget", "climate", "crypto", "election", "football", "housing",
    "immigration", "pension", "privacy", "tariff", "taxes", "wildfire",
)

# min_nodes for the small-cell workloads: their scored cells (300-900 authors
# a side or topic) pass it, their single-topic cells (60 authors) do not.
SMALL_CELL_NODES = 300


@dataclass(frozen=True)
class Community:
    n_authors: int
    topic: str
    polarity_bias: float = 0.0


@dataclass(frozen=True)
class Workload:
    name: str
    windows: tuple[str, ...]
    # communities of every window's synth_corpus call
    communities: tuple[Community, ...]
    cross_repost_rate: float
    config: dict
    # expected report content
    polarized: tuple[str, ...]
    unpolarized: tuple[str, ...] = ()
    dashes: tuple[str, ...] = ()
    dumps: bool = False

    def expected_cells(self) -> set[tuple[str, str]]:
        topics = (*self.polarized, *self.unpolarized, *self.dashes)
        return {(t, w) for t in topics for w in self.windows}


def _vaxx_pair(n: int) -> tuple[Community, Community]:
    return Community(n, "vaxx", 0.6), Community(n, "vaxx", -0.6)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="big-cell",
            windows=("2020-01",),
            communities=_vaxx_pair(1500),
            cross_repost_rate=0.05,
            config={"queries": ["vaxx"]},
            polarized=("vaxx",),
        ),
        Workload(
            name="many-cells",
            windows=("2020-01", "2020-02"),
            communities=(*_vaxx_pair(300),
                         *(Community(60, t) for t in SOLO_TOPICS)),
            cross_repost_rate=0.05,
            config={"top_n": 16, "min_nodes": SMALL_CELL_NODES,
                    "stopwords": list(SHIPPED_STOPWORDS), "lexicon": SHIPPED_LEXICON},
            polarized=("vaxx",),
            dashes=SOLO_TOPICS,
        ),
        Workload(
            name="mixed-mc",
            windows=("2020-01",),
            communities=(Community(900, "mask"), Community(900, "school"),
                         Community(900, "transit"), *_vaxx_pair(300)),
            cross_repost_rate=0.05,
            config={"top_n": 4, "min_nodes": SMALL_CELL_NODES,
                    "stopwords": list(SHIPPED_STOPWORDS), "mc_check": True},
            polarized=("vaxx",),
            unpolarized=("mask", "school", "transit"),
            dumps=True,
        ),
    )
}
