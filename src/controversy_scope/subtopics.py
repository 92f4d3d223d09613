"""Subtopic shortlisting: noun filtering, stopwords, top-N by frequency.

Candidate subtopics are single tokens. A token occurrence counts when its
POS tag is in the accepted noun set and its surface is not a stopword.
Stopword files are UTF-8, one surface per line, '#' starts a comment
line.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from .ingest import InteractionRecord

DEFAULT_NOUN_TAGS = frozenset({"NOUN", "PROPN"})


@dataclass(frozen=True)
class StopwordConfig:
    """Filtering configuration: stopwords and the accepted noun tags.

    The stopwords merge every list: ordinary stopwords and corpus-specific
    ones such as words for the topic itself, news/broadcast words,
    announcement phrasing, region/name/time/person words, and meaningless
    filler. Matching is exact-surface.
    """

    stopwords: frozenset[str] = frozenset()
    noun_pos_tags: frozenset[str] = field(default=DEFAULT_NOUN_TAGS)


def load_stopword_file(path: str) -> frozenset[str]:
    """Read one stopword list: one surface per line, '#' lines are comments."""
    surfaces: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            surfaces.add(line)
    return frozenset(surfaces)


def extract_candidate_tokens(
    records: Iterable[InteractionRecord],
    cfg: StopwordConfig,
    count_mode: str = "occurrences",
) -> dict[str, int]:
    """Count candidate tokens over the records.

    "occurrences" counts every token instance; "documents" counts each
    surface at most once per record. Reposts contribute their own token
    lists, which are empty for bare reposts.
    """
    if count_mode not in ("occurrences", "documents"):
        raise ValueError(f"unknown count mode: {count_mode!r}")
    counts: Counter[str] = Counter()
    for record in records:
        eligible = (
            surface
            for surface, pos in record.tokens
            if pos in cfg.noun_pos_tags and surface not in cfg.stopwords
        )
        if count_mode == "documents":
            counts.update(set(eligible))
        else:
            counts.update(eligible)
    return dict(counts)


def top_n_subtopics(freq: dict[str, int], n: int) -> list[str]:
    """Top n tokens by count descending, ties by code-point order ascending."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    ranked = sorted(freq.items(), key=lambda item: (-item[1], item[0]))
    return [token for token, _count in ranked[:n]]
