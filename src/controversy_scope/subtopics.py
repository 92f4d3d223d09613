"""Subtopic shortlisting: noun filtering, stopwords, top-N by frequency.

Candidate subtopics are single tokens. A token occurrence counts when its
POS tag is in the accepted noun set and its surface is not a stopword.
Stopword files are UTF-8, one surface per line, '#' starts a comment
line.
"""

from __future__ import annotations

import numpy as np

from .ingest import Corpus

DEFAULT_NOUN_TAGS = frozenset({"NOUN", "PROPN"})


def load_stopword_file(path: str) -> frozenset[str]:
    """Read one stopword list: one surface per line, '#' lines are comments."""
    surfaces: set[str] = set()
    with open(path, encoding="utf-8-sig") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            surfaces.add(line)
    return frozenset(surfaces)


def extract_candidate_tokens(
    corpus: Corpus,
    stopwords: frozenset[str] = frozenset(),
    noun_tags: frozenset[str] = DEFAULT_NOUN_TAGS,
    count_mode: str = "occurrences",
) -> dict[str, int]:
    """Count candidate tokens over the corpus: nouns that are not stopwords.

    "occurrences" counts every token instance; "documents" counts each
    surface at most once per record. Reposts contribute their own token
    lists, which are empty for bare reposts. Surfaces that never count are
    left out.
    """
    if count_mode not in ("occurrences", "documents"):
        raise ValueError(f"unknown count mode: {count_mode!r}")
    noun = np.array([tag in noun_tags for tag in corpus.tags], dtype=bool)
    kept = np.array([surface not in stopwords for surface in corpus.surfaces], dtype=bool)
    eligible = noun[corpus.token_tag] & kept[corpus.token_surface]
    surface = corpus.token_surface[eligible]
    n = len(corpus.surfaces)
    if count_mode == "documents":
        surface = np.unique(corpus.token_row[eligible] * n + surface) % n
    counts = np.bincount(surface, minlength=n)
    found = np.flatnonzero(counts)
    return dict(zip(map(corpus.surfaces.__getitem__, found.tolist()), counts[found].tolist()))


def top_n_subtopics(freq: dict[str, int], n: int) -> list[str]:
    """Top n tokens by count descending, ties by code-point order ascending."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    ranked = sorted(freq.items(), key=lambda item: (-item[1], item[0]))
    return [token for token, _count in ranked[:n]]
