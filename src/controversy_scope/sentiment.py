"""Lexicon-based sentiment: per-post scores and per-subtopic aggregates.

A post's score is the mean polarity of its tokens that match the lexicon;
posts with no matching token are unmatched (None) and excluded from the
aggregate so they do not fabricate neutrality. Lexicon files are UTF-8
lines of "surface<TAB>polarity" with polarity in [-1, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .ingest import Corpus


class AllUnmatched(Exception):
    """No record in the batch matched the lexicon."""


@dataclass(frozen=True)
class PolarityLexicon:
    polarity: dict[str, float]

    def __post_init__(self) -> None:
        for surface, value in self.polarity.items():
            if not surface:
                raise ValueError("lexicon surfaces must be non-empty")
            if not -1.0 <= value <= 1.0:
                raise ValueError(f"polarity out of [-1,1] for {surface!r}: {value}")


def load_lexicon(path: str) -> PolarityLexicon:
    polarity: dict[str, float] = {}
    with open(path, encoding="utf-8-sig") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            try:
                surface, value = line.split("\t", 1)
                polarity[surface] = float(value)
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: bad lexicon line {line!r}") from exc
    return PolarityLexicon(polarity)


def score_text(
    tokens: Iterable[tuple[str, str]], lex: PolarityLexicon
) -> float | None:
    """Mean polarity of the matching token surfaces; None when nothing matches."""
    total = 0.0
    matched = 0
    for surface, _pos in tokens:
        value = lex.polarity.get(surface)
        if value is not None:
            total += value
            matched += 1
    if matched == 0:
        return None
    return total / matched


def aggregate_sentiment(
    corpus: Corpus, lex: PolarityLexicon
) -> tuple[float, float, int]:
    """Mean and population std of per-record scores over the matched records.

    Each record's score is ``score_text`` of its tokens, and the sums run in
    the same order as there and over the records in row order, so the
    floats are the same bits: ``np.bincount`` adds each record's matched
    polarities in token order, starting from zero. Only the surfaces the
    corpus's tokens carry are looked up, not its whole surface table.
    """
    counts = np.bincount(corpus.token_surface)
    present = np.flatnonzero(counts)
    polarity = np.full(counts.size, math.nan)
    polarity[present] = [lex.polarity.get(corpus.surfaces[s], math.nan) for s in present.tolist()]
    value = polarity[corpus.token_surface]
    hit = ~np.isnan(value)  # polarities lie in [-1, 1], so NaN marks no entry
    rows = corpus.token_row[hit]
    matched = np.bincount(rows, minlength=len(corpus))
    total = np.bincount(rows, weights=value[hit], minlength=len(corpus))
    scored = matched > 0
    scores = (total[scored] / matched[scored]).tolist()
    if not scores:
        raise AllUnmatched("no record matched the lexicon")
    n = len(scores)
    mean = sum(scores) / n
    variance = sum((s - mean) ** 2 for s in scores) / n
    return mean, math.sqrt(variance), n
