"""Interaction-record ingestion: JSONL parsing into a columnar corpus, time
windows, query filtering.

Input is UTF-8 line-delimited JSON, one post per line:

    {"post_id": "p1", "author_id": "u1", "timestamp": 1580515200,
     "tokens": [["vaccine", "NOUN"], ["works", "VERB"]],
     "repost_of": ["p0", "u0"]}

``repost_of`` is optional; a bare repost may have an empty token list.
Timestamps are UTC epoch seconds. Window labels (e.g. "2020-02") are
calendar months computed in a configurable IANA timezone, default UTC.

The parse keeps a ``Corpus``: one row per valid line, in file order, held as
int columns. Post ids (a row's own and its repost target's) are numbered in
first-seen order; no report prints one, so only the count is kept. Authors
(a row's and its target's) share one table, and token surfaces and tags have
one each; every column holds indices into these tables. The author and
surface tables are in sorted order, so comparing two of their indices
compares the strings: edge keys, node order and tie-breaks read the same as
on the strings. A row's tokens are one slice of the token columns (a CSR).
``Corpus.from_records`` builds a corpus from ``InteractionRecord``s under
the file's rule: a post id carried by two rows raises ``DuplicatePostId``.

Query filtering works on a window's corpus, cut by a timestamp mask. A
query's rows are the rows carrying its token, closed under in-window repost
links by one breadth-first search over rows: each step gathers the reposts
of the rows it reached from a CSR of rows by repost target, so a search
costs time linear in what it reaches, plus a few array operations per step
of repost depth. The two CSRs (reposts by target, token rows by surface) are
built once per window corpus and shared by all of its queries.

Parsing. Each line is stripped of surrounding whitespace; blank lines are
skipped. A line is decoded by one ``JSONDecoder().raw_decode`` and must be
exactly one JSON value (what ``json.loads`` accepts: a BOM, trailing data or
a second value on the line is rejected; ``NaN``/``Infinity`` decode but are
not integers). A line counts as malformed, and is skipped, when

- it is not valid UTF-8: ``parse_records_file`` reads invalid bytes as lone
  surrogates (``errors="surrogateescape"``), and a line holding one is
  rejected, as is any line given to ``parse_records`` that cannot be encoded
  as UTF-8;
- it is not one JSON value, or decoding it fails on an integer past the
  interpreter's digit limit or nesting past the recursion limit;
- the value is not an object with a non-empty string ``post_id`` and
  ``author_id``, an integer (not boolean) ``timestamp``, a ``tokens`` list
  of ``[surface, pos]`` string pairs (absent means empty) and an optional
  ``repost_of`` ``[post_id, author_id]`` string pair with a non-empty author
  (``null`` means absent); or it has no tokens and is not a repost;
- one of the record's strings holds a lone surrogate written as an escape
  (``"\\ud800"``), which no report could write as UTF-8.

A UTF-8 BOM opening the file is dropped by ``parse_records_file``; a line
that starts with a BOM is malformed, as ``json.loads`` would have it.
"""

from __future__ import annotations

import json
import re
from array import array
from bisect import bisect_left
from dataclasses import dataclass, replace
from datetime import datetime
from functools import cached_property
from typing import Iterable, Iterator
from zoneinfo import ZoneInfo

import numpy as np


class IngestError(Exception):
    """Base class for ingestion failures."""


class EmptyInput(IngestError):
    """The stream produced zero valid records."""


class DuplicatePostId(IngestError):
    """The same post_id appeared on more than one valid line."""


@dataclass(frozen=True, slots=True)
class InteractionRecord:
    """One post: an original or a repost of another author's post."""

    post_id: str
    author_id: str
    timestamp: int
    tokens: tuple[tuple[str, str], ...]
    repost_of: tuple[str, str] | None = None

    def surfaces(self) -> tuple[str, ...]:
        return tuple(surface for surface, _pos in self.tokens)


@dataclass(frozen=True, slots=True)
class TimeWindow:
    """Half-open interval [start, end) of UTC epoch seconds."""

    start: int
    end: int
    label: str

    def __post_init__(self) -> None:
        if self.start >= self.end:
            raise ValueError(f"window start must precede end: {self.start} >= {self.end}")

    def contains(self, timestamp: int) -> bool:
        return self.start <= timestamp < self.end


@dataclass(frozen=True, slots=True)
class ParseResult:
    """The valid lines' corpus, rows in file order, plus the count of skipped
    malformed lines."""

    records: Corpus
    malformed: int


_MONTH_RE = re.compile(r"^(\d{4})-(\d{2})$")
_DATE_RE = re.compile(r"^(\d{4})-(\d{2})-(\d{2})$")


def month_window(label: str, tz: str = "UTC") -> TimeWindow:
    """Build the calendar-month window for a "YYYY-MM" label in timezone ``tz``."""
    m = _MONTH_RE.match(label)
    if not m:
        raise ValueError(f"not a YYYY-MM month label: {label!r}")
    year, month = int(m.group(1)), int(m.group(2))
    zone = ZoneInfo(tz)
    start = datetime(year, month, 1, tzinfo=zone)
    if month == 12:
        end = datetime(year + 1, 1, 1, tzinfo=zone)
    else:
        end = datetime(year, month + 1, 1, tzinfo=zone)
    return TimeWindow(int(start.timestamp()), int(end.timestamp()), label)


def _parse_instant(text: str, tz: str) -> int:
    d = _DATE_RE.match(text)
    if d:
        return int(datetime(int(d.group(1)), int(d.group(2)), int(d.group(3)),
                            tzinfo=ZoneInfo(tz)).timestamp())
    return int(text)


def parse_window(spec: str, tz: str = "UTC") -> TimeWindow:
    """Parse a window spec: "YYYY-MM" or "start..end" (epoch seconds or YYYY-MM-DD)."""
    if _MONTH_RE.match(spec):
        return month_window(spec, tz)
    if ".." in spec:
        lo, hi = spec.split("..", 1)
        return TimeWindow(_parse_instant(lo, tz), _parse_instant(hi, tz), spec)
    raise ValueError(f"window spec must be YYYY-MM or start..end: {spec!r}")




def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenated ranges [starts[i], starts[i] + counts[i]), in order."""
    ends = np.cumsum(counts)
    return np.repeat(starts - ends + counts, counts) + np.arange(ends[-1] if ends.size else 0)


def _group(keys: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR of the positions of ``keys`` by key: positions[ptr[k]:ptr[k + 1]]
    are the ascending positions holding key k, for each k in [0, size)."""
    ptr = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=size), out=ptr[1:])
    return ptr, np.argsort(keys, kind="stable")


def _gather(csr: tuple[np.ndarray, np.ndarray], keys: np.ndarray) -> np.ndarray:
    """The values of each key in turn from a (ptr, values) CSR."""
    ptr, values = csr
    starts = ptr[keys]
    return values[_ranges(starts, ptr[keys + 1] - starts)]


@dataclass(frozen=True, eq=False)
class Corpus:
    """Interaction records as columns, one row per post, in file order.

    ``authors``, ``surfaces`` and ``tags`` are the intern tables; ``authors``
    and ``surfaces`` are sorted. ``post_count`` is the number of distinct
    post ids, targets included. Per row: ``post`` numbers the post id in
    first-seen order, ``author`` indexes its table, ``timestamp`` is int64
    (Python ints in an object array when one is past int64), and
    ``target_post`` and ``target_author`` name the reposted post and its
    author, -1 for an original. Row i's tokens are ``token_surface`` and
    ``token_tag`` over ``token_ptr[i]:token_ptr[i + 1]``. A sub-corpus
    shares the tables and the post numbering; the arrays are not to be
    modified.
    """

    post_count: int
    authors: tuple[str, ...]
    surfaces: tuple[str, ...]
    tags: tuple[str, ...]
    post: np.ndarray
    author: np.ndarray
    timestamp: np.ndarray
    target_post: np.ndarray
    target_author: np.ndarray
    token_ptr: np.ndarray
    token_surface: np.ndarray
    token_tag: np.ndarray

    def __len__(self) -> int:
        return len(self.post)

    @classmethod
    def from_records(cls, records: Iterable[InteractionRecord]) -> Corpus:
        """The records as a corpus, in their order; a repeated post id raises
        DuplicatePostId."""
        return _build((r.post_id, r.author_id, r.timestamp, r.tokens, r.repost_of)
                      for r in records)

    @cached_property
    def token_row(self) -> np.ndarray:
        """The row of each token."""
        return np.repeat(np.arange(len(self)), np.diff(self.token_ptr))

    def _take(self, rows: np.ndarray) -> Corpus:
        """The sub-corpus of the given rows, in the given order."""
        starts = self.token_ptr[rows]
        counts = self.token_ptr[rows + 1] - starts
        token_ptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(counts, out=token_ptr[1:])
        tokens = _ranges(starts, counts)
        return replace(
            self, post=self.post[rows], author=self.author[rows],
            timestamp=self.timestamp[rows], target_post=self.target_post[rows],
            target_author=self.target_author[rows], token_ptr=token_ptr,
            token_surface=self.token_surface[tokens], token_tag=self.token_tag[tokens],
        )

    def within(self, window: TimeWindow) -> Corpus:
        """The rows inside the window, as a corpus (itself, if no row lies outside)."""
        inside = (self.timestamp >= window.start) & (self.timestamp < window.end)
        return self if inside.all() else self._take(np.flatnonzero(inside))

    @cached_property
    def _links(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """CSRs of the reposting rows by target post and of the token rows by
        surface."""
        reposts = np.flatnonzero(self.target_post >= 0)
        by_target, order = _group(self.target_post[reposts], self.post_count)
        by_surface, tokens = _group(self.token_surface, len(self.surfaces))
        return (by_target, reposts[order]), (by_surface, self.token_row[tokens])

    def _matching(self, query: str) -> Corpus:
        """The rows carrying the query token, closed under repost links.

        A row matches when the token is among its surfaces, or when it
        reposts a matching post, transitively. Each search step takes the
        reposts of the rows first reached at the step before; a post has at
        most one row, so no row is reached twice in one step.
        """
        by_target, by_surface = self._links
        reached = np.zeros(len(self), dtype=bool)
        s = bisect_left(self.surfaces, query)
        if s < len(self.surfaces) and self.surfaces[s] == query:
            frontier = np.unique(_gather(by_surface, np.array([s])))
            reached[frontier] = True
            while frontier.size:
                frontier = _gather(by_target, self.post[frontier])
                frontier = frontier[~reached[frontier]]
                reached[frontier] = True
        return self._take(np.flatnonzero(reached))


def _build(rows: Iterable[tuple]) -> Corpus:
    """The corpus of (post_id, author_id, timestamp, tokens, repost_of) rows.

    Tables grow in first-seen order and the author and surface tables are
    sorted at the end. A post id carried by an earlier row raises
    DuplicatePostId; one that was only a repost target is not a repeat. Post
    ids are kept only as their count. The loop reads every table, column and
    lookup from a local name: it runs once per input line.
    """
    posts: dict[str, int] = {}
    authors: dict[str, int] = {}
    surfaces: dict[str, int] = {}
    tags: dict[str, int] = {}
    is_row = bytearray()  # per post id: whether a row carries it
    post, author, target_post, target_author = (array("i") for _ in range(4))
    timestamp: array | list = array("q")
    token_ptr, token_surface, token_tag = array("q", [0]), array("i"), array("i")
    posts_get, authors_set = posts.get, authors.setdefault
    surfaces_set, tags_set = surfaces.setdefault, tags.setdefault
    append_timestamp = timestamp.append
    for post_id, author_id, ts, tokens, repost_of in rows:
        p = posts_get(post_id)
        if p is None:
            p = posts[post_id] = len(posts)
            is_row.append(1)
        elif is_row[p]:
            raise DuplicatePostId(post_id)
        else:
            is_row[p] = 1
        post.append(p)
        author.append(authors_set(author_id, len(authors)))
        try:
            append_timestamp(ts)
        except OverflowError:  # past int64: the column holds Python ints from here on
            timestamp = [*timestamp, ts]
            append_timestamp = timestamp.append
        for surface, pos in tokens:
            token_surface.append(surfaces_set(surface, len(surfaces)))
            token_tag.append(tags_set(pos, len(tags)))
        token_ptr.append(len(token_surface))
        if repost_of is None:
            target_post.append(-1)
            target_author.append(-1)
        else:
            target, original_author = repost_of
            t = posts_get(target)
            if t is None:
                t = posts[target] = len(posts)
                is_row.append(0)
            target_post.append(t)
            target_author.append(authors_set(original_author, len(authors)))
    author_names, author_rank = _sorted_table(authors)
    surface_names, surface_rank = _sorted_table(surfaces)
    return Corpus(
        post_count=len(posts), authors=author_names, surfaces=surface_names, tags=tuple(tags),
        post=np.frombuffer(post, dtype=np.int32),
        author=author_rank[np.frombuffer(author, dtype=np.int32)],
        timestamp=(np.array(timestamp, dtype=object) if isinstance(timestamp, list)
                   else np.frombuffer(timestamp, dtype=np.int64)),
        target_post=np.frombuffer(target_post, dtype=np.int32),
        target_author=author_rank[np.frombuffer(target_author, dtype=np.int32)],
        token_ptr=np.frombuffer(token_ptr, dtype=np.int64),
        token_surface=surface_rank[np.frombuffer(token_surface, dtype=np.int32)],
        token_tag=np.frombuffer(token_tag, dtype=np.int32),
    )


def _sorted_table(table: dict[str, int]) -> tuple[tuple[str, ...], np.ndarray]:
    """The table's strings in sorted order, and each first-seen index's new
    index; -1 maps to -1."""
    names = sorted(table)
    rank = np.empty(len(names) + 1, dtype=np.int32)
    rank[np.fromiter(map(table.__getitem__, names), dtype=np.int64, count=len(names))] = \
        np.arange(len(names), dtype=np.int32)
    rank[-1] = -1  # index -1 reads the last slot
    return tuple(names), rank


def _fields(obj: object) -> tuple | None:
    """Validate one decoded JSON object; None if it does not form a valid record.

    Returns (post_id, author_id, timestamp, tokens, repost_of) with the
    decoded lists as they are. Exact type checks: a JSON decoder yields no
    tuples and no subclasses of str, int, list or dict, and ``bool`` fails
    ``type(x) is int``.
    """
    if type(obj) is not dict:
        return None
    post_id = obj.get("post_id")
    author_id = obj.get("author_id")
    timestamp = obj.get("timestamp")
    tokens = obj.get("tokens", [])
    if type(post_id) is not str or not post_id:
        return None
    if type(author_id) is not str or not author_id:
        return None
    if type(timestamp) is not int or type(tokens) is not list:
        return None
    for entry in tokens:
        if type(entry) is not list or len(entry) != 2:
            return None
        surface, pos = entry
        if type(surface) is not str or type(pos) is not str:
            return None
    repost_of = obj.get("repost_of")
    if repost_of is not None:
        if type(repost_of) is not list or len(repost_of) != 2:
            return None
        target, target_author = repost_of
        if type(target) is not str or type(target_author) is not str or not target_author:
            return None
    elif not tokens:
        # only pure reposts may carry an empty token list
        return None
    return post_id, author_id, timestamp, tokens, repost_of


def _utf8_encodable(text: str) -> bool:
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate
        return False
    return True


def _strings(fields: tuple) -> str:
    """Every string of a record's fields, joined."""
    post_id, author_id, _timestamp, tokens, repost_of = fields
    return "".join([post_id, author_id, *(text for pair in tokens for text in pair),
                    *(repost_of or ())])


_decode = json.JSONDecoder().raw_decode


def parse_records(stream: Iterable[str]) -> ParseResult:
    """Parse line-delimited JSON into a corpus, skipping (and counting) bad lines.

    Raises EmptyInput when no line yields a valid record and DuplicatePostId
    when a post_id repeats among valid lines.
    """
    malformed = 0

    def valid_rows() -> Iterator[tuple]:
        nonlocal malformed
        for line in stream:
            line = line.strip()
            if not line:
                continue
            if not line.isascii() and not _utf8_encodable(line):
                malformed += 1
                continue
            try:
                obj, end = _decode(line)
            except (ValueError, RecursionError):
                # JSONDecodeError, an integer past the digit limit, deep nesting
                malformed += 1
                continue
            fields = _fields(obj) if end == len(line) else None
            # an encodable line yields a lone surrogate only through an escape
            if fields is None or ("\\" in line and not _utf8_encodable(_strings(fields))):
                malformed += 1
                continue
            yield fields

    corpus = _build(valid_rows())
    if not len(corpus):
        raise EmptyInput(f"no valid records ({malformed} malformed lines)")
    return ParseResult(corpus, malformed)


def parse_records_file(path: str) -> ParseResult:
    """``parse_records`` over a file: a leading BOM is dropped, bad UTF-8 is malformed."""
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        return parse_records(fh)


def serialize_records(records: Iterable[InteractionRecord]) -> str:
    """Inverse of parse_records on the defined fields; one JSON object per line."""
    lines = []
    for r in records:
        obj: dict[str, object] = {
            "post_id": r.post_id,
            "author_id": r.author_id,
            "timestamp": r.timestamp,
            "tokens": [list(t) for t in r.tokens],
        }
        if r.repost_of is not None:
            obj["repost_of"] = list(r.repost_of)
        lines.append(json.dumps(obj, ensure_ascii=False, separators=(",", ":")))
    return "\n".join(lines) + ("\n" if lines else "")


def filter_window(corpus: Corpus, window: TimeWindow, query: str | None = None) -> Corpus:
    """The corpus's rows inside the window, optionally matching a query token.

    A row matches the query when the token appears among its surfaces, or
    when it is a repost of a matching row inside the same window (reposts
    inherit the match of their original; bare reposts rarely repeat the
    keyword), transitively, so repost chains stay intact. A corpus with no
    row outside the window is its own window corpus, so it keeps its link
    CSRs for the next query.
    """
    in_window = corpus.within(window)
    return in_window if query is None else in_window._matching(query)
