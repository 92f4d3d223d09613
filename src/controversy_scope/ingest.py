"""Interaction-record ingestion: JSONL parsing, time windows, query filtering.

Input is UTF-8 line-delimited JSON, one post per line:

    {"post_id": "p1", "author_id": "u1", "timestamp": 1580515200,
     "tokens": [["vaccine", "NOUN"], ["works", "VERB"]],
     "repost_of": ["p0", "u0"]}

``repost_of`` is optional; a bare repost may have an empty token list.
Timestamps are UTC epoch seconds. Window labels (e.g. "2020-02") are
calendar months computed in a configurable IANA timezone, default UTC.

Query filtering reads a ``WindowIndex``: one pass over the records builds
the window's records, the posts carrying each query token and each post's
in-window reposts. A query's records are then its carriers closed under
repost links by one graph search, so a window's many subtopic queries cost
one index build plus a search each, however deep the repost chains run.

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

Collection. The parse allocates tracked objects (a record and its token
pairs) faster than anything frees them, and every collection triggered
meanwhile would rescan the records parsed so far. So ``parse_records``
pauses the cyclic garbage collector for its loop and restores the caller's
``gc.isenabled()`` state when it returns or raises. This is process-wide
state: another thread allocating meanwhile runs with collection paused too.
"""

from __future__ import annotations

import gc
import json
import re
from array import array
from dataclasses import dataclass
from datetime import datetime
from typing import Iterable, Iterator
from zoneinfo import ZoneInfo


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
    """Valid records in file order plus the count of skipped malformed lines."""

    records: tuple[InteractionRecord, ...]
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
    if _DATE_RE.match(text):
        d = _DATE_RE.match(text)
        assert d is not None
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


def _record_from_obj(obj: object) -> InteractionRecord | None:
    """Validate one decoded JSON object; None if it does not form a valid record.

    Exact type checks: a JSON decoder yields no tuples and no subclasses of
    str, int, list or dict, and ``bool`` fails ``type(x) is int``.
    """
    if type(obj) is not dict:
        return None
    post_id = obj.get("post_id")
    author_id = obj.get("author_id")
    timestamp = obj.get("timestamp")
    raw_tokens = obj.get("tokens", [])
    if type(post_id) is not str or not post_id:
        return None
    if type(author_id) is not str or not author_id:
        return None
    if type(timestamp) is not int or type(raw_tokens) is not list:
        return None
    tokens: list[tuple[str, str]] = []
    for entry in raw_tokens:
        if type(entry) is not list or len(entry) != 2:
            return None
        surface, pos = entry
        if type(surface) is not str or type(pos) is not str:
            return None
        tokens.append((surface, pos))
    repost_of = obj.get("repost_of")
    if repost_of is not None:
        if type(repost_of) is not list or len(repost_of) != 2:
            return None
        target, target_author = repost_of
        if type(target) is not str or type(target_author) is not str or not target_author:
            return None
        repost_of = (target, target_author)
    elif not tokens:
        # only pure reposts may carry an empty token list
        return None
    return InteractionRecord(post_id, author_id, timestamp, tuple(tokens), repost_of)


def _utf8_encodable(text: str) -> bool:
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate
        return False
    return True


def _strings(record: InteractionRecord) -> str:
    """Every string of the record, joined."""
    parts = [record.post_id, record.author_id]
    for surface, pos in record.tokens:
        parts += (surface, pos)
    if record.repost_of is not None:
        parts += record.repost_of
    return "".join(parts)


_decode = json.JSONDecoder().raw_decode


def parse_records(stream: Iterable[str]) -> ParseResult:
    """Parse line-delimited JSON into records, skipping (and counting) bad lines.

    Raises EmptyInput when no line yields a valid record and DuplicatePostId
    when a post_id repeats among valid lines. The cyclic garbage collector
    is paused, process-wide, while the lines are read; the caller's
    ``gc.isenabled()`` state is restored however the parse ends, including
    on an exception raised by ``stream``.
    """
    records: list[InteractionRecord] = []
    seen: set[str] = set()
    malformed = 0
    collecting = gc.isenabled()
    gc.disable()
    try:
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
            record = _record_from_obj(obj) if end == len(line) else None
            # an encodable line yields a lone surrogate only through an escape
            if record is None or ("\\" in line and not _utf8_encodable(_strings(record))):
                malformed += 1
                continue
            if record.post_id in seen:
                raise DuplicatePostId(record.post_id)
            seen.add(record.post_id)
            records.append(record)
    finally:
        if collecting:
            gc.enable()
    if not records:
        raise EmptyInput(f"no valid records ({malformed} malformed lines)")
    return ParseResult(tuple(records), malformed)


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


class WindowIndex:
    """The records of one window, indexed for the window's query tokens.

    Built in one pass over the records: the window's records in file order,
    for each indexed query the ids of the posts whose surfaces carry it, and
    for each post id the rows of its reposts inside the window. Iterating or
    taking ``len`` gives the window's records. ``filter_window`` reads from
    an index of its window instead of scanning the corpus again.
    """

    __slots__ = ("window", "queries", "records", "_carriers", "_heads", "_links")

    def __init__(
        self,
        records: Iterable[InteractionRecord],
        window: TimeWindow,
        queries: Iterable[str] = (),
    ) -> None:
        self.window = window
        self.queries = frozenset(queries)
        self.records = [r for r in records if window.contains(r.timestamp)]
        carriers: dict[str, list[str]] = {q: [] for q in self.queries}
        # Each post's in-window reposts form a linked list of rows: heads maps
        # a post id to the row of its last repost, links[row] to the row of
        # the repost before it (-1 ends the list). One int array, not a list
        # per post: per-post lists are objects the garbage collector tracks,
        # and on a 72k-record corpus they cost one more full collection over
        # the parsed records.
        heads: dict[str, int] = {}
        links = array("q")
        for row, r in enumerate(self.records):
            for surface, _pos in r.tokens:
                if surface in carriers:
                    carriers[surface].append(r.post_id)
            if r.repost_of is None:
                links.append(-1)
            else:
                links.append(heads.get(r.repost_of[0], -1))
                heads[r.repost_of[0]] = row
        self._carriers = carriers
        self._heads = heads
        self._links = links

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[InteractionRecord]:
        return iter(self.records)

    def select(self, query: str) -> list[InteractionRecord]:
        """The window's records matching an indexed query, in file order.

        Matches are closed under repost links by one graph search from the
        carriers' ids, each post id visited once, so chain depth costs
        nothing extra. Matching is by post id: every record whose id matched
        is kept.
        """
        kept = set(self._carriers[query])
        frontier = list(kept)
        while frontier:
            row = self._heads.get(frontier.pop(), -1)
            while row >= 0:
                child = self.records[row].post_id
                if child not in kept:
                    kept.add(child)
                    frontier.append(child)
                row = self._links[row]
        return [r for r in self.records if r.post_id in kept]


def filter_window(
    records: Iterable[InteractionRecord] | WindowIndex,
    window: TimeWindow,
    query: str | None = None,
) -> list[InteractionRecord]:
    """Select records inside the window, optionally matching a query token.

    A record matches the query when the token appears among its surfaces, or
    when it is a repost of a matching record inside the same window (reposts
    inherit the match of their original; bare reposts rarely repeat the
    keyword), transitively, so repost chains stay intact. Given a
    ``WindowIndex`` of this window that indexes the query, the match is read
    from it; otherwise a one-query index is built over ``records``.
    """
    if query is None:
        return [r for r in records if window.contains(r.timestamp)]
    if not (isinstance(records, WindowIndex) and records.window == window
            and query in records.queries):
        records = WindowIndex(records, window, (query,))
    return records.select(query)
