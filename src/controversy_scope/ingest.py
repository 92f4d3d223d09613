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
  interpreter's digit limit; or its lists and objects nest deeper than
  ``ingest_kernel.MAX_DEPTH``, wherever the parse is called from;
- the value is not an object with a non-empty string ``post_id`` and
  ``author_id``, an integer (not boolean) ``timestamp``, a ``tokens`` list
  of ``[surface, pos]`` string pairs (absent means empty) and an optional
  ``repost_of`` ``[post_id, author_id]`` string pair with a non-empty author
  (``null`` means absent); or it has no tokens and is not a repost;
- one of the record's strings holds a lone surrogate written as an escape
  (``"\\ud800"``), which no report could write as UTF-8.

A UTF-8 BOM opening the file is dropped by ``parse_records_file``; a line
that starts with a BOM is malformed, as ``json.loads`` would have it. A file
is read with universal newlines: a line ends at "\\n", "\\r\\n" or a lone
"\\r".

Parts. ``ingest_kernel`` holds these rules and builds one part: the tables
of consecutive lines in first-seen order, and int columns over them. It
numbers a repeated post id like any other; ``_merge`` joins parts, in input
order, into the one corpus a single pass would build, and is the one place
that raises DuplicatePostId. ``parse_records`` and ``Corpus.from_records``
build one part. ``parse_records_file`` cuts a regular file into
``min(usable CPUs, size // MIN_PART_BYTES)`` byte ranges, each ending just
after a "\\n", so every range reads whole lines as the file does. It parses
the first range itself; each other range is parsed by a child process that
runs the kernel file under a bare interpreter (``python -I -S``, no NumPy,
no package import) and writes its part to a pipe with ``marshal``. A child
that cannot start or fails has its range parsed in this process instead.
"""

from __future__ import annotations

import json
import marshal
import os
import re
import sys
from bisect import bisect_left
from dataclasses import dataclass, replace
from datetime import datetime
from functools import cached_property
from itertools import chain, compress, islice, repeat
from stat import S_ISREG
from typing import BinaryIO, Iterable
from zoneinfo import ZoneInfo

import numpy as np

from . import ingest_kernel
from .ingest_kernel import Part


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
        return _merge([ingest_kernel.build((r.post_id, r.author_id, r.timestamp, r.tokens,
                                            r.repost_of) for r in records)])

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


def _merge(parts: list[Part]) -> Corpus:
    """The corpus of parts parsed from consecutive pieces of one input, in order.

    The first part's tables start the merged ones. A later part's post ids
    are looked up in the post table, and those it lacks are numbered on in
    the part's first-seen order, so post numbers are first-seen over the
    whole input; they join the table only when a part follows (two parts
    never grow the first one's table). Later authors, surfaces and tags
    join their tables the same way, and the author and surface tables are
    then sorted. Each part in turn, the first included, goes through
    ``_carry``: a post id carried by two rows raises DuplicatePostId. A
    later part's post ids are dropped from the list once numbered and checked.
    """
    first = parts[0]
    posts, authors, surfaces, tags = first.posts, first.authors, first.surfaces, first.tags
    post_count = len(posts)
    carried = _carry(np.zeros(0, dtype=bool), post_count, first)
    numbered = [(None, None, None, None)]  # each part's numbers into the merged tables
    for k in range(1, len(parts)):
        part = parts[k]
        numbers = np.fromiter(chain(map(posts.get, part.posts, repeat(-1)), (-1,)),
                              dtype=np.int32, count=len(part.posts) + 1)
        missing = numbers[:-1] < 0
        new = np.arange(post_count, post_count + np.count_nonzero(missing), dtype=np.int32)
        numbers[:-1][missing] = new
        if k < len(parts) - 1:
            posts.update(zip(compress(part.posts, missing), new.tolist()))
        post_count += new.size
        carried = _carry(carried, post_count, part, numbers)
        # numbered: its post ids are not held while the columns are joined
        parts[k] = part = part._replace(posts=None)
        numbered.append((numbers, _numbers(authors, part.authors),
                         _numbers(surfaces, part.surfaces), _numbers(tags, part.tags)))
    author_names, author_rank = _sorted_table(authors)
    surface_names, surface_rank = _sorted_table(surfaces)
    # per part, what each column's values go through: nothing for the first
    # part's post and tag numbers, a sorted rank for authors and surfaces
    maps = [(post_map, author_rank if author_map is None else author_rank[author_map],
             surface_rank if surface_map is None else surface_rank[surface_map], tag_map)
            for post_map, author_map, surface_map, tag_map in numbered]

    def column(name: str, slot: int | None = None, dtype: type = np.int32) -> np.ndarray:
        pieces = [np.frombuffer(getattr(part, name), dtype=dtype) for part in parts]
        if slot is not None:
            pieces = [v if m[slot] is None else m[slot][v] for v, m in zip(pieces, maps)]
        return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)

    stamps = [part.timestamp for part in parts]
    if any(isinstance(ts, list) for ts in stamps):  # one past int64: Python ints
        timestamp = np.array([t for ts in stamps for t in (
            ts if isinstance(ts, list) else np.frombuffer(ts, dtype=np.int64).tolist())],
            dtype=object)
    else:
        timestamp = column("timestamp", dtype=np.int64)
    ptrs = [np.frombuffer(part.token_ptr, dtype=np.int64) for part in parts]
    ends = np.cumsum([ptr[-1] for ptr in ptrs])
    token_ptr = ptrs[0] if len(parts) == 1 else np.concatenate(
        [ptrs[0], *(ptr[1:] + end for ptr, end in zip(ptrs[1:], ends))])
    return Corpus(
        post_count=post_count, authors=author_names, surfaces=surface_names, tags=tuple(tags),
        post=column("post", 0),
        author=column("author", 1),
        timestamp=timestamp,
        target_post=column("target_post", 0),
        target_author=column("target_author", 1),
        token_ptr=token_ptr,
        token_surface=column("token_surface", 2),
        token_tag=column("token_tag", 3),
    )


def _carry(carried: np.ndarray, post_count: int, part: Part,
           numbers: np.ndarray | None = None) -> np.ndarray:
    """``carried`` (is each merged post number some row's?) grown to
    ``post_count`` and set for the part's rows, their post numbers taken
    through ``numbers`` if given. DuplicatePostId names the first row, in
    file order, whose number an earlier row carries."""
    local = np.frombuffer(part.post, dtype=np.int32)
    rows = local if numbers is None else numbers[local]
    marked = np.zeros(post_count, dtype=bool)
    marked[:carried.size] = carried
    marked[rows] = True
    if np.count_nonzero(marked) - np.count_nonzero(carried) < rows.size:  # find the repeat
        seen = set(np.flatnonzero(carried).tolist())
        for row, number in enumerate(rows.tolist()):
            if number in seen:
                raise DuplicatePostId(next(islice(part.posts, int(local[row]), None)))
            seen.add(number)
    return marked


def _numbers(table: dict[str, int], names: Iterable[str]) -> np.ndarray:
    """Each name's number in the table, which the names it lacks join in
    order; slot -1 holds -1, so -1 (no repost target) maps to itself."""
    add = table.setdefault
    return np.array([*(add(name, len(table)) for name in names), -1], dtype=np.int32)


def _sorted_table(table: dict[str, int]) -> tuple[tuple[str, ...], np.ndarray]:
    """The table's strings in sorted order, and each first-seen index's new
    index; -1 maps to -1."""
    names = sorted(table)
    rank = np.empty(len(names) + 1, dtype=np.int32)
    rank[np.fromiter(map(table.__getitem__, names), dtype=np.int64, count=len(names))] = \
        np.arange(len(names), dtype=np.int32)
    rank[-1] = -1  # index -1 reads the last slot
    return tuple(names), rank


def _result(parts: list[Part]) -> ParseResult:
    """The merged parts and their malformed lines; EmptyInput when no row."""
    corpus = _merge(parts)
    malformed = sum(part.malformed for part in parts)
    if not len(corpus):
        raise EmptyInput(f"no valid records ({malformed} malformed lines)")
    return ParseResult(corpus, malformed)


def parse_records(stream: Iterable[str]) -> ParseResult:
    """Parse line-delimited JSON into a corpus, skipping (and counting) bad lines.

    Raises EmptyInput when no line yields a valid record and DuplicatePostId
    when a post_id repeats among valid lines.
    """
    return _result([ingest_kernel.parse(stream)])


# A file is split into parts of at least this many bytes, one per usable CPU.
# A child costs a process start (~0.03 s) and the merge ~0.01 s per 8 MB;
# on a 2-vCPU VM a 1.5 MB file parsed as fast whole as in two parts, and a
# 2 MB one 13 % faster in two.
MIN_PART_BYTES = 1_000_000
_PROBE_BYTES = 1 << 16


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _line_starts(fh: BinaryIO, size: int, parts: int) -> list[int]:
    """Offsets that cut a binary file of ``size`` bytes into up to ``parts``
    ranges of about equal size, each after the first opening a line.

    A cut goes just past the first newline byte at or after its even share;
    the probe reads blocks of ``_PROBE_BYTES``, never a whole line. A cut
    that finds no newline before the end, and every one after it, is dropped.
    """
    starts = [0]
    for i in range(1, parts):
        at = fh.seek(max(size * i // parts - 1, starts[-1]))
        while block := fh.read(_PROBE_BYTES):
            if (hit := block.find(b"\n")) >= 0:
                break
            at += len(block)
        if not block or at + hit + 1 >= size:
            break
        starts.append(at + hit + 1)
    return starts


def _range_part(path: str, start: int, stop: int) -> Part:
    """The part of bytes [start, stop) of a file, parsed in this process."""
    with ingest_kernel.lines(path, start, stop) as stream:
        return ingest_kernel.parse(stream)


def _child_part(child, path: str, start: int, stop: int) -> Part:
    """The part a child wrote; parsed here when it could not start, failed or
    wrote something else."""
    if child is not None:
        out = child.stdout.read()
        if child.wait() == 0:
            try:
                return Part(*marshal.loads(out))
            except (EOFError, ValueError, TypeError):
                pass
    return _range_part(path, start, stop)


def parse_records_file(path: str) -> ParseResult:
    """``parse_records`` over a file: a leading BOM is dropped, bad UTF-8 is malformed.

    A regular file is cut into ``min(usable CPUs, size // MIN_PART_BYTES)``
    ranges, each ending with a line. This process parses the first;
    each other one is parsed by a child running ``ingest_kernel`` under a
    bare interpreter (or here, if the child fails), and the parts are
    merged into the corpus a single parse builds. No child outlives the call.
    """
    info = os.stat(path)
    count = min(_usable_cpus(), info.st_size // MIN_PART_BYTES)
    starts = [0]
    if S_ISREG(info.st_mode) and count > 1:
        with open(path, "rb") as fh:
            starts = _line_starts(fh, info.st_size, count)
    if len(starts) == 1:
        with ingest_kernel.lines(path) as stream:
            return parse_records(stream)
    import subprocess  # only a split parse starts children

    argv = [sys.executable, "-I", "-S", ingest_kernel.__file__, os.fspath(path)]
    if hasattr(sys, "get_int_max_str_digits"):  # the child reads integers alike
        argv[3:3] = ["-X", f"int_max_str_digits={sys.get_int_max_str_digits()}"]
    ranges = list(zip(starts, [*starts[1:], info.st_size]))
    children = []
    try:
        for start, stop in ranges[1:]:
            try:
                children.append(subprocess.Popen([*argv, str(start), str(stop)],
                                                 stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                                 stderr=subprocess.DEVNULL))
            except OSError:  # no interpreter to start: parse the range here
                children.append(None)
        parts = [_range_part(path, *ranges[0])]
        parts += [_child_part(child, path, *span) for child, span in zip(children, ranges[1:])]
        return _result(parts)
    finally:
        for child in children:
            if child is not None:
                with child:
                    child.kill()


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
