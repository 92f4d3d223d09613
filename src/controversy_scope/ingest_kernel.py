"""The parse of one part of a JSONL corpus: the per-line rules and the tables
the part's valid lines build. It imports the standard library only, so a
part can be parsed in a bare child process:

    python -I -S ingest_kernel.py PATH START STOP

parses bytes [START, STOP) of PATH, which open a line and end one, and
writes the part to stdout with ``marshal``: its tables as lists of strings,
its int columns as bytes. ``parse_range`` is the one way a file's bytes
become a part, in a child or not. ``ingest`` merges the parts of a file
into one ``Corpus``; the rules themselves are documented there (Parsing).

A line in the compact form ``serialize_records`` writes is read by one
compiled pattern (``_compact``), which accepts only lines whose row is known
without decoding them; every other line goes through the JSON decoder and
``_fields``. So the rules have two homes: the pattern repeats those of
``_fields`` that a compact line can break (listed beside it), and a property
test holds the two to one row and one verdict at each edge.

A part is a ``Part``. Its post ids, authors, surfaces and tags are each
numbered in first-seen order within the part, and its columns hold those
numbers. A part keeps every valid line's row: a post id carried by two rows
gets one number, and ``ingest._merge`` raises the error for it.
"""

from __future__ import annotations

import io
import json
import marshal
import re
import sys
from array import array
from collections import namedtuple

# A line whose lists and objects nest deeper than this is malformed.
MAX_DEPTH = 500

Part = namedtuple("Part", [
    "malformed",  # lines skipped as malformed
    "posts", "authors", "surfaces", "tags",  # tables: dicts of name -> number, or name lists
    "post", "author", "timestamp", "target_post", "target_author",  # per row
    "token_ptr", "token_surface", "token_tag",  # a row's tokens are a token_ptr slice
])
Part.__doc__ = """One part's tables, in first-seen order, and its columns over them.

Columns are ``array``s (or bytes of one): int32 ("i"), but ``timestamp``
and ``token_ptr`` int64 ("q"), ``token_ptr`` from 0. A target column holds
-1 for an original.
"""


def build(rows) -> Part:
    """The part of (post_id, author_id, timestamp, tokens, repost_of) rows.

    It only numbers and appends: the rules on a row are ``_fields``'s. A
    timestamp outside int64 raises the ``array`` append's OverflowError.
    The loop reads every table, column and lookup from a local name: it runs
    once per input line.
    """
    posts: dict[str, int] = {}
    authors: dict[str, int] = {}
    surfaces: dict[str, int] = {}
    tags: dict[str, int] = {}
    post, author, target_post, target_author = (array("i") for _ in range(4))
    timestamp = array("q")
    token_ptr, token_surface, token_tag = array("q", [0]), array("i"), array("i")
    posts_set, authors_set = posts.setdefault, authors.setdefault
    surfaces_set, tags_set = surfaces.setdefault, tags.setdefault
    for post_id, author_id, ts, tokens, repost_of in rows:
        post.append(posts_set(post_id, len(posts)))
        author.append(authors_set(author_id, len(authors)))
        timestamp.append(ts)
        for surface, pos in tokens:
            token_surface.append(surfaces_set(surface, len(surfaces)))
            token_tag.append(tags_set(pos, len(tags)))
        token_ptr.append(len(token_surface))
        if repost_of is None:
            target_post.append(-1)
            target_author.append(-1)
        else:
            target, original_author = repost_of
            target_post.append(posts_set(target, len(posts)))
            target_author.append(authors_set(original_author, len(authors)))
    return Part(0, posts, authors, surfaces, tags, post, author, timestamp,
                target_post, target_author, token_ptr, token_surface, token_tag)


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
    if not -(1 << 63) <= timestamp < 1 << 63:  # the timestamp column is int64
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
    # the record's own fields nest 3 deep: only another key can nest deeper
    if len(obj) > 3 + ("tokens" in obj) + ("repost_of" in obj) and _depth(obj) > MAX_DEPTH:
        return None
    return post_id, author_id, timestamp, tokens, repost_of


def _depth(value: object) -> int:
    """How deep lists and objects nest in a decoded JSON value, level by level."""
    depth, level = 0, [value]
    while level := [x for x in level if type(x) is list or type(x) is dict]:
        depth += 1
        level = [item for x in level for item in (x.values() if type(x) is dict else x)]
    return depth


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

# The compact line ``serialize_records`` writes, in its key order, where every
# string is JSON text that decodes to itself (no quote, backslash or control
# character): an encodable line it matches is valid, and its groups are the
# row ``_fields`` would return. It repeats these rules of ``_fields``, which
# ``test_a_line_the_compact_pattern_accepts_is_valid_and_read_as_decoded``
# holds to them at each edge:
#   post_id and author_id are non-empty strings;
#   the timestamp is an int64 (here: at most 18 digits, with an optional -);
#   tokens is a list of [str, str] pairs, which may be empty only in a repost;
#   repost_of is absent or [target, author], the author non-empty.
# Each string run stops at the one byte that may follow it, so a failed match
# is linear in the line.
_STRING = r'[^"\\\x00-\x1f]'
_PAIR = rf'\["{_STRING}*","{_STRING}*"\]'
_compact = re.compile(
    rf'\{{"post_id":"({_STRING}+)","author_id":"({_STRING}+)",'
    rf'"timestamp":(-?(?:0|[1-9][0-9]{{0,17}})),'
    rf'"tokens":(\[\](?=,)|\[{_PAIR}(?:,{_PAIR})*\])'
    rf'(?:,"repost_of":\["({_STRING}*)","({_STRING}+)"\])?\}}').fullmatch
# every (surface, pos) pair of a matched tokens group
_pairs = re.compile(r'"([^"]*)","([^"]*)"').findall


def _decode_afresh(line: str) -> tuple:
    """``_decode`` on a new thread, whose stack starts empty, so that how deep
    the caller runs does not change what a line decodes to."""
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(1) as pool:
        return pool.submit(_decode, line).result()


def parse(stream) -> Part:
    """The part of an iterable of lines: its valid lines' rows, and its
    malformed lines counted."""
    malformed = 0

    def valid_rows():
        nonlocal malformed
        for line in stream:
            line = line.strip()
            if not line:
                continue
            if not line.isascii() and not _utf8_encodable(line):
                malformed += 1
                continue
            # the pattern never accepts a backslash: a line with an escape
            # skips its scan, which could run to the end of the line
            if "\\" not in line and (match := _compact(line)):
                post_id, author_id, ts, tokens, target, target_author = match.groups()
                yield (post_id, author_id, int(ts), _pairs(tokens),
                       None if target_author is None else (target, target_author))
                continue
            try:
                try:
                    obj, end = _decode(line)
                except RecursionError:  # too deep for the stack left here
                    obj, end = _decode_afresh(line)
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

    part = build(valid_rows())
    return part._replace(malformed=malformed)


class _Range(io.RawIOBase):
    """An unbuffered binary file's bytes from where it stands up to ``stop``."""

    def __init__(self, raw: io.FileIO, stop: int):
        super().__init__()
        self._raw = raw
        self._left = stop - raw.tell()

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self._raw.readinto(memoryview(buffer)[:self._left])
        self._left -= n
        return n

    def close(self) -> None:
        self._raw.close()
        super().close()


def lines(path: str, start: int = 0, stop: int | None = None) -> io.TextIOWrapper:
    """The file's text from byte ``start`` to ``stop`` (its end when None),
    read line by line: a BOM opening the file is dropped, and invalid UTF-8
    is read as lone surrogates (``errors="surrogateescape"``). A file read
    from byte 0 to its end is never sought, so a pipe reads too."""
    raw = open(path, "rb", buffering=0)
    try:
        if start:
            raw.seek(start)
        source = raw if stop is None else _Range(raw, stop)
        return io.TextIOWrapper(io.BufferedReader(source, 1 << 16), errors="surrogateescape",
                                encoding="utf-8-sig" if start == 0 else "utf-8")
    except BaseException:
        raw.close()
        raise


def parse_range(path: str, start: int = 0, stop: int | None = None) -> Part:
    """The part of bytes [start, stop) of a file, to its end when stop is
    None: the one way a file's bytes become a part."""
    with lines(path, start, stop) as stream:
        return parse(stream)


def main(argv: list[str]) -> None:
    """Parse bytes [START, STOP) of PATH and write the part to stdout."""
    part = parse_range(argv[1], int(argv[2]), int(argv[3]))
    # marshal writes the arrays as bytes
    marshal.dump((part[0], *map(list, part[1:5]), *part[5:]), sys.stdout.buffer)


if __name__ == "__main__":
    main(sys.argv)
