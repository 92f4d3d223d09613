"""A file parsed in parts, in this process and in child processes, against
the one-part parse and the naive oracle."""

import io
import json
import marshal
import os
import subprocess
import sys
import threading
from array import array
from stat import S_ISFIFO

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from controversy_scope import ingest, ingest_kernel
from controversy_scope.ingest import DuplicatePostId, EmptyInput, parse_records, parse_records_file
from controversy_scope.ingest import serialize_records
from controversy_scope.synth import CommunitySpec, CorpusSpec, synth_corpus

from conftest import naive_parse_records
from test_ingest import G1, G2, G3, GOOD_LINE, W, oracle_lines, parse_outcome, with_timestamp

FIELDS = ("post_count", "authors", "surfaces", "tags", "post", "author", "timestamp",
          "target_post", "target_author", "token_ptr", "token_surface", "token_tag")


def corpus_fields(corpus):
    """Every field of a corpus, arrays as (dtype, values)."""
    return [(value.dtype, value.tolist()) if isinstance(value, np.ndarray) else value
            for value in (getattr(corpus, name) for name in FIELDS)]


def result_of(parse):
    """The parse's corpus fields and malformed count, or the error it raised."""
    try:
        result = parse()
    except (DuplicatePostId, EmptyInput) as exc:
        return type(exc), str(exc)
    return corpus_fields(result.records), result.malformed


def in_ranges(path, starts):
    """The file parsed as one part per range, all in this process, and merged."""
    stops = [*starts[1:], os.path.getsize(path)]
    return ingest._result([ingest._range_part(path, a, b) for a, b in zip(starts, stops)])


def line_ends(data: bytes) -> list[int]:
    """Every offset just past a newline byte, short of the end."""
    return [i + 1 for i, byte in enumerate(data) if byte == 10 and i + 1 < len(data)]


# a line as bytes: oracle text (lone surrogates become invalid UTF-8), raw
# bytes that are invalid UTF-8 on either side, and a line break of any kind
file_lines = st.tuples(st.sampled_from([b"", b"\xff", b"\x80"]), oracle_lines,
                       st.sampled_from([b"", b"\xff", b"\xe2\x82"]),
                       st.sampled_from([b"\n", b"\r\n", b"\r"]))
BIG = 2**63


def line(text, head=b"", tail=b"", end=b"\n"):
    return head, text, tail, end


@given(lines=st.lists(file_lines, max_size=8), bom=st.booleans(),
       cuts=st.lists(st.integers(0, 63), min_size=2, max_size=4))
@example(lines=[line(G1), line(G2, tail=b"\xe2\x82"), line(G3, head=b"\x80")], bom=True,
         cuts=[0, 1])  # a leading BOM; invalid UTF-8 on both sides of a cut
@example(lines=[line(G1, end=b"\r\n"), line("\ufeff" + G2, end=b"\r"), line(G3)], bom=False,
         cuts=[0, 1])  # a BOM opening a later line, \r\n and a lone \r
@example(lines=[line(with_timestamp(str(BIG))), line(G2),
                line(G3.replace('"timestamp": 100', f'"timestamp": {-BIG - 1}'))],
         bom=False, cuts=[0, 1])  # timestamps past int64 in two parts
@example(lines=[line(G1), line(G2), line(G1), line(G3)], bom=False, cuts=[1, 2])
@example(lines=[line(G3), line(G1), line(G2), line(G1.replace('"p1"', '"p3"'))], bom=False,
         cuts=[0, 2])  # repeated ids in different parts: the first in file order is named
@example(lines=[line(G3), line(G1), line(G2), line(G1)], bom=False,
         cuts=[0, 0])  # an id repeated within a later part, and across two later parts
@example(lines=[line(G3), line(G3), line(G1), line(G1)], bom=False,
         cuts=[1, 1])  # a repeat in part 0 and another in part 1: part 0's is named
@example(lines=[line(G1), line(json.dumps({"post_id": "r1", "author_id": "u9", "timestamp": 1,
                                           "tokens": [], "repost_of": ["t0", "u8"]})),
                line(json.dumps({"post_id": "r2", "author_id": "u7", "timestamp": 2,
                                 "tokens": [], "repost_of": ["t0", "u8"]})),
                line(json.dumps({"post_id": "t0", "author_id": "u8", "timestamp": 3,
                                 "tokens": [["x", "NOUN"]]}))],
         bom=False, cuts=[0, 1, 2])  # a target-only id first seen in a later part, then posting
def test_a_file_in_parts_matches_one_part_and_the_oracle(tmp_path_factory, lines, bom, cuts):
    path = tmp_path_factory.getbasetemp() / "parts.jsonl"
    data = (b"\xef\xbb\xbf" if bom else b"") + b"".join(
        head + text.encode("utf-8", "surrogatepass") + tail + end
        for head, text, tail, end in lines)
    path.write_bytes(data)
    ends = line_ends(data)
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        text_lines = list(fh)
    one = parse_outcome(lambda _: parse_records_file(str(path)), None)
    assert one == parse_outcome(naive_parse_records, text_lines)
    assert one == parse_outcome(lambda _: in_ranges(str(path), [0, *ends]), None)
    some = sorted({ends[c % len(ends)] for c in cuts}) if ends else []
    assert one == parse_outcome(lambda _: in_ranges(str(path), [0, *some]), None)
    assert result_of(lambda: parse_records_file(str(path))) == result_of(
        lambda: in_ranges(str(path), [0, *ends]))


# --- the split in children --------------------------------------------------


@pytest.fixture
def children(monkeypatch):
    """Split every file in three (or fewer parts) and record each child started."""
    started = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(ingest, "MIN_PART_BYTES", 1)
    monkeypatch.setattr(ingest, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(subprocess, "Popen", Recorded)
    return started


def small_file(tmp_path, records=None):
    if records is None:
        communities = (CommunitySpec(40, ("vaxx",), 0.5), CommunitySpec(40, ("vaxx",), -0.5))
        records = synth_corpus(CorpusSpec(communities, 0.05, W, seed=2))
    path = tmp_path / "corpus.jsonl"
    path.write_text(serialize_records(records), encoding="utf-8")
    return str(path)


def one_part(path):
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        return result_of(lambda: parse_records(fh))


def all_ended(started):
    return all(child.returncode is not None for child in started)


def test_children_parse_the_later_parts_to_the_one_part_corpus(tmp_path, children):
    path = small_file(tmp_path)
    assert result_of(lambda: parse_records_file(path)) == one_part(path)
    assert len(children) == 2 and all_ended(children)
    assert [child.returncode for child in children] == [0, 0]


@pytest.mark.parametrize("lines, error", [
    ([G1, G2, "x", G3, G1, G2], (DuplicatePostId, "p1")),
    (["x", "{}", "[]", "1", "y", "z"], (EmptyInput, "no valid records (6 malformed lines)")),
])
def test_a_split_parse_raises_the_one_part_error(tmp_path, children, lines, error):
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert result_of(lambda: parse_records_file(str(path))) == one_part(str(path)) == error
    assert len(children) == 2 and all_ended(children)


def test_a_file_that_is_not_regular_is_one_part(tmp_path, children, monkeypatch):
    if not hasattr(os, "mkfifo"):
        pytest.skip("no FIFOs on this platform")
    fifo = tmp_path / "corpus.fifo"
    os.mkfifo(fifo)
    real_stat = os.stat

    def stat(path, *args, **kwargs):
        # a FIFO reports no size: claim a large one, so only its type keeps it whole
        info = real_stat(path, *args, **kwargs)
        if not S_ISFIFO(info.st_mode):
            return info
        return os.stat_result([*info[:6], 10**9, *info[7:10]])

    monkeypatch.setattr(os, "stat", stat)
    data = "\n".join([G1, G2, G3]) + "\n"
    writer = threading.Thread(target=lambda: fifo.write_text(data, encoding="utf-8"),
                              daemon=True)
    writer.start()
    try:
        got = result_of(lambda: parse_records_file(str(fifo)))
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert got == result_of(lambda: parse_records([G1, G2, G3]))
    assert children == []


class Probe(io.BytesIO):
    """A binary file that records the size of every read."""

    def __init__(self, data):
        super().__init__(data)
        self.reads = []

    def read(self, size=-1):
        self.reads.append(size)
        return super().read(size)

    def readline(self, size=-1):
        raise AssertionError("the probe read a whole line")


def test_a_file_whose_tail_has_no_line_break_is_one_part(tmp_path, children):
    tail = json.dumps(dict(GOOD_LINE, post_id="p2", tokens=[["x" * 100, "NOUN"]] * 2000))
    data = (G1 + "\n" + tail).encode()
    assert len(tail) > 3 * ingest._PROBE_BYTES
    probe = Probe(data)
    assert ingest._line_starts(probe, len(data), 2) == [0]
    assert probe.reads and all(0 < size <= ingest._PROBE_BYTES for size in probe.reads)
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(data)
    assert result_of(lambda: parse_records_file(str(path))) == one_part(str(path))
    assert children == []


def test_cuts_fall_just_past_a_line_break():
    data = b"aaaa\nbbbb\ncccc\ndddd\n"
    assert ingest._line_starts(io.BytesIO(data), len(data), 2) == [0, 10]
    assert ingest._line_starts(io.BytesIO(data), len(data), 4) == [0, 5, 10, 15]
    assert ingest._line_starts(io.BytesIO(data), len(data), 8) == [0, 5, 10, 15]
    assert ingest._line_starts(io.BytesIO(b"a\n" + b"b" * 40), 42, 2) == [0]


def failing_kernel(tmp_path, body):
    script = tmp_path / "kernel.py"
    script.write_text(body, encoding="utf-8")
    return str(script)


# the kernel's part, written with the 15 fields it had when it still carried
# a part's repeated post id and its carried flags
OLD_WIRE = """import marshal, sys
sys.path.insert(0, {kernel_dir!r})
import ingest_kernel as kernel
with kernel.lines(sys.argv[1], int(sys.argv[2]), int(sys.argv[3])) as stream:
    part = kernel.parse(stream)
marshal.dump((part[0], None, b"", *map(list, part[1:5]), *part[5:]), sys.stdout.buffer)
"""


@pytest.mark.parametrize("break_child", ["exits 3", "writes junk", "writes nothing",
                                         "writes 15 fields", "no interpreter"])
def test_a_failed_child_has_its_range_parsed_here(tmp_path, children, monkeypatch,
                                                 break_child):
    path = small_file(tmp_path)
    want = one_part(path)
    if break_child == "no interpreter":
        monkeypatch.setattr(sys, "executable", str(tmp_path / "no-python"))
    else:
        body = {"exits 3": "raise SystemExit(3)",
                "writes junk": "import sys; sys.stdout.write('junk')",
                "writes nothing": "pass",
                "writes 15 fields": OLD_WIRE.format(
                    kernel_dir=os.path.dirname(ingest_kernel.__file__))}[break_child]
        monkeypatch.setattr(ingest_kernel, "__file__", failing_kernel(tmp_path, body))
    assert result_of(lambda: parse_records_file(path)) == want
    assert all_ended(children)
    assert len(children) == (0 if break_child == "no interpreter" else 2)


def test_no_child_outlives_a_failure_in_this_process(tmp_path, children, monkeypatch):
    path = small_file(tmp_path)

    class Stop(Exception):
        pass

    def fail(path, start, stop):
        raise Stop

    monkeypatch.setattr(ingest, "_range_part", fail)
    with pytest.raises(Stop):
        parse_records_file(path)
    assert len(children) == 2 and all_ended(children)


def test_the_kernel_keeps_every_row_and_numbers_a_repeated_post_id_once():
    rows = [("p1", "u1", 1, [["a", "NOUN"]], None), ("p2", "u2", 2, [], ("p1", "u1")),
            ("p1", "u3", 3, [["b", "NOUN"]], None), ("p3", "u1", 4, [], ("p2", "u2"))]
    part = ingest_kernel.build(rows)
    assert list(part.posts) == ["p1", "p2", "p3"]
    assert list(part.post) == [0, 1, 0, 2]
    assert list(part.target_post) == [-1, 0, -1, 1]
    assert list(part.author) == [0, 1, 2, 0]
    with pytest.raises(DuplicatePostId, match="^p1$"):
        ingest._merge([part])


def wire(part):
    """A part as a child writes it: tables as lists, columns as bytes."""
    return [list(x) if isinstance(x, dict) else
            bytes(x) if isinstance(x, (array, bytearray)) else x for x in part]


def test_the_kernel_runs_bare_and_writes_the_part_parsed_here(tmp_path):
    path = small_file(tmp_path)
    size = os.path.getsize(path)
    with open(path, "rb") as fh:
        start = ingest._line_starts(fh, size, 2)[1]
    done = subprocess.run([sys.executable, "-I", "-S", "-X", "importtime", ingest_kernel.__file__,
                           path, str(start), str(size)], capture_output=True, timeout=60)
    assert done.returncode == 0
    imported = {row.split("|")[-1].strip() for row in done.stderr.decode().splitlines()
                if row.startswith("import time:")}
    assert "json" in imported and "array" in imported
    assert not {name for name in imported
                if name.split(".")[0] in ("numpy", "controversy_scope")}
    here = ingest._range_part(path, start, size)
    assert wire(marshal.loads(done.stdout)) == wire(here)
    assert len(here.post) > 0
