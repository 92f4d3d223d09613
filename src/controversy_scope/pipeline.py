"""End-to-end orchestration: subtopics per window, per-cell scoring, reports.

For every time window the pipeline cuts the corpus to the window once,
shortlists subtopics there (or takes a pre-specified query list), reads each
subtopic's rows from the window's corpus, prepares the endorsement graph,
and scores sized graphs with the bisection + random-walk stack; sentiment
aggregates ride along when a lexicon is configured. Each
(subtopic, window) cell yields exactly one report row; failures and
under-threshold graphs are data in the row, never batch aborts. Cells are
scored one after another.

Each external format is written down once. CONFIG_KEYS is the one table
of config keys: config_from_dict checks a config file's JSON against it, and
the CLI builds its flags from it and hands their values to config_from_dict
as flat keys, written over the file's. checked is the one check of a JSON
object's keys and kinds, for the config file and every synth spec alike.
_row is the one report row: the json format writes it as is, the csv format
flattens it.

Each rule is written down once too. PipelineConfig.__post_init__ checks
every value, from a config file, the CLI or a library caller alike: choices,
ranges, and the windows and queries lists. _load_file is the one loader of
an input file: run_pipeline loads the lexicon and stopword files through it,
and creates the dump directory and checks the report's directory, before the
corpus, so a bad side file or output path fails before the parse.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import math
import os
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Callable, Collection, Iterable, Sequence, TypeVar
from urllib.parse import quote
from zoneinfo import ZoneInfoNotFoundError

from . import sentiment as senti
from .graph import UnderSized, dump_edgelist, prepare_conversation_graph
from .ingest import (
    Corpus,
    IngestError,
    InteractionRecord,
    TimeWindow,
    filter_window,
    parse_records_file,
    parse_window,
)
from .partition import bisect
from .rwc import RwcConfig, RwcResult, Settle, rwc_monte_carlo, rwc_score
from .stats import Thresholds
from .subtopics import (
    DEFAULT_NOUN_TAGS,
    extract_candidate_tokens,
    load_stopword_file,
    top_n_subtopics,
)

MC_CHECK_TOLERANCE = 0.02

_log = logging.getLogger("controversy_scope")

T = TypeVar("T")


class ConfigError(Exception):
    pass


class UnsupportedFormat(Exception):
    pass


@dataclass(frozen=True)
class PipelineConfig:
    windows: tuple[TimeWindow, ...]
    input_path: str | None = None
    queries: tuple[str, ...] | None = None
    top_n: int = 50
    stopword_paths: tuple[str, ...] = ()
    noun_tags: frozenset[str] = field(default=DEFAULT_NOUN_TAGS)
    count_mode: str = "occurrences"
    min_rt: int = 2
    k_core_k: int = 2
    min_nodes: int = 800
    balance_eps: float = 0.05
    rwc: RwcConfig = field(default_factory=RwcConfig)
    lexicon_path: str | None = None
    score_thresh: float = 0.3
    size_thresh: int = 10_000
    senti_thresh: float = -0.5
    seed: int = 0
    tz: str = "UTC"
    phase1_scope: str = "window"
    mc_check: bool = False
    mc_walks: int = 100_000
    dump_graphs_dir: str | None = None
    output_path: str | None = None
    output_format: str = "csv"

    def __post_init__(self) -> None:
        if not self.windows:
            raise ConfigError("at least one window is required")
        for key in ("top_n", "min_rt", "k_core", "min_nodes", "mc_walks"):
            value = getattr(self, _KEYS[key].field)
            if value < 1:
                raise ConfigError(f"{key} must be >= 1, got {value}")
        if not 0.0 <= self.balance_eps <= 0.1:
            raise ConfigError(f"balance_eps must be within [0, 0.1], got {self.balance_eps}")
        for key in ("score_thresh", "senti_thresh"):
            if not math.isfinite(getattr(self, key)):
                raise ConfigError(f"{key} must be finite, got {getattr(self, key)}")
        for spec in CONFIG_KEYS:
            if isinstance(spec.kind, tuple) and getattr(self, spec.field) not in spec.kind:
                raise ConfigError(f"{spec.key} must be one of {list(spec.kind)}, "
                                  f"got {getattr(self, spec.field)!r}")
        if self.queries is not None and not self.queries:
            raise ConfigError("queries must name at least one token")
        if not self.noun_tags:
            raise ConfigError("noun_tags must name at least one tag")
        for key, tokens in (("queries", self.queries or ()), ("noun_tags", sorted(self.noun_tags))):
            for token in tokens:
                if not token.strip():
                    raise ConfigError(f"{key} must not be blank: {token!r}")
        for key, names in (("windows", [w.label for w in self.windows]),
                           ("queries", list(self.queries or ()))):
            if len(set(names)) < len(names):
                # each (query, window) label pair is one cell: one row, one edge dump
                raise ConfigError(f"{key} must not repeat: {names}")


@dataclass(frozen=True)
class ControversyReport:
    """One (subtopic, window) cell of the output table."""

    subtopic: str
    window: str
    record_count: int
    node_count: int
    undersized: bool
    rwc: RwcResult | None
    sentiment_mean: float | None = None
    sentiment_std: float | None = None
    sentiment_matched: int | None = None
    error: str | None = None


@dataclass(frozen=True)
class ConfigKey:
    """A config file key, the field it sets, its kind and its help.

    ``kind`` is a kind as is_kind reads it, or a tuple of the str values allowed.
    ``rwc.<name>`` is ``<name>`` in the file's ``rwc`` object and sets that
    RwcConfig field. A key whose field defaults to None also takes null.
    """

    key: str
    field: str
    kind: type | list[type] | tuple[str, ...]
    help: str


CONFIG_KEYS: tuple[ConfigKey, ...] = (
    ConfigKey("input", "input_path", str, "corpus JSONL path"),
    ConfigKey("tz", "tz", str, "IANA timezone for month windows (default UTC)"),
    ConfigKey("windows", "windows", [str], "YYYY-MM or start..end; repeatable"),
    ConfigKey("queries", "queries", [str], "comma-separated query tokens"),
    ConfigKey("top_n", "top_n", int, "subtopic shortlist size"),
    ConfigKey("stopwords", "stopword_paths", [str], "stopword file; repeatable, files are merged"),
    ConfigKey("noun_tags", "noun_tags", [str], "comma-separated POS tags accepted as nouns"),
    ConfigKey("count_mode", "count_mode", ("occurrences", "documents"),
              "count a token per occurrence or once per record"),
    ConfigKey("phase1_scope", "phase1_scope", ("window", "global"),
              "count shortlist frequencies per window or corpus-wide"),
    ConfigKey("min_rt", "min_rt", int, "repost weight threshold per edge"),
    ConfigKey("k_core", "k_core_k", int, "k for the k-core pass"),
    ConfigKey("min_nodes", "min_nodes", int, "minimum graph size to score"),
    ConfigKey("balance_eps", "balance_eps", float, "bisection balance tolerance"),
    ConfigKey("rwc.k_top", "k_top", int, "absorbing nodes per side"),
    ConfigKey("rwc.restart_prob", "restart_prob", float, "walk restart probability"),
    ConfigKey("rwc.solver_tol", "solver_tol", float, "error bound on each solved probability"),
    ConfigKey("rwc.max_iter", "max_iter", int, "cap on the solver's matrix products"),
    ConfigKey("rwc.weighted_walk", "weighted_walk", bool, "step in proportion to edge weight"),
    ConfigKey("mc_walks", "mc_walks", int, "most walks per side for --mc-check"),
    ConfigKey("mc_check", "mc_check", bool, "cross-check the solver against the simulator"),
    ConfigKey("lexicon", "lexicon_path", str, "polarity lexicon TSV path"),
    ConfigKey("score_thresh", "score_thresh", float, "high-controversy cut"),
    ConfigKey("size_thresh", "size_thresh", int, "large-subtopic node cut"),
    ConfigKey("senti_thresh", "senti_thresh", float, "low-sentiment cut"),
    ConfigKey("seed", "seed", int, "base seed for all cells"),
    ConfigKey("dump_graphs", "dump_graphs_dir", str, "write each scored cell's edge list here"),
    ConfigKey("format", "output_format", ("csv", "json", "markdown"), "report format"),
    ConfigKey("output", "output_path", str, "write the report here (atomic); default stdout"),
)

_KEYS = {spec.key: spec for spec in CONFIG_KEYS}
# a choice is checked as a str here and against its choices by PipelineConfig
_KINDS = {spec.key: str if isinstance(spec.kind, tuple) else spec.kind for spec in CONFIG_KEYS}
_NULLABLE = {spec.key for spec in CONFIG_KEYS
             if any(f.name == spec.field and f.default is None for f in fields(PipelineConfig))}


def is_kind(value: object, kind: type | list[type]) -> bool:
    """Whether a JSON value is of a kind: a scalar type, [type] for a list of
    any length, or [type, type] for a list of exactly two. Bools are not
    ints, and ints pass as floats."""
    if isinstance(kind, list):
        return (isinstance(value, list) and len(kind) in (1, len(value))
                and all(is_kind(v, kind[0]) for v in value))
    if kind is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is int:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, kind)


def _kind_name(kind: type | list[type]) -> str:
    if isinstance(kind, list):
        return "[" + ", ".join(k.__name__ for k in kind) + (", ...]" if len(kind) == 1 else "]")
    return kind.__name__


def checked(raw: dict, kinds: dict, required: Collection[str],
            nullable: Collection[str], what: str) -> dict:
    """raw with every key known, every required key present and every value
    of its key's kind or an allowed null; lists become tuples. ConfigError
    naming the key otherwise."""
    unknown = set(raw) - set(kinds)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    missing = [key for key in required if key not in raw]
    if missing:
        raise ConfigError(f"{what} requires {missing}")
    for key, value in raw.items():
        if not (is_kind(value, kinds[key]) or value is None and key in nullable):
            null = " or null" if key in nullable else ""
            raise ConfigError(f"{what} {key} must be {_kind_name(kinds[key])}{null}, "
                              f"got {value!r}")
    return {key: tuple(value) if isinstance(value, list) else value
            for key, value in raw.items()}


def config_from_dict(raw: dict, overrides: dict | None = None) -> PipelineConfig:
    """Build a PipelineConfig from the JSON config-file shape; ConfigError on any bad key.

    overrides maps CONFIG_KEYS keys, ``rwc.<name>`` spelt flat, to values
    written over the file's.
    """
    walk = raw.get("rwc", {})
    if not isinstance(walk, dict):
        raise ConfigError("rwc must be a JSON object")
    dotted = sorted(k for k in raw if "." in k)  # rwc.<name> is spelt only as nested
    if dotted:
        raise ConfigError(f"unknown config keys: {dotted}")
    flat = {k: v for k, v in raw.items() if k != "rwc"}
    flat.update({f"rwc.{k}": v for k, v in walk.items()})
    flat.update(overrides or {})
    kwargs: dict[str, object] = {}
    rwc_kwargs: dict[str, object] = {}
    for key, value in checked(flat, _KINDS, ("windows",), _NULLABLE, "config").items():
        (rwc_kwargs if key.startswith("rwc.") else kwargs)[_KEYS[key].field] = value
    try:
        tz = kwargs.get("tz", "UTC")
        kwargs["windows"] = tuple(parse_window(w, tz) for w in kwargs["windows"])
        kwargs["rwc"] = RwcConfig(**rwc_kwargs)
    except (ValueError, ZoneInfoNotFoundError) as exc:
        raise ConfigError(str(exc)) from exc
    if "noun_tags" in kwargs:
        kwargs["noun_tags"] = frozenset(kwargs["noun_tags"])
    return PipelineConfig(**kwargs)


def read_config(path: str) -> dict:
    """The JSON object of a config file, before any key is interpreted."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            raw = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return raw


def load_config(path: str) -> PipelineConfig:
    return config_from_dict(read_config(path))


def _load_file(load: Callable[[str], T], path: str) -> T:
    """load(path); a file that cannot be read or holds bad data is a ConfigError naming it."""
    try:
        return load(path)
    except (OSError, ValueError, IngestError) as exc:
        raise ConfigError(f"cannot load {path}: {type(exc).__name__}: {exc}") from exc


def cell_seed(seed: int, window_label: str, token: str) -> int:
    """Stable per-cell seed so identical cells score identically across modes."""
    digest = hashlib.sha256(f"{seed}|{window_label}|{token}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _score_cell(
    cell: Corpus,
    window: TimeWindow,
    token: str,
    cfg: PipelineConfig,
    lexicon: senti.PolarityLexicon | None,
) -> ControversyReport:
    mean = std = None
    matched = None
    if lexicon is not None and len(cell):
        try:
            mean, std, matched = senti.aggregate_sentiment(cell, lexicon)
        except senti.AllUnmatched:
            pass
    try:
        prepared = prepare_conversation_graph(
            cell, min_rt=cfg.min_rt, k=cfg.k_core_k, min_nodes=cfg.min_nodes
        )
        if isinstance(prepared, UnderSized):
            return ControversyReport(
                token, window.label, len(cell), prepared.node_count,
                True, None, mean, std, matched,
            )
        if cfg.dump_graphs_dir is not None:
            name = f"{quote(token, safe='')}_{quote(window.label, safe='')}.edges"
            write_output(os.path.join(cfg.dump_graphs_dir, name),
                         dump_edgelist(prepared))
        seed = cell_seed(cfg.seed, window.label, token)
        part = bisect(prepared, eps=cfg.balance_eps, seed=seed)
        result = rwc_score(prepared, part, cfg.rwc)
        error = None
        if cfg.mc_check:
            target = Settle(result.score, MC_CHECK_TOLERANCE)
            estimate = rwc_monte_carlo(
                prepared, part, cfg.rwc, n_walks=cfg.mc_walks, seed=seed, settle=target
            )
            # a "pass" verdict implies gap <= tolerance and a "fail" gap >
            # tolerance, so the point rule below agrees with an early stop
            gap = abs(estimate.score - result.score)
            _log.info("mc-check %s %s: %d walks per side, gap %.4f, %s", token, window.label,
                      target.walks, gap,
                      f"settled ({target.verdict}) before the cap" if target.verdict
                      else "ran to the cap")
            if gap > MC_CHECK_TOLERANCE:
                error = (
                    f"mc-check failed: |exact - monte-carlo| = {gap:.4f} "
                    f"> {MC_CHECK_TOLERANCE}"
                )
        return ControversyReport(
            token, window.label, len(cell), prepared.node_count,
            False, result, mean, std, matched, error,
        )
    except Exception as exc:  # per-cell failures are report rows, not aborts
        return ControversyReport(
            token, window.label, len(cell), 0, False, None,
            mean, std, matched, f"{type(exc).__name__}: {exc}",
        )


def _stopwords(cfg: PipelineConfig) -> frozenset[str]:
    """Every stopword file's surfaces, merged into one set."""
    return frozenset().union(*(_load_file(load_stopword_file, path)
                               for path in cfg.stopword_paths))


def _check_output_paths(cfg: PipelineConfig) -> None:
    """Create the dump directory and check that the report's directory exists;
    a ConfigError naming the path otherwise."""
    if cfg.dump_graphs_dir is not None:
        try:
            os.makedirs(cfg.dump_graphs_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot write {cfg.dump_graphs_dir}: "
                              f"{type(exc).__name__}: {exc}") from exc
    if cfg.output_path is not None:
        directory = os.path.dirname(os.path.abspath(cfg.output_path))
        if not os.path.isdir(directory):
            raise ConfigError(f"cannot write {cfg.output_path}: no directory {directory}")


def run_pipeline(
    cfg: PipelineConfig,
    records: Corpus | Sequence[InteractionRecord] | None = None,
) -> list[ControversyReport]:
    """Score every (subtopic, window) cell; rows come back in window-major order.

    Without ``records`` the corpus is parsed from ``cfg.input_path``, and the
    counts of records read and malformed lines skipped are logged at INFO on
    the ``controversy_scope`` logger. A sequence of records is built into a
    corpus by ``Corpus.from_records``, which raises DuplicatePostId on a
    repeated post id, as the parse does.
    """
    lexicon = _load_file(senti.load_lexicon, cfg.lexicon_path) if cfg.lexicon_path else None
    stopwords = _stopwords(cfg)
    _check_output_paths(cfg)
    if records is None:
        if cfg.input_path is None:
            raise ConfigError("config has no input path and no records were supplied")
        parsed = _load_file(parse_records_file, cfg.input_path)
        _log.info("read %d records, skipped %d malformed lines from %s",
                  len(parsed.records), parsed.malformed, cfg.input_path)
        corpus = parsed.records
    else:
        corpus = records if isinstance(records, Corpus) else Corpus.from_records(records)

    tokens: Sequence[str] | None = cfg.queries
    if tokens is None and cfg.phase1_scope == "global":
        freq = extract_candidate_tokens(corpus, stopwords, cfg.noun_tags, cfg.count_mode)
        tokens = top_n_subtopics(freq, cfg.top_n)

    reports: list[ControversyReport] = []
    for window in cfg.windows:
        reports.extend(_score_window(corpus, window, tokens, cfg, stopwords, lexicon))
    return reports


def _score_window(
    corpus: Corpus,
    window: TimeWindow,
    tokens: Sequence[str] | None,
    cfg: PipelineConfig,
    stopwords: frozenset[str],
    lexicon: senti.PolarityLexicon | None,
) -> list[ControversyReport]:
    """One window's rows, every cell read from the corpus cut to the window.

    ``tokens`` None shortlists the window's own subtopics. The window's
    corpus, with the link CSRs its cells share, is dropped once the cells
    are read, before any is scored, so it never sits beside the graphs and
    solver arrays.
    """
    # a new object over the same arrays, even when no row lies outside the
    # window, so the link CSRs cached on it are not kept by the corpus
    in_window = replace(corpus.within(window))
    if tokens is None:
        freq = extract_candidate_tokens(in_window, stopwords, cfg.noun_tags, cfg.count_mode)
        tokens = top_n_subtopics(freq, cfg.top_n)
    cells = [filter_window(in_window, window, token) for token in tokens]
    del in_window

    return [_score_cell(cell, window, token, cfg, lexicon)
            for token, cell in zip(tokens, cells)]


# --- report emission ---------------------------------------------------------

_FLAGS = ("high_controversy", "large", "low_sentiment")
_RWC_COLUMNS = ("rwc_score", "p_xx", "p_xy", "p_yy", "p_yx")


def _row(r: ControversyReport, th: Thresholds) -> dict:
    """One report row: the report's fields, then the group flags before ``error``."""
    row = asdict(r)
    row.update(zip(_FLAGS, th.flags(r)), error=row.pop("error"))
    return row


def _flat(row: dict) -> dict:
    """A row as CSV cells: the rwc object spread over _RWC_COLUMNS."""
    rwc = row["rwc"] or {}
    cells: dict = {}
    for key, value in row.items():
        if key == "rwc":
            cells.update((c, rwc.get(c.removeprefix("rwc_"))) for c in _RWC_COLUMNS)
        else:
            cells[key] = value
    return cells


_CSV_COLUMNS = list(_flat(_row(ControversyReport("", "", 0, 0, False, None), Thresholds())))


def _opt(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


def _csv_line(cells: Iterable[str]) -> str:
    """One CSV row, ended by a line feed.

    The writer quotes a field for the characters of its line terminator but
    not for a lone carriage return, so it writes CR LF, which quotes both,
    and the CR is dropped after it.
    """
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(cells)
    return buf.getvalue()[:-2] + "\n"


def _emit_csv(reports: Sequence[ControversyReport], th: Thresholds) -> str:
    rows = (map(_opt, _flat(_row(r, th)).values()) for r in reports)
    return "".join(map(_csv_line, [_CSV_COLUMNS, *rows]))


def parse_report_csv(text: str) -> list[ControversyReport]:
    """Inverse of the CSV emitter, for round-trips and downstream tooling. A bad
    header or row is UnsupportedFormat naming the row (the header is row 1)."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != _CSV_COLUMNS:
        raise UnsupportedFormat(f"unexpected CSV header: {header}")
    out: list[ControversyReport] = []
    for number, row in enumerate(reader, start=2):
        if len(row) != len(_CSV_COLUMNS):
            raise UnsupportedFormat(f"row {number} has {len(row)} cells, "
                                    f"expected {len(_CSV_COLUMNS)}")
        cells = dict(zip(_CSV_COLUMNS, row))
        rwc = None
        try:
            if cells["undersized"] not in ("0", "1"):
                raise ValueError(f"undersized is {cells['undersized']!r}, not 0 or 1")
            if cells["rwc_score"]:
                rwc = RwcResult(**{c.removeprefix("rwc_"): float(cells[c]) for c in _RWC_COLUMNS})
            out.append(ControversyReport(
                cells["subtopic"],
                cells["window"],
                int(cells["record_count"]),
                int(cells["node_count"]),
                cells["undersized"] == "1",
                rwc,
                float(cells["sentiment_mean"]) if cells["sentiment_mean"] else None,
                float(cells["sentiment_std"]) if cells["sentiment_std"] else None,
                int(cells["sentiment_matched"]) if cells["sentiment_matched"] else None,
                cells["error"] or None,
            ))
        except ValueError as exc:
            raise UnsupportedFormat(f"row {number}: {exc}") from exc
    return out


def _emit_json(reports: Sequence[ControversyReport], th: Thresholds) -> str:
    return json.dumps([_row(r, th) for r in reports], indent=2, ensure_ascii=False) + "\n"


def _md_escape(label: str) -> str:
    """A label as one table cell: an unescaped ``|`` would end the cell, and a
    line break would end the row, so each line break becomes one space."""
    for line_break in ("\r\n", "\r", "\n"):
        label = label.replace(line_break, " ")
    return label.replace("|", "\\|")


def _emit_markdown(reports: Sequence[ControversyReport], th: Thresholds) -> str:
    """Subtopics-by-windows table: bold above the score cut, dash when unscored."""
    windows: list[str] = []
    subtopics: list[str] = []
    by_cell: dict[tuple[str, str], ControversyReport] = {}
    for r in reports:
        if r.window not in windows:
            windows.append(r.window)
        if r.subtopic not in subtopics:
            subtopics.append(r.subtopic)
        by_cell[(r.subtopic, r.window)] = r
    lines = ["| " + " | ".join(["Subtopic", *map(_md_escape, windows)]) + " |",
             "| --- |" + " --- |" * len(windows)]
    for subtopic in subtopics:
        cells = []
        for window in windows:
            r = by_cell.get((subtopic, window))
            if r is None or r.rwc is None:
                cells.append("-")
            elif th.flags(r)[0]:
                cells.append(f"**{r.rwc.score:.3f}**")
            else:
                cells.append(f"{r.rwc.score:.3f}")
        lines.append("| " + _md_escape(subtopic) + " | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def emit_report(
    reports: Sequence[ControversyReport],
    fmt: str = "csv",
    score_thresh: float = 0.3,
    size_thresh: int = 10_000,
    senti_thresh: float = -0.5,
) -> str:
    """Deterministic serialization: csv, json, or a markdown score table.

    csv and json carry the threshold group flags per row; markdown renders
    the subtopics-by-windows score table with bold above the score cut.
    """
    th = Thresholds(score_thresh, size_thresh, senti_thresh)
    if fmt == "csv":
        return _emit_csv(reports, th)
    if fmt == "json":
        return _emit_json(reports, th)
    if fmt == "markdown":
        return _emit_markdown(reports, th)
    raise UnsupportedFormat(f"unsupported format: {fmt!r}")


def write_output(path: str, content: str) -> None:
    """Atomic write: fsynced temp file in the target directory, then rename over.

    Each call creates its own randomly named temp file with O_EXCL, so
    concurrent writers to one path never share or clobber a temp file and
    the last rename wins with a whole file. The file is created with mode
    0o666 less the umask, as a plain open() would; the temp file is removed
    if anything fails.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".{os.path.basename(path)}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            fh.write(content)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def has_mc_failures(reports: Sequence[ControversyReport]) -> bool:
    return any(r.error and r.error.startswith("mc-check failed") for r in reports)

