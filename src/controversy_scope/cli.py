"""Command-line entry points.

    controversy-scope run  --config cfg.json [overrides]
    controversy-scope rq1  --input corpus.jsonl --window 2020-02 --queries vaccine,olympic
    controversy-scope synth --spec spec.json --out corpus.jsonl

`run` executes the full two-phase batch; `rq1` scores a pre-specified query
list (no subtopic detection); `synth` writes a synthetic corpus (JSONL) or
a planted two-block graph (edge list + sides) from a JSON spec. Exit code
is 0 when the batch completes, even if cells are dashes; 1 is reserved for
enabled monte-carlo cross-check failures; 2 is a configuration error, a
bad input, stopword or lexicon file, or a dump, report or synth output path
that cannot be written (pipeline.write_output writes each) or names a file
the command reads, reported as one `error: ...` line.

Each key of pipeline.CONFIG_KEYS is a flag of `run` and `rq1`, written over
the config file: `--<key>` with "_" and "." written as "-", except
`--window`, `--k-top` and `--restart`. `queries` is rq1's `--queries`.

Every command takes `--log-level` (default WARNING), which attaches one
stderr handler to the `controversy_scope` logger for the command's run: at
INFO it shows the records read and malformed lines skipped, and each checked
cell's Monte Carlo walks. Log lines never enter a report.
"""

from __future__ import annotations

import argparse
import logging
import sys
from zoneinfo import ZoneInfoNotFoundError

from .graph import dump_edgelist
from .ingest import parse_window, serialize_records
from .pipeline import (
    CONFIG_KEYS,
    ConfigError,
    ConfigKey,
    PipelineConfig,
    check_not_read,
    checked,
    config_from_dict,
    emit_report,
    has_mc_failures,
    read_config,
    run_pipeline,
    write_output,
)
from .synth import CommunitySpec, CorpusSpec, PlantedSpec, planted_partition, synth_corpus

# three flags keep shorter names than --<key>
_FLAG_NAMES = {"windows": "--window", "rwc.k_top": "--k-top", "rwc.restart_prob": "--restart"}
# list keys given as one comma-separated value; the other list flags repeat
_COMMA_LISTS = ("noun_tags", "queries")
# queries is rq1's required argument, not a run flag
_QUERIES = next(spec for spec in CONFIG_KEYS if spec.key == "queries")
_PIPELINE_FLAGS = tuple(spec for spec in CONFIG_KEYS if spec is not _QUERIES)


def _comma_list(text: str) -> list[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _add_flag(parser: argparse.ArgumentParser, spec: ConfigKey, **extra: object) -> None:
    """The flag for one config key: --<key> with "_" and "." written as "-"."""
    flag = _FLAG_NAMES.get(spec.key, "--" + spec.key.replace("_", "-").replace(".", "-"))
    kwargs: dict[str, object] = {"dest": spec.key, "help": spec.help}
    if spec.kind is bool:
        kwargs.update(action="store_true", default=None)
    elif isinstance(spec.kind, tuple):
        kwargs["choices"] = spec.kind
    else:
        kwargs["metavar"] = flag[2:].upper().replace("-", "_")
        if spec.key in _COMMA_LISTS:
            kwargs["type"] = _comma_list
        elif isinstance(spec.kind, list):
            kwargs["action"] = "append"
        elif spec.kind is not str:
            kwargs["type"] = spec.kind
    parser.add_argument(flag, **kwargs, **extra)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="controversy-scope",
        description="Discover subtopics and score their polarization in repost networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="full batch: subtopic detection + scoring")
    run_p.set_defaults(handler=_handle_run)
    rq1_p = sub.add_parser("rq1", help="score a pre-specified query list")
    rq1_p.set_defaults(handler=_handle_run)
    _add_flag(rq1_p, _QUERIES, required=True)
    for pipeline_p in (run_p, rq1_p):
        pipeline_p.add_argument("--config", help="pipeline config JSON")
        for spec in _PIPELINE_FLAGS:
            _add_flag(pipeline_p, spec)

    synth_p = sub.add_parser("synth", help="generate a synthetic corpus or graph")
    synth_p.add_argument("--spec", required=True, help="generator spec JSON")
    synth_p.add_argument("--out", required=True, help="output path")
    synth_p.set_defaults(handler=_handle_synth)
    for command_p in (run_p, rq1_p, synth_p):
        command_p.add_argument("--log-level", default="WARNING",
                               choices=("DEBUG", "INFO", "WARNING", "ERROR"),
                               help="show the package's log lines at this level on stderr")
    return parser


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    """The config file (or none) with the given flags written over it.

    One config_from_dict call, so the file's windows and --window share the tz.
    """
    if args.config:
        raw = read_config(args.config)
    elif args.windows:
        raw = {}
    else:
        raise ConfigError("--window is required when no --config is given")
    return config_from_dict(raw, {spec.key: value for spec in CONFIG_KEYS
                                  if (value := getattr(args, spec.key, None)) is not None})


def _handle_run(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    check_not_read(cfg.output_path, [("config file", args.config)])
    reports = run_pipeline(cfg)
    text = emit_report(reports, cfg.output_format, cfg.score_thresh,
                       cfg.size_thresh, cfg.senti_thresh)
    if cfg.output_path:
        write_output(cfg.output_path, text)
        print(f"wrote {len(reports)} report rows to {cfg.output_path}")
    else:
        sys.stdout.write(text)
    return 1 if cfg.mc_check and has_mc_failures(reports) else 0


# Each synth spec key's kind, as pipeline.is_kind reads it
_COMMUNITY_KINDS = {"n_authors": int, "topic_tokens": [str], "polarity_bias": float}
_CORPUS_KINDS = {
    "communities": [dict], "window": str, "tz": str, "cross_repost_rate": float,
    "posts_per_author": [int, int], "seed": int, "repost_fraction": float,
    "topic_post_rate": float, "n_favorites": int, "background_cross_rate": float,
    "background_tokens": [str], "sentiment_surfaces": [str, str], "noun_tag": str,
    "sentiment_tag": str,
}
_PLANTED_KINDS = {"n_per_side": int, "p_in": float, "p_out": float, "seed": int}


def _corpus_spec_from_dict(raw: dict) -> CorpusSpec:
    kwargs = checked(raw, _CORPUS_KINDS, ("communities", "window", "cross_repost_rate"),
                     ("background_cross_rate",), "corpus spec")
    kwargs["communities"] = tuple(
        CommunitySpec(**{"topic_tokens": (),
                         **checked(c, _COMMUNITY_KINDS, ("n_authors",), (), "community")})
        for c in kwargs["communities"]
    )
    kwargs["window"] = parse_window(kwargs["window"], kwargs.pop("tz", "UTC"))
    return CorpusSpec(**kwargs)


def _planted_spec_from_dict(raw: dict) -> PlantedSpec:
    return PlantedSpec(**checked(raw, _PLANTED_KINDS, ("n_per_side", "p_in", "p_out"), (),
                                 "planted spec"))


def _handle_synth(args: argparse.Namespace) -> int:
    raw = read_config(args.spec)
    kind = raw.pop("kind", "corpus")
    if kind not in ("corpus", "planted"):
        raise ConfigError(f"unknown synth kind: {kind!r}")
    for out in (args.out,) if kind == "corpus" else (args.out, args.out + ".sides"):
        check_not_read(out, [("spec", args.spec)])
    try:
        spec = (_corpus_spec_from_dict if kind == "corpus" else _planted_spec_from_dict)(raw)
    except (ValueError, ZoneInfoNotFoundError) as exc:  # a value out of range, a bad window or tz
        raise ConfigError(f"{kind} spec: {exc}") from exc
    if kind == "corpus":
        records = synth_corpus(spec)
        write_output(args.out, serialize_records(records))
        print(f"wrote {len(records)} records to {args.out}")
        return 0
    planted = planted_partition(spec)
    write_output(args.out, dump_edgelist(planted.graph))
    sides_path = args.out + ".sides"
    lines = [f"{node} {side}" for node, side in planted.ground_truth.side_of.items()]
    write_output(sides_path, "\n".join(lines) + "\n")
    print(
        f"wrote {planted.graph.edge_count} edges to {args.out} "
        f"({len(planted.bridges)} forced bridges), sides to {sides_path}"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    log = logging.getLogger("controversy_scope")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s: %(message)s"))
    level = log.level
    log.addHandler(handler)
    log.setLevel(args.log_level)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
