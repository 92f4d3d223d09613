"""Command-line entry points.

    controversy-scope run  --config cfg.json [overrides]
    controversy-scope rq1  --input corpus.jsonl --window 2020-02 --queries vaccine,olympic
    controversy-scope synth --spec spec.json --out corpus.jsonl

`run` executes the full two-phase batch; `rq1` scores a pre-specified query
list (no subtopic detection); `synth` writes a synthetic corpus (JSONL) or
a planted two-block graph (edge list + sides) from a JSON spec. Exit code
is 0 when the batch completes, even if cells are dashes; 1 is reserved for
enabled monte-carlo cross-check failures, 2 for configuration errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .graph import dump_edgelist
from .ingest import parse_window, serialize_records
from .pipeline import (
    ConfigError,
    PipelineConfig,
    RwcConfig,
    config_from_dict,
    emit_report,
    has_mc_failures,
    read_config,
    run_pipeline,
    with_overrides,
    write_output,
)
from .synth import CommunitySpec, CorpusSpec, PlantedSpec, planted_partition, synth_corpus


def _add_pipeline_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", help="corpus JSONL path")
    parser.add_argument("--tz", help="IANA timezone for month windows (default UTC)")
    parser.add_argument("--window", action="append", dest="windows", metavar="SPEC",
                        help="YYYY-MM or start..end; repeatable")
    parser.add_argument("--top-n", type=int, help="subtopic shortlist size")
    parser.add_argument("--stopwords", action="append", metavar="PATH",
                        help="stopword file; repeatable, files are merged")
    parser.add_argument("--noun-tags", help="comma-separated POS tags accepted as nouns")
    parser.add_argument("--count-mode", choices=["occurrences", "documents"])
    parser.add_argument("--phase1-scope", choices=["window", "global"],
                        help="count shortlist frequencies per window or corpus-wide")
    parser.add_argument("--min-rt", type=int, help="repost weight threshold per edge")
    parser.add_argument("--k-core", type=int, help="k for the k-core pass")
    parser.add_argument("--min-nodes", type=int, help="minimum graph size to score")
    parser.add_argument("--balance-eps", type=float, help="bisection balance tolerance")
    parser.add_argument("--k-top", type=int, help="absorbing nodes per side")
    parser.add_argument("--restart", type=float, help="walk restart probability")
    parser.add_argument("--mc-walks", type=int, help="walks per side for --mc-check")
    parser.add_argument("--mc-check", action="store_true", default=None,
                        help="cross-check the solver against the simulator")
    parser.add_argument("--lexicon", help="polarity lexicon TSV path")
    parser.add_argument("--score-thresh", type=float, help="high-controversy cut")
    parser.add_argument("--size-thresh", type=int, help="large-subtopic node cut")
    parser.add_argument("--senti-thresh", type=float, help="low-sentiment cut")
    parser.add_argument("--seed", type=int, help="base seed for all cells")
    parser.add_argument("--workers", type=int, help="parallel cell workers")
    parser.add_argument("--dump-graphs", metavar="DIR",
                        help="write each scored cell's edge list into DIR")
    parser.add_argument("--format", choices=["csv", "json", "markdown"], dest="fmt")
    parser.add_argument("--output", help="write the report here (atomic); default stdout")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="controversy-scope",
        description="Discover subtopics and score their polarization in repost networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="full batch: subtopic detection + scoring")
    run_p.add_argument("--config", help="pipeline config JSON")
    _add_pipeline_flags(run_p)
    run_p.set_defaults(handler=_handle_run)

    rq1_p = sub.add_parser("rq1", help="score a pre-specified query list")
    rq1_p.add_argument("--config", help="pipeline config JSON")
    rq1_p.add_argument("--queries", required=True,
                       help="comma-separated query tokens")
    _add_pipeline_flags(rq1_p)
    rq1_p.set_defaults(handler=_handle_rq1)

    synth_p = sub.add_parser("synth", help="generate a synthetic corpus or graph")
    synth_p.add_argument("--spec", required=True, help="generator spec JSON")
    synth_p.add_argument("--out", required=True, help="output path")
    synth_p.set_defaults(handler=_handle_synth)
    return parser


def _config_from_args(args: argparse.Namespace, queries: tuple[str, ...] | None) -> PipelineConfig:
    if args.config:
        raw = read_config(args.config)
    elif args.windows:
        raw = {}
    else:
        raise ConfigError("--window is required when no --config is given")
    # one parse, so the file's windows and --window flags share the effective tz
    if args.tz:
        raw["tz"] = args.tz
    if args.windows:
        raw["windows"] = args.windows
    cfg = config_from_dict(raw)
    overrides: dict[str, object] = {
        "input_path": args.input,
        "top_n": args.top_n,
        "count_mode": args.count_mode,
        "phase1_scope": args.phase1_scope,
        "min_rt": args.min_rt,
        "k_core_k": args.k_core,
        "min_nodes": args.min_nodes,
        "balance_eps": args.balance_eps,
        "lexicon_path": args.lexicon,
        "score_thresh": args.score_thresh,
        "size_thresh": args.size_thresh,
        "senti_thresh": args.senti_thresh,
        "seed": args.seed,
        "workers": args.workers,
        "mc_walks": args.mc_walks,
        "mc_check": args.mc_check,
        "dump_graphs_dir": args.dump_graphs,
        "output_path": args.output,
        "output_format": args.fmt,
    }
    if args.stopwords:
        overrides["stopword_paths"] = tuple(args.stopwords)
    if args.noun_tags:
        overrides["noun_tags"] = frozenset(
            tag.strip() for tag in args.noun_tags.split(",") if tag.strip()
        )
    if args.k_top is not None or args.restart is not None:
        overrides["rwc"] = RwcConfig(
            k_top=args.k_top if args.k_top is not None else cfg.rwc.k_top,
            restart_prob=args.restart if args.restart is not None else cfg.rwc.restart_prob,
            solver_tol=cfg.rwc.solver_tol,
            max_iter=cfg.rwc.max_iter,
            weighted_walk=cfg.rwc.weighted_walk,
        )
    if queries is not None:
        overrides["queries"] = queries
    return with_overrides(cfg, **overrides)


def _emit(cfg: PipelineConfig, reports) -> None:
    text = emit_report(reports, cfg.output_format, cfg.score_thresh,
                       cfg.size_thresh, cfg.senti_thresh)
    if cfg.output_path:
        write_output(cfg.output_path, text)
        print(f"wrote {len(reports)} report rows to {cfg.output_path}")
    else:
        sys.stdout.write(text)


def _handle_run(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args, queries=None)
    reports = run_pipeline(cfg)
    _emit(cfg, reports)
    return 1 if cfg.mc_check and has_mc_failures(reports) else 0


def _handle_rq1(args: argparse.Namespace) -> int:
    queries = tuple(q.strip() for q in args.queries.split(",") if q.strip())
    if not queries:
        raise ConfigError("--queries must name at least one token")
    cfg = _config_from_args(args, queries=queries)
    reports = run_pipeline(cfg)
    _emit(cfg, reports)
    return 1 if cfg.mc_check and has_mc_failures(reports) else 0


_CORPUS_SCALAR_KEYS = (
    "cross_repost_rate", "seed", "repost_fraction", "topic_post_rate",
    "n_favorites", "background_cross_rate", "noun_tag", "sentiment_tag",
)
_CORPUS_TUPLE_KEYS = ("posts_per_author", "background_tokens", "sentiment_surfaces")


def _corpus_spec_from_dict(raw: dict) -> CorpusSpec:
    known = {"communities", "window", "tz", *_CORPUS_SCALAR_KEYS, *_CORPUS_TUPLE_KEYS}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown corpus spec keys: {sorted(unknown)}")
    communities = tuple(
        CommunitySpec(
            n_authors=c["n_authors"],
            topic_tokens=tuple(c.get("topic_tokens", ())),
            polarity_bias=c.get("polarity_bias", 0.0),
        )
        for c in raw["communities"]
    )
    window = parse_window(raw["window"], raw.get("tz", "UTC"))
    kwargs: dict[str, object] = {
        key: raw[key] for key in _CORPUS_SCALAR_KEYS if key in raw
    }
    for key in _CORPUS_TUPLE_KEYS:
        if key in raw:
            kwargs[key] = tuple(raw[key])
    return CorpusSpec(communities=communities, window=window, **kwargs)


def _handle_synth(args: argparse.Namespace) -> int:
    with open(args.spec, encoding="utf-8") as fh:
        raw = json.load(fh)
    kind = raw.pop("kind", "corpus")
    if kind == "corpus":
        records = synth_corpus(_corpus_spec_from_dict(raw))
        write_output(args.out, serialize_records(records))
        print(f"wrote {len(records)} records to {args.out}")
        return 0
    if kind == "planted":
        unknown = set(raw) - {"n_per_side", "p_in", "p_out", "seed"}
        if unknown:
            raise ConfigError(f"unknown planted spec keys: {sorted(unknown)}")
        spec = PlantedSpec(
            n_per_side=raw["n_per_side"],
            p_in=raw["p_in"],
            p_out=raw["p_out"],
            seed=raw.get("seed", 0),
        )
        planted = planted_partition(spec)
        write_output(args.out, dump_edgelist(planted.graph))
        sides_path = args.out + ".sides"
        lines = [
            f"{node} {planted.ground_truth.side_of[node]}"
            for node in sorted(planted.graph.nodes)
        ]
        write_output(sides_path, "\n".join(lines) + "\n")
        print(
            f"wrote {planted.graph.edge_count} edges to {args.out} "
            f"({len(planted.bridges)} forced bridges), sides to {sides_path}"
        )
        return 0
    raise ConfigError(f"unknown synth kind: {kind!r}")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
