"""Spans around the calls ``run_pipeline`` makes into each layer, from outside.

The tracer replaces module attributes that the pipeline resolves at call
time (``controversy_scope.pipeline.bisect`` and so on) with wrappers that
record a span: name, start, end, the enclosing span, and a few counts read
from the arguments and the returned object. The program itself is not
changed. Spans stay in memory; ``layer_metrics`` folds them into the
per-layer metrics once the run is over. Single-threaded runs only: the span
stack is shared, which matches the pipeline's default ``workers=1``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from types import ModuleType
from typing import Callable

# module -> attribute names wrapped there; the pipeline looks each one up at
# call time, so replacing the attribute routes every call through a span
HOOKS: dict[str, tuple[str, ...]] = {
    "controversy_scope.pipeline": (
        "run_pipeline", "parse_records_file", "filter_window",
        "extract_candidate_tokens", "top_n_subtopics",
        "prepare_conversation_graph", "dump_edgelist", "bisect", "rwc_score",
        "rwc_monte_carlo", "emit_report", "write_output",
    ),
    "controversy_scope.sentiment": ("aggregate_sentiment",),
}


class MissingHook(RuntimeError):
    """A function the tracer must wrap is absent, so its layer would read zero."""


@dataclass
class Span:
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _observe(name: str, args: tuple, result: object, failed: BaseException | None) -> dict[str, float]:
    """Counts read off one call's arguments and return value."""
    if name == "parse_records_file" and failed is None:
        return {"records": len(result.records), "malformed": result.malformed}
    if name == "filter_window":
        kept = 0 if failed is not None else len(result)
        return {"scanned": len(args[0]), "kept": kept}
    if name == "extract_candidate_tokens" and failed is None:
        return {"candidates": len(result)}
    if name == "aggregate_sentiment":
        matched = 0 if failed is not None else result[2]
        return {"records": len(args[0]), "matched": matched}
    if name == "prepare_conversation_graph" and failed is None:
        if not hasattr(result, "edge_count"):  # an UnderSized marker
            return {"undersized": 1}
        return {"undersized": 0, "nodes": result.node_count, "edges": result.edge_count}
    if name == "bisect" and failed is None:
        return {"cut_weight": result.cut_weight, "balance": result.balance}
    if name in ("rwc_score", "rwc_monte_carlo") and failed is None:
        return {"score": result.score, "graph": id(args[0])}
    return {}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[ModuleType, str, Callable]] = []

    def install(self, modules: dict[str, ModuleType]) -> None:
        """Wrap every hooked name; fail before wrapping any if one is missing."""
        missing = [
            f"{mod}.{attr}"
            for mod, attrs in HOOKS.items()
            for attr in attrs
            if mod not in modules or not callable(getattr(modules[mod], attr, None))
        ]
        if missing:
            raise MissingHook("cannot trace, missing: " + ", ".join(missing))
        for mod, attrs in HOOKS.items():
            module = modules[mod]
            for attr in attrs:
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            result = failed = None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                failed = exc
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                span.counts = _observe(name, args, result, failed)

        return traced


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Fold one batch's spans into the per-layer metrics.

    Names match ``per_layer`` in BENCHMARK.json, except
    ``trace.overhead_frac``, which compares traced and untraced batches.
    """
    def of(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    def seconds(name: str) -> float:
        return sum(s.seconds for s in of(name))

    def total(name: str, key: str) -> float:
        return sum(s.counts.get(key, 0) for s in of(name))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    pipeline_ids = {i for i, s in enumerate(spans) if s.name == "run_pipeline"}
    child_s = sum(s.seconds for s in spans if s.parent in pipeline_ids)
    # write_output inside run_pipeline writes edge dumps; outside, the report
    dump_writes = sum(s.seconds for s in of("write_output") if s.parent in pipeline_ids)
    report_writes = sum(s.seconds for s in of("write_output") if s.parent not in pipeline_ids)

    exact = {s.counts["graph"]: s.counts["score"] for s in of("rwc_score") if s.counts}
    gaps = [abs(s.counts["score"] - exact[s.counts["graph"]])
            for s in of("rwc_monte_carlo") if s.counts.get("graph") in exact]
    cells = len(of("prepare_conversation_graph"))

    return {
        "ingest.parse_s": seconds("parse_records_file"),
        "ingest.records": total("parse_records_file", "records"),
        "ingest.malformed": total("parse_records_file", "malformed"),
        "ingest.filter_s": seconds("filter_window"),
        "ingest.filter_calls": len(of("filter_window")),
        "ingest.filter_scanned": total("filter_window", "scanned"),
        "ingest.filter_kept_ratio": ratio(total("filter_window", "kept"),
                                          total("filter_window", "scanned")),
        "subtopics.count_s": seconds("extract_candidate_tokens"),
        "subtopics.rank_s": seconds("top_n_subtopics"),
        "subtopics.candidates": total("extract_candidate_tokens", "candidates"),
        "sentiment.aggregate_s": seconds("aggregate_sentiment"),
        "sentiment.matched_ratio": ratio(total("aggregate_sentiment", "matched"),
                                         total("aggregate_sentiment", "records")),
        "graph.prepare_s": seconds("prepare_conversation_graph"),
        "graph.cells": cells,
        "graph.undersized_ratio": ratio(total("prepare_conversation_graph", "undersized"), cells),
        "graph.nodes": total("prepare_conversation_graph", "nodes"),
        "graph.edges": total("prepare_conversation_graph", "edges"),
        "graph.dump_s": seconds("dump_edgelist") + dump_writes,
        "partition.bisect_s": seconds("bisect"),
        "partition.calls": len(of("bisect")),
        "partition.cut_weight": total("bisect", "cut_weight"),
        "partition.max_balance": max((s.counts["balance"] for s in of("bisect") if s.counts),
                                     default=0.0),
        "rwc.solve_s": seconds("rwc_score"),
        "rwc.solve_calls": len(of("rwc_score")),
        "rwc.mc_s": seconds("rwc_monte_carlo"),
        "rwc.mc_gap_max": max(gaps, default=0.0),
        "pipeline.self_s": seconds("run_pipeline") - child_s,
        "pipeline.emit_s": seconds("emit_report"),
        "pipeline.write_s": report_writes,
    }
