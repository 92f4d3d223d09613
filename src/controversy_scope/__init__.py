"""Discover candidate subtopics in interaction corpora and quantify their
polarization with random-walk controversy scores over repost networks."""

from .graph import EndorsementGraph, UnderSized, build_graph, k_core, largest_component, prepare_conversation_graph
from .ingest import (
    InteractionRecord,
    ParseResult,
    TimeWindow,
    WindowIndex,
    filter_window,
    month_window,
    parse_records,
    parse_window,
    serialize_records,
)
from .partition import Bipartition, bisect, cut_size, cut_weight
from .pipeline import (
    ControversyReport,
    PipelineConfig,
    emit_report,
    parse_report_csv,
    run_pipeline,
)
from .rwc import (
    RwcConfig,
    RwcResult,
    high_degree_nodes,
    rwc_monte_carlo,
    rwc_score,
)
from .sentiment import PolarityLexicon, aggregate_sentiment, load_lexicon, score_text
from .stats import (
    IndicatorVector,
    classify_subtopics,
    correlate_indicators,
    indicator_vector,
    pearson,
    permutation_p,
)
from .subtopics import StopwordConfig, extract_candidate_tokens, top_n_subtopics
from .synth import CommunitySpec, CorpusSpec, PlantedSpec, planted_partition, synth_corpus

__all__ = [
    "Bipartition",
    "CommunitySpec",
    "ControversyReport",
    "CorpusSpec",
    "EndorsementGraph",
    "IndicatorVector",
    "InteractionRecord",
    "ParseResult",
    "PipelineConfig",
    "PlantedSpec",
    "PolarityLexicon",
    "RwcConfig",
    "RwcResult",
    "StopwordConfig",
    "TimeWindow",
    "UnderSized",
    "WindowIndex",
    "aggregate_sentiment",
    "bisect",
    "build_graph",
    "classify_subtopics",
    "correlate_indicators",
    "cut_size",
    "cut_weight",
    "emit_report",
    "extract_candidate_tokens",
    "filter_window",
    "high_degree_nodes",
    "indicator_vector",
    "k_core",
    "largest_component",
    "load_lexicon",
    "month_window",
    "parse_records",
    "parse_report_csv",
    "parse_window",
    "pearson",
    "permutation_p",
    "planted_partition",
    "prepare_conversation_graph",
    "rwc_monte_carlo",
    "rwc_score",
    "run_pipeline",
    "score_text",
    "serialize_records",
    "synth_corpus",
    "top_n_subtopics",
]

__version__ = "0.1.0"
