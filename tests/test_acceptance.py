"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Heavier artifacts (graph suites, the synthetic corpus) are built once per
module and shared between criteria.
"""

import hashlib
import itertools
import time
from contextlib import contextmanager
from importlib import resources

import numpy as np
import pytest

from controversy_scope.graph import k_core, largest_component
from controversy_scope.ingest import TimeWindow, parse_records, serialize_records
from controversy_scope.partition import bisect, max_side_nodes
from controversy_scope.pipeline import (
    ControversyReport,
    PipelineConfig,
    emit_report,
    run_pipeline,
)
from controversy_scope.rwc import RwcResult, rwc_monte_carlo, rwc_score
from controversy_scope.stats import pearson
from controversy_scope.synth import (
    CommunitySpec,
    CorpusSpec,
    PlantedSpec,
    planted_partition,
    synth_corpus,
)

from conftest import (
    as_records,
    bfs_components,
    exhaustive_min_balanced_cut,
    naive_k_core,
    normalize_ids,
    random_connected_graph,
    random_graph,
    unit_weights,
)
from test_partition import two_cliques_bridged
from test_stats import PEARSON_FIXTURES


@contextmanager
def criterion(label):
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {label}: FAIL")
        raise
    print(f"\nACCEPTANCE {label}: PASS")


# --- shared heavy artifacts ---------------------------------------------------


@pytest.fixture(scope="module")
def solver_oracle_suite():
    """Ten graphs, 100..1000 nodes, with ground-truth partitions and both scores."""
    specs = [
        PlantedSpec(50, 1.0, 0.0, seed=1),
        PlantedSpec(100, 1.0, 0.0, seed=2),
        PlantedSpec(200, 1.0, 0.0, seed=3),
        PlantedSpec(60, 0.10, 0.10, seed=4),
        PlantedSpec(100, 0.05, 0.05, seed=5),
        PlantedSpec(250, 0.02, 0.02, seed=6),
        PlantedSpec(500, 0.01, 0.01, seed=7),
        PlantedSpec(150, 0.05, 0.005, seed=8),
        PlantedSpec(300, 0.03, 0.002, seed=9),
        PlantedSpec(400, 0.02, 0.001, seed=10),
    ]
    suite = []
    for spec in specs:
        pg = planted_partition(spec)
        exact = rwc_score(pg.graph, pg.ground_truth)
        estimate = rwc_monte_carlo(
            pg.graph, pg.ground_truth, n_walks=100_000, seed=spec.seed
        )
        suite.append((spec, pg, exact, estimate))
    return suite


WINDOW = TimeWindow(1_600_000_000, 1_602_592_000, "2020-09")


@pytest.fixture(scope="module")
def e2e_corpus():
    spec = CorpusSpec(
        communities=(
            CommunitySpec(900, ("vaxx",), 0.6),
            CommunitySpec(900, ("vaxx",), -0.6),
        ),
        cross_repost_rate=0.02,
        background_cross_rate=0.5,
        window=WINDOW,
        seed=11,
    )
    return synth_corpus(spec)


def lexicon_path() -> str:
    return str(
        resources.files("controversy_scope").joinpath(
            "data/lexicon/example_polarity.tsv"
        )
    )


# --- criteria ------------------------------------------------------------------


def test_criterion_1_rwc_separation():
    with criterion("1 rwc-separation"):
        started = time.monotonic()
        seeds = range(5)

        bridged = []
        for seed in seeds:
            pg = planted_partition(PlantedSpec(500, 0.02, 0.0, seed=seed))
            part = bisect(pg.graph, seed=seed + 100)
            bridged.append(rwc_score(pg.graph, part).score)
        assert all(s > 0.8 for s in bridged), bridged

        uniform = []
        for seed in seeds:
            pg = planted_partition(PlantedSpec(500, 0.02, 0.02, seed=seed))
            part = bisect(pg.graph, seed=seed + 100)
            uniform.append(rwc_score(pg.graph, part).score)
        assert all(abs(s) < 0.15 for s in uniform), uniform

        averages = []
        for p_out in (0.0005, 0.002, 0.01, 0.02):
            scores = []
            for seed in seeds:
                pg = planted_partition(PlantedSpec(500, 0.02, p_out, seed=seed))
                part = bisect(pg.graph, seed=seed + 100)
                scores.append(rwc_score(pg.graph, part).score)
            averages.append(float(np.mean(scores)))
        assert all(a >= b for a, b in zip(averages, averages[1:])), averages

        elapsed = time.monotonic() - started
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_2_solver_oracle_agreement(solver_oracle_suite):
    with criterion("2 solver-vs-monte-carlo"):
        assert len(solver_oracle_suite) == 10
        for spec, pg, exact, estimate in solver_oracle_suite:
            assert 100 <= pg.graph.node_count <= 1000
            gap = abs(exact.score - estimate.score)
            assert gap <= 0.02, (spec, gap)


def test_criterion_3_symmetry_and_conservation(solver_oracle_suite):
    with criterion("3 symmetry-zeros"):
        complete = planted_partition(PlantedSpec(100, 1.0, 1.0, seed=0))
        result = rwc_score(complete.graph, complete.ground_truth)
        assert abs(result.score) <= 1e-6
        results = [result] + [exact for _, _, exact, _ in solver_oracle_suite]
        for r in results:
            assert abs(r.p_xx + r.p_xy - 1.0) <= 1e-8
            assert abs(r.p_yy + r.p_yx - 1.0) <= 1e-8


def test_criterion_4_structural_oracles():
    with criterion("4 structural-oracles"):
        rng = np.random.default_rng(2026)
        for _ in range(200):
            g = random_graph(int(rng.integers(2, 13)), float(rng.uniform(0.1, 0.7)), rng)
            for k in (1, 2, 3):
                assert set(k_core(g, k).nodes) == naive_k_core(g, k)
            comps = bfs_components(g)
            expected = min(comps, key=lambda c: (-len(c), min(c)))
            assert set(largest_component(g).nodes) == expected

        for m, b in itertools.product((4, 5, 6, 8, 10), (1, 2, 3)):
            if b >= m:
                continue
            g = two_cliques_bridged(m, b)
            part = bisect(g, seed=0)
            assert part.cut == b, (m, b, part.cut)

        for i in range(40):
            n = int(rng.integers(4, 13))
            g = random_connected_graph(n, float(rng.uniform(0.3, 0.7)), rng)
            bound = max_side_nodes(n, 0.05)
            unit = unit_weights(g)
            part = bisect(unit, seed=i)
            optimal = exhaustive_min_balanced_cut(unit, bound)
            assert part.cut <= 1.5 * optimal, (n, part.cut, optimal)
            weighted_part = bisect(g, seed=i)
            optimal_w = exhaustive_min_balanced_cut(g, bound, weighted=True)
            assert weighted_part.cut_weight <= 1.5 * optimal_w, (n, i)


def test_criterion_5_statistics_oracle():
    with criterion("5 pearson-reference"):
        assert len(PEARSON_FIXTURES) == 20
        for xs, ys, r_ref, p_ref in PEARSON_FIXTURES:
            r, p = pearson(xs, ys)
            assert abs(r - r_ref) <= 1e-9
            assert abs(p - p_ref) <= 1e-6
        xs = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6]
        assert pearson(xs, xs) == (1.0, 0.0)
        assert pearson(xs, [-v for v in xs]) == (-1.0, 0.0)


# score table reproduced by the report-formatting fixture: month -> score,
# None marks an under-threshold (dash) cell
SCORE_TABLE = {
    "Olympic": {"Feb.": 0.115, "Mar.": 0.314, "Apr.": 0.110, "May.": None,
                "Jun.": None, "Jul.": 0.389, "Aug.": None},
    "Vaccine": {"Feb.": None, "Mar.": -0.067, "Apr.": 0.048, "May.": 0.228,
                "Jun.": 0.518, "Jul.": 0.801, "Aug.": 0.204},
    "GoTo": {"Feb.": None, "Mar.": None, "Apr.": None, "May.": None,
             "Jun.": None, "Jul.": 0.180, "Aug.": -0.066},
    "Fever": {"Feb.": 0.031, "Mar.": 0.101, "Apr.": -0.438, "May.": None,
              "Jun.": None, "Jul.": None, "Aug.": 0.266},
    "Fatality": {"Feb.": 0.327, "Mar.": 0.027, "Apr.": 0.328, "May.": -0.080,
                 "Jun.": 0.210, "Jul.": -0.455, "Aug.": -0.168},
    "ALL": {"Feb.": 0.168, "Mar.": 0.292, "Apr.": 0.148, "May.": 0.041,
            "Jun.": 0.189, "Jul.": 0.150, "Aug.": 0.298},
}

EXPECTED_BOLD = {
    ("Olympic", "Mar."), ("Olympic", "Jul."),
    ("Vaccine", "Jun."), ("Vaccine", "Jul."),
    ("Fatality", "Feb."), ("Fatality", "Apr."),
}

MONTHS = ["Feb.", "Mar.", "Apr.", "May.", "Jun.", "Jul.", "Aug."]


def test_criterion_6_report_fixture():
    with criterion("6 published-logic-fixture"):
        reports = []
        for subtopic, by_month in SCORE_TABLE.items():
            for month in MONTHS:
                score = by_month[month]
                if score is None:
                    reports.append(ControversyReport(
                        subtopic, month, 500, 100, True, None))
                else:
                    t = (1.0 + score) / 2.0
                    reports.append(ControversyReport(
                        subtopic, month, 50_000, 1200, False,
                        RwcResult(t, 1.0 - t, t, 1.0 - t, score)))
        text = emit_report(reports, "markdown", score_thresh=0.3)
        lines = text.splitlines()
        assert lines[0] == "| " + " | ".join(["Subtopic", *MONTHS]) + " |"
        bold = set()
        dashes = set()
        for line in lines[2:]:
            cells = [c.strip() for c in line.strip("|").split("|")]
            subtopic, values = cells[0], cells[1:]
            for month, value in zip(MONTHS, values):
                if value == "-":
                    dashes.add((subtopic, month))
                elif value.startswith("**"):
                    bold.add((subtopic, month))
        expected_dashes = {
            (s, m) for s, by_month in SCORE_TABLE.items()
            for m in MONTHS if by_month[m] is None
        }
        assert bold == EXPECTED_BOLD
        assert dashes == expected_dashes


def test_criterion_7_end_to_end(e2e_corpus):
    with criterion("7 end-to-end"):
        started = time.monotonic()
        assert len({r.author_id for r in e2e_corpus}) >= 1200
        cfg = PipelineConfig(
            windows=(WINDOW,), top_n=50, seed=5, lexicon_path=lexicon_path()
        )
        reports = run_pipeline(cfg, records=e2e_corpus)
        by_topic = {r.subtopic: r for r in reports}
        assert "vaxx" in by_topic, sorted(by_topic)
        planted = by_topic["vaxx"]
        background = by_topic["covid"]
        assert not planted.undersized and planted.node_count >= 800
        assert planted.rwc is not None and planted.rwc.score > 0.3
        assert not background.undersized and background.node_count >= 800
        assert background.rwc is not None and background.rwc.score < 0.3
        assert planted.sentiment_std is not None and planted.sentiment_std > 0.5
        elapsed = time.monotonic() - started
        assert elapsed < 300.0, f"took {elapsed:.1f}s"


# sha256 of criterion 8's reports: the e2e corpus batch at seed 5
E2E_REPORT_SHA256 = {
    "csv": "a24d835e1c787aebe2d78cf050d0ec0c27fd1878c075e6a658bba3ec9b36eacb",
    "json": "e791986c4ee175e7eaa256d563a647e9b973ad82dd522026efe054281a1b6837",
    "markdown": "659ba1bb226163bf6bf22a9140a101865535ab570ee4f50bcf02b429552f5e34",
}


def test_criterion_8_determinism(e2e_corpus, tmp_path):
    with criterion("8 determinism"):
        corpus_path = tmp_path / "corpus.jsonl"
        corpus_path.write_text(serialize_records(e2e_corpus), encoding="utf-8")
        parsed = parse_records(corpus_path.read_text().splitlines())
        assert as_records(parsed.records) == normalize_ids(e2e_corpus)

        cfg = PipelineConfig(
            windows=(WINDOW,), input_path=str(corpus_path), seed=5,
            lexicon_path=lexicon_path(),
        )
        first = run_pipeline(cfg)
        second = run_pipeline(cfg)
        for fmt in ("csv", "json", "markdown"):
            assert emit_report(first, fmt).encode() == emit_report(second, fmt).encode()
        # the bytes themselves are pinned too: a change that moves a report bit
        # on purpose (a new bisect search, walk scheme or rule) re-pins them
        digests = {fmt: hashlib.sha256(emit_report(first, fmt).encode()).hexdigest()
                   for fmt in E2E_REPORT_SHA256}
        assert digests == E2E_REPORT_SHA256
