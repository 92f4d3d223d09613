"""Self-tests of the benchmark tracer: the name check, and tracing changes nothing.

    PYTHONPATH=src python -m pytest -q bench/test_tracer.py
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _env import ROOT, import_program  # noqa: E402
from tracer import HOOKS, MissingHook, Tracer, layer_metrics  # noqa: E402


def _fake_modules(drop: str) -> dict[str, types.ModuleType]:
    modules = {}
    for mod, attrs in HOOKS.items():
        module = types.ModuleType(mod)
        for attr in attrs:
            if f"{mod}.{attr}" != drop:
                setattr(module, attr, lambda *a, **k: None)
        modules[mod] = module
    return modules


@pytest.mark.parametrize("drop", [f"{m}.{a}" for m, attrs in HOOKS.items() for a in attrs])
def test_install_fails_loudly_when_a_hooked_function_is_absent(drop):
    modules = _fake_modules(drop)
    before = {name: dict(vars(m)) for name, m in modules.items()}
    with pytest.raises(MissingHook, match=drop.replace(".", r"\.")):
        Tracer().install(modules)
    # nothing was wrapped: the check runs before any attribute is replaced
    assert {name: dict(vars(m)) for name, m in modules.items()} == before


def test_install_fails_when_a_module_is_absent():
    modules = _fake_modules(drop="")
    del modules["controversy_scope.sentiment"]
    with pytest.raises(MissingHook, match="aggregate_sentiment"):
        Tracer().install(modules)


def test_traced_run_matches_untraced_and_restores(tmp_path):
    import_program()
    from controversy_scope import pipeline, sentiment
    from controversy_scope.ingest import month_window
    from controversy_scope.synth import CommunitySpec, CorpusSpec, synth_corpus

    records = synth_corpus(CorpusSpec(
        (CommunitySpec(60, ("vaxx",), 0.6), CommunitySpec(60, ("vaxx",), -0.6)),
        0.05, month_window("2020-01"), seed=3))
    cfg = pipeline.PipelineConfig(windows=(month_window("2020-01"),), queries=("vaxx", "covid"),
                                  min_nodes=20, mc_check=True, mc_walks=2000)
    plain = pipeline.emit_report(pipeline.run_pipeline(cfg, records))

    originals = {a: getattr(pipeline, a) for a in HOOKS["controversy_scope.pipeline"]}
    tracer = Tracer()
    tracer.install({"controversy_scope.pipeline": pipeline,
                    "controversy_scope.sentiment": sentiment})
    try:
        traced = pipeline.emit_report(pipeline.run_pipeline(cfg, records))
    finally:
        tracer.uninstall()

    assert traced == plain
    assert {a: getattr(pipeline, a) for a in originals} == originals
    metrics = layer_metrics(tracer.spans)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(metrics) == {m["name"] for m in declared} - {"trace.overhead_frac"}
    assert metrics["ingest.filter_calls"] == 2
    assert metrics["graph.cells"] == 2
    assert metrics["partition.calls"] == metrics["rwc.solve_calls"] >= 1
    assert 0 <= metrics["pipeline.self_s"] <= sum(
        s.seconds for s in tracer.spans if s.name == "run_pipeline")
