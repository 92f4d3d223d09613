"""One measured batch in a fresh process: the user's ``run`` path, timed.

    python3 bench/child.py --config cfg.json --t0 <time.monotonic() at spawn>
        [--setup-only] [--trace]

Set-up is the time from ``--t0`` (taken by the parent just before it starts
this process) through ``import controversy_scope`` and ``load_config``. The
batch is ``run_pipeline -> emit_report -> write_output``, as the CLI does it.
An untraced batch also times the fixed reference computation of
``reference.py`` just before and just after the batch and reports their mean.
Prints one JSON line with the timings, ``ru_maxrss`` and, with ``--trace``,
the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    from _env import import_program

    import_program()
    from controversy_scope import pipeline, sentiment

    cfg = pipeline.load_config(args.config)
    setup_s = time.monotonic() - args.t0
    out: dict[str, object] = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install({"controversy_scope.pipeline": pipeline,
                        "controversy_scope.sentiment": sentiment})
    else:
        from reference import reference_s

        ref_before = reference_s()
    # resolve through the module so traced runs go through the wrappers
    start = time.perf_counter()
    reports = pipeline.run_pipeline(cfg)
    text = pipeline.emit_report(reports, cfg.output_format, cfg.score_thresh,
                                cfg.size_thresh, cfg.senti_thresh)
    pipeline.write_output(cfg.output_path, text)
    out["batch_s"] = time.perf_counter() - start
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is None:
        out["ref_s"] = (ref_before + reference_s()) / 2
    else:
        tracer.uninstall()
        out["layers"] = layer_metrics(tracer.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
