"""Benchmark runner: one workload, one seed, end-to-end or per-layer metrics.

    python3 bench/run.py --workload big-cell --seed 1 --seconds 38 --trace 0

Generates the workload's corpus from the seed once (cached under
``bench/_work``, keyed by the source tree), then runs measured batches one at
a time, each in a fresh process (``child.py``), while the next one is
expected to end within ``--seconds``. Every report is checked: rows, planted
scores, errors, identical bytes. With ``--trace 0`` the last stdout line
carries the end-to-end metrics, whose batch times are normalized by the
reference computation of ``reference.py``;
with ``--trace 1`` one untraced batch is followed by traced ones and the line
carries the per-layer metrics. A full record of the run, with versions and
every sample, goes to ``bench/_work/results``. Exits non-zero, printing no
result, when the program is missing or a batch crashes or times out.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from urllib.parse import quote

from _env import BENCH, PACKAGE, ROOT, SRC
from reference import REF_NOMINAL_S
from workloads import WORKLOADS, Workload

WORK = BENCH / "_work"
SETUP_SAMPLES = 2
DEADLINE_S = 170.0
SCORE_THRESH = 0.3  # the pipeline's default score_thresh



def declared_metrics(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for ``kind``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


class BenchError(RuntimeError):
    """The run cannot produce a result: missing program, crash or timeout."""


def source_key() -> str:
    """Digest of the program and generator sources; names the input cache."""
    h = hashlib.sha256()
    files = sorted(p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts)
    files += sorted(BENCH.glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


class Runner:
    def __init__(self, workload: Workload, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.cache = WORK / "inputs" / source_key()
        self.run_dir = WORK / "runs" / workload.name
        self.input = self.cache / f"{workload.name}-s{seed}.jsonl"
        self.report = self.run_dir / "report.csv"
        self.dumps = self.run_dir / "dumps"
        self.config = self.run_dir / "config.json"

    def _spawn(self, argv: list[str]) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time budget exhausted before the next batch")
        try:
            done = subprocess.run([sys.executable, *argv], cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{argv[0]} timed out") from exc
        if done.returncode != 0:
            raise BenchError(f"{argv[0]} exited with code {done.returncode}")
        lines = done.stdout.strip().splitlines()
        if not lines:
            raise BenchError(f"{argv[0]} printed nothing")
        return json.loads(lines[-1])

    def prepare_input(self) -> dict:
        """Generate the corpus unless this source tree already did for this seed."""
        meta_path = self.input.with_suffix(".json")
        if self.input.is_file() and meta_path.is_file():
            meta = json.loads(meta_path.read_text())
            meta["cached"] = True
            return meta
        self.cache.mkdir(parents=True, exist_ok=True)
        meta = self._spawn([str(BENCH / "gen.py"), "--workload", self.workload.name,
                            "--seed", str(self.seed), "--out", str(self.input)])
        meta_path.write_text(json.dumps(meta))
        meta["cached"] = False
        return meta

    def write_config(self) -> None:
        data = PACKAGE / "data"
        raw = {
            "input": str(self.input),
            "windows": list(self.workload.windows),
            "output": str(self.report),
            "format": "csv",
            "seed": self.seed,
        }
        for key, value in self.workload.config.items():
            if key == "stopwords":
                value = [str(data / "stopwords" / f"{name}.txt") for name in value]
            elif key == "lexicon":
                value = str(data / "lexicon" / f"{value}.tsv")
            raw[key] = value
        if self.workload.dumps:
            raw["dump_graphs"] = str(self.dumps)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.config.write_text(json.dumps(raw, indent=2))

    def batch(self, *flags: str) -> dict:
        """One child process; returns its JSON line plus the report check."""
        self.report.unlink(missing_ok=True)
        shutil.rmtree(self.dumps, ignore_errors=True)
        argv = [str(BENCH / "child.py"), "--config", str(self.config),
                "--t0", repr(time.monotonic()), *flags]
        out = self._spawn(argv)
        if "--setup-only" not in flags:
            out.update(check_report(self.report, self.workload, self.dumps))
        return out


def check_report(path: Path, wl: Workload, dumps: Path) -> dict:
    """Cells attempted/failed, problems found, and the report's sha256."""
    if not path.is_file():
        cells = len(wl.expected_cells())
        return {"cells": cells, "failed": cells, "problems": ["no report written"], "sha256": ""}
    data = path.read_bytes()
    rows = list(csv.DictReader(data.decode("utf-8").splitlines()))
    expected = wl.expected_cells()
    keys = [(r["subtopic"], r["window"]) for r in rows]
    out = {"cells": len(expected), "failed": 0, "problems": [],
           "sha256": hashlib.sha256(data).hexdigest()}
    if len(keys) != len(set(keys)) or set(keys) != expected:
        out["failed"] = len(expected)
        out["problems"].append(f"rows {sorted(keys)} != expected cells {sorted(expected)}")
        return out
    for r in rows:
        topic, score = r["subtopic"], r["rwc_score"]
        why = []
        if r["error"]:
            why.append(f"error {r['error']!r}")
        if topic in wl.polarized and not (score and float(score) > SCORE_THRESH):
            why.append(f"planted cell scored {score!r}, want > {SCORE_THRESH}")
        if topic in wl.unpolarized and not (score and float(score) < SCORE_THRESH):
            why.append(f"unpolarized cell scored {score!r}, want < {SCORE_THRESH}")
        if topic in wl.dashes and (score or r["undersized"] != "1"):
            why.append("cell expected undersized")
        if wl.dumps and score:
            name = f"{quote(topic, safe='')}_{quote(r['window'], safe='')}.edges"
            dump = dumps / name
            if not dump.is_file() or dump.stat().st_size == 0:
                why.append(f"missing edge dump {name}")
        if why:
            out["failed"] += 1
            out["problems"].append(f"{topic}/{r['window']}: " + "; ".join(why))
    return out


def measure(runner: Runner, seconds: float, trace: bool) -> dict:
    """Set-up samples, then batches one at a time while the next one is
    expected to end within ``seconds`` (always at least one)."""
    start = time.monotonic()
    setups = [] if trace else [runner.batch("--setup-only")["setup_s"]
                               for _ in range(SETUP_SAMPLES)]
    baseline = runner.batch() if trace else None
    batches: list[dict] = []
    flags = ("--trace",) if trace else ()
    last_wall = 0.0
    while not batches or time.monotonic() + last_wall - start < seconds:
        if batches and time.monotonic() + 2 * last_wall > runner.deadline:
            break
        spawned = time.monotonic()
        batches.append(runner.batch(*flags))
        last_wall = time.monotonic() - spawned
    return {"setup_only": setups, "baseline": baseline, "batches": batches,
            "measured_s": time.monotonic() - start}


def verdict(runs: list[dict], digest_path: Path) -> tuple[int, int, list[str]]:
    """Cells attempted and failed over all batches, plus every problem seen."""
    attempted = sum(r["cells"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    problems = [p for r in runs for p in r["problems"]]
    digests = {r["sha256"] for r in runs}
    if digest_path.is_file():
        digests.add(digest_path.read_text().strip())
    if len(digests) > 1:
        problems.append(f"report bytes differ between batches of one source tree: {sorted(digests)}")
        failed = attempted
    elif digests and not failed:
        digest_path.write_text(digests.pop() + "\n")
    return attempted, failed, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    if not (PACKAGE / "__init__.py").is_file():
        print(f"bench: no program sources at {PACKAGE}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    runner = Runner(workload, args.seed, deadline)
    try:
        gen = runner.prepare_input()
        runner.write_config()
        m = measure(runner, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    batches = m["batches"]
    checked = batches + ([m["baseline"]] if m["baseline"] else [])
    attempted, failed, problems = verdict(checked, runner.input.with_suffix(".report.sha256"))
    batch_s = [b["batch_s"] for b in batches]
    wall: dict[str, float] = {}
    if args.trace:
        values = {name: statistics.median([b["layers"][name] for b in batches])
                  for name in batches[0]["layers"]}
        values["trace.overhead_frac"] = statistics.median(batch_s) / m["baseline"]["batch_s"] - 1.0
    else:
        norm_s = [b["batch_s"] * REF_NOMINAL_S / b["ref_s"] for b in batches]
        values = {
            "batch_norm_s": statistics.median(norm_s),
            "records_per_norm_s": statistics.median([gen["records"] / s for s in norm_s]),
            "setup_s": statistics.median(m["setup_only"] + [b["setup_s"] for b in batches]),
            "peak_rss_mb": statistics.median([b["peak_rss_mb"] for b in batches]),
            "ok_cell_frac": 1.0 - failed / attempted,
        }
        # the plain wall-clock figures, for the record and the log; too unsteady to bound
        wall = {
            "batch_s": statistics.median(batch_s),
            "records_per_s": statistics.median([gen["records"] / s for s in batch_s]),
            "ref_s": statistics.median([b["ref_s"] for b in batches]),
        }
    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    if set(values) != set(declared):
        print(f"bench: measured metrics {sorted(values)} != declared {sorted(declared)}",
              file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}

    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "measured_s": m["measured_s"],
        "git_sha": git_sha(), "source_key": source_key(), "nproc": os.cpu_count(),
        "python": gen["python"], "numpy": gen["numpy"], "scipy": gen["scipy"],
        "records": gen["records"], "gen_s": gen["gen_s"], "gen_cached": gen["cached"],
        "samples": {"batches": len(batches),
                    "setup": len(m["setup_only"]) + len(batches)},
        "report_sha256": sorted({r["sha256"] for r in checked}),
        "problems": problems, "metrics": metrics, "wall": wall, "runs": m,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-s{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2))

    for p in problems:
        print(f"bench: CHECK FAILED {p}", file=sys.stderr)
    print(f"bench: {workload.name} seed={args.seed} records={gen['records']} "
          f"gen_s={gen['gen_s']:.2f}{' (cached)' if gen['cached'] else ''} "
          f"batches={len(batches)}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"bench:   {name} = {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    for name, value in wall.items():
        print(f"bench:   (wall) {name} = {value:.6g}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
