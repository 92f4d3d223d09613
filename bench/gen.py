"""Generate one workload's corpus as JSONL from a seed.

    python3 bench/gen.py --workload big-cell --seed 1 --out corpus.jsonl

Each window is a separate ``synth_corpus`` call. ``synth_corpus`` numbers
posts from ``p0000000`` on every call, so post ids and repost targets get a
per-window prefix; otherwise a multi-window corpus repeats post ids. Prints
one JSON line: record count, generation seconds and library versions.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

from _env import import_program
from workloads import WORKLOADS, Workload


def window_seed(seed: int, window_index: int) -> int:
    return 1000 * seed + window_index


def generate(workload: Workload, seed: int) -> list:
    """All windows' records, post ids prefixed with the window index."""
    import_program()
    from controversy_scope.ingest import month_window
    from controversy_scope.synth import CommunitySpec, CorpusSpec, synth_corpus

    communities = tuple(
        CommunitySpec(c.n_authors, (c.topic,), c.polarity_bias)
        for c in workload.communities
    )
    records = []
    for i, label in enumerate(workload.windows):
        spec = CorpusSpec(communities, workload.cross_repost_rate,
                          month_window(label), seed=window_seed(seed, i))
        prefix = f"w{i}"
        for r in synth_corpus(spec):
            repost_of = None
            if r.repost_of is not None:
                repost_of = (prefix + r.repost_of[0], r.repost_of[1])
            records.append(dataclasses.replace(
                r, post_id=prefix + r.post_id, repost_of=repost_of))
    return records


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    start = time.perf_counter()
    records = generate(WORKLOADS[args.workload], args.seed)
    from controversy_scope.ingest import serialize_records

    tmp = f"{args.out}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(serialize_records(records))
    os.replace(tmp, args.out)
    gen_s = time.perf_counter() - start

    import numpy
    import scipy

    print(json.dumps({
        "records": len(records),
        "gen_s": gen_s,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
