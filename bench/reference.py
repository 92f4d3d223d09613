"""A fixed reference computation that measures how fast the machine is right now.

The batch timings are divided by this reference, timed in the same process
just before and just after each batch, so that the shared host's slow and
fast phases, which last minutes and move every timing by up to ±30 %, cancel
out of the normalized metrics. The computation uses only the standard library
and NumPy, never the program, so a faster or slower program leaves it
unchanged. Its mix follows the batch: JSON decoding and dict updates in the
interpreter, then NumPy gathers like the Monte Carlo walks.
"""

from __future__ import annotations

import json
import time

# The reference's time on the development VM (2 vCPUs, Intel Xeon) in a fast
# phase; normalized seconds = wall seconds * REF_NOMINAL_S / reference seconds,
# so they read roughly as wall seconds on that machine.
REF_NOMINAL_S = 0.2


def reference_s() -> float:
    """Seconds the fixed reference computation takes now."""
    import numpy as np

    start = time.perf_counter()
    rows = [json.dumps({"id": f"p{i:07d}", "author": f"a{i % 997}", "ts": 1577836800 + i,
                        "tokens": [["vaxx", "NOUN"], ["good", "ADJ"]]})
            for i in range(12_000)]
    counts: dict[str, int] = {}
    for row in rows:
        rec = json.loads(row)
        counts[rec["author"]] = counts.get(rec["author"], 0) + len(rec["tokens"])
    rng = np.random.default_rng(0)
    index = rng.integers(0, 1 << 19, 1 << 19)
    values = rng.random(1 << 19)
    for _ in range(10):
        values = values[index] * 0.5 + 0.25
    return time.perf_counter() - start
