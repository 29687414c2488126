"""Record the result every benchmark operation must reproduce.

Run from the root of a checkout::

    python3 perfbench/pin.py

Runs each distinct operation of every workload once, serially, and
writes ``pinned.json``: simulated cycles and a ``SimStats`` digest per
timing operation, a digest of the Figure 1/2 breakdowns per limit-study
operation.  The Figure-8 cycle counts are also compared with
``benchmarks/BENCH_timing.json`` and the outcome recorded; neither file
is edited to make them agree.  Re-pin only on a commit whose simulated
results are meant to change.
"""

from __future__ import annotations

import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import suite  # noqa: E402
from repro.harness.parallel import code_fingerprint  # noqa: E402


def main() -> int:
    ops = list(dict.fromkeys(op for w in suite.WORKLOADS.values() for op in w.ops))
    # limit-study credits each app with its BASE cycles
    ops += [(a, "BASE") for a in suite.wl.ALL_ABBRS if (a, "BASE") not in ops]
    pinned = {}
    for op in ops:
        res = suite.run_op(op)
        if res.error is not None:
            print(res.error, file=sys.stderr)
            return 1
        pinned[suite.op_key(op)] = suite.pin_record(res)
        print(f"{suite.op_key(op):28s} {res.seconds:7.3f}s {pinned[suite.op_key(op)]}")

    with open(os.path.join(ROOT, "benchmarks", "BENCH_timing.json")) as fh:
        committed = json.load(fh)["entries"]
    fig8 = [suite.op_key(op) for op in suite.WORKLOADS["paper-sweep"].ops]
    disagree = {
        key: {"pinned": pinned[key]["cycles"], "BENCH_timing": committed.get(key, {}).get("cycles")}
        for key in fig8
        if committed.get(key, {}).get("cycles") != pinned[key]["cycles"]
    }
    record = {
        "scale": suite.SCALE,
        "code_fingerprint": code_fingerprint(),
        "bench_timing_crosscheck": {"compared": len(fig8), "disagree": disagree},
        "ops": pinned,
    }
    with open(os.path.join(BENCH_DIR, "pinned.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(pinned)} operations; BENCH_timing.json disagrees on {len(disagree)} of {len(fig8)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
