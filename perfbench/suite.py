"""The benchmark's workloads, their operations and the pinned-result check.

An operation is one verified (app, variant) timing run, or one app's
limit study.  Every operation builds its own workload and
``WorkloadRunner``, so no result is ever served from a runner's memo or
from ``get_runner``'s process cache.  ``paper-sweep`` goes through
``run_specs`` with a fresh cache directory and journal per pass.

The program is reached only through its public functions; ``layers.py``
wraps the same names to time them, so calls go through module
attributes (``wl.build_workload``) where a span must see them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import tempfile
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from typing import ContextManager, Dict, List, Optional, Sequence, Tuple

import repro.analysis as analysis
import repro.workloads as wl
from repro.config import ExecPolicy
from repro.harness import parallel
from repro.harness.runner import WorkloadRunner

SCALE = "small"
FUNCTIONAL = parallel.FUNCTIONAL
FIG8_VARIANTS = ("BASE", "UV", "DAC-IDEAL", "DARSIE", "DARSIE-IGNORE-STORE")
DARSIE_APPS = ("LIB", "IMNLM", "BP", "DCT8x8", "FWS", "HS", "CP", "CONVTEX")

#: An operation: (app, variant); the variant is FUNCTIONAL on limit-study.
Op = Tuple[str, str]


@dataclass(frozen=True)
class Workload:
    name: str
    ops: Tuple[Op, ...]
    #: seconds one pass takes on a 2-core Xeon host; ``--seconds`` is
    #: turned into a whole number of passes with it, so every run sees
    #: the same multiset of operations and p50/p90 compare like for like
    pass_s: float
    #: operations go through ``run_specs`` on a process pool
    sweep: bool = False
    #: apps whose operations the profiled pass covers (all when empty).
    #: A profiled pass of the whole Figure-8 matrix at jobs=1 would run
    #: past the benchmark's time limit.
    traced_apps: Tuple[str, ...] = ()

    def passes(self, seconds: float) -> int:
        return max(1, round(seconds / self.pass_s))

    def traced_ops(self) -> Tuple[Op, ...]:
        if not self.traced_apps:
            return self.ops
        return tuple(op for op in self.ops if op[0] in self.traced_apps)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("base-timing", tuple((a, "BASE") for a in wl.ALL_ABBRS), pass_s=9.0),
        Workload(
            "darsie-timing",
            tuple((a, v) for a in DARSIE_APPS for v in ("DARSIE", "DARSIE-NO-CF-SYNC")),
            pass_s=7.0,
        ),
        Workload(
            "paper-sweep",
            tuple((a, v) for a in wl.ALL_ABBRS for v in FIG8_VARIANTS),
            pass_s=27.0,
            sweep=True,
            traced_apps=("SR1", "LIB", "BP", "DCT8x8", "HS", "CONVTEX"),
        ),
        Workload("limit-study", tuple((a, FUNCTIONAL) for a in wl.ALL_ABBRS), pass_s=6.5),
    )
}


def op_key(op: Op) -> str:
    return f"{op[0]}/{op[1]}"


@dataclass
class OpResult:
    """What one operation produced, or why it failed."""

    op: Op
    seconds: float
    #: a ``RunResult`` for timing operations, (trace length, levels,
    #: taxonomy) for limit-study operations, None on failure
    result: object = None
    error: Optional[str] = None
    #: true when a sweep served the operation from its cache
    cache_hit: bool = False


def stats_digest(stats) -> str:
    """Digest of every ``SimStats`` field (Counters as sorted items)."""
    data = {}
    for f in dataclasses.fields(stats):
        value = getattr(stats, f.name)
        if isinstance(value, Counter):
            value = sorted((str(k), n) for k, n in value.items() if n)
        data[f.name] = value
    return _digest(data)


def _digest(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()[:16]


def analyse_trace(trace):
    """The Figure 1/2 analyses of one functional trace."""
    return analysis.redundancy_levels(trace), analysis.taxonomy_breakdown(trace)


def pin_record(res: OpResult) -> dict:
    """The pinned form of a successful operation's result."""
    if res.op[1] == FUNCTIONAL:
        insts, levels, taxonomy = res.result
        return {
            "warp_insts": insts,
            "digest": _digest([dataclasses.asdict(levels), dataclasses.asdict(taxonomy)]),
        }
    return {"cycles": res.result.cycles, "stats": stats_digest(res.result.stats)}


def run_op(op: Op, prof: ContextManager = nullcontext()) -> OpResult:
    """Run one serial operation, capturing any failure as data.  The
    operation runs inside ``prof`` (a profiler, when tracing)."""
    abbr, variant = op
    start = time.perf_counter()
    try:
        with prof:
            runner = WorkloadRunner(wl.build_workload(abbr, SCALE))
            if variant == FUNCTIONAL:
                trace = runner.functional_trace()
                levels, taxonomy = analyse_trace(trace)
                result: object = (len(trace), levels, taxonomy)
            else:
                result = runner.run(variant)
    except Exception as exc:  # one failed operation must not end the run
        return OpResult(op, time.perf_counter() - start, error=_describe(exc))
    return OpResult(op, time.perf_counter() - start, result)


def _describe(exc: BaseException) -> str:
    return "".join(traceback.format_exception(exc)).strip()


@dataclass
class SweepPass:
    results: List[OpResult]
    stats: "parallel.SweepStats"
    cache_bytes: int


def run_sweep(
    ops: Sequence[Op], jobs: int, workdir: str, prof: ContextManager = nullcontext()
) -> SweepPass:
    """One cold-cache ``run_specs`` pass with its own journal, run
    inside ``prof``."""
    specs = [parallel.RunSpec(abbr=a, config_name=v, scale=SCALE) for a, v in ops]
    scratch = tempfile.mkdtemp(prefix="sweep-", dir=workdir)
    cache_dir = os.path.join(scratch, "cache")
    try:
        with prof:
            outcomes, stats = parallel.run_specs(
                specs, jobs=jobs, use_cache=True, cache_dir=cache_dir,
                policy=ExecPolicy(), resume=os.path.join(scratch, "journal.jsonl"),
            )
        cache_bytes = sum(
            os.path.getsize(os.path.join(d, f))
            for d, _, files in os.walk(cache_dir) for f in files
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    results = [
        OpResult(
            (o.spec.abbr, o.spec.config_name), o.wall_time_s,
            o.result if o.ok else None, o.error, o.cache_hit,
        )
        for o in outcomes
    ]
    return SweepPass(results, stats, cache_bytes)


def check(res: OpResult, pinned: Dict[str, dict]) -> Optional[str]:
    """Why an operation counts as failed, or None when it passed.

    The workload oracle already ran inside the operation (a mismatch
    raises ``VerificationError``); this adds the cache rule and the
    comparison with the result pinned at the commit that defined the
    benchmark.
    """
    if res.error is not None:
        return res.error.splitlines()[-1]
    if res.cache_hit:
        return "served from the result cache"
    want = pinned.get(op_key(res.op))
    if want is None:
        return "no pinned result"
    got = pin_record(res)
    if got != want:
        return f"result {got} differs from pinned {want}"
    return None


def cycles_of(res: OpResult, pinned: Dict[str, dict]) -> int:
    """Simulated cycles of an operation.  A limit-study operation
    simulates none; it is credited with its app's pinned BASE cycles, so
    its rate measures how fast the same program is analysed."""
    if res.op[1] == FUNCTIONAL:
        return pinned[f"{res.op[0]}/BASE"]["cycles"]
    return res.result.cycles


def warp_insts_of(res: OpResult) -> int:
    """Dynamic warp instructions: traced ones on limit-study, executed
    ones on a timing run."""
    if res.op[1] == FUNCTIONAL:
        return res.result[0]
    return res.result.stats.instructions_executed


def load_pinned(path: str) -> Dict[str, dict]:
    with open(path) as fh:
        return json.load(fh)["ops"]
