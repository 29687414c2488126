"""Benchmark of the DARSIE reproduction's simulator, end to end.

Run from the root of a checkout::

    python3 perfbench/run.py --workload base-timing --seed 1 --seconds 20 --trace 0

``--trace 0`` times whole verified operations and prints the end-to-end
metrics; ``--trace 1`` prints the per-layer split instead (spans around
the program's public calls, plus a cProfile bucketed by package).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md
for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import math
import multiprocessing
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
REPRO_DIR = os.path.join(SRC, "repro")
PINNED = os.path.join(BENCH_DIR, "pinned.json")
#: scratch space for sweep caches, journals and span spills
WORKDIR = os.path.join(ROOT, ".perfbench")

#: fresh processes timed from start to ready; setup_s is their median
SETUP_PROBES = 5
#: reference slices timed before each setup probe
SETUP_SLICES = 3
#: a sweep's pool workers are terminated, not joined; wait this long
#: for them to be reaped so RUSAGE_CHILDREN covers them
REAP_TIMEOUT_S = 30.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def fixed_hash_seed() -> None:
    """Re-run under PYTHONHASHSEED=0: with randomized string hashing,
    dict collisions (and so Python-level ``__eq__`` calls) change from
    process to process, and call counts would not repeat."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, *sys.argv], env)


def setup(workload):
    """Everything a run does before its first timed operation: imports,
    one build of each app (kernel modules load lazily), the pinned
    results and the code fingerprint."""
    import suite
    from repro.harness.parallel import code_fingerprint

    for abbr in dict.fromkeys(a for a, _ in workload.ops):
        suite.wl.build_workload(abbr, suite.SCALE)
    return suite.load_pinned(PINNED), code_fingerprint()


def probe_setup(name: str) -> float:
    """Seconds from spawning a fresh benchmark process to its ready line."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--workload", name, "--setup-probe"],
        stdout=subprocess.PIPE, text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
    return elapsed


def reap_children() -> None:
    deadline = time.monotonic() + REAP_TIMEOUT_S
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)


def harrell_davis(values, q: float, steps_per_sample: int = 400) -> float:
    """Harrell-Davis estimate of quantile ``q``: a Beta-weighted mean of
    all order statistics.  On a mix of short and long operations a
    rank-based percentile jumps from one app's time to another's
    whenever noise reorders them; this estimate moves smoothly."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    h = 1.0 / (n * steps_per_sample)
    weights = []
    for i in range(n):
        # midpoint rule for the Beta(a, b) mass on [i/n, (i+1)/n]
        xs = ((i * steps_per_sample + j + 0.5) * h for j in range(steps_per_sample))
        weights.append(
            h * sum(math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_norm) for x in xs)
        )
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def host_info(fingerprint: str) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "code_fingerprint": fingerprint,
    }


class Run:
    """One benchmark invocation: its passes, results and failures."""

    def __init__(self, workload, seed: int, pinned):
        import suite

        self.suite = suite
        self.workload = workload
        self.rng = random.Random(seed)
        self.pinned = pinned
        self.jobs = len(os.sched_getaffinity(0))
        self.attempted = 0
        #: one line per failed operation
        self.failures = []
        #: run-level faults: cache hits in a sweep, unstable call counts
        self.problems = []

    def order(self, ops):
        ops = list(ops)
        self.rng.shuffle(ops)
        return ops

    def run_pass(self, ops, jobs=None, prof=None, speed=None):
        """Run one pass; returns (results, wall seconds, sweep pass or None).

        With ``speed``, a reference slice is timed before each operation:
        outside its timer when serial, inside it in a sweep's workers,
        and then taken out of the operation's and the pass's seconds.
        """
        prof = prof if prof is not None else nullcontext()
        sweep = None
        if self.workload.sweep:
            jobs = jobs or self.jobs
            with speed.in_workers(WORKDIR) if speed else nullcontext({}) as added:
                start = time.perf_counter()
                sweep = self.suite.run_sweep(ops, jobs, WORKDIR, prof)
                wall = time.perf_counter() - start
                reap_children()
            results = sweep.results
            for res in results:
                res.seconds -= added.get(self.suite.op_key(res.op), 0.0)
            wall -= sum(added.values()) / min(jobs, len(ops))
        else:
            results, wall = [], 0.0
            for op in ops:
                if speed:
                    speed.sample()
                results.append(self.suite.run_op(op, prof))
                wall += results[-1].seconds
        self.verify(results, sweep)
        return results, wall, sweep

    def verify(self, results, sweep) -> None:
        self.attempted += len(results)
        for res in results:
            why = self.suite.check(res, self.pinned)
            if why is not None:
                self.failures.append(f"{self.suite.op_key(res.op)}: {why}")
        if sweep is not None:
            st = sweep.stats
            if st.cache_hits != 0 or st.simulated != st.runs:
                self.problems.append(
                    f"sweep pass: {st.cache_hits} cache hits, {st.simulated} simulated of {st.runs}"
                )

    def ok(self, results):
        return [r for r in results if self.suite.check(r, self.pinned) is None]


def end_to_end(run: Run, seconds: float):
    from hostspeed import HostSpeed

    wl = run.workload
    setup_speed, probes = HostSpeed(), []
    for _ in range(SETUP_PROBES):
        setup_speed.sample(SETUP_SLICES)
        probes.append(probe_setup(wl.name))
    results, walls, speed = [], [], HostSpeed()
    for _ in range(wl.passes(seconds)):
        res, wall, _ = run.run_pass(run.order(wl.ops), speed=speed)
        results += res
        walls.append(wall)
    ok = run.ok(results)
    # Host seconds scaled to the reference speed (see hostspeed.py).
    f = speed.factor()
    timed = sum(walls) / f
    op_s = [r.seconds / f for r in results]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if wl.sweep:
        rss_kb = max(rss_kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics = {
        "setup_s": (statistics.median(probes) / setup_speed.factor(), "s"),
        "sim_cycles_per_s": (sum(run.suite.cycles_of(r, run.pinned) for r in ok) / timed, "1/s"),
        "warp_insts_per_s": (sum(run.suite.warp_insts_of(r) for r in ok) / timed, "1/s"),
        "run_s_p50": (harrell_davis(op_s, 0.5), "s"),
        "run_s_p90": (harrell_davis(op_s, 0.9), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    extra = {
        "passes": len(walls),
        "host_factor": f,
        "setup_host_factor": setup_speed.factor(),
        "raw_setup_s": statistics.median(probes),
        "raw_timed_s": sum(walls),
        "samples": len(op_s),
        "samples_beyond_p90": sum(1 for s in op_s if s > metrics["run_s_p90"][0]),
        "error_rate": len(run.failures) / max(1, run.attempted),
    }
    return metrics, extra


def sums(results, field):
    return sum(getattr(r.result.stats, field) for r in results)


def per_layer(run: Run):
    import layers

    wl, suite = run.workload, run.suite
    recorder = layers.SpanRecorder(WORKDIR)
    # Untraced pass: spans, fingerprints and (on paper-sweep) the pool's
    # SweepStats at full width.
    with recorder.recording():
        untraced, _, sweep = run.run_pass(run.order(wl.ops))
    # Two profiled passes; their call counts must agree exactly.
    traced_ops = run.order(wl.traced_ops())
    if wl.sweep:
        # The untraced pass ran in pool workers: let this process fill
        # its own one-time caches (ABC subclass checks) first.
        run.run_pass(traced_ops[:1], jobs=1)
    profiles, traced = [], []
    for _ in range(2):
        prof = cProfile.Profile()
        res, _, _ = run.run_pass(traced_ops, jobs=1, prof=prof)
        profiles.append(layers.bucket(prof, REPRO_DIR, BENCH_DIR))
        traced.append(res)
    calls = [{k: v["calls"] for k, v in p.items()} for p in profiles]
    if calls[0] != calls[1]:
        run.problems.append(f"call counts differ between two traced passes: {calls}")

    limit = wl.ops[0][1] == suite.FUNCTIONAL
    ok_t = run.ok(traced[0])
    timing_t = [] if limit else ok_t
    kcycles = sum(suite.cycles_of(r, run.pinned) for r in ok_t) / 1000.0 or 1.0
    self_s = {
        layer: sum(p.get(layer, {}).get("self_s", 0.0) for p in profiles) for layer in layers.LAYERS
    }
    total_self = sum(v["self_s"] for p in profiles for v in p.values())
    m = {}
    for layer in layers.LAYERS:
        m[f"{layer}.self_frac"] = (self_s[layer] / total_self, "fraction")
        m[f"{layer}.calls_per_kcycle"] = (calls[0].get(layer, 0) / kcycles, "calls/kcycle")
    for name in layers.SPANS:
        spans = recorder.spans.get(name)
        m[name] = (statistics.median(spans) if spans else 0.0, "s")
    issued, skipped = sums(timing_t, "instructions_issued"), sums(timing_t, "instructions_skipped")
    m["timing.calls_per_issue"] = (calls[0].get("timing", 0) / issued if issued else 0.0, "calls/issue")
    m["core.calls_per_skip"] = (calls[0].get("core", 0) / skipped if skipped else 0.0, "calls/skip")

    st = sweep.stats if sweep else None
    m["harness.overhead_frac"] = (
        1.0 - sum(s for _, s, _ in st.per_run) / (st.jobs * st.wall_time_s) if st else 0.0,
        "fraction",
    )
    m["harness.cache_bytes_per_run"] = (sweep.cache_bytes / st.runs if st else 0.0, "B")
    m["harness.retries"] = (st.retries if st else 0, "count")

    ok_u = [] if limit else run.ok(untraced)
    cycles = sum(r.result.cycles for r in ok_u)
    executed = sums(ok_u, "instructions_executed")
    hits, misses = sums(ok_u, "l1_hits"), sums(ok_u, "l1_misses")
    skipped_u = sums(ok_u, "instructions_skipped")
    m["timing.ipc"] = (executed / cycles if cycles else 0.0, "insts/cycle")
    m["timing.l1_hit_rate"] = (hits / (hits + misses) if hits + misses else 0.0, "fraction")
    m["timing.rf_bank_conflicts_per_kcycle"] = (
        1000.0 * sums(ok_u, "rf_bank_conflicts") / cycles if cycles else 0.0, "1/kcycle"
    )
    m["core.skip_frac"] = (skipped_u / (executed + skipped_u) if executed else 0.0, "fraction")
    m["core.sync_wait_cycles"] = (sums(ok_u, "sync_wait_cycles"), "cycles")
    m["core.leaders_elected"] = (sums(ok_u, "leaders_elected"), "count")

    traced_keys = {suite.op_key(op) for op in traced_ops}
    base_s = sum(r.seconds for r in untraced if suite.op_key(r.op) in traced_keys)
    m["trace.overhead"] = (sum(r.seconds for r in traced[0]) / base_s, "ratio")

    # The workload design the README states, checked (not gated: a
    # later speed-up may legitimately shrink a layer's share).
    core = m["core.self_frac"][0]
    design = {"dac_profile_only_on_paper_sweep": (m["baselines.dac_profile_s"][0] > 0) == wl.sweep}
    if wl.name in ("base-timing", "limit-study"):
        # not 0: every operation's WorkloadRunner runs the compiler pass
        design["core.self_frac<0.02"] = core < 0.02
    if wl.name == "darsie-timing":
        design["core.self_frac>=0.2"] = core >= 0.2
    if limit:
        design["timing.self_frac<0.01"] = m["timing.self_frac"][0] < 0.01
    extra = {
        "untraced_ops": len(untraced),
        "traced_ops": len(traced_ops),
        "calls": calls[0],
        "design": design,
    }
    return m, extra


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(REPRO_DIR, "__init__.py")):
        print(f"perfbench: no program source under {REPRO_DIR}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    fixed_hash_seed()
    sys.path.insert(0, SRC)
    os.environ.pop("REPRO_FAULTS", None)  # no injected faults in timed runs

    import suite

    if args.workload not in suite.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(suite.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = suite.WORKLOADS[args.workload]
    pinned, fingerprint = setup(workload)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    os.makedirs(WORKDIR, exist_ok=True)
    run = Run(workload, args.seed, pinned)
    if args.trace:
        metrics, extra = per_layer(run)
    else:
        metrics, extra = end_to_end(run, args.seconds)

    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.6g} {unit}")
    for line in run.problems + run.failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "jobs": run.jobs, **host_info(fingerprint), **extra,
    }
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": not (run.failures or run.problems),
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
