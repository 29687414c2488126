"""Per-layer measurement from outside the program: spans and a bucketed
cProfile.

Spans time calls into the program's public functions.  While recording,
the named module attributes are replaced by timing wrappers and put back
afterwards, so the code under test is the code that ships.  Pool
workers forked while spans record inherit the wrappers and append their
spans to a per-process file, which the parent reads after the sweep.

The profile buckets self time and call counts by the ``src/repro``
package a function lives in.  Everything outside ``repro`` (numpy, the
standard library, builtins, dataclass-generated methods) is ``hostlib``;
the benchmark's own frames are left out.
"""

from __future__ import annotations

import cProfile
import glob
import importlib
import json
import os
import pstats
import shutil
import tempfile
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

LAYERS = (
    "timing", "core", "simt", "isa", "staticlib", "baselines",
    "energy", "analysis", "workloads", "harness", "hostlib",
)

#: span name -> the (module, attribute) names that are timed as it
SPANS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "workloads.build_s": (
        ("repro.workloads", "build_workload"),
        ("repro.harness.parallel", "build_workload"),
    ),
    "workloads.verify_s": (("repro.workloads.base", "Workload.verify"),),
    "core.analyze_s": (("repro.harness.runner", "analyze_program"),),
    "baselines.dac_profile_s": (("repro.harness.runner", "build_dac_profile"),),
    "timing.simulate_s": (("repro.harness.runner", "simulate"),),
    "simt.functional_s": (("repro.harness.runner", "run_functional"),),
    "analysis.limit_study_s": (("suite", "analyse_trace"),),
}


class SpanRecorder:
    """Collects (span name, seconds) from this process and its forks."""

    def __init__(self, workdir: str):
        self.pid = os.getpid()
        self.workdir = workdir
        self.spill_dir = ""
        self.spans: Dict[str, List[float]] = defaultdict(list)

    def _wrap(self, name: str, fn):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._record(name, time.perf_counter() - start)

        return timed

    def _record(self, name: str, seconds: float) -> None:
        if os.getpid() == self.pid:
            self.spans[name].append(seconds)
            return
        path = os.path.join(self.spill_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a") as fh:
            fh.write(json.dumps([name, seconds]) + "\n")

    @contextmanager
    def recording(self) -> Iterator["SpanRecorder"]:
        patched = []
        self.spill_dir = tempfile.mkdtemp(prefix="spans-", dir=self.workdir)
        try:
            for name, targets in SPANS.items():
                for module, attr in targets:
                    owner = importlib.import_module(module)
                    *path, leaf = attr.split(".")
                    for part in path:
                        owner = getattr(owner, part)
                    original = getattr(owner, leaf)
                    patched.append((owner, leaf, original))
                    setattr(owner, leaf, self._wrap(name, original))
            yield self
        finally:
            for owner, leaf, original in reversed(patched):
                setattr(owner, leaf, original)
            self._collect_spills()
            shutil.rmtree(self.spill_dir, ignore_errors=True)

    def _collect_spills(self) -> None:
        for path in glob.glob(os.path.join(self.spill_dir, "spans-*.jsonl")):
            with open(path) as fh:
                for line in fh:
                    name, seconds = json.loads(line)
                    self.spans[name].append(seconds)


def bucket(prof: cProfile.Profile, repro_dir: str, bench_dir: str) -> Dict[str, Dict[str, float]]:
    """Self seconds and call counts per layer of one profile."""
    repro_prefix = os.path.join(repro_dir, "")
    bench_prefix = os.path.join(bench_dir, "")
    out: Dict[str, Dict[str, float]] = defaultdict(lambda: {"self_s": 0.0, "calls": 0})
    for (filename, _, func), (_, calls, self_s, _, _) in pstats.Stats(prof).stats.items():
        if filename.startswith(bench_prefix) or filename == cProfile.__file__ or "_lsprof" in func:
            continue
        if filename.startswith(repro_prefix):
            package = filename[len(repro_prefix):].split(os.sep)[0]
            # Top-level modules (config.py, variants.py) configure runs.
            layer = "harness" if package.endswith(".py") else package
        else:
            layer = "hostlib"
        out[layer]["self_s"] += self_s
        out[layer]["calls"] += calls
    return dict(out)
