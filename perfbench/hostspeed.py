"""Host-speed reference: fixed Python work timed next to the operations.

The host this benchmark was built on is shared: the same operation's
wall time swings by 20-40 % within a minute, in phases of several
seconds. A run is too short to average the phases away, but they slow
any interpreter-bound work alike. So a run also times a fixed slice of
reference work between its operations, and divides its host times by
``factor()``, the mean slice time over ``NOMINAL_S``. The result reads
as seconds on a host where a slice takes ``NOMINAL_S``.

The slice mixes what the simulator spends its time on: method calls and
small dict updates on a few objects, attribute updates across a working
set of about 4 MB, and numpy reductions over 32-lane masks. On the
2-core Xeon host, log run throughput moved with log slice speed at a
slope of 0.9-1.0 (correlation 0.97) for this mix; a pure interpreter
loop moved at 0.74, a memory walk at 1.4.

The slice never changes with the program, so a faster program reads
faster. Changing the slice or ``NOMINAL_S`` redefines every time metric.
"""

from __future__ import annotations

import glob
import json
import os
import random
import shutil
import statistics
import tempfile
import time
from array import array
from contextlib import contextmanager
from typing import Dict, Iterator

import numpy as np

#: seconds the slice takes at the reference speed
NOMINAL_S = 0.020


class _Warp:
    def __init__(self, i: int):
        self.pc = i % 7
        self.mask = np.ones(32, dtype=bool)
        self.regs: dict = {}
        self.count = 0

    def step(self, table):
        op = table[self.pc]
        self.regs[op] = self.regs.get(op, 0) + 1
        self.count += 1
        self.pc = (self.pc + 3) % len(table)
        return op


class _Cell:
    __slots__ = ("a", "b", "c")

    def __init__(self, i: int):
        # small ints are shared objects: the cells stay ~4 MB in all
        self.a, self.b, self.c = i & 127, i & 255, 0


_ORDER = array("l", range(60000))
random.Random(1).shuffle(_ORDER)
_CELLS = [_Cell(i) for i in range(len(_ORDER))]
_MASKS = [np.random.RandomState(i).rand(32) > 0.3 for i in range(64)]


def _calls(iters: int = 1300) -> int:
    table = [("op", i) for i in range(11)]
    warps = [_Warp(i) for i in range(16)]
    lanes = np.arange(32)
    acc = 0
    for c in range(iters):
        for w in warps:
            if w.step(table)[1] & 1:
                acc += len(w.regs)
        if c % 8 == 0:
            acc += int(np.all(warps[c % 16].mask)) + int(lanes[c % 32])
    return acc


def _walk(n: int = 9000) -> int:
    acc, last = 0, {}
    for j in range(n):
        cell = _CELLS[_ORDER[j]]
        cell.a += 1
        acc += cell.b
        cell.c = acc & 0xFFFF
        last[j & 7] = cell
    return acc


def _masks(n: int = 800) -> int:
    acc = 0
    for j in range(n):
        m = _MASKS[j & 63]
        if np.all(m):
            acc += 1
        elif np.any(m):
            acc += int(m.sum())
    return acc


def reference_slice() -> int:
    return _calls() + _walk() + _masks()


def _timed_slice() -> float:
    start = time.perf_counter()
    reference_slice()
    return time.perf_counter() - start


class HostSpeed:
    """Reference slices timed during one phase of a run."""

    def __init__(self) -> None:
        self.samples: list = []

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            self.samples.append(_timed_slice())

    @contextmanager
    def in_workers(self, workdir: str) -> Iterator[Dict[str, float]]:
        """Time a slice at the start of every ``WorkloadRunner.run``.

        A sweep's pool keeps every core busy, so the slices run inside
        the pool workers, which fork while the wrapper is in place and
        spill their timings to files.  Yields a dict, filled on exit,
        from operation key to the seconds its slice added to it.
        """
        from repro.harness.runner import WorkloadRunner

        original = WorkloadRunner.run
        spill_dir = tempfile.mkdtemp(prefix="hostspeed-", dir=workdir)

        def run(runner, config_name, *args, **kwargs):
            seconds = _timed_slice()
            path = os.path.join(spill_dir, f"{os.getpid()}.jsonl")
            with open(path, "a") as fh:
                fh.write(json.dumps([f"{runner.workload.abbr}/{config_name}", seconds]) + "\n")
            return original(runner, config_name, *args, **kwargs)

        added: Dict[str, float] = {}
        WorkloadRunner.run = run
        try:
            yield added
        finally:
            WorkloadRunner.run = original
            for path in glob.glob(os.path.join(spill_dir, "*.jsonl")):
                with open(path) as fh:
                    for line in fh:
                        key, seconds = json.loads(line)
                        added[key] = seconds
                        self.samples.append(seconds)
            shutil.rmtree(spill_dir, ignore_errors=True)

    def factor(self) -> float:
        """How much slower than the reference speed the host ran."""
        return statistics.mean(self.samples) / NOMINAL_S
