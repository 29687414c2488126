"""Serving-side view of the content-addressed result store.

The sweep layer owns the store itself (sharded directories, atomic
writes — :mod:`repro.harness.parallel`); this
module adds what a request-serving hot path needs on top:

- one :func:`~repro.harness.parallel.cache_lookup` probe per miss,
  shared verbatim with the sweep layer so the two can never disagree
  about where an entry lives;
- an in-memory LRU of *pre-serialized* response payloads, so a warm key
  costs a dict lookup plus a socket write — no disk, no unpickle, no
  ``json.dumps`` — which is what makes thousands of hits per second
  feasible from a single event loop;
- hit/miss/corruption counters for the ``/stats`` endpoint.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from typing import Optional, Tuple

from repro.harness.parallel import RunSpec, cache_key, cache_lookup, resolve_cache_dir
from repro.harness.runner import RunResult


def encode_result(result: object) -> bytes:
    """Canonical JSON payload for one cached/simulated result.

    Timing runs (the only kind the service admits) serialize their full
    :meth:`~repro.timing.gpu.SimulationResult.to_dict` counters; anything
    else degrades to a ``repr`` so a foreign cache entry can never crash
    the response path.
    """
    if isinstance(result, RunResult):
        payload = {
            "workload": result.workload,
            "variant": result.config_name,
            "cycles": result.cycles,
            "energy_pj": result.energy_pj,
            "sim": result.sim.to_dict(),
        }
    else:
        payload = {"repr": repr(result)}
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


class ResultStore:
    """Read path of the service: memory LRU over the on-disk store."""

    def __init__(self, cache_dir: Optional[str] = None, memory_entries: int = 4096):
        self.cache_dir = resolve_cache_dir(cache_dir)
        self.memory_entries = max(0, int(memory_entries))
        self._memory: "OrderedDict[str, bytes]" = OrderedDict()
        self.memory_hits = 0
        self.store_hits = 0
        self.misses = 0
        self.corrupt_entries = 0

    def key_for(self, spec: RunSpec) -> str:
        return cache_key(spec)

    def get(self, spec: RunSpec, key: str) -> Tuple[Optional[bytes], Optional[str]]:
        """``(payload bytes, source)`` where source is ``"memory"``,
        ``"store"`` or ``None`` on a miss."""
        body = self._memory.get(key)
        if body is not None:
            self._memory.move_to_end(key)
            self.memory_hits += 1
            return body, "memory"
        result, status = cache_lookup(spec, key, self.cache_dir)
        if status == "corrupt":
            self.corrupt_entries += 1
        if result is None:
            self.misses += 1
            return None, None
        body = encode_result(result)
        self.put(key, body)
        self.store_hits += 1
        return body, "store"

    def put(self, key: str, body: bytes) -> None:
        """Install one serialized payload in the memory LRU."""
        if self.memory_entries <= 0:
            return
        self._memory[key] = body
        self._memory.move_to_end(key)
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)

    def __len__(self) -> int:
        return len(self._memory)

    def counters(self) -> dict:
        return {
            "memory_entries": len(self._memory),
            "memory_hits": self.memory_hits,
            "store_hits": self.store_hits,
            "store_misses": self.misses,
            "corrupt_entries": self.corrupt_entries,
        }
