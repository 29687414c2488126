"""Typed inter-stage buffers of the staged SM pipeline.

The stage objects in :mod:`repro.timing.stages` communicate only through
the structures defined here:

- :class:`IBufferEntry` / :class:`IBuffer` — the per-warp instruction
  buffer between fetch/decode and issue.  The buffer maintains its own
  occupancy counters (real entries vs zero-cost entries) and mirrors the
  zero-cost population into a pipeline-wide :class:`ZeroCostLedger` so
  the decode-skip drain can early-out in O(1).  Every mutation also
  marks the owning warp in the pipeline's dirty set, so the issue stage
  re-derives that warp's readiness before its next selection slot, and
  sets its bit in the pipeline's ``skip_watch`` mask, so a skip engine
  re-probes the warp on its next pass.
- :class:`WritebackQueue` — the latency-ordered queue of in-flight
  instructions between execute and writeback (replaces the ad-hoc heap
  the monolithic core carried).

Every structure is deliberately dumb: it holds state and keeps counters
consistent, but policy (what to push, when to pop) lives in the stages.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Deque, Dict, List, Optional, Tuple

from repro.isa.instructions import Instruction

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.timing.core import WarpRuntime
    from repro.timing.stages import StagePipeline


@dataclass
class IBufferEntry:
    """One decoded instruction waiting to issue."""

    inst: Instruction
    is_leader: bool = False
    #: operand values captured at fetch time (renamed sources)
    overrides: Optional[Dict[str, Any]] = None
    #: DAC-IDEAL zero-cost instruction (drains outside issue bandwidth,
    #: executing functionally when it reaches the head of the queue)
    free: bool = False
    #: DARSIE skip token: the instruction was eliminated before fetch —
    #: the token only advances the architectural PC, in program order,
    #: when it reaches the head of the queue
    skip_token: bool = False

    @property
    def zero_cost(self) -> bool:
        """Entries that were never fetched and occupy no real slot."""
        return self.free or self.skip_token


class ZeroCostLedger:
    """Pipeline-wide count of queued zero-cost I-buffer entries.

    The decode-skip stage drains free entries and skip tokens outside
    issue bandwidth; this ledger lets it skip the per-warp scan entirely
    on the (common) cycles where no zero-cost entry exists anywhere.
    """

    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total: int = 0


class IBuffer:
    """A warp's instruction buffer with incremental occupancy counters.

    ``buffered`` counts entries that occupy real I-buffer slots (counted
    against :attr:`~repro.timing.config.GPUConfig.ibuffer_entries`);
    ``zero_cost`` counts free entries and skip tokens, which were never
    fetched.  All mutation goes through :meth:`push` / :meth:`pop` /
    :meth:`clear` so the counters (and the shared ledger) can never
    drift from the queue contents.  Each of them also adds ``owner``
    to the pipeline's ``dirty`` set (the head entry is an input of the
    issue stage's ready mask) and sets ``owner.skip_bit`` in the
    pipeline's ``skip_watch`` mask (every change to the warp's fetch PC,
    control state or SIMT stack happens at a push or follows a pop).
    """

    __slots__ = (
        "entries", "buffered", "zero_cost", "_ledger", "_dirty", "_pipeline",
        "_owner", "_skip_bit",
    )

    def __init__(self, pipeline: "StagePipeline", owner: "WarpRuntime") -> None:
        #: underlying queue — read-only for peeking; mutate via methods
        self.entries: Deque[IBufferEntry] = deque()
        self.buffered: int = 0
        self.zero_cost: int = 0
        self._ledger = pipeline.zero_cost
        self._dirty = pipeline.dirty
        self._pipeline = pipeline
        self._owner = owner
        self._skip_bit: int = owner.skip_bit

    def __len__(self) -> int:
        return len(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __getitem__(self, index: int) -> IBufferEntry:
        return self.entries[index]

    def push(self, entry: IBufferEntry) -> None:
        self.entries.append(entry)
        self._dirty.add(self._owner)
        self._pipeline.skip_watch |= self._skip_bit
        if entry.free or entry.skip_token:
            self.zero_cost += 1
            self._ledger.total += 1
        else:
            self.buffered += 1

    def pop(self) -> IBufferEntry:
        entry = self.entries.popleft()
        self._dirty.add(self._owner)
        self._pipeline.skip_watch |= self._skip_bit
        if entry.free or entry.skip_token:
            self.zero_cost -= 1
            self._ledger.total -= 1
        else:
            self.buffered -= 1
        return entry

    def clear(self) -> None:
        if self.zero_cost:
            self._ledger.total -= self.zero_cost
        self.entries.clear()
        self._dirty.add(self._owner)
        self._pipeline.skip_watch |= self._skip_bit
        self.buffered = 0
        self.zero_cost = 0

    def close(self) -> None:
        """Drop the links to the owner and the pipeline (the owning
        warp's threadblock finished; see ``TBRuntime.close``)."""
        del self._owner, self._pipeline, self._dirty, self._ledger

    def detach(self) -> None:
        """Remove this buffer's zero-cost population from the shared
        ledger (the owning warp's TB left the SM)."""
        if self.zero_cost:
            self._ledger.total -= self.zero_cost
            self.zero_cost = 0


#: one in-flight instruction: (ready cycle, seq, warp, inst, meta)
InflightItem = Tuple[int, int, "WarpRuntime", Instruction, Dict[str, Any]]


@dataclass
class WritebackQueue:
    """Latency-ordered in-flight instructions awaiting writeback.

    The execute stage :meth:`schedule`\\ s each instruction with its
    completion cycle; the writeback stage :meth:`pop_due`\\ s the ones
    due.  ``seq`` breaks ready-cycle ties in program (issue) order, so
    writeback order — and with it LeaderWB visibility — is deterministic.
    """

    _heap: List[InflightItem] = field(default_factory=list)
    _seq: int = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def schedule(
        self, ready: int, wrt: "WarpRuntime", inst: Instruction, meta: Dict[str, Any]
    ) -> None:
        self._seq += 1
        wrt.inflight += 1
        heapq.heappush(self._heap, (ready, self._seq, wrt, inst, meta))

    def pending(self) -> List[InflightItem]:
        """Snapshot of the in-flight instructions (oracle/debug aid)."""
        return list(self._heap)

    def pop_due(self, cycle: int) -> List[InflightItem]:
        """Every in-flight instruction due at or before ``cycle``, in
        writeback order (the writeback stage's one call per cycle)."""
        heap = self._heap
        due: List[InflightItem] = []
        while heap and heap[0][0] <= cycle:
            due.append(heapq.heappop(heap))
        return due

    def next_ready(self) -> Optional[int]:
        """Cycle at which the earliest in-flight instruction completes."""
        return self._heap[0][0] if self._heap else None
