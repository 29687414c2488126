"""Execution tracing for the redundancy limit studies.

The taxonomy studies (Figures 1 and 2) need, for every dynamically
executed instruction, the *pattern* its output vector makes and whether
that pattern repeats across warps (TB-wide) or across the whole grid.

Storing every 32-lane vector would be prohibitive, so the tracer folds
each output into a compact :class:`ValueSummary` at record time:

- ``uniform``  — every lane holds the same scalar; summarised by value;
- ``affine``   — lanes form ``base + stride * lane`` with stride != 0;
  summarised by ``(base, stride)``;
- ``unstructured`` — anything else; summarised by a digest of the raw
  lane bytes.

Two warps executed the same redundant instruction iff their summaries
compare equal — exactly the paper's definition: affine redundancy is a
repeated ``(base, stride)`` pair, unstructured redundancy is equal vector
values "with no discernible pattern" (Section 2).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.isa.instructions import Instruction, Opcode, SFU_OPS

#: Summary pattern kinds.
UNIFORM = "uniform"
AFFINE = "affine"
UNSTRUCTURED = "unstructured"
NONE = "none"          # instruction produced no register value


@dataclass(frozen=True)
class ValueSummary:
    """Compact, comparable description of one 32-lane output vector."""

    kind: str
    base: float = 0.0
    stride: float = 0.0
    digest: int = 0

    @classmethod
    def of(cls, values: np.ndarray) -> "ValueSummary":
        if values.dtype == bool:
            values = values.astype(np.int64)
        first = values[0]
        if np.all(values == first):
            return cls(kind=UNIFORM, base=float(first))
        diffs = np.diff(values)
        # (A lone lane that is not uniform is NaN: unstructured.)
        if diffs.size and np.all(diffs == diffs[0]):
            return cls(kind=AFFINE, base=float(first), stride=float(diffs[0]))
        return cls(kind=UNSTRUCTURED, digest=zlib.crc32(np.ascontiguousarray(values).tobytes()))

    @classmethod
    def none(cls) -> "ValueSummary":
        return cls(kind=NONE)


@dataclass
class DynamicInstruction:
    """One executed warp instruction, as seen by the limit study."""

    __slots__ = ("tb_index", "warp_id", "pc", "occurrence", "opclass", "summary", "divergent")

    tb_index: int
    warp_id: int
    pc: int
    occurrence: int
    opclass: str
    summary: ValueSummary
    divergent: bool


def _opclass(inst: Instruction) -> str:
    if inst.opcode is Opcode.LD:
        return "load"
    if inst.opcode is Opcode.ST:
        return "store"
    if inst.opcode is Opcode.ATOM:
        return "atomic"
    if inst.is_branch:
        return "branch"
    if inst.opcode in (Opcode.BAR, Opcode.EXIT, Opcode.NOP):
        return "control"
    if inst.opcode in SFU_OPS:
        return "sfu"
    return "alu"


_NO_VALUE = ValueSummary.none()


def summarize_rows(rows: np.ndarray, interned: Dict[tuple, ValueSummary]) -> List[ValueSummary]:
    """:meth:`ValueSummary.of` of every row of an ``(N, lanes)`` array,
    with one vectorized pass per test instead of one per row.

    Bool rows are promoted to int64 first, as in ``of``; the per-row
    comparisons, the wrapping int64 differences and the ``float()``
    conversions are the same element operations, so each summary equals
    the one ``of`` gives for that row, down to its digest bytes.
    Summaries are shared through ``interned``, keyed by the bit patterns
    of base and stride so ``-0.0`` and ``0.0`` stay apart.
    """
    if rows.dtype == bool:
        rows = rows.astype(np.int64)
    first = rows[:, 0]
    uniform = (rows == first[:, None]).all(axis=1)
    diffs = np.diff(rows, axis=1)
    bases = first.astype(np.float64)
    if diffs.shape[1]:
        affine = (diffs == diffs[:, :1]).all(axis=1)
        strides = diffs[:, 0].astype(np.float64)
    else:
        affine = uniform
        strides = np.zeros(len(rows))
    base_bits = bases.view(np.int64).tolist()
    stride_bits = strides.view(np.int64).tolist()
    out = []
    for i, (is_uniform, is_affine) in enumerate(zip(uniform.tolist(), affine.tolist())):
        if is_uniform:
            key: tuple = (UNIFORM, base_bits[i])
        elif is_affine:
            key = (AFFINE, base_bits[i], stride_bits[i])
        else:
            key = (UNSTRUCTURED, zlib.crc32(rows[i].tobytes()))
        summary = interned.get(key)
        if summary is None:
            if is_uniform:
                summary = ValueSummary(UNIFORM, float(bases[i]))
            elif is_affine:
                summary = ValueSummary(AFFINE, float(bases[i]), float(strides[i]))
            else:
                summary = ValueSummary(UNSTRUCTURED, digest=key[1])
            interned[key] = summary
        out.append(summary)
    return out


#: most destination vectors buffered before a flush, so the buffer of a
#: long TB stays small
_FLUSH_ROWS = 1024


class Tracer:
    """Records executed instructions into an :class:`ExecutionTrace`.

    A record's value summary is filled in bulk: :meth:`record` buffers
    the destination vector, and :meth:`flush` summarises the buffer one
    ``(N, lanes)`` array per dtype.  The buffer is flushed at every TB
    boundary, whenever it holds ``_FLUSH_ROWS`` vectors, and whenever
    :attr:`trace` is read, so a reader never sees a pending summary.
    """

    def __init__(self) -> None:
        self._trace = ExecutionTrace()
        self._occurrence: Dict[Tuple[int, int, int], int] = {}
        #: pc -> (instruction, opclass)
        self._opclass: Dict[int, Tuple[Instruction, str]] = {}
        #: records awaiting a summary and their live-lane vectors
        self._pending: List[DynamicInstruction] = []
        self._values: List[np.ndarray] = []
        #: one shared object per distinct summary; see summarize_rows
        self._summaries: Dict[tuple, ValueSummary] = {}

    @property
    def trace(self) -> "ExecutionTrace":
        self.flush()
        return self._trace

    def begin_block(self, tb) -> None:
        self.flush()
        trace = self._trace
        trace.warps_per_block = max(trace.warps_per_block, len(tb.warps))
        trace.num_blocks = max(trace.num_blocks, tb.tb_index + 1)

    def record(self, tb, warp, result) -> None:
        inst = result.inst
        pc = inst.pc
        key = (tb.tb_index, warp.warp_id, pc)
        occ = self._occurrence.get(key, 0)
        self._occurrence[key] = occ + 1
        opclass = self._opclass.get(pc)
        if opclass is None or opclass[0] is not inst:
            opclass = self._opclass[pc] = (inst, _opclass(inst))
        rec = DynamicInstruction(
            tb.tb_index, warp.warp_id, pc, occ, opclass[1], _NO_VALUE, not result.full_warp
        )
        self._trace.records.append(rec)
        values = result.dest_value
        if values is not None:
            # A partial warp's dead lanes hold whatever the ALU computed
            # over stale inputs; they are never architecturally written,
            # so they must not break uniformity (or fabricate it).
            hw_mask = warp.hw_mask
            if b"\x00" in hw_mask.tobytes() and values.shape == hw_mask.shape:
                values = values[hw_mask]
            self._pending.append(rec)
            self._values.append(values)
            if len(self._values) >= _FLUSH_ROWS:
                self.flush()

    def flush(self) -> None:
        """Summarise every buffered destination vector."""
        pending, values = self._pending, self._values
        if not pending:
            return
        self._pending, self._values = [], []
        groups: Dict[Tuple[np.dtype, int], List[int]] = {}
        for i, v in enumerate(values):
            groups.setdefault((v.dtype, len(v)), []).append(i)
        for rows in groups.values():
            summaries = summarize_rows(np.stack([values[i] for i in rows]), self._summaries)
            for i, summary in zip(rows, summaries):
                pending[i].summary = summary


class ExecutionTrace:
    """All dynamic instructions of one functional kernel run."""

    def __init__(self) -> None:
        self.records: List[DynamicInstruction] = []
        self.warps_per_block: int = 0
        self.num_blocks: int = 0

    def __len__(self) -> int:
        return len(self.records)

    def total_executed(self) -> int:
        return len(self.records)

    def grouped_by_tb(self) -> Iterator[Tuple[Tuple[int, int, int], List[DynamicInstruction]]]:
        """Group records by (tb, pc, occurrence) — one group per static
        instruction instance, holding the per-warp executions."""
        groups: Dict[Tuple[int, int, int], List[DynamicInstruction]] = {}
        for rec in self.records:
            groups.setdefault((rec.tb_index, rec.pc, rec.occurrence), []).append(rec)
        return iter(groups.items())

    def grouped_by_grid(self) -> Iterator[Tuple[Tuple[int, int], List[DynamicInstruction]]]:
        """Group records by (pc, occurrence) across the entire grid."""
        groups: Dict[Tuple[int, int], List[DynamicInstruction]] = {}
        for rec in self.records:
            groups.setdefault((rec.pc, rec.occurrence), []).append(rec)
        return iter(groups.items())
