"""Explicit stage objects of the SM pipeline (Section 3 / Figure 4).

The monolithic ``SMCore`` is split into six stage classes, each with a
``tick(cycle) -> activity`` contract, communicating only through the
typed buffers in :mod:`repro.timing.buffers`:

- :class:`WritebackStage` — pops due instructions off the shared
  :class:`~repro.timing.buffers.WritebackQueue`, releases scoreboard
  entries and fires the frontend's ``on_writeback`` (LeaderWB) hook.
- :class:`DecodeSkipStage` — the zero-cost, in-order drain of eliminated
  instructions (DARSIE skip tokens, DAC-IDEAL free entries) at the head
  of each warp's I-buffer.
- :class:`IssueStage` — the GTO / loose-round-robin warp schedulers,
  wake-driven: per-scheduler age-ordered ``cand``/``ready`` bitmasks
  replace a per-cycle scan of every warp.  A selected instruction
  travels through operand collection into execute *in the same cycle*
  (back-to-back pipeline with full bypass — exactly the timing the
  monolithic core modelled).
- :class:`OperandCollectStage` — register-file reads and bank-conflict
  accounting, including DARSIE's rename-space conflicts (Section 6.1).
- :class:`ExecuteStage` — functional execution, latency modelling and
  post-execute control flow (branch sync, barriers, warp retirement).
- :class:`FetchStage` — the frontend's per-cycle hook (DARSIE's skip
  engine runs "in parallel with the fetch scheduler"), the loose
  round-robin fetch scheduler and the I-cache/decode path.

:class:`StagePipeline` assembles the stages, owns the shared buffers and
the per-tick activity counter, and preserves the monolith's exact intra-
cycle order: writeback -> decode-skip -> issue -> fetch -> wait
accounting.  A frontend may swap in an alternative issue stage via
:meth:`repro.timing.frontend.Frontend.make_issue_stage` (the
``DUAL-ISSUE`` variant swaps in :class:`DualIssueStage`).

Every stat is counted by exactly one stage, in the same per-cycle order
the monolith used, so the refactor is bit-identical under the golden
contract (``tests/timing/data/golden_tiny.json``) and the event-skip
equivalence tests.

The issue masks are kept current by dirty marks, not rediscovered: a
warp joins :attr:`StagePipeline.dirty` on I-buffer ``push``/``pop``/
``clear``, on writeback's scoreboard release, on
``WarpRuntime.resync_fetch`` (every barrier, SILICON-SYNC and DARSIE
branch-sync release calls it) and at launch, and the issue stage
re-derives the bits of dirty warps before each selection slot.  This
list is the contract: a new input to issue readiness must mark the warp
dirty wherever it changes (``tests/timing/test_issue_masks.py`` checks
the masks against a from-scratch recomputation after every tick).

The skip engine's watch mask (:attr:`StagePipeline.skip_watch`) is kept
the same way; its marks are listed in :mod:`repro.timing.core`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro.isa.instructions import INSTRUCTION_BYTES, Instruction, Opcode
from repro.isa.operands import MemSpace
from repro.timing.buffers import (
    IBufferEntry,
    IssueSlot,
    WritebackQueue,
    ZeroCostLedger,
)
from repro.timing.frontend import FetchAction
from repro.timing.stats import EnergyEvent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.simt.executor import StepResult
    from repro.timing.core import SMCore, TBRuntime, WarpRuntime


class Stage:
    """One pipeline stage bound to a :class:`StagePipeline`.

    ``tick`` advances the stage one cycle and returns the number of
    state changes it (and any frontend hooks it invoked) produced; all
    activity flows through the pipeline's single accumulator so the
    event-skip contract sees one consistent count.
    """

    name = "stage"

    def __init__(self, pipeline: "StagePipeline") -> None:
        self.pipeline = pipeline
        self.core: "SMCore" = pipeline.core

    def tick(self, cycle: int) -> int:
        before = self.pipeline._activity
        self.run(cycle)
        return self.pipeline._activity - before

    def run(self, cycle: int) -> None:  # pragma: no cover - overridden
        pass


class WritebackStage(Stage):
    """Retire due instructions: scoreboard release + LeaderWB hook."""

    name = "writeback"

    def run(self, cycle: int) -> None:
        core = self.core
        wbq = self.pipeline.wbq
        while True:
            item = wbq.pop_ready(cycle)
            if item is None:
                break
            _ready, _seq, wrt, inst, meta = item
            self.pipeline.note()
            wrt.inflight -= 1
            if core.pipeline_trace is not None:
                core.pipeline_trace.record(
                    cycle, core.sm_id, wrt.tb_rt.tb.tb_index, wrt.warp.warp_id,
                    "W", inst.pc,
                )
            dests = meta.get("dests", ())
            if dests:
                for key in dests:
                    wrt.scoreboard.discard(key)
                self.pipeline.dirty.add(wrt)
                core.stats.energy_events[EnergyEvent.RF_WRITE] += 1
            core.frontend.on_writeback(wrt, inst, meta)


class DecodeSkipStage(Stage):
    """Zero-cost, in-order drain of eliminated instructions.

    DARSIE skip tokens only advance the architectural PC (the leader
    executed the instruction; the follower shares its value through
    renaming).  DAC-IDEAL free entries execute functionally — the
    idealized affine stream — without pipeline cost.
    """

    name = "decode-skip"

    def run(self, cycle: int) -> None:
        if self.pipeline.zero_cost.total == 0:
            return
        core = self.core
        for wrt in core.warps:
            ibuf = wrt.ibuffer
            if ibuf.zero_cost == 0:
                continue
            entries = ibuf.entries
            while entries and (entries[0].free or entries[0].skip_token):
                entry = entries[0]
                if entry.skip_token:
                    ibuf.pop()
                    self.pipeline.note()
                    assert wrt.warp.pc == entry.inst.pc, (
                        f"skip token out of order: arch pc {wrt.warp.pc:#x}, "
                        f"token pc {entry.inst.pc:#x}"
                    )
                    wrt.warp.pc += INSTRUCTION_BYTES
                    wrt.warp.maybe_reconverge()
                    continue
                if _hazard(wrt, entry.inst):
                    break
                ibuf.pop()
                self.pipeline.note()
                core.engine.execute_instruction(wrt.tb_rt.tb, wrt.warp, entry.inst)
                core.stats.instructions_skipped += 1


def _hazard(wrt: "WarpRuntime", inst: Instruction) -> bool:
    sb = wrt.scoreboard
    return bool(sb) and not sb.isdisjoint(inst.hazard_keys)


class IssueStage(Stage):
    """The per-SM warp schedulers (GTO per Table 2, or loose RR).

    Wake-driven: instead of probing every warp every cycle, each
    scheduler keeps two age-ordered bitmasks (bit ``warp.issue_bit``):

    - ``cand`` — the warp is live and its I-buffer is non-empty;
    - ``ready`` — ``cand``, and the head is a real instruction, the warp
      is neither at a barrier nor branch-sync-blocked, and the head has
      no scoreboard hazard (exactly when :meth:`_issue_from_warp` issues).

    The masks are re-derived only for warps in the pipeline's ``dirty``
    set, before every selection slot (an execute in one scheduler can
    release a barrier for the next; DUAL-ISSUE's second slot sees the
    first slot's effects).  Selected instructions are handed to operand
    collection and execute as an :class:`~repro.timing.buffers.IssueSlot`
    within the same cycle.
    """

    name = "issue"
    #: distinct warps each scheduler may issue from per cycle
    warps_per_cycle = 1

    def __init__(self, pipeline: "StagePipeline") -> None:
        super().__init__(pipeline)
        n = self.core.config.num_schedulers
        self._greedy: List[Optional["WarpRuntime"]] = [None] * n
        self._issue_rr: List[int] = [0] * n
        self._cand: List[int] = [0] * n
        self._ready: List[int] = [0] * n
        #: per scheduler: issue bit -> resident warp
        self._warp_of: List[Dict[int, "WarpRuntime"]] = [{} for _ in range(n)]

    # -- residency bookkeeping (driven by the core) -------------------------

    def add_warp(self, wrt: "WarpRuntime") -> None:
        self._warp_of[wrt.scheduler_id][wrt.issue_bit] = wrt
        self.pipeline.dirty.add(wrt)
        self.pipeline.skip_watch |= wrt.skip_bit

    def remove_tb(self, tb_rt: "TBRuntime") -> None:
        dirty = self.pipeline.dirty
        for wrt in tb_rt.warps:
            sched, bit = wrt.scheduler_id, wrt.issue_bit
            del self._warp_of[sched][bit]
            self._cand[sched] &= ~bit
            self._ready[sched] &= ~bit
            dirty.discard(wrt)

    def advance_idle(self, delta: int) -> None:
        """Replay ``delta`` skipped idle cycles: each LRR scheduler that
        had issue candidates advances its rotation per cycle."""
        if self.core.config.scheduler_policy == "lrr":
            if self.pipeline.dirty:
                self._refresh()
            for sched, cand in enumerate(self._cand):
                if cand:
                    self._issue_rr[sched] += delta

    def _refresh(self) -> None:
        """Re-derive the ``cand``/``ready`` bits of every dirty warp."""
        cand = self._cand
        ready = self._ready
        dirty = self.pipeline.dirty
        for wrt in dirty:
            sched = wrt.scheduler_id
            bit = wrt.issue_bit
            entries = wrt.ibuffer.entries
            if not entries or wrt.warp.exited:
                cand[sched] &= ~bit
                ready[sched] &= ~bit
                continue
            cand[sched] |= bit
            head = entries[0]
            if (
                head.free
                or head.skip_token
                or wrt.warp.at_barrier
                or wrt.branch_sync_blocked
                or _hazard(wrt, head.inst)
            ):
                ready[sched] &= ~bit
            else:
                ready[sched] |= bit
        dirty.clear()

    # -- the per-cycle schedulers -------------------------------------------

    def run(self, cycle: int) -> None:
        if self.core.config.scheduler_policy == "lrr":
            self._run_lrr(cycle)
        else:
            self._run_gto(cycle)

    def _run_gto(self, cycle: int) -> None:
        # Greedy-then-oldest (Table 2's GTO): the greedy warp if it is
        # ready, else the oldest ready warp (the lowest set bit).  With
        # candidates but nothing ready the greedy pointer is dropped;
        # with no candidates at all it is kept.
        dirty = self.pipeline.dirty
        for sched in range(len(self._cand)):
            issued = 0
            for _slot in range(self.warps_per_cycle):
                if dirty:
                    self._refresh()
                if not self._cand[sched] & ~issued:
                    break
                ready = self._ready[sched] & ~issued
                if not ready:
                    self._greedy[sched] = None
                    break
                wrt = self._greedy[sched]
                if wrt is None or not ready & wrt.issue_bit:
                    wrt = self._warp_of[sched][ready & -ready]
                issued_n = self._issue_from_warp(cycle, wrt)
                assert issued_n, "a ready warp must issue"
                self._greedy[sched] = wrt
                issued |= wrt.issue_bit

    def _run_lrr(self, cycle: int) -> None:
        # Loose round-robin: each cycle the rotation starts one candidate
        # further along the age-ordered candidates of the cycle's start.
        dirty = self.pipeline.dirty
        for sched in range(len(self._cand)):
            if dirty:
                self._refresh()
            cand = self._cand[sched]
            if not cand:
                continue
            rot = self._issue_rr[sched] % bin(cand).count("1")
            self._issue_rr[sched] += 1
            rest = cand
            for _ in range(rot):
                rest &= rest - 1
            start = rest & -rest
            at_or_after = ~(start - 1)
            issued = 0
            for _slot in range(self.warps_per_cycle):
                if dirty:
                    self._refresh()
                ready = self._ready[sched] & cand & ~issued
                if not ready:
                    break
                pick = ready & at_or_after or ready
                wrt = self._warp_of[sched][pick & -pick]
                issued_n = self._issue_from_warp(cycle, wrt)
                assert issued_n, "a ready warp must issue"
                issued |= wrt.issue_bit

    def _issue_from_warp(self, cycle: int, wrt: "WarpRuntime") -> int:
        issued = 0
        core = self.core
        pipeline = self.pipeline
        stats = core.stats
        ibuf = wrt.ibuffer
        entries = ibuf.entries
        issue_width = core.config.issue_width
        while issued < issue_width and entries:
            entry = entries[0]
            if entry.free or entry.skip_token:
                break  # handled by the decode-skip drain
            if wrt.warp.at_barrier or wrt.branch_sync_blocked:
                break
            if _hazard(wrt, entry.inst):
                break
            ibuf.pop()
            pipeline.note()
            if core.pipeline_trace is not None:
                core.pipeline_trace.record(
                    cycle, core.sm_id, wrt.tb_rt.tb.tb_index, wrt.warp.warp_id,
                    "I", entry.inst.pc,
                )
            stats.instructions_issued += 1
            stats.energy_events[EnergyEvent.ISSUE] += 1
            slot = IssueSlot(warp=wrt, entry=entry, cycle=cycle)
            pipeline.operand_collect.collect(slot)
            pipeline.execute.execute(slot)
            issued += 1
            if entry.inst.opcode in (Opcode.BRA, Opcode.EXIT, Opcode.BAR):
                break
        return issued


class DualIssueStage(IssueStage):
    """An alternative issue stage: each scheduler may issue from up to
    two *distinct* warps per cycle (the ``DUAL-ISSUE`` variant).

    Everything else — GTO/LRR selection order, per-warp ``issue_width``,
    scoreboarding, control-flow issue breaks — is inherited unchanged,
    which is exactly the point of the stage seam: one class attribute is
    the whole microarchitectural change.
    """

    name = "dual-issue"
    warps_per_cycle = 2


class OperandCollectStage(Stage):
    """Register-file operand reads and bank-conflict accounting."""

    name = "operand-collect"

    def collect(self, slot: IssueSlot) -> None:
        stats = self.core.stats
        inst = slot.entry.inst
        stats.energy_events[EnergyEvent.RF_READ] += inst.rf_read_count
        stats.rf_bank_conflicts += self._bank_conflicts(inst, slot.entry)

    def _bank_conflicts(self, inst: Instruction, entry: IBufferEntry) -> int:
        """Same-cycle operand bank collisions (coarse operand-collector
        model: each distinct source register occupies one bank read)."""
        conflicts, banks = inst.bank_info(self.core.config.rf_banks)
        if entry.overrides:
            # Renamed operands live in the strided rename space; reads
            # from it collide with the warp's own operand reads
            # (Section 6.1's DARSIE-induced bank conflicts).
            rename_banks = entry.overrides.get("banks", ())
            collide = sum(1 for b in rename_banks if b in banks)
            conflicts += collide
            self.core.stats.darsie_bank_conflicts += collide
        return conflicts


class ExecuteStage(Stage):
    """Functional execution at issue, latency modelling, post-execute
    control flow, and writeback scheduling."""

    name = "execute"

    def execute(self, slot: IssueSlot) -> None:
        core = self.core
        stats = core.stats
        wrt = slot.warp
        entry = slot.entry
        inst = entry.inst
        cycle = slot.cycle

        eliminate_kind = core.frontend.eliminate_at_issue(wrt, inst)
        overrides = entry.overrides or {}
        depth_before = len(wrt.warp.stack)
        result = core.engine.execute_instruction(
            wrt.tb_rt.tb,
            wrt.warp,
            inst,
            reg_overrides=overrides.get("regs"),
            pred_overrides=overrides.get("preds"),
        )
        stats.instructions_executed += 1
        if depth_before > 1:
            stats.divergence_serialized_instructions += 1
        if inst.is_branch and len(wrt.warp.stack) > depth_before:
            stats.divergent_branches += 1

        if eliminate_kind is not None:
            stats.executions_eliminated += 1
            stats.eliminated_by_class[eliminate_kind] += 1
            ready = cycle + 1
        else:
            ready = self._latency(cycle, inst, result)

        dests = inst.sb_dests
        meta = {"dests": dests, "is_leader": entry.is_leader, "result": result}
        for key in dests:
            wrt.scoreboard.add(key)
        if dests or entry.is_leader:
            self.pipeline.wbq.schedule(ready, wrt, inst, meta)

        self._post_execute(cycle, wrt, inst, result)

    def _latency(self, cycle: int, inst: Instruction, result: "StepResult") -> int:
        core = self.core
        cfg = core.config
        if inst.is_memory:
            assert inst.mem is not None
            addresses = result.mem_addresses
            if addresses is None:
                return cycle + 1
            mask = result.exec_mask
            if inst.mem.space is MemSpace.SHARED:
                return core.memory.shared_access(cycle, addresses, mask)
            return core.memory.global_access(cycle, addresses, mask, inst.is_store)
        if inst.uses_sfu:
            core.stats.energy_events[EnergyEvent.SFU_OP] += 1
            return cycle + cfg.sfu_latency
        if inst.opcode in (Opcode.BRA, Opcode.EXIT, Opcode.BAR, Opcode.NOP):
            return cycle + 1
        core.stats.energy_events[EnergyEvent.ALU_OP] += 1
        return cycle + cfg.alu_latency

    def _post_execute(
        self, cycle: int, wrt: "WarpRuntime", inst: Instruction, result: "StepResult"
    ) -> None:
        core = self.core
        core.frontend.on_executed(wrt, inst, result)

        if inst.is_store:
            core.frontend.on_store(wrt.tb_rt)
        if inst.is_atomic and inst.mem.space is MemSpace.GLOBAL:
            core.frontend.on_global_communication()

        if inst.is_branch:
            if core.frontend.blocks_after_branch(wrt, inst):
                wrt.branch_sync_blocked = True
            else:
                wrt.resync_fetch()
            return
        if inst.is_barrier:
            core.release_barrier(wrt.tb_rt)
            return
        if inst.is_exit:
            if result.retired:
                core.retire_warp(wrt)
            else:
                wrt.resync_fetch()
            return
        if wrt.warp.pc != inst.pc + INSTRUCTION_BYTES:
            # A reconvergence pop switched the warp to another divergent
            # path (non-sequential PC without a branch): the straight-line
            # prefetch past the reconvergence point is wrong-path.
            wrt.ibuffer.clear()
            wrt.resync_fetch()


class FetchStage(Stage):
    """The fetch scheduler and I-cache/decode path.

    Runs the frontend's per-cycle hook first — DARSIE's skip engine
    works "in parallel with the fetch scheduler" (Section 4.3.2) — then
    a loose round-robin over warps with free I-buffer slots, bringing in
    up to ``fetch_width`` consecutive instructions per initiated fetch.
    """

    name = "fetch"

    def __init__(self, pipeline: "StagePipeline") -> None:
        super().__init__(pipeline)
        self._fetch_rr = 0

    def run(self, cycle: int) -> None:
        core = self.core
        core.frontend.fetch_cycle(cycle)
        warps = core.warps
        n = len(warps)
        if n == 0:
            return
        end_pc = core.ctx.program.end_pc
        capacity = core.config.ibuffer_entries
        frontend = core.frontend
        for _initiated in range(core.config.fetch_warps_per_cycle):
            chosen = None
            for i in range(n):
                wrt = warps[(self._fetch_rr + i) % n]
                if not wrt.fetch_ready() or wrt.skip_blocked:
                    continue
                if wrt.ibuffer.buffered >= capacity:
                    continue
                if wrt.fetch_pc >= end_pc:
                    continue
                action = frontend.filter_fetch(wrt, wrt.fetch_pc)
                if action in (FetchAction.HANDLED, FetchAction.WAIT):
                    continue
                chosen = (wrt, action)
                self._fetch_rr = (self._fetch_rr + i + 1) % n
                break
            if chosen is None:
                return
            wrt, action = chosen
            self.pipeline.note()
            core.stats.energy_events[EnergyEvent.ICACHE_FETCH] += 1
            self._fetch_into(cycle, wrt, action)

    def _fetch_into(
        self, cycle: int, wrt: "WarpRuntime", first_action: FetchAction
    ) -> None:
        core = self.core
        fetched = 0
        action = first_action
        stats = core.stats
        ibuf = wrt.ibuffer
        while fetched < core.config.fetch_width and ibuf.buffered < core.config.ibuffer_entries:
            if action in (FetchAction.HANDLED, FetchAction.WAIT):
                break
            inst = core.ctx.program.at(wrt.fetch_pc)
            is_leader = action is FetchAction.FETCH_LEADER
            overrides = core.frontend.on_fetch(wrt, inst, is_leader)
            ibuf.push(IBufferEntry(inst=inst, is_leader=is_leader, overrides=overrides))
            if core.pipeline_trace is not None:
                core.pipeline_trace.record(
                    cycle, core.sm_id, wrt.tb_rt.tb.tb_index, wrt.warp.warp_id,
                    "F", inst.pc,
                )
            stats.instructions_fetched += 1
            stats.instructions_decoded += 1
            stats.energy_events[EnergyEvent.DECODE] += 1
            wrt.bypass_pcs.discard(wrt.fetch_pc)
            wrt.fetch_pc += INSTRUCTION_BYTES
            fetched += 1
            if inst.opcode in (Opcode.BRA, Opcode.EXIT, Opcode.BAR):
                wrt.cf_stalled = True
                break
            if wrt.fetch_pc >= core.ctx.program.end_pc:
                break
            action = core.frontend.filter_fetch(wrt, wrt.fetch_pc)


class StagePipeline:
    """The assembled SM pipeline: stages, shared buffers, activity.

    Intra-cycle order (identical to the historical monolith, and pinned
    by the golden contract): writeback -> decode-skip -> issue (which
    drives operand-collect and execute combinationally) -> fetch (which
    runs the frontend's per-cycle hook first) -> wait accounting.
    """

    def __init__(self, core: "SMCore") -> None:
        self.core = core
        self.zero_cost = ZeroCostLedger()
        self.wbq = WritebackQueue()
        #: warps whose issue readiness may have changed since the issue
        #: stage last refreshed its masks (see :class:`IssueStage`)
        self.dirty: Set["WarpRuntime"] = set()
        #: age-ordered mask of warps (bit ``WarpRuntime.skip_bit``) whose
        #: skip classification may have changed since the skip engine
        #: last probed them; BASE-like frontends never read it
        self.skip_watch: int = 0
        #: state changes observed during the current tick
        self._activity = 0
        self.writeback = WritebackStage(self)
        self.decode_skip = DecodeSkipStage(self)
        issue = core.frontend.make_issue_stage(self)
        self.issue: IssueStage = issue if issue is not None else IssueStage(self)
        self.operand_collect = OperandCollectStage(self)
        self.execute = ExecuteStage(self)
        self.fetch = FetchStage(self)
        #: the ticked stages, in intra-cycle order (operand-collect and
        #: execute are driven combinationally by issue, not ticked)
        self.stages = (self.writeback, self.decode_skip, self.issue, self.fetch)

    def note(self) -> None:
        """Record one state change (stages and frontends both call this)."""
        self._activity += 1

    def tick(self, cycle: int) -> int:
        """Advance every stage one cycle; returns the activity count (0
        means the cycle was provably idle and the next would repeat it
        exactly — the basis for event-driven skipping)."""
        self._activity = 0
        trace = self.core.pipeline_trace
        if trace is None:
            self.writeback.tick(cycle)
            self.decode_skip.tick(cycle)
            self.issue.tick(cycle)
            self.fetch.tick(cycle)
            self._account_waits(cycle)
            return self._activity
        stage_activity = {stage.name: stage.tick(cycle) for stage in self.stages}
        self._account_waits(cycle)
        trace.sample(cycle, self.core.sm_id, stage_activity, self.occupancy())
        return self._activity

    def wake_cycle(self) -> Optional[int]:
        """Earliest future cycle at which anything can happen on this SM
        while it is otherwise idle, or None if no such event is known."""
        wake = self.wbq.next_ready()
        fw = self.core.frontend.next_wake(self.core.cycle)
        if fw is not None and (wake is None or fw < wake):
            wake = fw
        return wake

    def advance_idle(self, delta: int) -> None:
        """Account for ``delta`` skipped idle cycles.

        An idle cycle still (a) accrues one ``sync_wait_cycles`` per
        blocked live warp and (b) advances each LRR scheduler that had
        issue candidates; both are replayed here in closed form.
        """
        core = self.core
        blocked = 0
        for w in core.warps:
            if (w.skip_blocked or w.branch_sync_blocked) and not w.warp.exited:
                blocked += 1
        if blocked:
            core.stats.sync_wait_cycles += blocked * delta
        self.issue.advance_idle(delta)

    def remove_tb(self, tb_rt: "TBRuntime") -> None:
        """A threadblock left the SM: drop its warps from the issue
        stage and the skip watch, and its zero-cost entries from the
        shared ledger."""
        for w in tb_rt.warps:
            w.ibuffer.detach()
            self.skip_watch &= ~w.skip_bit
        self.issue.remove_tb(tb_rt)

    def _account_waits(self, cycle: int) -> None:
        """One ``sync_wait_cycles`` (and, when traced, one ``B`` event)
        per blocked live warp."""
        core = self.core
        trace = core.pipeline_trace
        blocked = 0
        for w in core.warps:
            if (w.skip_blocked or w.branch_sync_blocked) and not w.warp.exited:
                blocked += 1
                if trace is not None:
                    trace.record(
                        cycle, core.sm_id, w.tb_rt.tb.tb_index,
                        w.warp.warp_id, "B", w.fetch_pc,
                    )
        if blocked:
            core.stats.sync_wait_cycles += blocked

    def record_idle(self, cycle: int) -> None:
        """Record one skipped idle ``cycle`` into the attached trace as a
        stepped tick would have: a ``B`` event per blocked live warp and
        an all-zero stage row with the unchanged occupancy.  (The stats
        of the span are accrued in closed form by :meth:`advance_idle`.)"""
        core = self.core
        trace = core.pipeline_trace
        for w in core.warps:
            if (w.skip_blocked or w.branch_sync_blocked) and not w.warp.exited:
                trace.record(
                    cycle, core.sm_id, w.tb_rt.tb.tb_index,
                    w.warp.warp_id, "B", w.fetch_pc,
                )
        trace.sample(
            cycle, core.sm_id, {stage.name: 0 for stage in self.stages},
            self.occupancy(),
        )

    def occupancy(self) -> Dict[str, int]:
        """Instantaneous buffer occupancy (debug/trace aid)."""
        buffered = sum(w.ibuffer.buffered for w in self.core.warps)
        return {
            "ibuffer": buffered,
            "zero_cost": self.zero_cost.total,
            "inflight": len(self.wbq),
        }
