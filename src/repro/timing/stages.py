"""Explicit stage objects of the SM pipeline (Section 3 / Figure 4).

The monolithic ``SMCore`` is split into five stage classes, each with a
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
  replace a per-cycle scan of every warp.  A selected instruction goes
  straight into :meth:`ExecuteStage.execute` *in the same cycle*
  (back-to-back pipeline with full bypass — exactly the timing the
  monolithic core modelled).
- :class:`ExecuteStage` — not ticked: one call per issued instruction
  does the operand reads and bank-conflict accounting (including
  DARSIE's rename-space conflicts, Section 6.1), functional execution,
  latency modelling, writeback scheduling and post-execute control flow
  (branch sync, barriers, warp retirement).
- :class:`FetchStage` — the frontend's per-cycle hook (DARSIE's skip
  engine runs "in parallel with the fetch scheduler"), the loose
  round-robin fetch scheduler and the I-cache/decode path.

:class:`StagePipeline` assembles the stages, owns the shared buffers and
the per-tick activity counter, and preserves the monolith's exact intra-
cycle order: writeback -> decode-skip -> issue (-> execute) -> fetch ->
wait accounting.  A frontend may swap in an alternative issue stage via
:meth:`repro.timing.frontend.Frontend.make_issue_stage` (the
``DUAL-ISSUE`` variant swaps in :class:`DualIssueStage`).

Every stat is counted by exactly one stage, in the same per-cycle order
the monolith used, so the refactor is bit-identical under the golden
contract (``tests/timing/data/golden_tiny.json``) and the event-skip
equivalence tests.

The per-instruction path is decided once per SM, when the pipeline is
built: each frontend hook is bound as a method, or left ``None`` when
the frontend's class inherits :class:`~repro.timing.frontend.Frontend`'s
no-op (see :func:`repro.timing.frontend.bound_hook`), so BASE calls no
hook at all.  The untraced :meth:`StagePipeline.tick` calls each stage's
``run`` directly; the traced path goes through :meth:`Stage.tick` to
count activity per stage.

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
the same way; its marks are listed in :mod:`repro.timing.core`.  The
blocked mask (:attr:`StagePipeline.blocked`) has one writer,
:meth:`repro.timing.core.WarpRuntime.set_blocked`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Set

from repro.isa.instructions import INSTRUCTION_BYTES, Opcode
from repro.isa.operands import MemSpace
from repro.timing.buffers import (
    IBufferEntry,
    WritebackQueue,
    ZeroCostLedger,
)
from repro.timing.frontend import PIPELINE_HOOKS, FetchAction, bound_hook
from repro.timing.stats import EnergyEvent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.timing.core import SMCore, TBRuntime, WarpRuntime

_RF_READ = EnergyEvent.RF_READ
_RF_WRITE = EnergyEvent.RF_WRITE
_ISSUE = EnergyEvent.ISSUE
_SFU_OP = EnergyEvent.SFU_OP
_ALU_OP = EnergyEvent.ALU_OP
_DECODE = EnergyEvent.DECODE
_ICACHE_FETCH = EnergyEvent.ICACHE_FETCH
_FETCH = FetchAction.FETCH
_FETCH_LEADER = FetchAction.FETCH_LEADER
_HANDLED = FetchAction.HANDLED
_WAIT = FetchAction.WAIT


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
        pipeline = self.pipeline
        due = pipeline.wbq.pop_due(cycle)
        if not due:
            return
        core = self.core
        on_writeback = pipeline.on_writeback
        events = core.stats.energy_events
        dirty = pipeline.dirty
        for _ready, _seq, wrt, inst, meta in due:
            pipeline._activity += 1
            wrt.inflight -= 1
            if core.pipeline_trace is not None:
                core.pipeline_trace.record(
                    cycle, core.sm_id, wrt.tb_rt.tb.tb_index, wrt.warp.warp_id,
                    "W", inst.pc,
                )
            dests = meta["dests"]
            if dests:
                scoreboard = wrt.scoreboard
                for key in dests:
                    scoreboard.discard(key)
                dirty.add(wrt)
                events[_RF_WRITE] += 1
            if on_writeback is not None:
                on_writeback(wrt, inst, meta)


class DecodeSkipStage(Stage):
    """Zero-cost, in-order drain of eliminated instructions.

    DARSIE skip tokens only advance the architectural PC (the leader
    executed the instruction; the follower shares its value through
    renaming).  DAC-IDEAL free entries execute functionally — the
    idealized affine stream — without pipeline cost.
    """

    name = "decode-skip"

    def run(self, cycle: int) -> None:
        pipeline = self.pipeline
        if pipeline.zero_cost.total == 0:
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
                    pipeline._activity += 1
                    assert wrt.warp.pc == entry.inst.pc, (
                        f"skip token out of order: arch pc {wrt.warp.pc:#x}, "
                        f"token pc {entry.inst.pc:#x}"
                    )
                    wrt.warp.pc += INSTRUCTION_BYTES
                    wrt.warp.maybe_reconverge()
                    continue
                sb = wrt.scoreboard
                if sb and not sb.isdisjoint(entry.inst.hazard_keys):
                    break
                ibuf.pop()
                pipeline._activity += 1
                core.engine.execute_instruction(wrt.tb_rt.tb, wrt.warp, entry.inst)
                core.stats.instructions_skipped += 1


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
    first slot's effects).  Each selected instruction is handed to
    :meth:`ExecuteStage.execute` within the same cycle.
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
        self._lrr = self.core.config.scheduler_policy == "lrr"
        self._issue_width = self.core.config.issue_width

    # -- residency bookkeeping (driven by the core) -------------------------

    def add_warp(self, wrt: "WarpRuntime") -> None:
        self._warp_of[wrt.scheduler_id][wrt.issue_bit] = wrt
        self.pipeline.dirty.add(wrt)

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
        if self._lrr:
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
            sb = wrt.scoreboard
            if (
                head.free
                or head.skip_token
                or wrt.warp.at_barrier
                or wrt.branch_sync_blocked
                or (sb and not sb.isdisjoint(head.inst.hazard_keys))
            ):
                ready[sched] &= ~bit
            else:
                ready[sched] |= bit
        dirty.clear()

    # -- the per-cycle schedulers -------------------------------------------

    def run(self, cycle: int) -> None:
        if self._lrr:
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
        events = stats.energy_events
        execute = pipeline.execute.execute
        ibuf = wrt.ibuffer
        entries = ibuf.entries
        sb = wrt.scoreboard
        while issued < self._issue_width and entries:
            entry = entries[0]
            if entry.free or entry.skip_token:
                break  # handled by the decode-skip drain
            if wrt.warp.at_barrier or wrt.branch_sync_blocked:
                break
            inst = entry.inst
            if sb and not sb.isdisjoint(inst.hazard_keys):
                break
            ibuf.pop()
            pipeline._activity += 1
            if core.pipeline_trace is not None:
                core.pipeline_trace.record(
                    cycle, core.sm_id, wrt.tb_rt.tb.tb_index, wrt.warp.warp_id,
                    "I", inst.pc,
                )
            stats.instructions_issued += 1
            events[_ISSUE] += 1
            execute(cycle, wrt, entry)
            issued += 1
            if inst.ends_fetch:
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


class ExecuteStage(Stage):
    """Operand collection, functional execution, latency modelling,
    writeback scheduling and post-execute control flow of one issued
    instruction — a single call from the issue stage, not ticked."""

    name = "execute"

    def __init__(self, pipeline: "StagePipeline") -> None:
        super().__init__(pipeline)
        cfg = self.core.config
        self._rf_banks = cfg.rf_banks
        self._alu_latency = cfg.alu_latency
        self._sfu_latency = cfg.sfu_latency

    def execute(self, cycle: int, wrt: "WarpRuntime", entry: IBufferEntry) -> None:
        core = self.core
        pipeline = self.pipeline
        stats = core.stats
        events = stats.energy_events
        inst = entry.inst

        # Operand collection: register-file reads and same-cycle bank
        # collisions (coarse model: each distinct source register
        # occupies one bank read).
        events[_RF_READ] += inst.rf_read_count
        conflicts, banks = inst.bank_info(self._rf_banks)
        overrides = entry.overrides
        if overrides:
            # Renamed operands live in the strided rename space; reads
            # from it collide with the warp's own operand reads
            # (Section 6.1's DARSIE-induced bank conflicts).
            collide = 0
            for b in overrides.get("banks", ()):
                if b in banks:
                    collide += 1
            conflicts += collide
            stats.darsie_bank_conflicts += collide
            reg_overrides = overrides.get("regs")
            pred_overrides = overrides.get("preds")
        else:
            reg_overrides = pred_overrides = None
        stats.rf_bank_conflicts += conflicts

        eliminate_at_issue = pipeline.eliminate_at_issue
        eliminate_kind = (
            eliminate_at_issue(wrt, inst) if eliminate_at_issue is not None else None
        )
        warp = wrt.warp
        depth_before = len(warp.stack)
        result = core.engine.execute_instruction(
            wrt.tb_rt.tb, warp, inst, reg_overrides, pred_overrides
        )
        stats.instructions_executed += 1
        if depth_before > 1:
            stats.divergence_serialized_instructions += 1
        if inst.is_branch and len(warp.stack) > depth_before:
            stats.divergent_branches += 1

        # Latency by functional-unit class (ALU/SFU/LDST + memory system).
        if eliminate_kind is not None:
            stats.executions_eliminated += 1
            stats.eliminated_by_class[eliminate_kind] += 1
            ready = cycle + 1
        elif inst.is_memory:
            mem = inst.mem
            assert mem is not None
            addresses = result.mem_addresses
            if addresses is None:
                ready = cycle + 1
            elif mem.space is MemSpace.SHARED:
                ready = core.memory.shared_access(cycle, addresses, result.exec_mask)
            else:
                ready = core.memory.global_access(
                    cycle, addresses, result.exec_mask, inst.is_store
                )
        elif inst.uses_sfu:
            events[_SFU_OP] += 1
            ready = cycle + self._sfu_latency
        elif inst.ends_fetch or inst.opcode is Opcode.NOP:
            ready = cycle + 1
        else:
            events[_ALU_OP] += 1
            ready = cycle + self._alu_latency

        dests = inst.sb_dests
        if dests or entry.is_leader:
            for key in dests:
                wrt.scoreboard.add(key)
            pipeline.wbq.schedule(
                ready, wrt, inst,
                {"dests": dests, "is_leader": entry.is_leader, "result": result},
            )

        # Post-execute: frontend events, then control flow.
        if pipeline.on_executed is not None:
            pipeline.on_executed(wrt, inst, result)
        if inst.is_store and pipeline.on_store is not None:
            pipeline.on_store(wrt.tb_rt)
        if inst.is_atomic and pipeline.on_global_communication is not None:
            mem = inst.mem
            assert mem is not None
            if mem.space is MemSpace.GLOBAL:
                pipeline.on_global_communication()

        if inst.ends_fetch:
            if inst.is_branch:
                blocks_after_branch = pipeline.blocks_after_branch
                if blocks_after_branch is not None and blocks_after_branch(wrt, inst):
                    wrt.set_blocked(branch_sync=True)
                else:
                    wrt.resync_fetch()
            elif inst.is_barrier:
                core.release_barrier(wrt.tb_rt)
            elif result.retired:
                core.retire_warp(wrt)
            else:
                wrt.resync_fetch()
        elif warp.pc != inst.pc + INSTRUCTION_BYTES:
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
        program = self.core.ctx.program
        self._end_pc = program.end_pc
        #: PC -> instruction, for the straight-line fetch group
        self._inst_at = {inst.pc: inst for inst in program.instructions}
        cfg = self.core.config
        self._capacity = cfg.ibuffer_entries
        self._fetch_width = cfg.fetch_width
        self._fetch_warps = cfg.fetch_warps_per_cycle

    def run(self, cycle: int) -> None:
        core = self.core
        pipeline = self.pipeline
        if pipeline.fetch_cycle is not None:
            pipeline.fetch_cycle(cycle)
        warps = core.warps
        n = len(warps)
        if n == 0:
            return
        end_pc = self._end_pc
        capacity = self._capacity
        filter_fetch = pipeline.filter_fetch
        for _initiated in range(self._fetch_warps):
            chosen = None
            action = _FETCH
            rr = self._fetch_rr
            for i in range(n):
                wrt = warps[(rr + i) % n]
                if wrt.skip_blocked or not wrt.fetch_ready():
                    continue
                if wrt.ibuffer.buffered >= capacity:
                    continue
                if wrt.fetch_pc >= end_pc:
                    continue
                if filter_fetch is not None:
                    action = filter_fetch(wrt, wrt.fetch_pc)
                    if action is _HANDLED or action is _WAIT:
                        continue
                chosen = wrt
                self._fetch_rr = (rr + i + 1) % n
                break
            if chosen is None:
                return
            pipeline._activity += 1
            core.stats.energy_events[_ICACHE_FETCH] += 1
            self._fetch_into(cycle, chosen, action)

    def _fetch_into(
        self, cycle: int, wrt: "WarpRuntime", action: FetchAction
    ) -> None:
        core = self.core
        pipeline = self.pipeline
        stats = core.stats
        events = stats.energy_events
        on_fetch = pipeline.on_fetch
        filter_fetch = pipeline.filter_fetch
        inst_at = self._inst_at
        end_pc = self._end_pc
        fetch_width = self._fetch_width
        capacity = self._capacity
        ibuf = wrt.ibuffer
        bypass_pcs = wrt.bypass_pcs
        fetched = 0
        while fetched < fetch_width and ibuf.buffered < capacity:
            if action is _HANDLED or action is _WAIT:
                break
            pc = wrt.fetch_pc
            inst = inst_at[pc]
            is_leader = action is _FETCH_LEADER
            overrides = on_fetch(wrt, inst, is_leader) if on_fetch is not None else None
            ibuf.push(IBufferEntry(inst, is_leader, overrides))
            if core.pipeline_trace is not None:
                core.pipeline_trace.record(
                    cycle, core.sm_id, wrt.tb_rt.tb.tb_index, wrt.warp.warp_id,
                    "F", pc,
                )
            stats.instructions_fetched += 1
            stats.instructions_decoded += 1
            events[_DECODE] += 1
            if bypass_pcs:
                bypass_pcs.discard(pc)
            pc += INSTRUCTION_BYTES
            wrt.fetch_pc = pc
            fetched += 1
            if inst.ends_fetch:
                wrt.cf_stalled = True
                break
            if pc >= end_pc:
                break
            if filter_fetch is not None:
                action = filter_fetch(wrt, pc)


class StagePipeline:
    """The assembled SM pipeline: stages, shared buffers, activity.

    Intra-cycle order (identical to the historical monolith, and pinned
    by the golden contract): writeback -> decode-skip -> issue (which
    calls execute for each issued instruction) -> fetch (which runs the
    frontend's per-cycle hook first) -> wait accounting.

    The frontend's per-instruction hooks (:data:`~repro.timing.frontend.
    PIPELINE_HOOKS`) are attributes of the pipeline, each a bound method
    or ``None`` for an inherited no-op, resolved here once.
    """

    fetch_cycle: Optional[Callable[[int], None]]
    filter_fetch: Optional[Callable[..., FetchAction]]
    on_fetch: Optional[Callable[..., Optional[Dict[str, Any]]]]
    eliminate_at_issue: Optional[Callable[..., Optional[str]]]
    on_executed: Optional[Callable[..., None]]
    on_writeback: Optional[Callable[..., None]]
    blocks_after_branch: Optional[Callable[..., bool]]
    on_store: Optional[Callable[..., None]]
    on_global_communication: Optional[Callable[[], None]]

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
        #: age-ordered mask of resident warps (bit ``skip_bit``) that are
        #: skip-blocked or branch-sync-blocked; written only by
        #: :meth:`WarpRuntime.set_blocked`, and always 0 under BASE
        self.blocked: int = 0
        #: ``skip_bit`` -> resident warp, for walking ``blocked`` and
        #: ``skip_watch``
        self.warp_of_bit: Dict[int, "WarpRuntime"] = {}
        #: state changes observed during the current tick
        self._activity = 0
        for hook in PIPELINE_HOOKS:
            setattr(self, hook, bound_hook(core.frontend, hook))
        self.writeback = WritebackStage(self)
        self.decode_skip = DecodeSkipStage(self)
        self.execute = ExecuteStage(self)
        issue = core.frontend.make_issue_stage(self)
        self.issue: IssueStage = issue if issue is not None else IssueStage(self)
        self.fetch = FetchStage(self)
        #: the ticked stages, in intra-cycle order (execute is called by
        #: issue for each issued instruction, not ticked)
        self.stages = (self.writeback, self.decode_skip, self.issue, self.fetch)

    def tick(self, cycle: int) -> int:
        """Advance every stage one cycle; returns the activity count (0
        means the cycle was provably idle and the next would repeat it
        exactly — the basis for event-driven skipping)."""
        self._activity = 0
        trace = self.core.pipeline_trace
        if trace is None:
            self.writeback.run(cycle)
            if self.zero_cost.total:
                self.decode_skip.run(cycle)
            self.issue.run(cycle)
            self.fetch.run(cycle)
            if self.blocked:
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

    def add_warp(self, wrt: "WarpRuntime") -> None:
        """A warp became resident: register it with the issue stage and
        the skip watch."""
        self.warp_of_bit[wrt.skip_bit] = wrt
        self.skip_watch |= wrt.skip_bit
        self.issue.add_warp(wrt)

    def blocked_warps(self) -> List["WarpRuntime"]:
        """The live warps in ``blocked``, in ascending age."""
        warps = []
        warp_of_bit = self.warp_of_bit
        mask = self.blocked
        while mask:
            bit = mask & -mask
            mask ^= bit
            w = warp_of_bit[bit]
            if not w.warp.exited:
                warps.append(w)
        return warps

    def advance_idle(self, delta: int) -> None:
        """Account for ``delta`` skipped idle cycles.

        An idle cycle still (a) accrues one ``sync_wait_cycles`` per
        blocked live warp and (b) advances each LRR scheduler that had
        issue candidates; both are replayed here in closed form.
        """
        if self.blocked:
            self.core.stats.sync_wait_cycles += len(self.blocked_warps()) * delta
        self.issue.advance_idle(delta)

    def remove_tb(self, tb_rt: "TBRuntime") -> None:
        """A threadblock left the SM: drop its warps from the issue
        stage, the skip watch and the blocked mask, and its zero-cost
        entries from the shared ledger."""
        for w in tb_rt.warps:
            w.ibuffer.detach()
            self.skip_watch &= ~w.skip_bit
            self.blocked &= ~w.skip_bit
            del self.warp_of_bit[w.skip_bit]
        self.issue.remove_tb(tb_rt)

    def _account_waits(self, cycle: int) -> None:
        """One ``sync_wait_cycles`` (and, when traced, one ``B`` event)
        per blocked live warp."""
        if not self.blocked:
            return
        core = self.core
        blocked = self.blocked_warps()
        trace = core.pipeline_trace
        if trace is not None:
            for w in blocked:
                trace.record(
                    cycle, core.sm_id, w.tb_rt.tb.tb_index,
                    w.warp.warp_id, "B", w.fetch_pc,
                )
        core.stats.sync_wait_cycles += len(blocked)

    def record_idle(self, cycle: int) -> None:
        """Record one skipped idle ``cycle`` into the attached trace as a
        stepped tick would have: a ``B`` event per blocked live warp and
        an all-zero stage row with the unchanged occupancy.  (The stats
        of the span are accrued in closed form by :meth:`advance_idle`.)"""
        core = self.core
        trace = core.pipeline_trace
        for w in self.blocked_warps():
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

    def close(self) -> None:
        """Drop the back-pointers to the core, the frontend and the
        pipeline itself (the simulation finished; see
        :meth:`repro.timing.core.SMCore.close`).  Idempotent."""
        for hook in PIPELINE_HOOKS:
            setattr(self, hook, None)
        for stage in (self.writeback, self.decode_skip, self.execute, self.issue, self.fetch):
            vars(stage).pop("pipeline", None)
            vars(stage).pop("core", None)
        vars(self).pop("core", None)
