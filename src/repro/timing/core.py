"""Cycle-level SM (streaming multiprocessor) model.

Pipeline per Section 3 / Figure 4, as explicit stage objects
(:mod:`repro.timing.stages`) over typed inter-stage buffers
(:mod:`repro.timing.buffers`):

1. **Fetch** (:class:`~repro.timing.stages.FetchStage`) — a loose-round-
   robin scheduler initiates one I-cache fetch per cycle for a warp with
   free I-buffer entries; up to ``fetch_width`` consecutive instructions
   enter the warp's two-entry I-buffer.  Fetch stalls after a control
   instruction until it resolves (no prediction).
2. **Issue** (:class:`~repro.timing.stages.IssueStage`) —
   ``num_schedulers`` GTO (greedy-then-oldest) schedulers each issue up
   to ``issue_width`` instructions from one warp per cycle, subject to a
   scoreboard over in-flight destinations.
3. **Execute** (:class:`~repro.timing.stages.ExecuteStage`, one call
   per issued instruction from the issue stage) — operand reads model
   register-file bank conflicts, including the extra conflicts DARSIE
   causes by pointing follower warps at the renamed register space
   (Section 6.1); instructions execute *functionally* at issue through
   :class:`repro.simt.FunctionalEngine`; a latency by functional-unit
   class (ALU/SFU/LDST + memory system) schedules writeback.
4. **Writeback** (:class:`~repro.timing.stages.WritebackStage`) —
   completed instructions release scoreboard entries and fire the
   frontend's LeaderWB hook.

:class:`SMCore` itself retains *no* per-stage logic: it owns residency
(threadblock launch/retire, barriers), the stats/memory/functional-
engine plumbing, and delegates every cycle to its
:class:`~repro.timing.stages.StagePipeline`.

Performance contract: the hot loops (issue, drain, fetch) consume decode
products memoized on :class:`~repro.isa.instructions.Instruction` at
assembly time and maintain I-buffer occupancy incrementally; every such
optimization must leave :class:`~repro.timing.stats.SimStats`
bit-identical to the straightforward per-cycle recomputation.
``tick`` additionally reports an *activity count* so the GPU loop can
jump over stretches of cycles where every warp is provably blocked on a
known-future event (see :meth:`SMCore.wake_cycle` /
:meth:`SMCore.advance_idle`).

Wake-driven issue: the issue stage never scans warps; it keeps ready
bitmasks per scheduler and re-derives a warp's bits only after the
warp lands in the pipeline's ``dirty`` set.  A warp is marked by
exactly these events — I-buffer ``push``/``pop``/``clear``, writeback's
scoreboard release, :meth:`WarpRuntime.resync_fetch` (which every
barrier, SILICON-SYNC and DARSIE branch-sync release calls) and launch
— and threadblock removal clears its bits.  That list is a contract: a
new input to issue readiness must mark the warp dirty where it changes.

Wake-driven skipping: a skip engine's per-cycle pass (DARSIE's
``fetch_cycle``) visits only the warps whose bit (``WarpRuntime.skip_bit
= 1 << age``) is set in the pipeline's ``skip_watch`` mask.  The timing
side sets the bit on I-buffer ``push``/``pop``/``clear``, in
:meth:`WarpRuntime.resync_fetch` and at launch; together these cover
every change to a warp's fetch PC, ``cf_stalled``,
``branch_sync_blocked``, ``at_barrier``, ``exited`` and SIMT stack
(execute and the decode-skip reconvergence both follow a pop).
Writeback's scoreboard release needs no skip mark: the scoreboard is no
input to a skip classification.  Threadblock removal clears the bits.
The frontend adds its own marks (see :mod:`repro.core.darsie`); a new
input to a warp's skip classification must set the bit wherever it
changes.

Blocked-warp accounting: every cycle, ``sync_wait_cycles`` (and, when
traced, a ``B`` event) counts each live warp that is skip-blocked or
branch-sync-blocked.  The pipeline keeps those warps in one age-ordered
mask (``StagePipeline.blocked``, bit ``skip_bit``) whose only writer is
:meth:`WarpRuntime.set_blocked`; threadblock removal clears the bits.
Under BASE no warp ever blocks, so the accounting costs nothing.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.simt.executor import ExecutionContext, FunctionalEngine, ThreadBlockState
from repro.timing.buffers import (  # noqa: F401  (IBufferEntry re-exported: stable import path)
    IBuffer,
    IBufferEntry,
)
from repro.timing.config import GPUConfig
from repro.timing.frontend import Frontend
from repro.timing.memory_system import MemorySystem
from repro.timing.stages import StagePipeline
from repro.timing.stats import SimStats


class WarpRuntime:
    """Per-warp pipeline state wrapped around the architectural warp.

    The owning :class:`SMCore` is a *required* constructor argument: the
    warp's I-buffer shares the pipeline's zero-cost ledger from birth,
    so stage objects can never observe a half-wired warp.
    """

    def __init__(self, warp, tb_rt: "TBRuntime", scheduler_id: int, age: int, core: "SMCore"):
        self.warp = warp
        self.tb_rt = tb_rt
        self.scheduler_id = scheduler_id
        self.age = age
        #: this warp's bit in its scheduler's age-ordered issue masks
        self.issue_bit: int = 1 << (age // core.config.num_schedulers)
        #: this warp's bit in the SM-wide age-ordered ``skip_watch`` mask
        self.skip_bit: int = 1 << age
        self.fetch_pc: int = warp.pc
        #: the pipeline's dirty set: warps whose issue readiness may have
        #: changed since the issue stage last refreshed its masks
        self._dirty = core.pipeline.dirty
        self._pipeline = core.pipeline
        #: decoded instructions awaiting issue (occupancy counters live
        #: on the buffer; zero-cost entries mirror into the shared ledger)
        self.ibuffer: IBuffer = IBuffer(core.pipeline, self)
        #: fetch stalled after a control instruction until it executes
        self.cf_stalled: bool = False
        #: blocked at a TB-wide branch barrier (DARSIE / SILICON-SYNC);
        #: read freely, written only through :meth:`set_blocked`
        self.branch_sync_blocked: bool = False
        #: blocked by the DARSIE skip engine (leaderWB / freelist sync);
        #: read freely, written only through :meth:`set_blocked`
        self.skip_blocked: bool = False
        #: parked by the skip engine: the warps-waiting bitmask holds the
        #: warp without re-probing until a wake event (Section 4.3.2), so
        #: the per-cycle scan skips re-classifying it
        self.skip_parked: bool = False
        #: one-shot: execute the instruction at this PC privately even
        #: though it is statically skippable (entry was invalidated)
        self.bypass_pcs: Set[int] = set()
        self.scoreboard: Set[Tuple[str, str]] = set()
        self.inflight: int = 0

    @property
    def exited(self) -> bool:
        return self.warp.exited

    def push_entry(self, entry: IBufferEntry) -> None:
        """Append ``entry`` keeping the occupancy counters in sync (the
        only way frontends may enqueue free entries / skip tokens)."""
        self.ibuffer.push(entry)

    def fetch_ready(self) -> bool:
        return not (
            self.warp.exited
            or self.cf_stalled
            or self.branch_sync_blocked
            or self.warp.at_barrier
        )

    def set_blocked(
        self, *, skip: Optional[bool] = None, branch_sync: Optional[bool] = None
    ) -> None:
        """Set ``skip_blocked`` and/or ``branch_sync_blocked`` and keep
        the warp's bit in the pipeline's ``blocked`` mask in step (the
        per-cycle wait accounting walks that mask, not every warp)."""
        if skip is not None:
            self.skip_blocked = skip
        if branch_sync is not None:
            self.branch_sync_blocked = branch_sync
        if self.skip_blocked or self.branch_sync_blocked:
            self._pipeline.blocked |= self.skip_bit
        else:
            self._pipeline.blocked &= ~self.skip_bit

    def close(self) -> None:
        """Drop the links to the TB and into the pipeline (see
        :meth:`TBRuntime.close`)."""
        del self.tb_rt, self._dirty, self._pipeline
        self.ibuffer.close()

    def resync_fetch(self) -> None:
        """Re-point the frontend at the architectural PC (post-branch).

        Every release of a blocked warp (barrier, branch sync) ends
        here, so this is also where the warp is marked for the issue
        stage's next readiness refresh and the skip engine's next pass."""
        self.fetch_pc = self.warp.pc
        self.cf_stalled = False
        self._dirty.add(self)
        self._pipeline.skip_watch |= self.skip_bit


class TBRuntime:
    """A threadblock resident on an SM."""

    def __init__(self, tb: ThreadBlockState, warps: List[WarpRuntime], seq: int):
        self.tb = tb
        self.warps = warps
        self.seq = seq
        self.frontend_state: Dict = {}
        self.completed = False

    def close(self) -> None:
        """Break the TB's reference cycles (TB <-> warp, warp <-> I-buffer,
        warp -> pipeline) once no in-flight instruction can reach its
        warps again."""
        for w in self.warps:
            w.close()


class SMCore:
    """One streaming multiprocessor: residency + a staged pipeline."""

    def __init__(
        self,
        sm_id: int,
        config: GPUConfig,
        ctx: ExecutionContext,
        engine: FunctionalEngine,
        frontend: Frontend,
    ):
        self.sm_id = sm_id
        self.config = config
        self.ctx = ctx
        self.engine = engine
        self.frontend = frontend
        self.stats = SimStats()
        self.memory = MemorySystem(config, self.stats)
        self.tbs: List[TBRuntime] = []
        self.warps: List[WarpRuntime] = []
        self.cycle = 0
        #: optional per-cycle warp-event and stage-row recorder
        #: (repro.timing.pipeline_trace.PipelineTrace)
        self.pipeline_trace = None
        self._tb_seq = 0
        self._warp_age = 0
        self.completed_tbs: List[TBRuntime] = []
        #: completed threadblocks not yet closed: a warp of theirs may
        #: still have a writeback in flight (see :meth:`_close_drained`)
        self._retiring: List[TBRuntime] = []
        #: the staged pipeline (the frontend may supply a custom issue
        #: stage via ``make_issue_stage``, e.g. the DUAL-ISSUE variant)
        self.pipeline = StagePipeline(self)
        frontend.bind(self)

    # -- residency ---------------------------------------------------------

    def can_accept_tb(self, warps_needed: int) -> bool:
        live_warps = sum(1 for w in self.warps if not w.exited)
        live_tbs = sum(1 for tb in self.tbs if not tb.completed)
        return (
            live_warps + warps_needed <= self.config.max_warps_per_sm
            and live_tbs < self.config.max_tbs_per_sm
        )

    def launch_tb(self, tb_index: int) -> TBRuntime:
        tb = ThreadBlockState(self.ctx, tb_index)
        tb_rt = TBRuntime(tb, [], self._tb_seq)
        self._tb_seq += 1
        for warp in tb.warps:
            scheduler = self._warp_age % self.config.num_schedulers
            wrt = WarpRuntime(warp, tb_rt, scheduler, self._warp_age, core=self)
            self._warp_age += 1
            tb_rt.warps.append(wrt)
            self.warps.append(wrt)
            self.pipeline.add_warp(wrt)
        self.tbs.append(tb_rt)
        self.frontend.on_tb_launch(tb_rt)
        return tb_rt

    @property
    def busy(self) -> bool:
        # A threadblock leaves ``tbs`` in the step that completes it.
        return bool(self.tbs)

    # -- main loop ------------------------------------------------------------

    def tick(self, cycle: int) -> int:
        """Advance one cycle; returns the number of state changes seen
        (0 means this cycle was provably idle and the next cycle would
        repeat it exactly — the basis for event-driven skipping)."""
        self.cycle = cycle
        return self.pipeline.tick(cycle)

    def note_activity(self) -> None:
        """Frontends call this when they mutate pipeline state outside
        the stages' own counting (zero-cost pushes, sync releases)."""
        self.pipeline._activity += 1

    def wake_cycle(self) -> Optional[int]:
        """Earliest future cycle at which anything can happen on this SM
        while it is otherwise idle, or None if no such event is known."""
        return self.pipeline.wake_cycle()

    def advance_idle(self, delta: int) -> None:
        """Account for ``delta`` skipped idle cycles (see
        :meth:`StagePipeline.advance_idle`)."""
        self.pipeline.advance_idle(delta)

    def close(self) -> None:
        """Break the SM's reference cycles once its simulation finished.

        The core, its pipeline and stages, the frontend (bound into the
        pipeline's hooks) and the warps point at each other; dropping
        the back-pointers lets reference counting free a finished
        simulation (SM state, functional engine, memory) at once instead
        of at the next full cyclic-GC pass.  (Completed threadblocks are
        closed as they drain, see :meth:`_close_drained`.)  The stats
        stay readable; the SM cannot be ticked again.  Idempotent."""
        for tb_rt in self._retiring:
            tb_rt.close()
        self._retiring = []
        self.pipeline.close()
        vars(self.frontend).pop("sm", None)

    # -- retirement / barriers ---------------------------------------------

    def release_barrier(self, tb_rt: TBRuntime) -> None:
        if tb_rt.tb.release_barrier_if_ready():
            self.frontend.on_syncthreads(tb_rt)
            for w in tb_rt.warps:
                if not w.exited:
                    w.resync_fetch()

    def retire_warp(self, wrt: WarpRuntime) -> None:
        self.frontend.on_warp_exit(wrt)
        tb_rt = wrt.tb_rt
        self.release_barrier(tb_rt)
        if all(w.exited for w in tb_rt.warps) and not tb_rt.completed:
            tb_rt.completed = True
            self.frontend.on_tb_complete(tb_rt)
            self.completed_tbs.append(tb_rt)
            self.warps = [w for w in self.warps if w.tb_rt is not tb_rt]
            self.tbs = [t for t in self.tbs if t is not tb_rt]
            self.pipeline.remove_tb(tb_rt)
            self._retiring.append(tb_rt)
            self._close_drained()

    def _close_drained(self) -> None:
        """Close the completed threadblocks whose warps have nothing in
        flight (a pending writeback still reaches its warp and, through
        the frontend's ``on_writeback``, the warp's TB)."""
        keep = []
        for tb_rt in self._retiring:
            if any(w.inflight for w in tb_rt.warps):
                keep.append(tb_rt)
            else:
                tb_rt.close()
        self._retiring = keep
