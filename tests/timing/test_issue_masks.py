"""The wake-driven issue stage and the compiled instructions' constants.

The issue stage keeps per-scheduler ``cand``/``ready`` bitmasks and
re-derives a warp's bits only when the warp was marked dirty.  These
tests recompute both masks from scratch after every tick and demand
that every warp not awaiting a refresh matches — a readiness input
that changes without marking its warp dirty shows up here as a stale
bit, long before it moves a golden counter.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro import assemble, small_config
from repro.config import RunConfig
from repro.harness.runner import WorkloadRunner
from repro.isa.operands import Immediate
from repro.simt.executor import ExecutionContext, FunctionalEngine, ThreadBlockState
from repro.simt.grid import Dim3, LaunchConfig
from repro.simt.memory import GlobalMemory, KernelParams
from repro.timing.gpu import GPU
from repro.timing.stages import IssueStage
from repro.workloads import ALL_ABBRS

MASK_VARIANTS = (
    "BASE", "DARSIE", "DARSIE-NO-CF-SYNC", "SILICON-SYNC", "DAC-IDEAL", "DUAL-ISSUE",
)
LRR_VARIANTS = ("BASE", "DARSIE", "SILICON-SYNC", "DUAL-ISSUE")


def fresh_masks(sm):
    """``(cand, ready)`` per scheduler, recomputed from warp state alone."""
    n = sm.config.num_schedulers
    cand, ready = [0] * n, [0] * n
    for w in sm.warps:
        entries = w.ibuffer.entries
        if w.warp.exited or not entries:
            continue
        cand[w.scheduler_id] |= w.issue_bit
        head = entries[0]
        blocked = (
            head.free
            or head.skip_token
            or w.warp.at_barrier
            or w.branch_sync_blocked
            or bool(w.scoreboard & head.inst.hazard_keys)
        )
        if not blocked:
            ready[w.scheduler_id] |= w.issue_bit
    return cand, ready


def check_masks(sm):
    """Every warp outside the dirty set has exact bits, no bit belongs
    to a warp that left the SM, and the bit -> warp maps hold exactly
    the resident warps."""
    issue = sm.pipeline.issue
    n = sm.config.num_schedulers
    stale = [0] * n
    for w in sm.pipeline.dirty:
        stale[w.scheduler_id] |= w.issue_bit
    cand, ready = fresh_masks(sm)
    for s in range(n):
        assert issue._cand[s] & ~stale[s] == cand[s] & ~stale[s], f"cand, scheduler {s}"
        assert issue._ready[s] & ~stale[s] == ready[s] & ~stale[s], f"ready, scheduler {s}"
    resident = {(w.scheduler_id, w.issue_bit): w for w in sm.warps}
    mapped = {
        (s, bit): w for s, by_bit in enumerate(issue._warp_of) for bit, w in by_bit.items()
    }
    assert mapped == resident


class MaskChecker:
    """Wraps every SM's ``tick`` to run :func:`check_masks` after it."""

    def __init__(self, gpu):
        self.ticks = 0
        self.waiting = 0  # ticks that ended with a candidate not ready
        for sm in gpu.sms:
            sm.tick = self._wrap(sm, sm.tick)

    def _wrap(self, sm, tick):
        def checked(cycle):
            activity = tick(cycle)
            check_masks(sm)
            self.ticks += 1
            issue = sm.pipeline.issue
            if any(c & ~r for c, r in zip(issue._cand, issue._ready)):
                self.waiting += 1
            return activity

        return checked

    @staticmethod
    def remove(gpu):
        for sm in gpu.sms:
            del sm.tick


def build_gpu(abbr, variant, policy="gto"):
    runner = WorkloadRunner.from_config(RunConfig(abbr=abbr, variant=variant, scale="tiny"))
    mem, params = runner.workload.fresh()
    config = dataclasses.replace(runner.gpu_config, scheduler_policy=policy)
    return GPU(
        runner.simulation_program(variant),
        runner.workload.launch,
        mem,
        params=params,
        config=config,
        frontend_factory=runner.frontend_factory(variant, None),
    )


class TestMaskInvariant:
    @pytest.mark.parametrize("abbr", ALL_ABBRS)
    def test_masks_match_recomputation_gto(self, abbr):
        for variant in MASK_VARIANTS:
            gpu = build_gpu(abbr, variant)
            checker = MaskChecker(gpu)
            gpu.run()
            assert checker.ticks > 0, f"{abbr}/{variant}"

    @pytest.mark.parametrize("abbr", ALL_ABBRS)
    def test_masks_match_recomputation_lrr(self, abbr):
        for variant in LRR_VARIANTS:
            gpu = build_gpu(abbr, variant, policy="lrr")
            checker = MaskChecker(gpu)
            gpu.run()
            assert checker.ticks > 0, f"{abbr}/{variant}"

    def test_checker_sees_blocked_candidates(self):
        # Not vacuous: MM stalls on its loads with I-buffers full.
        gpu = build_gpu("MM", "BASE")
        checker = MaskChecker(gpu)
        gpu.run()
        assert checker.waiting > 0

    @pytest.mark.parametrize("variant", ["BASE", "DARSIE"])
    def test_masks_survive_snapshot_restore(self, variant):
        straight = build_gpu("LIB", variant).run()
        gpu = build_gpu("LIB", variant)
        checker = MaskChecker(gpu)
        assert gpu.run_to(straight.cycles // 2) is None
        MaskChecker.remove(gpu)
        resumed = GPU.restore(gpu.snapshot())
        MaskChecker(resumed)
        for sm in resumed.sms:
            check_masks(sm)
        result = resumed.run()
        assert checker.ticks > 0
        assert result.cycles == straight.cycles
        assert result.stats == straight.stats


class TestDirtyContract:
    def test_release_through_resync_fetch_wakes_a_buffered_warp(self):
        """A sync release reaches the masks through ``resync_fetch`` even
        when nothing is pushed afterwards (the warp's I-buffer already
        holds its next instruction)."""
        prog = assemble("add.u32 $a, %tid.x, 1\nexit")
        launch = LaunchConfig(grid_dim=Dim3(1), block_dim=Dim3(32))
        gpu = GPU(prog, launch, GlobalMemory(1 << 10), config=small_config(1))
        sm = gpu.sms[0]
        sm.launch_tb(0)
        pipe = sm.pipeline
        w = sm.warps[0]
        pipe.fetch.tick(0)
        w.branch_sync_blocked = True
        assert pipe.issue.tick(1) == 0  # refreshed while blocked: not ready
        w.branch_sync_blocked = False
        w.resync_fetch()
        assert pipe.issue.tick(2) > 0


class TestProbeGate:
    def test_every_probe_issues(self, monkeypatch):
        """The stage only ever probes a ready warp (the old per-cycle
        scan made ~3.9 probes per issued instruction on this run)."""
        probes = []
        original = IssueStage._issue_from_warp

        def counting(self, cycle, wrt):
            probes.append(wrt)
            return original(self, cycle, wrt)

        monkeypatch.setattr(IssueStage, "_issue_from_warp", counting)
        runner = WorkloadRunner.from_config(RunConfig(abbr="MM", variant="BASE", scale="small"))
        stats = runner.run("BASE").sim.stats
        assert stats.instructions_issued > 0
        assert len(probes) <= stats.instructions_issued


CONST_SRC = """
    mov.u32 $i, 1
    mov.f32 $f, 1.0
    mul.f32 $pos, $f, 0.0
    mul.f32 $neg, $f, -0.0
    exit
"""


class TestConstantCache:
    """Constants are built once per PC, into the compiled table."""

    def _engine(self):
        prog = assemble(CONST_SRC)
        ctx = ExecutionContext(
            program=prog,
            launch=LaunchConfig(grid_dim=Dim3(1), block_dim=Dim3(32)),
            memory=GlobalMemory(1 << 10),
            params=KernelParams({}),
        )
        tb = ThreadBlockState(ctx, 0)
        return prog, FunctionalEngine(ctx), tb, tb.warps[0]

    def _run(self, engine, tb, warp, insts):
        return {inst.pc: engine.execute_instruction(tb, warp, inst) for inst in insts}

    def test_equal_immediates_keep_their_own_dtype_and_sign(self):
        prog, engine, tb, warp = self._engine()
        one, one_f, zero, neg_zero = (
            op for inst in prog.instructions for op in inst.srcs if isinstance(op, Immediate)
        )
        # The premise: equal-comparing operands that must not share a value.
        assert one == one_f and zero == neg_zero
        body = prog.instructions[:-1]
        for _ in range(2):  # first run compiles, the second reuses the table
            warp.stack[-1].pc = 0
            results = self._run(engine, tb, warp, body)
            assert [engine._code[inst.pc][0] for inst in body] == body
            assert results[0].dest_value.dtype == np.int64
            assert results[8].dest_value.dtype == np.float64
            assert warp.registers.read("i").dtype == np.int64
            assert not np.signbit(warp.registers.read("pos")).any()
            assert np.signbit(warp.registers.read("neg")).all()
        assert len(engine._code) == len(body)

    def test_cached_constant_rejects_in_place_write(self):
        prog, engine, tb, warp = self._engine()
        read = engine._reader(prog.instructions[0].srcs[0])
        arr = read(warp, tb, None, None)
        assert read(warp, tb, None, None) is arr  # built once, not per read
        with pytest.raises(ValueError):
            arr += 1
        with pytest.raises(ValueError):
            arr[0] = 7
        engine.execute_instruction(tb, warp, prog.instructions[0])
        assert (warp.registers.read("i") == 1).all()

    def test_cache_is_not_pickled(self):
        """A pickle round trip drops the table, rebuilds it on use and
        gives identical results."""
        prog, engine, tb, warp = self._engine()
        self._run(engine, tb, warp, prog.instructions[:2])
        assert len(engine._code) == 2
        engine2, tb2, warp2 = pickle.loads(pickle.dumps((engine, tb, warp)))
        assert engine2._code == {}
        rest = prog.instructions[2:]
        self._run(engine, tb, warp, rest)
        self._run(engine2, tb2, warp2, rest)
        assert sorted(engine2._code) == [inst.pc for inst in rest]
        assert engine2.instructions_executed == engine.instructions_executed
        assert warp2.exited and warp.exited
        for name in ("i", "f", "pos", "neg"):
            a, b = warp.registers.read(name), warp2.registers.read(name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
