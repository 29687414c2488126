"""The timing stages' per-instruction path, decided once per SM.

- Hook resolution: each frontend hook the stages call is bound when the
  pipeline is built, or left ``None`` when the frontend's class inherits
  :class:`~repro.timing.frontend.Frontend`'s no-op.  An inherited no-op
  is never called, an override always is.
- The call-count gate: Python calls into ``repro/timing`` per issued
  instruction, counted with ``sys.setprofile``.
- The blocked mask: the SM-wide mask of skip- or branch-sync-blocked
  warps that the wait accounting walks equals a from-scratch
  recomputation after every tick.
- A finished simulation is freed by reference counting alone.
"""

import gc
import os
import sys
import weakref

import pytest

import repro.timing
from repro import Dim3, GlobalMemory, LaunchConfig, assemble, small_config
from repro.config import RunConfig
from repro.core.darsie import DarsieFrontend
from repro.fuzz.oracles import CapturingFrontend
from repro.harness.runner import WorkloadRunner
from repro.timing.frontend import PIPELINE_HOOKS, Frontend, NullFrontend
from repro.timing.gpu import GPU
from repro.workloads import ALL_ABBRS, build_workload

from tests.timing.test_issue_masks import build_gpu

#: a branch, a store and a global atomic: every per-instruction hook has
#: an event to fire on
HOOK_SRC = """
.param out
.param acc
    shl.u32 $o, %tid.x, 2
    add.u32 $o, $o, %param.out
    setp.lt.u32 $p0, %tid.x, 16
@$p0 bra skip
    add.u32 $o, $o, 0
skip:
    st.global.s32 [$o], %tid.x
    atom.global.add.s32 $d, [%param.acc], 1
    exit
"""


def hook_gpu(frontend_factory):
    mem = GlobalMemory(1 << 12)
    params = {"out": mem.alloc(256), "acc": mem.alloc(4)}
    return GPU(
        assemble(HOOK_SRC), LaunchConfig(grid_dim=Dim3(2), block_dim=Dim3(64)), mem,
        params=params, config=small_config(num_sms=1), frontend_factory=frontend_factory,
    )


class RecordingFrontend(Frontend):
    """Overrides every pipeline hook with Frontend's own behaviour plus
    a call count (the hooks are attached below)."""

    def __init__(self):
        self.calls = dict.fromkeys(PIPELINE_HOOKS, 0)


def _recording(name):
    default = getattr(Frontend, name)

    def hook(self, *args):
        self.calls[name] += 1
        return default(self, *args)

    return hook


for _name in PIPELINE_HOOKS:
    setattr(RecordingFrontend, _name, _recording(_name))


class TestHookResolution:
    def test_base_binds_no_hook(self):
        pipe = hook_gpu(None).sms[0].pipeline
        assert all(getattr(pipe, name) is None for name in PIPELINE_HOOKS)

    def test_inherited_noop_is_never_called(self, monkeypatch):
        calls = []
        for name in PIPELINE_HOOKS:
            default = getattr(Frontend, name)

            def spy(self, *args, _default=default, _name=name):
                calls.append(_name)
                return _default(self, *args)

            monkeypatch.setattr(Frontend, name, spy)
        result = hook_gpu(NullFrontend).run()
        assert result.stats.instructions_executed > 0
        assert calls == []

    def test_subclass_override_is_called(self):
        executed = []

        class Counting(Frontend):
            def on_executed(self, warp_rt, inst, result):
                executed.append(inst.pc)

        gpu = hook_gpu(Counting)
        pipe = gpu.sms[0].pipeline
        assert pipe.on_executed.__self__ is gpu.sms[0].frontend
        assert [n for n in PIPELINE_HOOKS if getattr(pipe, n) is not None] == ["on_executed"]
        result = gpu.run()
        assert len(executed) == result.stats.instructions_executed > 0

    def test_capturing_frontend_sees_every_hook(self):
        inner = RecordingFrontend()
        gpu = hook_gpu(lambda: CapturingFrontend(inner, {}))
        pipe = gpu.sms[0].pipeline
        for name in PIPELINE_HOOKS:
            hook = getattr(pipe, name)
            assert hook is not None and hook.__self__ is gpu.sms[0].frontend, name
        reference = hook_gpu(None).run()
        result = gpu.run()
        assert result.to_dict() == reference.to_dict()
        assert all(inner.calls.values()), inner.calls

    def test_class_monkeypatch_before_build_is_honoured(self, monkeypatch):
        writebacks = []
        original = DarsieFrontend.on_writeback

        def spying(self, wrt, inst, meta):
            writebacks.append(inst.pc)
            original(self, wrt, inst, meta)

        monkeypatch.setattr(DarsieFrontend, "on_writeback", spying)
        gpu = build_gpu("LIB", "DARSIE")
        stats = gpu.run().stats
        assert stats.leaders_elected > 0
        assert writebacks


class TestTimingCallGate:
    @pytest.mark.parametrize("abbr", ["LIB", "MM"])
    def test_timing_calls_per_issued_instruction(self, abbr):
        """Small BASE runs: the stages made 36.4 (LIB) and 34.2 (MM)
        Python calls into ``repro/timing`` per issued instruction while
        every hook, operand collection, latency and post-execute step
        was its own call."""
        runner = WorkloadRunner(build_workload(abbr, "small"))
        runner.simulation_program("BASE")
        timing_dir = os.path.dirname(repro.timing.__file__) + os.sep
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            if event == "call" and frame.f_code.co_filename.startswith(timing_dir):
                calls += 1

        sys.setprofile(count)
        try:
            stats = runner.run("BASE").sim.stats
        finally:
            sys.setprofile(None)
        assert stats.instructions_issued > 10_000
        assert calls / stats.instructions_issued <= 24


def fresh_blocked(sm) -> int:
    return sum(
        w.skip_bit for w in sm.warps if w.skip_blocked or w.branch_sync_blocked
    )


class BlockedChecker:
    """Wraps every SM's ``tick`` to compare the blocked mask with a
    recomputation after it."""

    def __init__(self, gpu):
        self.ticks = 0
        self.blocked_ticks = 0
        for sm in gpu.sms:
            sm.tick = self._wrap(sm, sm.tick)

    def _wrap(self, sm, tick):
        def checked(cycle):
            activity = tick(cycle)
            assert sm.pipeline.blocked == fresh_blocked(sm), f"cycle {cycle}"
            self.ticks += 1
            self.blocked_ticks += bool(sm.pipeline.blocked)
            return activity

        return checked


class TestBlockedMask:
    @pytest.mark.parametrize("abbr", ALL_ABBRS)
    @pytest.mark.parametrize(
        "variant", ["BASE", "DARSIE", "DARSIE-NO-CF-SYNC", "SILICON-SYNC"]
    )
    def test_mask_matches_recomputation(self, abbr, variant):
        gpu = build_gpu(abbr, variant)
        checker = BlockedChecker(gpu)
        gpu.run()
        assert checker.ticks > 0
        if variant == "BASE":
            assert checker.blocked_ticks == 0

    @pytest.mark.parametrize("variant", ["DARSIE", "SILICON-SYNC"])
    def test_checker_sees_blocked_warps(self, variant):
        gpu = build_gpu("LIB", variant)
        checker = BlockedChecker(gpu)
        stats = gpu.run().stats
        assert checker.blocked_ticks > 0
        assert stats.sync_wait_cycles > 0


class TestFreedByRefcount:
    @pytest.mark.parametrize("variant", ["BASE", "DARSIE"])
    def test_engine_dies_with_the_run(self, variant, monkeypatch):
        """With the cyclic GC off, a finished simulation's functional
        engine (held by the SMs) and its kernel context and memory (held
        by the completed threadblocks) are freed as soon as the run
        returns."""
        refs = []
        original = GPU._finalize

        def finalize(self):
            refs.append((weakref.ref(self.engine), weakref.ref(self.ctx)))
            return original(self)

        monkeypatch.setattr(GPU, "_finalize", finalize)
        runner = WorkloadRunner.from_config(RunConfig(abbr="LIB", variant=variant, scale="small"))
        gc.collect()
        gc.disable()
        try:
            result = runner.run(variant)
            ((engine, ctx),) = refs
            assert engine() is None
            assert ctx() is None
        finally:
            gc.enable()
        assert result.sim.stats.instructions_executed > 0

    def test_finished_gpu_still_returns_its_result(self):
        gpu = build_gpu("LIB", "DARSIE")
        first = gpu.run()
        assert gpu.run().to_dict() == first.to_dict()
