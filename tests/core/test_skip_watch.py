"""The wake-driven skip engine: DARSIE's ``fetch_cycle`` probes only the
warps set in the SM's ``skip_watch`` mask.

A probe may clear a warp's bit only when a full per-cycle scan of every
resident warp would do nothing to that warp until the next mark.  These
tests re-evaluate the scan's branch from scratch for every unwatched
warp after every tick: a skip-classification input that changes
without marking its warp shows up here as a warp the scan would still
have touched, long before it moves a golden counter.
"""

import dataclasses

import numpy as np
import pytest

from repro import Dim3, GlobalMemory, LaunchConfig, assemble
from repro.config import RunConfig
from repro.core.compiler_pass import analyze_program
from repro.core.darsie import DarsieConfig, DarsieFrontend
from repro.fuzz import corpus_specs
from repro.fuzz.oracles import DARSIE_SETTINGS
from repro.harness.runner import WorkloadRunner
from repro.timing.config import small_config
from repro.timing.gpu import GPU
from repro.workloads import ALL_ABBRS

WATCH_VARIANTS = ("DARSIE", "DARSIE-NO-CF-SYNC", "DARSIE-IGNORE-STORE")


def scan_is_noop(fe, wrt) -> bool:
    """Whether the per-cycle scan's branch for ``wrt`` would change
    nothing: the warp is not skippable here with its skip state already
    reset, it is parked, or it is an elected leader waiting at its
    fetch PC."""
    if wrt.exited:
        return True
    pc = wrt.fetch_pc
    wid = (wrt.tb_rt.seq, wrt.warp.warp_id)
    pending = fe._leader_pending_fetch
    if (
        pc not in fe.skip_pcs
        or not wrt.fetch_ready()
        or not fe._skippable_here(wrt, pc)
    ):
        return not (wrt.skip_blocked or wrt.skip_parked or wid in pending)
    return wrt.skip_parked or pending.get(wid) == pc


def check_watch(sm) -> int:
    """Every resident warp off the watch mask is a scan no-op, and the
    bit -> warp map holds exactly the resident warps; returns how many
    live warps were off the mask."""
    fe = sm.frontend
    watch = sm.pipeline.skip_watch
    assert sm.pipeline.warp_of_bit == {w.skip_bit: w for w in sm.warps}
    unwatched = 0
    for w in sm.warps:
        if watch & w.skip_bit or w.exited:
            continue
        unwatched += 1
        assert scan_is_noop(fe, w), (
            f"sm{sm.sm_id} tb{w.tb_rt.tb.tb_index} warp{w.warp.warp_id} "
            f"unwatched at pc {w.fetch_pc:#x} but the scan would act "
            f"(blocked={w.skip_blocked}, parked={w.skip_parked})"
        )
    return unwatched


class WatchChecker:
    """Wraps every SM's ``tick`` to run :func:`check_watch` after it."""

    def __init__(self, gpu):
        self.ticks = 0
        self.unwatched = 0  # live warps found off the mask, summed over ticks
        for sm in gpu.sms:
            sm.tick = self._wrap(sm, sm.tick)

    def _wrap(self, sm, tick):
        def checked(cycle):
            activity = tick(cycle)
            self.unwatched += check_watch(sm)
            self.ticks += 1
            return activity

        return checked

    @staticmethod
    def remove(gpu):
        for sm in gpu.sms:
            del sm.tick


def build_gpu(abbr, variant, scale="tiny", **gpu_overrides):
    runner = WorkloadRunner.from_config(RunConfig(abbr=abbr, variant=variant, scale=scale))
    mem, params = runner.workload.fresh()
    config = dataclasses.replace(runner.gpu_config, **gpu_overrides)
    return GPU(
        runner.simulation_program(variant),
        runner.workload.launch,
        mem,
        params=params,
        config=config,
        frontend_factory=runner.frontend_factory(variant, None),
    )


class TestWatchInvariant:
    @pytest.mark.parametrize("abbr", ALL_ABBRS)
    def test_unwatched_warps_are_scan_noops(self, abbr):
        for variant in WATCH_VARIANTS:
            gpu = build_gpu(abbr, variant)
            checker = WatchChecker(gpu)
            gpu.run()
            assert checker.ticks > 0, f"{abbr}/{variant}"

    @pytest.mark.parametrize("abbr", ALL_ABBRS)
    def test_finite_ports(self, abbr):
        gpu = build_gpu(abbr, "DARSIE", rename_ports=1, version_table_ports=1)
        checker = WatchChecker(gpu)
        gpu.run()
        assert checker.ticks > 0

    @pytest.mark.parametrize("abbr", ["LIB", "BP", "HS"])
    def test_two_sms(self, abbr):
        gpu = build_gpu(abbr, "DARSIE", num_sms=2)
        checker = WatchChecker(gpu)
        gpu.run()
        assert checker.ticks > 0

    def test_checker_sees_unwatched_warps(self):
        # Not vacuous: parked followers and elected leaders leave the mask.
        gpu = build_gpu("LIB", "DARSIE")
        checker = WatchChecker(gpu)
        gpu.run()
        assert checker.unwatched > 0

    def test_watch_survives_snapshot_restore(self):
        straight = build_gpu("LIB", "DARSIE").run()
        gpu = build_gpu("LIB", "DARSIE")
        checker = WatchChecker(gpu)
        assert gpu.run_to(straight.cycles // 2) is None
        WatchChecker.remove(gpu)
        resumed = GPU.restore(gpu.snapshot())
        WatchChecker(resumed)
        for sm in resumed.sms:
            check_watch(sm)
        result = resumed.run()
        assert checker.ticks > 0
        assert result.cycles == straight.cycles
        assert result.stats == straight.stats


CORPUS = [spec for _, spec in corpus_specs()]


class TestWatchInvariantCorpus:
    """The pinned fuzz kernels aim at store invalidation, freelist
    pressure and guarded writes, under every DARSIE setting the fuzz
    oracles rotate through."""

    @pytest.mark.parametrize("spec", CORPUS, ids=[spec.name for spec in CORPUS])
    @pytest.mark.parametrize(
        "setting", DARSIE_SETTINGS, ids=[label for label, _, _ in DARSIE_SETTINGS]
    )
    def test_unwatched_warps_are_scan_noops(self, spec, setting):
        _, darsie, gpu_overrides = setting
        analysis = analyze_program(spec.program())
        cfg = DarsieConfig(**darsie)
        memory, params = spec.fresh_memory()
        with np.errstate(all="ignore"):
            gpu = GPU(
                spec.program(), spec.launch(), memory, params,
                config=small_config(num_sms=1, **gpu_overrides),
                frontend_factory=lambda: DarsieFrontend(analysis, cfg),
            )
            checker = WatchChecker(gpu)
            gpu.run()
        assert checker.ticks > 0


#: A DR global load whose entry a later memory event of the leader
#: invalidates while the followers are parked on its writeback.
INVALIDATE_SRC = """
.param tab
.param out
.param acc
    mov.u32 $t, %param.tab
    ld.global.s32 $v, [$t]
    mul.u32 $o, %tid.y, %ntid.x
    add.u32 $o, $o, %tid.x
    shl.u32 $o, $o, 2
    add.u32 $o, $o, %param.out
    {event}
    add.u32 $r, $v, 1
    st.global.s32 [$o], $r
    exit
"""


class TestInvalidationMarks:
    """A store or a global atomic hands parked followers a bypass PC;
    the skip engine must be told, or the followers stay parked."""

    @pytest.mark.parametrize(
        ("event", "hook"),
        [
            ("st.global.s32 [$o], %tid.x", "on_store"),
            ("atom.global.add.s32 $d, [%param.acc], 1", "on_global_communication"),
        ],
        ids=["store", "atomic"],
    )
    def test_parked_followers_get_rewatched(self, event, hook, monkeypatch):
        prog = assemble(INVALIDATE_SRC.format(event=event))
        analysis = analyze_program(prog)
        mem = GlobalMemory(1 << 14)
        params = {
            "tab": mem.alloc_array(np.arange(64)),
            "out": mem.alloc(1024),
            "acc": mem.alloc(4),
        }
        bypassed_parked = []
        original = getattr(DarsieFrontend, hook)

        def spying(self, *args):
            original(self, *args)
            bypassed_parked.extend(
                w for w in self.sm.warps if w.skip_parked and w.fetch_pc in w.bypass_pcs
            )

        monkeypatch.setattr(DarsieFrontend, hook, spying)
        gpu = GPU(
            prog, LaunchConfig(grid_dim=Dim3(1), block_dim=Dim3(16, 16)), mem,
            params=params, config=small_config(num_sms=1),
            frontend_factory=lambda: DarsieFrontend(analysis),
        )
        WatchChecker(gpu)
        stats = gpu.run().stats
        assert stats.load_entries_invalidated > 0
        assert bypassed_parked  # the scenario this test exists for


class TestStaleMark:
    def test_mark_on_a_retired_warp_is_dropped(self):
        """A mark can land after its TB left the SM (a leader writeback
        completing past the TB's retirement wakes its parked warps);
        the probe must drop it, not look the warp up."""
        gpu = build_gpu("LIB", "DARSIE")
        sm = gpu.sms[0]
        assert gpu.run_to(1) is None
        launched = list(sm.tbs)
        while all(tb_rt in sm.tbs for tb_rt in launched):
            assert gpu.run_to(gpu.cycle + 1) is None
        (retired,) = [tb_rt for tb_rt in launched if tb_rt not in sm.tbs]
        fe = sm.frontend
        assert fe.skip_pcs
        bit = retired.warps[0].skip_bit
        assert bit not in sm.pipeline.warp_of_bit
        fe._wake_parked(retired)
        assert sm.pipeline.skip_watch & bit
        fe.fetch_cycle(sm.cycle + 1)
        assert not sm.pipeline.skip_watch & retired.frontend_state.watch_bits


class TestProbeGate:
    def test_skip_engine_probes_only_watched_warps(self, monkeypatch):
        """Small CP/DARSIE: the per-cycle scan of every resident warp
        made 115,655 ``_skippable_here`` calls; the watch mask keeps
        them under half of that."""
        calls = []
        original = DarsieFrontend._skippable_here

        def counting(self, wrt, pc):
            calls.append(pc)
            return original(self, wrt, pc)

        monkeypatch.setattr(DarsieFrontend, "_skippable_here", counting)
        runner = WorkloadRunner.from_config(RunConfig(abbr="CP", variant="DARSIE", scale="small"))
        stats = runner.run("DARSIE").sim.stats
        assert stats.follower_skips > 0
        assert len(calls) <= 57_000
