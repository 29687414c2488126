"""Crash-safe checkpointing and the forward-progress watchdog.

The tentpole contract: a simulation paused at an arbitrary mid-run
cycle, serialized through the on-disk checkpoint container, and resumed
in a different GPU object must finish **bit-identical** to a run that
was never interrupted — for every variant family (one representative
per registry tag), not just the default frontend.  Alongside it, the
watchdog must turn the three ways a simulation can stop making progress
(cycle budget, no instruction retiring, idle with no wake event) into a
structured :class:`DeadlockError` carrying a per-stage/per-warp dump.
"""

import os
import pickle
import types

import pytest

from repro import Dim3, GlobalMemory, LaunchConfig, assemble
from repro.config import RunConfig
from repro.harness.runner import WorkloadRunner
from repro.timing import small_config
from repro.timing.buffers import IBuffer, IBufferEntry, WritebackQueue, ZeroCostLedger
from repro.timing.checkpoint import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    CheckpointError,
    read_checkpoint,
    write_checkpoint,
)
from repro.timing.gpu import GPU, DeadlockError
from repro.variants import REGISTRY


class StubOwner:
    """Stands in for an I-buffer's owning warp (picklable, hashable)."""

    skip_bit = 1


def first_variant_per_tag():
    """One representative variant per registry tag (deduplicated)."""
    chosen = {}
    for variant in REGISTRY:
        for tag in variant.tags:
            chosen.setdefault(tag, variant.name)
    return sorted(set(chosen.values()))


def build_gpu(variant: str, abbr: str = "LIB") -> GPU:
    cfg = RunConfig(abbr=abbr, variant=variant, scale="tiny")
    runner = WorkloadRunner.from_config(cfg)
    mem, params = runner.workload.fresh()
    return GPU(
        runner.simulation_program(variant),
        runner.workload.launch,
        mem,
        params=params,
        config=runner.gpu_config,
        frontend_factory=runner.frontend_factory(variant, None),
    )


class TestKillResumeBitIdentical:
    """Pinned per-variant-family resume equivalence (the kill is modelled
    by discarding the paused GPU and reviving it from the file alone)."""

    @pytest.mark.parametrize("variant", first_variant_per_tag())
    def test_resume_matches_straight_through(self, variant, tmp_path):
        ref_gpu = build_gpu(variant)
        ref = ref_gpu.run()

        gpu = build_gpu(variant)
        stop = max(1, ref.cycles // 2)
        assert gpu.run_to(stop) is None  # paused mid-run, not finished

        path = str(tmp_path / "mid.ckpt")
        write_checkpoint(path, gpu)
        del gpu  # the "kill": only the file survives

        revived = read_checkpoint(path)
        result = revived.run()
        assert result.to_dict() == ref.to_dict()
        assert (
            revived.ctx.memory.words.tobytes()
            == ref_gpu.ctx.memory.words.tobytes()
        )

    def test_many_split_points_one_variant(self, tmp_path):
        """Every quartile split of a DARSIE run resumes identically."""
        ref_gpu = build_gpu("DARSIE")
        ref = ref_gpu.run()
        for frac in (0.1, 0.25, 0.5, 0.75, 0.9):
            gpu = build_gpu("DARSIE")
            assert gpu.run_to(max(1, int(ref.cycles * frac))) is None
            revived = GPU.restore(gpu.snapshot())
            assert revived.run().to_dict() == ref.to_dict()

    @pytest.mark.parametrize("variant", ["UV", "DAC-IDEAL"])
    def test_bound_hooks_resume_on_the_restored_frontend(self, variant):
        """The pipeline's bound hooks pickle as (frontend, name): after a
        restore they call the restored frontend, whose state the resumed
        run must keep advancing to the uninterrupted result."""
        ref = build_gpu(variant).run()
        gpu = build_gpu(variant)
        assert gpu.run_to(max(1, ref.cycles // 2)) is None
        revived = GPU.restore(gpu.snapshot())
        for sm in revived.sms:
            hooks = {
                name: getattr(sm.pipeline, name)
                for name in ("fetch_cycle", "on_fetch", "eliminate_at_issue")
            }
            bound = {name: hook for name, hook in hooks.items() if hook is not None}
            assert bound, variant
            assert all(hook.__self__ is sm.frontend for hook in bound.values())
        result = revived.run()
        assert result.to_dict() == ref.to_dict()
        assert result.stats == ref.stats

    def test_snapshot_under_trace_is_a_usage_error(self):
        gpu = build_gpu("BASE")
        gpu.attach_trace(object())
        with pytest.raises(ValueError, match="trace"):
            gpu.snapshot()


class TestWatchdog:
    """The three no-forward-progress detectors."""

    INFINITE_LOOP = """
    loop:
        add.u32 $x, $x, 1
        bra loop
    """

    def _wedge_gpu(self, **overrides) -> GPU:
        prog = assemble("nop\nnop\nnop\nexit")
        launch = LaunchConfig(grid_dim=Dim3(1), block_dim=Dim3(32))
        mem = GlobalMemory(1 << 10)
        return GPU(prog, launch, mem,
                   config=small_config(num_sms=1).scaled(**overrides))

    def test_infinite_loop_trips_cycle_budget(self):
        prog = assemble(self.INFINITE_LOOP)
        launch = LaunchConfig(grid_dim=Dim3(1), block_dim=Dim3(32))
        mem = GlobalMemory(1 << 10)
        budget = 2_000
        gpu = GPU(prog, launch, mem,
                  config=small_config(num_sms=1).scaled(max_cycles=budget))
        with pytest.raises(DeadlockError, match="max_cycles") as exc_info:
            gpu.run()
        dump = exc_info.value.dump
        assert dump["reason"] == "max_cycles"
        assert dump["cycle"] <= budget  # within the watchdog window
        assert exc_info.value.to_dict()["dump"] is dump

    def test_stagnation_detector_and_dump_shape(self):
        """No instruction retiring for the whole window raises, and the
        dump names every stage and every live warp."""
        window = 300
        gpu = self._wedge_gpu(watchdog_cycles=window, event_skip=False)
        # Wedge: the SM reports activity every tick but retires nothing.
        gpu.sms[0].tick = lambda cycle: 1
        with pytest.raises(DeadlockError, match="no instruction executed") as exc_info:
            gpu.run()
        dump = exc_info.value.dump
        assert dump["reason"] == "no_instruction_executed"
        assert dump["cycle"] <= window + 2
        (sm,) = dump["sms"]
        assert sm["stages"]  # per-stage identity...
        assert {"ibuffer", "zero_cost", "inflight"} <= set(sm["occupancy"])
        assert sm["warps"]  # ...and per-warp detail
        for warp in sm["warps"]:
            assert {"warp_id", "pc", "fetch_pc", "flags",
                    "scoreboard", "inflight"} <= set(warp)
        # the dump is a JSON-safe artifact (CI uploads it verbatim)
        import json

        json.dumps(exc_info.value.to_dict())

    def test_idle_no_wake_raises_promptly(self):
        """Zero activity with no scheduled wake provably repeats forever;
        the fast detector fires long before the stagnation window."""
        ticks = 40
        gpu = self._wedge_gpu(watchdog_idle_ticks=ticks, watchdog_cycles=100_000)
        gpu.sms[0].tick = lambda cycle: 0
        gpu.sms[0].wake_cycle = lambda: None
        with pytest.raises(DeadlockError, match="no wake event") as exc_info:
            gpu.run()
        assert exc_info.value.dump["reason"] == "idle_no_wake"
        assert exc_info.value.dump["cycle"] <= ticks + 2


class TestCheckpointContainer:
    @pytest.fixture
    def paused(self, tmp_path):
        gpu = build_gpu("BASE")
        assert gpu.run_to(10) is None
        path = str(tmp_path / "c.ckpt")
        write_checkpoint(path, gpu)
        return path

    def test_round_trip_reads_back(self, paused):
        assert isinstance(read_checkpoint(paused), GPU)

    def test_truncated_file(self, paused):
        blob = open(paused, "rb").read()
        with open(paused, "wb") as fh:
            fh.write(blob[:20])
        with pytest.raises(CheckpointError, match="truncated"):
            read_checkpoint(paused)

    def test_wrong_magic(self, paused):
        blob = open(paused, "rb").read()
        with open(paused, "wb") as fh:
            fh.write(b"X" + blob[1:])
        with pytest.raises(CheckpointError, match="magic"):
            read_checkpoint(paused)

    def test_unknown_version(self, paused):
        blob = bytearray(open(paused, "rb").read())
        blob[len(CHECKPOINT_MAGIC) + 3] ^= 0xFF
        with open(paused, "wb") as fh:
            fh.write(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            read_checkpoint(paused)

    @pytest.mark.parametrize("old", [1, 2, 3, 4])
    def test_previous_format_version_is_refused(self, paused, old):
        # Version 1 pickled an issue stage that scanned per-scheduler
        # warp lists, version 2 a pipeline without the skip engine's
        # watch mask, version 3 step results without ``full_warp``,
        # version 4 a pipeline without bound hooks or the blocked mask;
        # restoring any of them into the current code would leave
        # fields missing, so the header alone must refuse them.
        assert CHECKPOINT_VERSION == 5
        blob = bytearray(open(paused, "rb").read())
        blob[len(CHECKPOINT_MAGIC):len(CHECKPOINT_MAGIC) + 4] = old.to_bytes(4, "big")
        with open(paused, "wb") as fh:
            fh.write(bytes(blob))
        with pytest.raises(CheckpointError, match=f"version {old}, expected 5"):
            read_checkpoint(paused)

    def test_payload_bitrot_fails_checksum(self, paused):
        blob = bytearray(open(paused, "rb").read())
        blob[-1] ^= 0x01
        with open(paused, "wb") as fh:
            fh.write(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            read_checkpoint(paused)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            read_checkpoint(str(tmp_path / "nope.ckpt"))

    def test_interrupted_write_leaves_no_partial_file(self, tmp_path, monkeypatch):
        """A KeyboardInterrupt mid-write must leave neither the final
        checkpoint nor tmp litter behind."""
        gpu = build_gpu("BASE")
        assert gpu.run_to(10) is None
        path = str(tmp_path / "victim.ckpt")

        def interrupted(src, dst):
            raise KeyboardInterrupt()

        monkeypatch.setattr(os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            write_checkpoint(path, gpu)
        assert os.listdir(tmp_path) == []


class TestStructureRoundTrips:
    """Isolated pickle round trips of the stateful pipeline structures."""

    def test_ibuffers_keep_sharing_one_ledger(self):
        ledger = ZeroCostLedger()
        pipeline = types.SimpleNamespace(zero_cost=ledger, dirty=set(), skip_watch=0)
        bufs = [IBuffer(pipeline, StubOwner()), IBuffer(pipeline, StubOwner())]
        inst = assemble("nop\nexit").instructions[0]
        bufs[0].push(IBufferEntry(inst=inst))
        bufs[0].push(IBufferEntry(inst=inst, skip_token=True))
        bufs[1].push(IBufferEntry(inst=inst, free=True))
        assert ledger.total == 2

        r0, r1 = pickle.loads(pickle.dumps(bufs))
        assert (r0.buffered, r0.zero_cost) == (1, 1)
        assert (r1.buffered, r1.zero_cost) == (0, 1)
        assert r0._ledger is r1._ledger  # aliasing survives the trip
        assert r0._ledger.total == 2
        r0.pop()  # real entry: ledger untouched
        r0.pop()  # skip token: shared ledger decremented
        assert r1._ledger.total == 1

    def test_writeback_queue_order_and_seq_survive(self):
        wbq = WritebackQueue()
        inst = assemble("nop\nexit").instructions[0]
        w = types.SimpleNamespace(inflight=0)
        wbq.schedule(7, w, inst, {"tag": "late"})
        wbq.schedule(3, w, inst, {"tag": "early"})
        wbq.schedule(3, w, inst, {"tag": "early2"})  # same cycle: seq tie-break

        restored = pickle.loads(pickle.dumps(wbq))
        assert len(restored) == 3
        assert restored.next_ready() == 3
        restored.schedule(3, restored.pending()[0][2], inst, {"tag": "early3"})
        tags = []
        for cycle in (3, 7):
            tags.extend(item[4]["tag"] for item in restored.pop_due(cycle))
        # ready-cycle order, program order within a cycle — including an
        # entry scheduled after the round trip (the seq counter resumed)
        assert tags == ["early", "early2", "early3", "late"]

    def test_port_budget_mid_cycle(self):
        from repro.core.rename import PortBudget

        budget = PortBudget(4)
        assert budget.acquire(10, 3)
        restored = pickle.loads(pickle.dumps(budget))
        assert not restored.acquire(10, 2)  # 3 of 4 ports already spent
        assert restored.acquire(10, 1)      # the last port is still free
        assert restored.acquire(11, 4)      # a new cycle resets the budget
