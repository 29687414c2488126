"""Sweep-layer checkpointing: kill → resume → bit-identical.

The timing-layer tests prove a checkpointed GPU resumes exactly; this
file proves the *harness* plumbing around it — retries resuming from
the newest valid checkpoint, the SweepStats counters, superseded-file
GC, journal hardening, and the deadlock-dump failure artifact.
"""

import glob
import json
import os
import time
import warnings

import pytest

from repro.config import ExecPolicy, RunConfig
from repro.harness import faults as faultlib
from repro.harness import parallel
from repro.harness.parallel import (
    RunSpec,
    SweepStats,
    append_journal,
    cache_key,
    checkpoint_path,
    load_journal,
    run_specs,
)
from repro.harness.runner import WorkloadRunner
from repro.timing.checkpoint import (
    CHECKPOINT_MAGIC,
    CheckpointError,
    read_checkpoint,
    write_checkpoint,
)
from repro.timing.gpu import GPU

SPEC = RunSpec(abbr="LIB", config_name="DARSIE", scale="tiny")

CKPT_POLICY = ExecPolicy(
    max_retries=2,
    backoff_base_s=0.0,
    checkpoint_interval_cycles=64,
)


def find_ckpts(directory):
    return glob.glob(os.path.join(directory, "**", "*.ckpt"), recursive=True)


class TestKillResume:
    def test_sim_kill_resumes_bit_identical(self, tmp_path):
        """A worker killed right after its first checkpoint write is
        retried, resumes from that checkpoint, and lands the same bits
        as an undisturbed run."""
        (clean,), _ = run_specs([SPEC], jobs=1, use_cache=False)
        assert clean.ok and clean.checkpoints_written == 0

        plan = faultlib.FaultPlan(rules=(
            faultlib.FaultRule(faultlib.SIM_KILL, SPEC.label, attempts=(1,)),
        ))
        with plan.active():
            (out,), stats = run_specs(
                [SPEC], jobs=1, use_cache=True, cache_dir=str(tmp_path),
                policy=CKPT_POLICY,
            )
        assert out.ok and out.attempts == 2
        assert out.checkpoint_resumed
        assert out.checkpoints_written >= 1
        assert stats.checkpoint_resumes == 1
        assert stats.checkpoints_written >= 2  # attempt 1's write + resumes
        assert out.result.cycles == clean.result.cycles
        assert out.result.energy_pj == clean.result.energy_pj
        assert out.result.sim.stats == clean.result.sim.stats

    def test_landed_result_prunes_its_checkpoint(self, tmp_path):
        plan = faultlib.FaultPlan(rules=(
            faultlib.FaultRule(faultlib.SIM_KILL, SPEC.label, attempts=(1,)),
        ))
        with plan.active():
            (out,), _ = run_specs(
                [SPEC], jobs=1, use_cache=True, cache_dir=str(tmp_path),
                policy=CKPT_POLICY,
            )
        assert out.ok
        assert find_ckpts(str(tmp_path)) == []  # superseded and reaped

    def test_failed_spec_keeps_checkpoint_for_forensics(self, tmp_path):
        """A spec that never lands keeps its newest checkpoint on disk —
        it is the resume point for the next sweep and a CI artifact."""
        plan = faultlib.FaultPlan(rules=(
            # every attempt: the retry budget runs out
            faultlib.FaultRule(faultlib.SIM_KILL, SPEC.label),
        ))
        policy = ExecPolicy(
            max_retries=1, backoff_base_s=0.0, quarantine_after=99,
            checkpoint_interval_cycles=64,
        )
        with plan.active():
            (out,), stats = run_specs(
                [SPEC], jobs=1, use_cache=True, cache_dir=str(tmp_path),
                policy=policy,
            )
        assert not out.ok
        assert out.checkpoints_written >= 1  # counted even on failure
        assert stats.checkpoints_written >= 1
        assert len(find_ckpts(str(tmp_path))) == 1

    def test_counters_quiet_without_checkpointing(self, tmp_path):
        (out,), stats = run_specs(
            [SPEC], jobs=1, use_cache=True, cache_dir=str(tmp_path),
        )
        assert out.ok
        assert stats.checkpoints_written == 0
        assert stats.checkpoint_resumes == 0
        assert "checkpoint" not in stats.render()
        assert find_ckpts(str(tmp_path)) == []


class TestFormatSkew:
    @pytest.mark.parametrize("old", [1, 2, 3, 4])
    def test_previous_version_checkpoint_is_ignored_and_run_starts_fresh(
        self, tmp_path, old
    ):
        """A checkpoint left by an older checkout (format version 1 to
        4) is refused on read, and the attempt that finds it runs from
        cycle zero to the same result as a clean run."""
        (clean,), _ = run_specs([SPEC], jobs=1, use_cache=False)
        runner = WorkloadRunner.from_config(
            RunConfig(abbr=SPEC.abbr, variant=SPEC.config_name, scale=SPEC.scale)
        )
        mem, params = runner.workload.fresh()
        gpu = GPU(
            runner.simulation_program(SPEC.config_name), runner.workload.launch,
            mem, params=params, config=runner.gpu_config,
            frontend_factory=runner.frontend_factory(SPEC.config_name, None),
        )
        assert gpu.run_to(64) is None
        path = checkpoint_path(SPEC, cache_key(SPEC), str(tmp_path))
        write_checkpoint(path, gpu)
        blob = bytearray(open(path, "rb").read())
        blob[len(CHECKPOINT_MAGIC):len(CHECKPOINT_MAGIC) + 4] = old.to_bytes(4, "big")
        with open(path, "wb") as fh:
            fh.write(bytes(blob))
        with pytest.raises(CheckpointError, match=f"version {old}"):
            read_checkpoint(path)

        (out,), stats = run_specs(
            [SPEC], jobs=1, use_cache=True, cache_dir=str(tmp_path),
            policy=CKPT_POLICY,
        )
        assert out.ok and out.attempts == 1
        assert not out.checkpoint_resumed
        assert stats.checkpoint_resumes == 0
        assert out.result.sim.stats == clean.result.sim.stats


class TestDeadlockArtifact:
    def test_watchdog_failure_writes_dump_next_to_checkpoint(self, tmp_path):
        """A DeadlockError in the worker persists its diagnostic dump as
        ``<ckpt>.deadlock.json`` so CI can upload it on failure."""
        policy = ExecPolicy(max_cycles=50, checkpoint_interval_cycles=0)
        (out,), _ = run_specs(
            [SPEC], jobs=1, use_cache=True, cache_dir=str(tmp_path),
            policy=policy,
        )
        assert not out.ok and out.error_type == "DeadlockError"
        expected = checkpoint_path(SPEC, cache_key(SPEC), str(tmp_path))
        dump_path = f"{expected}.deadlock.json"
        assert os.path.exists(dump_path)
        payload = json.load(open(dump_path))
        assert payload["label"] == SPEC.label
        assert payload["dump"]["reason"] == "max_cycles"
        assert payload["dump"]["sms"][0]["warps"]  # per-warp detail intact

    def test_clear_cache_reaps_dumps_and_checkpoints(self, tmp_path):
        policy = ExecPolicy(max_cycles=50)
        run_specs([SPEC], jobs=1, use_cache=True, cache_dir=str(tmp_path),
                  policy=policy)
        leak = tmp_path / "ab" / "stale.ckpt"
        leak.parent.mkdir(exist_ok=True)
        leak.write_bytes(b"x")
        removed = parallel.clear_cache(str(tmp_path))
        assert removed >= 2  # the .deadlock.json + the stale .ckpt
        assert find_ckpts(str(tmp_path)) == []
        assert glob.glob(str(tmp_path / "**" / "*.deadlock.json"),
                         recursive=True) == []


class TestJournalHardening:
    def test_torn_final_line_is_skipped_and_counted(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        append_journal(path, {"key": "k1", "label": "a", "ok": True})
        with open(path, "a") as fh:
            fh.write('{"key": "k2", "label": "b", "ok": tr')  # torn write
        stats = SweepStats()
        with pytest.warns(RuntimeWarning, match="torn"):
            entries = load_journal(path, stats)
        assert list(entries) == ["k1"]  # the good line survives
        assert stats.journal_bad_lines == 1
        assert "1 torn journal line" in stats.render()

    def test_intact_journal_counts_nothing(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        append_journal(path, {"key": "k1", "label": "a", "ok": True})
        stats = SweepStats()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            entries = load_journal(path, stats)
        assert list(entries) == ["k1"]
        assert stats.journal_bad_lines == 0

    def test_journal_fsync_policy_flushes_each_record(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: synced.append(fd) or real_fsync(fd))
        path = str(tmp_path / "journal.jsonl")
        journal = str(path)
        run_specs(
            [SPEC], jobs=1, use_cache=True, cache_dir=str(tmp_path / "cache"),
            policy=ExecPolicy(journal_fsync=True), resume=journal,
        )
        assert synced  # at least the journal append fsynced
        baseline = len(synced)
        synced.clear()
        run_specs(
            [RunSpec(abbr="FW", config_name="BASE", scale="tiny")],
            jobs=1, use_cache=True, cache_dir=str(tmp_path / "cache"),
            policy=ExecPolicy(journal_fsync=False),
            resume=str(tmp_path / "j2.jsonl"),
        )
        assert len(synced) < baseline  # default stays fsync-free on append

    def test_append_fsync_flag_direct(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(os, "fsync", lambda fd: calls.append(fd))
        path = str(tmp_path / "j.jsonl")
        assert append_journal(path, {"key": "a"}, fsync=False)
        assert calls == []
        assert append_journal(path, {"key": "b"}, fsync=True)
        assert len(calls) == 1
        assert len(load_journal(path)) == 2


class TestTmpReaping:
    def test_stale_ckpt_tmp_is_reaped(self, tmp_path):
        directory = str(tmp_path)
        shard = os.path.join(directory, "ab")
        os.makedirs(shard)
        stale = os.path.join(shard, "run.ckpt.tmp.4242")
        open(stale, "wb").close()
        old = time.time() - 2 * parallel.STALE_TMP_AGE_S
        os.utime(stale, (old, old))
        fresh = os.path.join(shard, "run.ckpt.tmp.4243")
        open(fresh, "wb").close()
        assert parallel.reap_stale_tmp(directory) == 1
        assert not os.path.exists(stale) and os.path.exists(fresh)

    def test_sweep_counts_reaped_tmp_files(self, tmp_path):
        directory = str(tmp_path)
        os.makedirs(os.path.join(directory, "ab"))
        stale = os.path.join(directory, "ab", "dead.ckpt.tmp.999")
        open(stale, "wb").close()
        old = time.time() - 2 * parallel.STALE_TMP_AGE_S
        os.utime(stale, (old, old))
        _, stats = run_specs(
            [SPEC], jobs=1, use_cache=True, cache_dir=directory,
        )
        assert stats.stale_tmp_reaped == 1
        assert "1 stale tmp file" in stats.render()
        assert not os.path.exists(stale)
