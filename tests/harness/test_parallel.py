"""The parallel, cache-backed execution layer.

Covers the tentpole guarantees: result-cache hit/miss semantics and
invalidation, corrupted-entry recovery, per-spec failure isolation
(a ``VerificationError`` in one run never aborts the sweep), serial and
process-pool paths agreeing bit-for-bit, and the cache-hit/wall-time
observability carried by :class:`SweepStats`.
"""

import pickle

import pytest

from repro.harness import parallel
from repro.harness.parallel import FUNCTIONAL, RunSpec, SweepError, cache_key, cache_path, run_specs
from repro.harness.runner import VerificationError, WorkloadRunner
from repro.timing import small_config
from repro.workloads import build_workload

SPEC = RunSpec(abbr="LIB", config_name="BASE", scale="tiny")


@pytest.fixture
def cache_dir(tmp_path):
    return str(tmp_path / "cache")


def run_one(spec, **kwargs):
    outcomes, stats = run_specs([spec], **kwargs)
    return outcomes[0], stats


class TestCache:
    def test_miss_then_hit_on_identical_spec(self, cache_dir):
        first, stats1 = run_one(SPEC, cache_dir=cache_dir, use_cache=True)
        assert first.ok and not first.cache_hit
        assert stats1.simulated == 1 and stats1.cache_hits == 0

        second, stats2 = run_one(SPEC, cache_dir=cache_dir, use_cache=True)
        assert second.ok and second.cache_hit
        assert stats2.simulated == 0 and stats2.cache_hits == 1
        assert second.result.cycles == first.result.cycles
        assert second.result.energy_pj == first.result.energy_pj

    def test_perturbed_specs_miss(self, cache_dir):
        base_key = cache_key(SPEC)
        perturbed = [
            RunSpec(abbr="FW", config_name="BASE", scale="tiny"),
            RunSpec(abbr="LIB", config_name="DARSIE", scale="tiny"),
            RunSpec(abbr="LIB", config_name="BASE", scale="small"),
            RunSpec(abbr="LIB", config_name="BASE", scale="tiny",
                    gpu_config=small_config(num_sms=2)),
        ]
        keys = {cache_key(s) for s in perturbed}
        assert base_key not in keys
        assert len(keys) == len(perturbed)

    def test_cache_version_bump_invalidates(self, cache_dir, monkeypatch):
        run_one(SPEC, cache_dir=cache_dir, use_cache=True)
        monkeypatch.setattr(parallel, "CACHE_VERSION", parallel.CACHE_VERSION + 1)
        outcome, stats = run_one(SPEC, cache_dir=cache_dir, use_cache=True)
        assert outcome.ok and not outcome.cache_hit
        assert stats.simulated == 1

    def test_corrupted_entry_falls_back_to_live_run(self, cache_dir):
        first, _ = run_one(SPEC, cache_dir=cache_dir, use_cache=True)
        key = cache_key(SPEC)
        path = cache_path(SPEC, key, cache_dir)
        with open(path, "wb") as fh:
            fh.write(b"\x00garbage, not a pickle")

        with pytest.warns(RuntimeWarning, match="corrupt"):
            outcome, stats = run_one(SPEC, cache_dir=cache_dir, use_cache=True)
        assert outcome.ok and not outcome.cache_hit
        assert stats.simulated == 1
        assert stats.cache_read_failures == 1  # counted, not swallowed
        assert outcome.result.cycles == first.result.cycles
        # The live run repaired the entry.
        hit, stats2 = run_one(SPEC, cache_dir=cache_dir, use_cache=True)
        assert hit.cache_hit
        assert stats2.cache_read_failures == 0

    def test_wrong_key_payload_is_a_miss(self, cache_dir):
        run_one(SPEC, cache_dir=cache_dir, use_cache=True)
        key = cache_key(SPEC)
        path = cache_path(SPEC, key, cache_dir)
        with open(path, "wb") as fh:
            pickle.dump({"key": "someone-else", "result": "bogus"}, fh)
        outcome, _ = run_one(SPEC, cache_dir=cache_dir, use_cache=True)
        assert outcome.ok and not outcome.cache_hit

    def test_no_cache_never_touches_disk(self, tmp_path):
        directory = tmp_path / "cache"
        outcome, _ = run_one(SPEC, cache_dir=str(directory), use_cache=False)
        assert outcome.ok
        assert not directory.exists()

    def test_clear_cache(self, cache_dir):
        run_one(SPEC, cache_dir=cache_dir, use_cache=True)
        assert parallel.clear_cache(cache_dir) == 1
        outcome, _ = run_one(SPEC, cache_dir=cache_dir, use_cache=True)
        assert not outcome.cache_hit

    def test_clear_cache_removes_leaked_tmp_files(self, cache_dir):
        """Interrupted atomic writes leave *.pkl.tmp.<pid> files behind;
        clear_cache must remove them too, not just finished entries."""
        import os

        run_one(SPEC, cache_dir=cache_dir, use_cache=True)
        shard = os.path.dirname(cache_path(SPEC, cache_key(SPEC), cache_dir))
        leak = os.path.join(shard, "LIB-BASE-tiny-0000.pkl.tmp.12345")
        open(leak, "wb").close()
        unrelated = os.path.join(shard, "README.txt")
        open(unrelated, "w").close()
        assert parallel.clear_cache(cache_dir) == 2  # entry + tmp leak
        assert not os.path.exists(leak)
        assert os.path.exists(unrelated)  # never deletes foreign files

    def test_reap_stale_tmp_by_age(self, cache_dir):
        import os
        import time

        shard = os.path.join(cache_dir, "ab")
        os.makedirs(shard)
        fresh = os.path.join(shard, "a.pkl.tmp.111")
        stale = os.path.join(shard, "b.pkl.tmp.222")
        for p in (fresh, stale):
            open(p, "wb").close()
        old = time.time() - 2 * parallel.STALE_TMP_AGE_S
        os.utime(stale, (old, old))
        assert parallel.reap_stale_tmp(cache_dir) == 1
        assert os.path.exists(fresh) and not os.path.exists(stale)

    def test_unwritable_cache_is_counted_and_warned(self, tmp_path):
        """A cache dir that cannot be created degrades gracefully: the
        sweep succeeds, the failure is counted, and a warning fires."""
        blocker = tmp_path / "cache"
        blocker.write_text("a file where the cache directory should be")
        with pytest.warns(RuntimeWarning, match="not writable"):
            outcome, stats = run_one(SPEC, cache_dir=str(blocker), use_cache=True)
        assert outcome.ok and not outcome.cache_hit
        assert stats.cache_write_failures == 1
        assert "1 cache writes failed" in stats.render()

    def test_writable_cache_reports_no_failures(self, cache_dir):
        _, stats = run_one(SPEC, cache_dir=cache_dir, use_cache=True)
        assert stats.cache_write_failures == 0
        assert "cache writes failed" not in stats.render()


class TestFailureIsolation:
    def test_verification_error_is_isolated(self, cache_dir, monkeypatch):
        """One failing oracle check doesn't abort the rest of the sweep."""
        real_build = parallel._build_runner

        def sabotaged(spec):
            runner = real_build(spec)
            if spec.abbr == "FW":
                runner.workload.check = lambda mem, params: False
            return runner

        monkeypatch.setattr(parallel, "_build_runner", sabotaged)
        specs = [
            RunSpec(abbr="LIB", config_name="BASE", scale="tiny"),
            RunSpec(abbr="FW", config_name="BASE", scale="tiny"),
            RunSpec(abbr="FWS", config_name="BASE", scale="tiny"),
        ]
        outcomes, stats = run_specs(specs, cache_dir=cache_dir, use_cache=True)
        assert [o.ok for o in outcomes] == [True, False, True]
        assert outcomes[1].error_type == "VerificationError"
        assert "oracle" in outcomes[1].error
        assert stats.failures == 1 and stats.simulated == 2
        # Failures are reported per-run in the sweep observability...
        statuses = dict((label, status) for label, _, status in stats.per_run)
        assert statuses["FW/BASE@tiny"] == "fail"
        # ...and never cached: with the sabotage removed, the next run
        # re-simulates instead of replaying a poisoned entry.
        monkeypatch.setattr(parallel, "_build_runner", real_build)
        outcome, _ = run_one(specs[1], cache_dir=cache_dir, use_cache=True)
        assert outcome.ok and not outcome.cache_hit

    def test_unknown_config_is_isolated(self, cache_dir):
        specs = [
            RunSpec(abbr="LIB", config_name="NO-SUCH-CONFIG", scale="tiny"),
            RunSpec(abbr="LIB", config_name="BASE", scale="tiny"),
        ]
        outcomes, stats = run_specs(specs, cache_dir=cache_dir)
        assert not outcomes[0].ok and outcomes[0].error_type == "KeyError"
        assert outcomes[1].ok
        assert stats.failures == 1

    def test_strict_raises_after_completing_sweep(self, cache_dir):
        specs = [
            RunSpec(abbr="LIB", config_name="NO-SUCH-CONFIG", scale="tiny"),
            RunSpec(abbr="LIB", config_name="BASE", scale="tiny"),
        ]
        with pytest.raises(SweepError) as excinfo:
            run_specs(specs, cache_dir=cache_dir, strict=True)
        assert len(excinfo.value.failures) == 1
        assert "NO-SUCH-CONFIG" in excinfo.value.failures[0].spec.label

    def test_raising_runner_maps_to_verification_error(self):
        """The underlying runner still raises VerificationError itself."""
        runner = WorkloadRunner(build_workload("LIB", "tiny"))
        runner.workload.check = lambda mem, params: False
        with pytest.raises(VerificationError):
            runner.run("BASE")


@pytest.mark.skipif(not parallel.supports_fork(), reason="needs fork start method")
class TestProcessPool:
    def test_pool_matches_serial(self, cache_dir):
        specs = [
            RunSpec(abbr=a, config_name=c, scale="tiny")
            for a in ("LIB", "FWS")
            for c in ("BASE", "DARSIE")
        ]
        serial, _ = run_specs(specs, jobs=1, use_cache=False)
        pooled, stats = run_specs(specs, jobs=2, use_cache=False)
        assert stats.jobs == 2
        for s, p in zip(serial, pooled):
            assert p.ok, p.error
            assert p.result.cycles == s.result.cycles
            assert p.result.energy_pj == s.result.energy_pj
            assert p.result.stats.instructions_executed == \
                s.result.stats.instructions_executed

    def test_pool_failure_isolation(self, cache_dir):
        specs = [
            RunSpec(abbr="LIB", config_name="BASE", scale="tiny"),
            RunSpec(abbr="LIB", config_name="NO-SUCH-CONFIG", scale="tiny"),
            RunSpec(abbr="FWS", config_name="BASE", scale="tiny"),
        ]
        outcomes, stats = run_specs(specs, jobs=2, use_cache=False)
        assert [o.ok for o in outcomes] == [True, False, True]
        assert stats.failures == 1

    def test_figure8_pool_render_is_byte_identical(self, cache_dir, monkeypatch):
        from repro.harness import experiments

        monkeypatch.setattr(parallel, "_defaults", dict(parallel._defaults))
        parallel.configure(jobs=1, use_cache=False, cache_dir=cache_dir)
        serial = experiments.figure8(scale="tiny", abbrs=("LIB", "FWS"))
        parallel.configure(jobs=2)
        pooled = experiments.figure8(scale="tiny", abbrs=("LIB", "FWS"))
        assert pooled.render() == serial.render()


class TestFunctionalSpecs:
    def test_functional_sweep_cached(self, cache_dir):
        spec = RunSpec(abbr="LIB", config_name=FUNCTIONAL, scale="tiny")
        outcome, stats = run_one(spec, cache_dir=cache_dir, use_cache=True)
        assert outcome.ok
        assert outcome.result.dimensionality == 1
        assert 0.0 <= outcome.result.levels.tb <= 1.0
        hit, stats2 = run_one(spec, cache_dir=cache_dir, use_cache=True)
        assert hit.cache_hit and stats2.simulated == 0
        assert hit.result.levels == outcome.result.levels


class TestSpecPlumbing:
    def test_specs_are_picklable(self):
        from repro.core import DarsieConfig

        spec = RunSpec(abbr="MM", config_name="DARSIE-ports4", scale="tiny",
                       gpu_config=small_config(num_sms=2),
                       darsie_config=DarsieConfig(skip_ports=4))
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.label == "MM/DARSIE-ports4@tiny"

    def test_darsie_variant_roundtrip(self, cache_dir):
        from repro.core import DarsieConfig

        spec = RunSpec(abbr="FWS", config_name="DARSIE-ports1", scale="tiny",
                       darsie_config=DarsieConfig(skip_ports=1))
        outcome, _ = run_one(spec, cache_dir=cache_dir, use_cache=True)
        assert outcome.ok and outcome.result.config_name == "DARSIE-ports1"
        # Variant knobs are part of the cache key.
        other = RunSpec(abbr="FWS", config_name="DARSIE-ports1", scale="tiny",
                        darsie_config=DarsieConfig(skip_ports=2))
        assert cache_key(other) != cache_key(spec)

    def test_last_sweep_stats_exposed(self, cache_dir):
        _, stats = run_one(SPEC, cache_dir=cache_dir, use_cache=False)
        assert parallel.last_sweep_stats() is stats
        assert "1 runs" in stats.render()
        assert "LIB/BASE@tiny" in stats.detail()


class TestCanonicalCacheKeys:
    """Cache keys are derived from the canonical RunConfig serialization:
    they change iff the canonical form changes — in both directions."""

    def test_key_unchanged_when_canonical_form_identical(self):
        # gpu_config=None and an explicit copy of the default GPU are the
        # same run: same canonical dict, same key.
        implicit = RunSpec(abbr="LIB", config_name="BASE", scale="tiny")
        explicit = RunSpec(abbr="LIB", config_name="BASE", scale="tiny",
                           gpu_config=small_config(num_sms=1))
        assert (implicit.to_run_config().canonical_json()
                == explicit.to_run_config().canonical_json())
        assert cache_key(implicit) == cache_key(explicit)

    def test_key_changes_when_canonical_form_changes(self):
        base = RunSpec(abbr="LIB", config_name="BASE", scale="tiny")
        tweaked = base.with_overrides({"gpu.l1_lines": 512})
        assert (base.to_run_config().canonical_json()
                != tweaked.to_run_config().canonical_json())
        assert cache_key(base) != cache_key(tweaked)

    def test_explicit_darsie_defaults_are_a_different_run(self):
        from repro.core import DarsieConfig

        implicit = RunSpec(abbr="MM", config_name="DARSIE", scale="tiny")
        explicit = RunSpec(abbr="MM", config_name="DARSIE", scale="tiny",
                           darsie_config=DarsieConfig())
        assert (implicit.to_run_config().canonical_json()
                != explicit.to_run_config().canonical_json())
        assert cache_key(implicit) != cache_key(explicit)

    def test_spec_run_config_round_trip(self):
        from repro.core import DarsieConfig

        spec = RunSpec(abbr="MM", config_name="DARSIE-ports4", scale="tiny",
                       gpu_config=small_config(num_sms=2),
                       darsie_config=DarsieConfig(skip_ports=4))
        assert RunSpec.from_run_config(spec.to_run_config()) == spec

    def test_with_overrides_rejects_bad_path(self):
        from repro.config import ConfigError

        with pytest.raises(ConfigError, match="valid paths"):
            SPEC.with_overrides({"nope.field": 1})

    def test_policy_is_excluded_from_the_cache_key(self):
        from repro.config import ExecPolicy

        plain = RunSpec(abbr="LIB", config_name="BASE", scale="tiny")
        budgeted = RunSpec(abbr="LIB", config_name="BASE", scale="tiny",
                           policy=ExecPolicy(timeout_s=60.0, max_retries=3))
        # The canonical forms differ (policy is a real config field) ...
        assert (plain.to_run_config().canonical_json()
                != budgeted.to_run_config().canonical_json())
        # ... but the key does not: a timeout never changes the result.
        assert cache_key(plain) == cache_key(budgeted)


def _fail(label_idx, error_type="VerificationError"):
    from repro.harness.parallel import RunOutcome

    spec = RunSpec(abbr="MM", config_name=f"VARIANT-{label_idx}", scale="tiny")
    return RunOutcome(spec=spec, result=None, error="boom", error_type=error_type)


class TestSweepErrorMessage:
    def test_five_or_fewer_failures_are_listed_in_full(self):
        err = SweepError([_fail(i) for i in range(5)])
        message = str(err)
        assert message.startswith("5 run(s) failed")
        assert "more)" not in message
        for i in range(5):
            assert f"MM/VARIANT-{i}@tiny" in message

    def test_overflow_failures_are_truncated_with_a_count(self):
        err = SweepError([_fail(i) for i in range(7)])
        message = str(err)
        assert message.startswith("7 run(s) failed")
        assert "(+2 more)" in message
        assert "MM/VARIANT-4@tiny" in message
        assert "MM/VARIANT-5@tiny" not in message
        assert len(err.failures) == 7  # the full list still rides along


class TestJournal:
    def test_outcome_round_trips_through_the_journal(self, tmp_path):
        from repro.harness.parallel import (
            RunOutcome,
            append_journal,
            load_journal,
        )

        path = str(tmp_path / "sweep.jsonl")
        ok = RunOutcome(spec=SPEC, result="unused", wall_time_s=1.25, attempts=2)
        bad = RunOutcome(spec=SPEC, result=None, error="boom",
                         error_type="Timeout", quarantined=True)
        assert append_journal(path, ok.to_journal_dict("key-1"))
        assert append_journal(path, bad.to_journal_dict("key-2"))
        entries = load_journal(path)
        assert entries["key-1"]["ok"] is True
        assert entries["key-1"]["error_type"] is None
        assert entries["key-1"]["attempts"] == 2
        assert entries["key-1"]["wall_time_s"] == 1.25
        assert entries["key-2"]["ok"] is False
        assert entries["key-2"]["error_type"] == "Timeout"
        assert entries["key-2"]["quarantined"] is True
        assert entries["key-1"]["label"] == SPEC.label

    def test_last_entry_wins_and_truncated_lines_are_skipped(self, tmp_path):
        from repro.harness.parallel import RunOutcome, append_journal, load_journal

        path = str(tmp_path / "sweep.jsonl")
        fail = RunOutcome(spec=SPEC, result=None, error="x", error_type="KeyError")
        ok = RunOutcome(spec=SPEC, result="unused")
        append_journal(path, fail.to_journal_dict("key-1"))
        append_journal(path, ok.to_journal_dict("key-1"))
        with open(path, "a") as fh:
            fh.write('{"key": "key-2", "ok": tr')  # kill mid-write
        entries = load_journal(path)
        assert entries["key-1"]["ok"] is True
        assert "key-2" not in entries

    def test_missing_journal_is_empty(self, tmp_path):
        from repro.harness.parallel import load_journal

        assert load_journal(str(tmp_path / "nope.jsonl")) == {}


class TestResume:
    def test_resume_skips_completed_specs(self, cache_dir, tmp_path):
        journal = str(tmp_path / "sweep.jsonl")
        done = [
            RunSpec(abbr="LIB", config_name="BASE", scale="tiny"),
            RunSpec(abbr="FWS", config_name="BASE", scale="tiny"),
        ]
        rest = [
            RunSpec(abbr="LIB", config_name="UV", scale="tiny"),
            RunSpec(abbr="FWS", config_name="UV", scale="tiny"),
        ]
        # "Killed" sweep: only half the specs completed.
        _, stats1 = run_specs(done, cache_dir=cache_dir, use_cache=True,
                              resume=journal)
        assert stats1.simulated == 2 and stats1.journal_skips == 0

        outcomes, stats2 = run_specs(done + rest, cache_dir=cache_dir,
                                     use_cache=True, resume=journal)
        assert all(o.ok for o in outcomes)
        assert stats2.journal_skips == 2
        assert stats2.simulated == 2  # only the incomplete specs re-ran
        assert [o.resumed for o in outcomes] == [True, True, False, False]
        statuses = dict((label, status) for label, _, status in stats2.per_run)
        assert statuses["LIB/BASE@tiny"] == "resume"
        assert statuses["LIB/UV@tiny"] == "sim"
        assert "2 resumed from journal" in stats2.render()

    def test_resume_false_disables_the_module_default(self, cache_dir, tmp_path,
                                                      monkeypatch):
        journal = str(tmp_path / "sweep.jsonl")
        monkeypatch.setitem(parallel._defaults, "resume", journal)
        _, stats = run_one(SPEC, cache_dir=cache_dir, use_cache=True, resume=False)
        assert stats.journal_skips == 0
        assert not (tmp_path / "sweep.jsonl").exists()


class TestKeyboardInterrupt:
    def test_interrupt_still_flushes_partial_stats(self, monkeypatch):
        real_worker = parallel._worker

        def interrupting(spec, attempt=1, in_child=False, ckpt=None):
            if spec.abbr == "FWS":
                raise KeyboardInterrupt()
            return real_worker(spec, attempt, in_child=in_child, ckpt=ckpt)

        monkeypatch.setattr(parallel, "_worker", interrupting)
        specs = [
            RunSpec(abbr="LIB", config_name="BASE", scale="tiny"),
            RunSpec(abbr="FWS", config_name="BASE", scale="tiny"),
            RunSpec(abbr="MM", config_name="BASE", scale="tiny"),
        ]
        with pytest.raises(KeyboardInterrupt):
            run_specs(specs, jobs=1, use_cache=False)
        stats = parallel.last_sweep_stats()
        assert stats is not None
        assert stats.runs == 1  # the spec that landed before the interrupt
        assert [label for label, _, _ in stats.per_run] == ["LIB/BASE@tiny"]
