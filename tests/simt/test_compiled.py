"""The compiled functional path: per-PC thunks and the batched tracer.

Each instruction is compiled once per engine; the tracer summarises
destination vectors in bulk.  Neither may change a trace: the digests
below were computed with the per-instruction interpreter and the
per-record ``ValueSummary.of`` that these replaced, and every record's
(tb, warp, pc, occurrence, opclass, summary, divergent) must still hash
to them.
"""

import hashlib
import os
import sys

import numpy as np
import pytest

import repro.simt
import repro.simt.tracer as tracer_module
from repro.fuzz.spec import build_fuzz_workload, corpus_specs
from repro.harness.runner import WorkloadRunner
from repro.simt import Tracer, run_functional
from repro.simt.executor import FunctionalEngine
from repro.simt.tracer import NONE
from repro.workloads import ALL_ABBRS, build_workload

#: name -> (records, digest of the trace) of the tiny-scale Table-1 apps
#: and the committed fuzz corpus
PINNED_TRACES = {
    "BIN": (484, "ae12f750b9c07066"),
    "PT": (292, "9d04c87874e90663"),
    "FW": (684, "6c74d90234b5a4fa"),
    "SR1": (268, "3636de02d2154119"),
    "LIB": (408, "13da62b94d829a27"),
    "IMNLM": (832, "41d00a0e9b6f2f52"),
    "BP": (276, "5f06d1f48d10a333"),
    "DCT8x8": (164, "9f6f9a96661ab916"),
    "FWS": (306, "23dc8ded129395be"),
    "HS": (220, "8150257eac0ec4f6"),
    "CP": (154, "dd5457596e9f7cbb"),
    "CONVTEX": (236, "f9c990c6016a669b"),
    "MM": (1216, "b030a655c048647d"),
    "adv_freelist_pressure": (236, "8ffc71ff06552411"),
    "adv_store_invalidation": (220, "dbdd33bc969eacb1"),
    "pin_divergent_region_audit": (42, "d026a6df7d070809"),
    "pin_exit_materialize": (38, "b201165ccf119d80"),
    "pin_guarded_cancel_restore": (42, "c89d75537c770d13"),
    "pin_guarded_false_share": (40, "c4d2939dfcbc9f3f"),
    "pin_partial_warp_lanes": (38, "58c1a8e047d9d439"),
}

CORPUS = {spec.name: spec for _, spec in corpus_specs()}


def workload_of(name):
    if name in CORPUS:
        return build_fuzz_workload(CORPUS[name])
    return build_workload(name, "tiny")


def trace_digest(trace) -> str:
    """Hash of every record, with base and stride bit-exact (``-0.0``
    and ``0.0`` differ)."""
    h = hashlib.sha256()
    for r in trace.records:
        s = r.summary
        h.update(("%d %d %d %d %s %s %s %s %d %d\n" % (
            r.tb_index, r.warp_id, r.pc, r.occurrence, r.opclass,
            s.kind, float(s.base).hex(), float(s.stride).hex(), s.digest, r.divergent,
        )).encode())
    return h.hexdigest()[:16]


def traced(workload):
    mem, params = workload.fresh()
    tracer = Tracer()
    with np.errstate(all="ignore"):
        run_functional(workload.program, workload.launch, mem, params=params, tracer=tracer)
    return tracer.trace


class TestTraceIdentity:
    def test_pins_cover_every_app_and_corpus_kernel(self):
        assert set(PINNED_TRACES) == set(ALL_ABBRS) | set(CORPUS)

    @pytest.mark.parametrize("name", sorted(PINNED_TRACES))
    def test_trace_matches_pinned_digest(self, name):
        trace = traced(workload_of(name))
        assert (len(trace), trace_digest(trace)) == PINNED_TRACES[name]


class TestFlushPoints:
    def test_buffer_is_bounded_and_flushed_at_tb_boundaries(self, monkeypatch):
        """The pending buffer never holds more than ``_FLUSH_ROWS``
        vectors, is empty once a TB begins, and ``trace`` never shows a
        pending summary."""
        seen = []
        original_record, original_begin = Tracer.record, Tracer.begin_block

        def checking(self, tb, warp, result):
            original_record(self, tb, warp, result)
            seen.append(len(self._values))
            assert len(self._values) < tracer_module._FLUSH_ROWS

        def begin(self, tb):
            original_begin(self, tb)
            assert not self._values and not self._pending

        monkeypatch.setattr(Tracer, "record", checking)
        monkeypatch.setattr(Tracer, "begin_block", begin)
        monkeypatch.setattr(tracer_module, "_FLUSH_ROWS", 64)
        trace = traced(build_workload("MM", "tiny"))
        assert max(seen) == 63
        assert all(r.summary.kind != NONE for r in trace.records if r.opclass == "alu")
        assert (len(trace), trace_digest(trace)) == PINNED_TRACES["MM"]


def reduction_full_warp(result) -> bool:
    return not bool(np.any(result.warp.hw_mask & ~result.exec_mask))


@pytest.fixture
def checked_steps(monkeypatch):
    """Counts executed steps, asserting each one's ``full_warp`` flag
    against the mask reduction it replaces."""
    steps = []
    original = FunctionalEngine.execute_instruction

    def checking(self, tb, warp, inst, reg_overrides=None, pred_overrides=None):
        result = original(self, tb, warp, inst, reg_overrides, pred_overrides)
        assert result.full_warp == reduction_full_warp(result), (
            f"tb{tb.tb_index} warp{warp.warp_id} pc {inst.pc:#x}: "
            f"full_warp={result.full_warp}"
        )
        steps.append(result.full_warp)
        return result

    monkeypatch.setattr(FunctionalEngine, "execute_instruction", checking)
    return steps


class TestFullWarpFlag:
    @pytest.mark.parametrize("name", sorted(PINNED_TRACES))
    def test_functional_flag_equals_mask_reduction(self, name, checked_steps):
        traced(workload_of(name))
        assert checked_steps

    def test_some_steps_are_not_full(self, checked_steps):
        """The corpus exercises guards, divergence and dead lanes."""
        for name in CORPUS:
            traced(workload_of(name))
        assert True in checked_steps and False in checked_steps

    @pytest.mark.parametrize("abbr", ["LIB", "BP", "HS", "FW"])
    @pytest.mark.parametrize("variant", ["DARSIE", "DARSIE-NO-CF-SYNC"])
    def test_timing_flag_equals_mask_reduction(self, abbr, variant, checked_steps):
        """DARSIE follower reads go through the override path."""
        WorkloadRunner(build_workload(abbr, "tiny")).run(variant)
        assert checked_steps


class TestSimtCallGate:
    @pytest.mark.parametrize("abbr", ["LIB", "MM"])
    def test_simt_calls_per_warp_instruction(self, abbr):
        """Small functional trace: the per-instruction interpreter and
        per-record tracer made 23.8 (LIB) and 23.6 (MM) Python calls
        into ``repro/simt`` per executed warp instruction."""
        runner = WorkloadRunner(build_workload(abbr, "small"))
        simt_dir = os.path.dirname(repro.simt.__file__) + os.sep
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            if event == "call" and frame.f_code.co_filename.startswith(simt_dir):
                calls += 1

        sys.setprofile(count)
        try:
            trace = runner.functional_trace()
        finally:
            sys.setprofile(None)
        assert len(trace) > 10_000
        assert calls / len(trace) <= 20
