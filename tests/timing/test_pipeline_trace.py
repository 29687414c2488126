"""Unit tests for the pipeline trace viewer, and the contract that a
traced run is the run that ships: event-skip stays on under a trace."""

import dataclasses
import functools

import numpy as np
import pytest

from repro import (
    DarsieFrontend,
    Dim3,
    GlobalMemory,
    LaunchConfig,
    analyze_program,
    assemble,
    small_config,
)
from repro.harness.runner import WorkloadRunner
from repro.timing import PipelineTrace
from repro.timing.gpu import GPU
from repro.workloads import ALL_ABBRS, build_workload

SRC = """
.param tab
.param out
    mul.u32 $a, %tid.x, 4
    add.u32 $a, $a, %param.tab
    ld.global.s32 $v, [$a]
    mul.u32 $o, %tid.y, %ntid.x
    add.u32 $o, $o, %tid.x
    shl.u32 $o, $o, 2
    add.u32 $o, $o, %param.out
    st.global.s32 [$o], $v
    exit
"""


def traced_run(frontend_factory=None):
    prog = assemble(SRC)
    mem = GlobalMemory(1 << 12)
    p = {"tab": mem.alloc_array(np.arange(8)), "out": mem.alloc(256)}
    launch = LaunchConfig(grid_dim=Dim3(1), block_dim=Dim3(8, 8))
    gpu = GPU(prog, launch, mem, params=p, config=small_config(1),
              frontend_factory=frontend_factory)
    trace = PipelineTrace()
    gpu.attach_trace(trace)
    result = gpu.run()
    return trace, result


class TestTrace:
    def test_base_run_records_fetch_issue_writeback(self):
        trace, result = traced_run()
        counts = trace.counts()
        assert counts["F"] == result.stats.instructions_fetched
        assert counts["I"] == result.stats.instructions_issued
        assert counts.get("S", 0) == 0

    def test_darsie_run_records_skips_and_blocks(self):
        prog = assemble(SRC)
        analysis = analyze_program(prog)
        trace, result = traced_run(lambda: DarsieFrontend(analysis))
        counts = trace.counts()
        assert counts["S"] == result.stats.instructions_skipped
        assert counts.get("B", 0) == result.stats.sync_wait_cycles

    def test_render_shows_legend_and_rows(self):
        trace, _ = traced_run()
        text = trace.render(max_cycles=50)
        assert "F=fetch" in text
        assert "sm0 tb0 w0" in text

    def test_event_cap(self):
        trace = PipelineTrace(max_events=2)
        for i in range(5):
            trace.record(i, 0, 0, 0, "F", 0)
        assert len(trace.events) == 2 and trace.dropped == 3
        assert "dropped" in trace.render()

    def test_leader_follower_summary(self):
        prog = assemble(SRC)
        analysis = analyze_program(prog)
        trace, result = traced_run(lambda: DarsieFrontend(analysis))
        summary = trace.leader_follower_summary()
        assert "skipped" in summary

    def test_empty_trace(self):
        assert "empty" in PipelineTrace().render()


# -- event-skip replay equivalence -------------------------------------------

#: (abbr, variant, num_sms): every Table-1 app under four variants on one
#: SM, plus two-SM cases where the replay must interleave SMs per cycle
EQUIVALENCE_CASES = [
    (abbr, variant, 1)
    for abbr in ALL_ABBRS
    for variant in ("BASE", "DARSIE", "DARSIE-NO-CF-SYNC", "DUAL-ISSUE")
] + [
    (abbr, variant, 2)
    for abbr in ("LIB", "MM", "CONVTEX", "HS")
    for variant in ("BASE", "DARSIE")
]


@functools.lru_cache(maxsize=1)  # cases are grouped by (abbr, num_sms)
def _runner(abbr, num_sms):
    return WorkloadRunner(build_workload(abbr, "tiny"), small_config(num_sms=num_sms))


def _run(abbr, variant, num_sms, event_skip, traced):
    runner = _runner(abbr, num_sms)
    mem, params = runner.workload.fresh()
    gpu = GPU(runner.simulation_program(variant), runner.workload.launch, mem,
              params=params,
              config=dataclasses.replace(runner.gpu_config, event_skip=event_skip),
              frontend_factory=runner.frontend_factory(variant))
    trace = None
    if traced:
        trace = PipelineTrace()
        gpu.attach_trace(trace)
    return gpu.run(), trace


class TestEventSkipReplay:
    @pytest.mark.parametrize("abbr,variant,num_sms", EQUIVALENCE_CASES)
    def test_traced_skip_run_matches_stepped_trace(self, abbr, variant, num_sms):
        plain, _ = _run(abbr, variant, num_sms, event_skip=True, traced=False)
        skipped, trace = _run(abbr, variant, num_sms, event_skip=True, traced=True)
        stepped, reference = _run(abbr, variant, num_sms, event_skip=False, traced=True)
        assert skipped.to_dict() == plain.to_dict() == stepped.to_dict()
        assert trace.dropped == reference.dropped == 0
        assert trace.dropped_samples == reference.dropped_samples == 0
        assert trace.events == reference.events
        assert trace.samples == reference.samples
