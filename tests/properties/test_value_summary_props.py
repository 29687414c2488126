"""Property-based tests for value-pattern classification."""

from types import SimpleNamespace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.isa.instructions import Instruction, Opcode
from repro.simt.tracer import (
    AFFINE,
    Tracer,
    UNIFORM,
    UNSTRUCTURED,
    ValueSummary,
    summarize_rows,
)

lane_values = st.lists(
    st.integers(min_value=-(2**31), max_value=2**31 - 1), min_size=2, max_size=32
)


@given(st.integers(-(2**31), 2**31 - 1), st.integers(2, 32))
def test_constant_vectors_are_uniform(value, n):
    s = ValueSummary.of(np.full(n, value, dtype=np.int64))
    assert s.kind == UNIFORM and s.base == float(value)


@given(
    st.integers(-(2**20), 2**20),
    st.integers(-(2**10), 2**10).filter(lambda x: x != 0),
    st.integers(2, 32),
)
def test_arithmetic_progressions_are_affine(base, stride, n):
    v = base + stride * np.arange(n, dtype=np.int64)
    s = ValueSummary.of(v)
    assert s.kind == AFFINE
    assert s.base == float(base) and s.stride == float(stride)


@given(lane_values)
def test_classification_is_total_and_deterministic(values):
    a = ValueSummary.of(np.array(values, dtype=np.int64))
    b = ValueSummary.of(np.array(values, dtype=np.int64))
    assert a == b
    assert a.kind in (UNIFORM, AFFINE, UNSTRUCTURED)


@given(lane_values, lane_values)
def test_equal_summaries_for_equal_vectors_only(xs, ys):
    """Summary equality must imply redundancy-safe sharing: two equal
    summaries never come from vectors with different uniform/affine
    content (unstructured digests may collide only across distinct
    non-pattern vectors, with crc32 probability ~2^-32 — we only assert
    the structured kinds here)."""
    a = ValueSummary.of(np.array(xs, dtype=np.int64))
    b = ValueSummary.of(np.array(ys, dtype=np.int64))
    if a == b and a.kind in (UNIFORM, AFFINE) and len(xs) == len(ys):
        assert xs == ys


@given(lane_values)
def test_kind_matches_vector_structure(values):
    v = np.array(values, dtype=np.int64)
    s = ValueSummary.of(v)
    if s.kind == UNIFORM:
        assert (v == v[0]).all()
    elif s.kind == AFFINE:
        d = np.diff(v)
        assert (d == d[0]).all() and d[0] != 0
    else:
        d = np.diff(v)
        assert not (d == d[0]).all()


# -- the batch summariser ----------------------------------------------------

INT64_EDGE = st.one_of(
    st.integers(-(2**63), -(2**63) + 64),
    st.integers(2**63 - 65, 2**63 - 1),
    st.integers(-3, 3),
    st.integers(-(2**63), 2**63 - 1),
)
FLOAT_EDGE = st.one_of(
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf"), 1.0, -1.0]),
    st.floats(allow_nan=True, allow_infinity=True),
)


def exact(summary):
    """A summary's fields with base and stride as bit patterns."""
    return (summary.kind, float(summary.base).hex(), float(summary.stride).hex(),
            summary.digest)


def row_strategy(lanes):
    """Rows of ``lanes`` values: constant, progressions and free-form,
    so every kind and the wrapping int64 differences all occur."""
    ints = st.one_of(
        st.tuples(INT64_EDGE).map(lambda v: [v[0]] * lanes),
        st.tuples(INT64_EDGE, INT64_EDGE).map(
            lambda v: [(v[0] + v[1] * i + 2**63) % 2**64 - 2**63 for i in range(lanes)]
        ),
        st.lists(INT64_EDGE, min_size=lanes, max_size=lanes),
    )
    return st.one_of(
        ints.map(lambda r: np.array(r, dtype=np.int64)),
        st.one_of(
            st.tuples(FLOAT_EDGE).map(lambda v: [v[0]] * lanes),
            st.lists(FLOAT_EDGE, min_size=lanes, max_size=lanes),
        ).map(lambda r: np.array(r, dtype=np.float64)),
        st.lists(st.booleans(), min_size=lanes, max_size=lanes).map(
            lambda r: np.array(r, dtype=bool)
        ),
    )


@st.composite
def same_shape_rows(draw):
    lanes = draw(st.integers(1, 32))
    dtype_row = draw(row_strategy(lanes))
    rows = draw(st.lists(row_strategy(lanes).filter(
        lambda r: r.dtype == dtype_row.dtype), min_size=0, max_size=12))
    return np.stack([dtype_row] + rows)


@settings(max_examples=150, deadline=None)
@given(same_shape_rows())
@example(np.array([[0.0] * 4, [-0.0] * 4, [0.0, 1.0, 2.0, 3.0], [-0.0, 1.0, 2.0, 3.0]]))
@example(np.array([[2**63 - 2, 2**63 - 1, -(2**63)], [-(2**63), 2**63 - 1, 2**63 - 2]]))
@example(np.array([[np.nan], [np.inf], [-0.0]]))
def test_batch_summaries_equal_per_row_summaries(rows):
    """int64 near +-2**63 (wrapping diffs), float64 with NaN, +-inf and
    -0.0, bool, and rows of 1-32 live lanes, as a partial warp leaves."""
    batch = summarize_rows(rows, {})
    assert len(batch) == len(rows)
    for row, summary in zip(rows, batch):
        with np.errstate(all="ignore"):
            want = ValueSummary.of(row)
        assert summary == want
        assert exact(summary) == exact(want)


class _Step:
    """The fields of a StepResult the tracer reads."""

    def __init__(self, pc, values, full_warp=True):
        self.inst = Instruction(pc=pc, opcode=Opcode.ADD)
        self.dest_value = values
        self.full_warp = full_warp


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 3), row_strategy(32)), min_size=1, max_size=40),
    st.lists(st.booleans(), min_size=32, max_size=32),
)
def test_tracer_summaries_equal_value_summary_of(steps, partial_lanes):
    """Through the tracer: values of mixed dtypes from whole and partial
    warps, flushed together, summarise as ``of`` does their live lanes."""
    partial = np.array(partial_lanes, dtype=bool)
    partial[0] = True  # a warp has at least one live lane
    masks = [np.ones(32, dtype=bool), partial]
    tb = SimpleNamespace(tb_index=0, warps=[])
    tracer = Tracer()
    expected = []
    for i, (warp_id, values) in enumerate(steps):
        hw_mask = masks[warp_id % 2]
        warp = SimpleNamespace(warp_id=warp_id, hw_mask=hw_mask)
        tracer.record(tb, warp, _Step(8 * i, values))
        with np.errstate(all="ignore"):
            expected.append(ValueSummary.of(values[hw_mask]))
    records = tracer.trace.records
    assert [exact(r.summary) for r in records] == [exact(s) for s in expected]
