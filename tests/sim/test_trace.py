import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.trace import (
    BusyTrace,
    merge_intervals,
    overlap_length,
    time_at_concurrency,
)

intervals_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=100, allow_nan=False),
        st.floats(min_value=0, max_value=100, allow_nan=False),
    ).map(lambda t: (min(t), max(t))),
    max_size=20,
)


class TestMergeIntervals:
    def test_empty_input(self):
        assert merge_intervals([]) == []

    def test_disjoint_preserved(self):
        assert merge_intervals([(0, 1), (2, 3)]) == [(0, 1), (2, 3)]

    def test_overlapping_merged(self):
        assert merge_intervals([(0, 2), (1, 3), (3, 4)]) == [(0, 4)]

    def test_zero_length_dropped(self):
        assert merge_intervals([(1, 1), (2, 3)]) == [(2, 3)]

    def test_inverted_rejected(self):
        with pytest.raises(ValueError):
            merge_intervals([(2, 1)])

    @given(intervals_strategy)
    def test_result_is_sorted_and_disjoint(self, intervals):
        merged = merge_intervals(intervals)
        for (s1, e1), (s2, e2) in zip(merged, merged[1:]):
            assert e1 < s2
        for s, e in merged:
            assert e > s

    @given(intervals_strategy)
    def test_total_length_never_exceeds_sum(self, intervals):
        merged_len = sum(e - s for s, e in merge_intervals(intervals))
        raw_len = sum(e - s for s, e in intervals)
        assert merged_len <= raw_len + 1e-9


class TestTimeAtConcurrency:
    def test_empty_is_zero(self):
        assert time_at_concurrency([], 1) == 0.0

    def test_threshold_below_one_rejected(self):
        with pytest.raises(ValueError):
            time_at_concurrency([(0, 1)], 0)
        with pytest.raises(ValueError):
            time_at_concurrency([], -3)

    def test_inverted_interval_rejected(self):
        with pytest.raises(ValueError):
            time_at_concurrency([(2, 1)], 1)

    def test_zero_length_intervals_dropped(self):
        assert time_at_concurrency([(1, 1), (5, 5)], 1) == 0.0

    def test_k1_is_union_length(self):
        intervals = [(0, 2), (1, 3), (6, 8)]
        union = sum(e - s for s, e in merge_intervals(intervals))
        assert time_at_concurrency(intervals, 1) == pytest.approx(union)

    def test_k2_counts_only_overlap(self):
        # Two intervals overlap on [1, 3]; the third is disjoint.
        assert time_at_concurrency([(0, 3), (1, 4), (10, 11)], 2) == 2.0

    def test_threshold_above_population_is_zero(self):
        assert time_at_concurrency([(0, 3), (1, 4)], 3) == 0.0

    @given(intervals_strategy, st.integers(min_value=1, max_value=5))
    def test_monotone_in_k(self, intervals, k):
        assert time_at_concurrency(intervals, k + 1) <= time_at_concurrency(
            intervals, k
        ) + 1e-9

    @given(intervals_strategy)
    def test_k1_matches_merge(self, intervals):
        union = sum(e - s for s, e in merge_intervals(intervals))
        assert time_at_concurrency(intervals, 1) == pytest.approx(union)


class TestOverlapLength:
    def test_simple(self):
        assert overlap_length([(0, 10)], [(5, 15)]) == 5

    def test_no_overlap(self):
        assert overlap_length([(0, 1)], [(2, 3)]) == 0

    def test_empty_inputs(self):
        assert overlap_length([], []) == 0.0
        assert overlap_length([(0, 5)], []) == 0.0
        assert overlap_length([], [(0, 5)]) == 0.0

    def test_multiple_pieces(self):
        assert overlap_length([(0, 10)], [(1, 2), (4, 6)]) == 3

    @given(intervals_strategy, intervals_strategy)
    def test_symmetric(self, a, b):
        assert overlap_length(a, b) == pytest.approx(overlap_length(b, a))

    @given(intervals_strategy)
    def test_self_overlap_is_busy_time(self, a):
        merged_len = sum(e - s for s, e in merge_intervals(a))
        assert overlap_length(a, a) == pytest.approx(merged_len)


class TestBusyTrace:
    def test_busy_vs_work_time(self):
        tr = BusyTrace("cpu")
        tr.record(0, 10, "level0")
        tr.record(5, 15, "level1")
        assert tr.busy_time() == 15  # union
        assert tr.work_time() == 20  # sum

    def test_span(self):
        tr = BusyTrace()
        assert tr.span() == (0.0, 0.0)
        tr.record(3, 7)
        tr.record(1, 2)
        assert tr.span() == (1, 7)

    def test_tagged_filter(self):
        tr = BusyTrace()
        tr.record(0, 1, "a")
        tr.record(1, 2, "b")
        assert tr.tagged("a") == [(0, 1)]

    def test_utilization(self):
        tr = BusyTrace()
        tr.record(0, 5)
        assert tr.utilization(10) == pytest.approx(0.5)

    def test_utilization_degenerate_horizon_is_zero(self):
        # A zero/negative observation window has no measurable
        # utilization; it must not raise (empty schedules hit this).
        tr = BusyTrace()
        tr.record(0, 5)
        assert tr.utilization(0) == 0.0
        assert tr.utilization(-1.5) == 0.0
        assert BusyTrace().utilization(0) == 0.0

    def test_overlap_with(self):
        a = BusyTrace("gpu")
        b = BusyTrace("cpu")
        a.record(0, 10)
        b.record(8, 12)
        assert a.overlap_with(b) == 2

    def test_inverted_interval_rejected(self):
        tr = BusyTrace()
        with pytest.raises(ValueError):
            tr.record(5, 4)


# ----------------------------------------------------------------------
# parity with the former numpy bulk paths
# ----------------------------------------------------------------------
def numpy_merge(intervals):
    """The deleted vectorized merge: lexsort + running max of ends."""
    import numpy as np

    arr = np.asarray(intervals, dtype=float).reshape(-1, 2)
    starts, ends = arr[:, 0], arr[:, 1]
    keep = ends > starts
    s_raw, e_raw = starts[keep], ends[keep]
    if len(s_raw) == 0:
        return []
    order = np.lexsort((e_raw, s_raw))
    s, e = s_raw[order], e_raw[order]
    run_max = np.maximum.accumulate(e)
    boundary = np.empty(len(s), dtype=bool)
    boundary[0] = True
    np.greater(s[1:], run_max[:-1], out=boundary[1:])
    first = np.nonzero(boundary)[0]
    last = np.append(first[1:] - 1, len(s) - 1)
    return list(zip(s[first].tolist(), run_max[last].tolist()))


def numpy_concurrency(intervals, k):
    """The deleted vectorized ≥k sweep: lexsort on (time, delta)."""
    import numpy as np

    arr = np.asarray(intervals, dtype=float).reshape(-1, 2)
    keep = arr[:, 1] > arr[:, 0]
    starts, ends = arr[keep, 0], arr[keep, 1]
    m = len(starts)
    if m == 0:
        return 0.0
    times = np.concatenate((starts, ends))
    deltas = np.concatenate((np.ones(m, np.int64), -np.ones(m, np.int64)))
    order = np.lexsort((deltas, times))
    t, d = times[order], deltas[order]
    gaps = np.empty(2 * m)
    gaps[0] = t[0] - 0.0
    np.subtract(t[1:], t[:-1], out=gaps[1:])
    active_before = np.cumsum(d)
    selected = np.empty(2 * m, dtype=bool)
    selected[0] = False
    np.greater_equal(active_before[:-1], k, out=selected[1:])
    total = 0.0
    for gap in gaps[selected].tolist():
        total += gap
    return total


#: Endpoints from a small lattice, so ties, shared endpoints and
#: zero-length intervals are common; up to 200 intervals covers the
#: sizes the macro replay produces.
_lattice = st.sampled_from([0.0, 0.5, 1.0, 1.25, 2.0, 3.5, 1e-9, 7.0, 100.0])
_endpoint = st.one_of(_lattice, st.floats(0, 100, allow_nan=False))
parity_intervals = st.lists(
    st.tuples(_endpoint, _endpoint).map(lambda t: (min(t), max(t))),
    max_size=200,
)


class TestParityWithNumpyBulkPaths:
    @given(parity_intervals)
    def test_merge(self, intervals):
        expected = numpy_merge(intervals)
        got = merge_intervals(intervals)
        assert [(float(s).hex(), float(e).hex()) for s, e in got] == [
            (s.hex(), e.hex()) for s, e in expected
        ]

    @given(parity_intervals, st.integers(min_value=1, max_value=6))
    def test_concurrency(self, intervals, k):
        expected = numpy_concurrency(intervals, k)
        assert float(time_at_concurrency(intervals, k)).hex() == expected.hex()

    @pytest.mark.parametrize("size", [1, 40])
    def test_reversed_interval_message(self, size):
        intervals = [(0.0, 1.0)] * (size - 1) + [(2.5, 1.5)]
        message = "interval end 1.5 precedes start 2.5"
        with pytest.raises(ValueError, match=message):
            merge_intervals(intervals)
        with pytest.raises(ValueError, match=message):
            time_at_concurrency(intervals, 1)
