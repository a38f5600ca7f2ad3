"""Unit and property-based tests for arrival traces and the splitter."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.splitter import merge_traces, split_trace
from repro.workload.traces import ArrivalTrace


def make_trace(times, name="t"):
    return ArrivalTrace(np.asarray(sorted(times), dtype=float), name=name)


class TestArrivalTrace:
    def test_basic_properties(self):
        trace = make_trace([0.0, 1.0, 2.0, 4.0])
        assert trace.count == 4
        assert trace.duration == 4.0
        assert trace.mean_rate == pytest.approx(1.0)

    def test_empty_trace(self):
        trace = make_trace([])
        assert trace.count == 0
        assert trace.duration == 0.0
        assert trace.mean_rate == 0.0
        assert trace.peak_rate() == 0.0

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            ArrivalTrace(np.array([2.0, 1.0]))

    def test_negative_times_rejected(self):
        with pytest.raises(ValueError):
            ArrivalTrace(np.array([-1.0, 1.0]))

    def test_rate_series_counts_all_requests(self):
        trace = make_trace([0.1, 0.2, 1.5, 2.7, 2.8, 2.9])
        times, rates = trace.rate_series(1.0)
        assert rates.sum() == pytest.approx(trace.count)
        assert times[0] == 0.0

    def test_peak_rate(self):
        trace = make_trace([0.1, 0.2, 0.3, 5.0])
        assert trace.peak_rate(1.0) == 3.0

    def test_two_dimensional_times_rejected(self):
        with pytest.raises(ValueError):
            ArrivalTrace(np.zeros((2, 2)))

    def test_rate_series_pads_to_the_given_duration(self):
        trace = make_trace([0.5, 1.5])
        times, rates = trace.rate_series(1.0, duration=5.0)
        assert times.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert rates.tolist() == [1.0, 1.0, 0.0, 0.0, 0.0]

    def test_rate_series_divides_counts_by_the_bin_width(self):
        trace = make_trace([0.1, 0.2, 0.3, 2.5])
        times, rates = trace.rate_series(2.0)
        assert times.tolist() == [0.0, 2.0]
        assert rates.tolist() == [1.5, 0.5]

    def test_arrivals_all_at_time_zero_fill_one_bin(self):
        trace = make_trace([0.0, 0.0, 0.0])
        times, rates = trace.rate_series(1.0)
        assert times.tolist() == [0.0]
        assert rates.tolist() == [3.0]
        assert trace.peak_rate() == 3.0
        assert trace.mean_rate == 0.0

    def test_rate_series_rejects_a_non_positive_bin(self):
        with pytest.raises(ValueError):
            make_trace([1.0]).rate_series(0.0)

    def test_summary_keys(self):
        summary = make_trace([0.0, 1.0]).summary()
        assert {"name", "requests", "duration_s", "mean_rate",
                "peak_rate_1s"} <= set(summary)


class TestSplitter:
    def test_split_preserves_all_arrivals(self):
        trace = make_trace(np.linspace(0, 10, 37))
        parts = split_trace(trace, 8)
        assert sum(len(p) for p in parts) == trace.count

    def test_split_round_robin_even(self):
        trace = make_trace(np.linspace(0, 10, 40))
        parts = split_trace(trace, 8)
        assert all(len(p) == 5 for p in parts)

    def test_merge_inverts_split(self):
        trace = make_trace(np.sort(np.random.default_rng(0).uniform(0, 100, 200)))
        merged = merge_traces(split_trace(trace, 8))
        assert np.allclose(merged.times, trace.times)

    def test_split_validation(self):
        with pytest.raises(ValueError):
            split_trace(make_trace([1.0]), 0)

    def test_merge_empty(self):
        merged = merge_traces([])
        assert merged.count == 0


# ---------------------------------------------------------------------------
# Property-based tests
# ---------------------------------------------------------------------------
arrival_lists = st.lists(
    st.floats(min_value=0.0, max_value=1000.0, allow_nan=False,
              allow_infinity=False),
    min_size=0, max_size=200)


class TestTraceProperties:
    @given(arrival_lists)
    @settings(max_examples=60, deadline=None)
    def test_rate_series_conserves_requests(self, times):
        trace = ArrivalTrace(np.sort(times))
        _, rates = trace.rate_series(1.0)
        assert rates.sum() == pytest.approx(trace.count)

    @given(arrival_lists, st.integers(min_value=1, max_value=16))
    @settings(max_examples=60, deadline=None)
    def test_split_merge_roundtrip(self, times, clients):
        trace = ArrivalTrace(np.sort(times))
        merged = merge_traces(split_trace(trace, clients))
        assert merged.count == trace.count
        assert np.allclose(np.sort(merged.times), np.sort(trace.times))
