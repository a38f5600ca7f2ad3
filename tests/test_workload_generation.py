"""Tests for the MMPP and the standard workload generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.generator import (
    WorkloadSpec,
    generate_workload,
    standard_workload,
    standard_workload_specs,
)
from repro.workload.mmpp import MMPP, MMPPState


class TestMMPP:
    def test_needs_two_states(self):
        with pytest.raises(ValueError):
            MMPP([MMPPState("only", 1.0, 10.0)])

    def test_state_validation(self):
        with pytest.raises(ValueError):
            MMPPState("bad", -1.0, 10.0)
        with pytest.raises(ValueError):
            MMPPState("bad", 1.0, 0.0)

    def test_timeline_covers_duration(self):
        mmpp = MMPP.two_state(5, 50, 30, 20)
        timeline = mmpp.sample_state_timeline(900, np.random.default_rng(0))
        assert timeline[0][0] == 0.0
        assert timeline[-1][1] == pytest.approx(900)
        for (s1, e1, _), (s2, _, _) in zip(timeline, timeline[1:]):
            assert e1 == pytest.approx(s2)

    def test_states_alternate(self):
        mmpp = MMPP.two_state(5, 50, 30, 20)
        timeline = mmpp.sample_state_timeline(500, np.random.default_rng(1))
        names = [state.name for _, _, state in timeline]
        assert all(a != b for a, b in zip(names, names[1:]))

    def test_timeline_starts_in_the_initial_state(self):
        mmpp = MMPP.two_state(5, 50, 30, 20)
        rng = np.random.default_rng(0)
        timeline = mmpp.sample_state_timeline(100.0, rng, initial_state=1)
        assert timeline[0][2].name == "high"
        with pytest.raises(ValueError):
            mmpp.sample_state_timeline(0.0, rng)

    @pytest.mark.parametrize("total", [0, 1, 1000])
    def test_conditioned_arrivals_hit_the_total_in_order(self, total):
        mmpp = MMPP.two_state(5, 50, 30, 20)
        trace = mmpp.sample_arrivals_conditioned(
            300.0, np.random.default_rng(total), total)
        assert trace.count == total
        assert np.all(np.diff(trace.times) >= 0)
        assert np.all((trace.times >= 0.0) & (trace.times < 300.0))

    def test_conditioned_arrivals_follow_the_intensity(self):
        low, high = MMPPState("low", 1.0, 10.0), MMPPState("high", 9.0, 10.0)
        trace = MMPP([low, high]).sample_arrivals_conditioned(
            200.0, np.random.default_rng(5), 10_000,
            timeline=[(0.0, 100.0, low), (100.0, 200.0, high)])
        in_high = int((trace.times >= 100.0).sum())
        assert in_high == pytest.approx(9_000, rel=0.03)

    def test_conditioned_arrivals_repeat_under_a_seed(self):
        mmpp = MMPP.two_state(5, 50, 30, 20)
        first, second = (mmpp.sample_arrivals_conditioned(
            300.0, np.random.default_rng(11), 500, name="w") for _ in range(2))
        np.testing.assert_array_equal(first.times, second.times)
        assert first.name == "w"

    def test_conditioned_arrivals_skip_zero_rate_intervals(self):
        idle, busy = MMPPState("idle", 0.0, 10.0), MMPPState("busy", 4.0, 10.0)
        trace = MMPP([idle, busy]).sample_arrivals_conditioned(
            30.0, np.random.default_rng(2), 200,
            timeline=[(0.0, 10.0, idle), (10.0, 20.0, busy),
                      (20.0, 30.0, idle)])
        assert trace.count == 200
        assert np.all((trace.times >= 10.0) & (trace.times < 20.0))

    def test_conditioned_arrivals_on_a_zero_intensity_timeline(self):
        idle = MMPPState("idle", 0.0, 10.0)
        mmpp = MMPP([idle, idle])
        timeline = [(0.0, 100.0, idle)]
        rng = np.random.default_rng(0)
        empty = mmpp.sample_arrivals_conditioned(100.0, rng, 0,
                                                 timeline=timeline)
        assert empty.count == 0
        with pytest.raises(ValueError):
            mmpp.sample_arrivals_conditioned(100.0, rng, 5, timeline=timeline)

    def test_conditioned_arrivals_reject_a_negative_total(self):
        mmpp = MMPP.two_state(5, 50, 30, 20)
        with pytest.raises(ValueError):
            mmpp.sample_arrivals_conditioned(100.0, np.random.default_rng(0),
                                             -1)


class TestWorkloadSpecs:
    def test_standard_specs_match_paper(self):
        specs = standard_workload_specs()
        assert specs["w-40"].high_rate == 40
        assert specs["w-120"].high_rate == 120
        assert specs["w-200"].high_rate == 200
        assert specs["w-40"].target_requests == 15_000
        assert specs["w-120"].target_requests == 51_600
        assert specs["w-200"].target_requests == 86_000

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(name="bad", high_rate=10, low_rate=20,
                         target_requests=100)
        with pytest.raises(ValueError):
            WorkloadSpec(name="bad", high_rate=10, low_rate=1,
                         target_requests=0)
        with pytest.raises(ValueError):
            WorkloadSpec(name="bad", high_rate=10, low_rate=1,
                         target_requests=10, burst_windows=((500, 100),))

    def test_compressed_keeps_rates(self):
        spec = standard_workload_specs()["w-120"]
        compressed = spec.compressed(0.25)
        assert compressed.high_rate == spec.high_rate
        assert compressed.duration_s == pytest.approx(spec.duration_s * 0.25)
        assert compressed.target_requests == pytest.approx(
            spec.target_requests * 0.25, rel=0.01)


class TestGeneratedWorkloads:
    def test_request_count_near_target(self):
        workload = generate_workload(standard_workload_specs()["w-40"], seed=1)
        assert workload.count == pytest.approx(15_000, rel=0.05)

    def test_peak_rate_reaches_high_rate(self):
        workload = standard_workload("w-120", seed=2)
        # The 1-second peak should approach (and may exceed, by Poisson
        # noise) the nominal high rate, and clearly exceed the mean.
        assert workload.trace.peak_rate(1.0) > 70
        assert workload.trace.peak_rate(1.0) > 2 * workload.trace.mean_rate

    def test_clients_cover_all_requests(self):
        workload = standard_workload("w-40", seed=3, scale=0.2)
        assert sum(len(t) for t in workload.client_traces) == workload.count
        assert len(workload.client_traces) == 8

    def test_same_seed_reproducible(self):
        first = standard_workload("w-40", seed=5, scale=0.1)
        second = standard_workload("w-40", seed=5, scale=0.1)
        assert np.allclose(first.trace.times, second.trace.times)

    def test_different_seed_differs(self):
        first = standard_workload("w-40", seed=5, scale=0.1)
        second = standard_workload("w-40", seed=6, scale=0.1)
        assert first.count != second.count or not np.allclose(
            first.trace.times[:10], second.trace.times[:10])

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            standard_workload("w-999")

    @given(st.floats(min_value=0.05, max_value=1.0),
           st.integers(min_value=0, max_value=50))
    @settings(max_examples=20, deadline=None)
    def test_compressed_workloads_always_valid(self, scale, seed):
        workload = standard_workload("w-40", seed=seed, scale=scale)
        assert workload.count > 0
        assert np.all(np.diff(workload.trace.times) >= 0)
        assert workload.trace.duration <= 900 * scale + 1e-6
