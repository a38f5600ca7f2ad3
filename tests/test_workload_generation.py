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
from repro.workload.mmpp import MMPP, MMPPState, PoissonProcess


class TestPoissonProcess:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            PoissonProcess(-1.0)

    def test_zero_rate_no_arrivals(self):
        process = PoissonProcess(0.0)
        assert process.sample(0, 100, np.random.default_rng(0)).size == 0

    def test_mean_count_near_expectation(self):
        process = PoissonProcess(10.0)
        rng = np.random.default_rng(1)
        counts = [process.sample(0, 100, rng).size for _ in range(30)]
        assert np.mean(counts) == pytest.approx(1000, rel=0.05)

    def test_arrivals_sorted_and_in_window(self):
        process = PoissonProcess(5.0)
        arrivals = process.sample(10, 20, np.random.default_rng(2))
        assert np.all(np.diff(arrivals) >= 0)
        assert np.all((arrivals >= 10) & (arrivals < 20))


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

    def test_expected_count_matches_rates(self):
        mmpp = MMPP.two_state(10, 0.0001, 100, 0.0001)
        state = mmpp.states[0]
        timeline = [(0.0, 100.0, state)]
        assert MMPP.expected_count(timeline) == pytest.approx(1000)

    def test_rate_scale_scales_arrivals(self):
        mmpp = MMPP.two_state(10, 40, 30, 30)
        rng = np.random.default_rng(3)
        timeline = mmpp.sample_state_timeline(300, rng)
        base = mmpp.sample_arrivals(300, np.random.default_rng(4),
                                    timeline=timeline).count
        doubled = mmpp.sample_arrivals(300, np.random.default_rng(4),
                                       timeline=timeline, rate_scale=2.0).count
        assert doubled == pytest.approx(2 * base, rel=0.15)


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

    def test_workload_subsample(self):
        workload = standard_workload("w-40", seed=1, scale=0.2)
        thinned = workload.subsampled(0.5, seed=1)
        assert thinned.count < workload.count
        assert len(thinned.client_traces) == 8

    @given(st.floats(min_value=0.05, max_value=1.0),
           st.integers(min_value=0, max_value=50))
    @settings(max_examples=20, deadline=None)
    def test_compressed_workloads_always_valid(self, scale, seed):
        workload = standard_workload("w-40", seed=seed, scale=scale)
        assert workload.count > 0
        assert np.all(np.diff(workload.trace.times) >= 0)
        assert workload.trace.duration <= 900 * scale + 1e-6
