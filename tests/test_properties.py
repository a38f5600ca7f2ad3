"""Property-based tests of cross-cutting invariants (hypothesis)."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cloud.pricing import ServerlessBill, aws_pricing, gcp_pricing
from repro.core.benchmark import ServingBenchmark
from repro.core.planner import Planner
from repro.models.profiles import LatencyProfiles
from repro.workload.generator import WorkloadSpec, generate_workload


class TestPricingProperties:
    @given(st.floats(min_value=0.001, max_value=1000.0),
           st.integers(min_value=0, max_value=10_000),
           st.floats(min_value=0.5, max_value=16.0))
    @settings(max_examples=100, deadline=None)
    def test_cost_non_negative_and_monotone_in_duration(self, seconds,
                                                        requests, memory_gb):
        for catalog in (aws_pricing(), gcp_pricing()):
            pricing = catalog.serverless
            base = pricing.execution_cost(memory_gb, seconds, requests)
            more = pricing.execution_cost(memory_gb, seconds * 2, requests)
            assert base >= 0
            assert more >= base

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=0,
                    max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_bill_total_equals_itemised_sum(self, durations):
        bill = ServerlessBill(memory_gb=2.0, pricing=aws_pricing().serverless)
        for duration in durations:
            bill.add_invocation(duration)
        pricing = aws_pricing().serverless
        expected = pricing.execution_cost(2.0, sum(durations), len(durations))
        assert bill.total() == pytest.approx(expected)


class TestProfileProperties:
    @given(st.sampled_from(["aws", "gcp"]),
           st.sampled_from(["tf1.15", "ort1.4"]),
           st.sampled_from(["mobilenet", "albert", "vgg"]),
           st.floats(min_value=0.5, max_value=16.0))
    @settings(max_examples=100, deadline=None)
    def test_predict_times_positive_and_monotone_in_memory(self, provider,
                                                           runtime, model,
                                                           memory_gb):
        profiles = LatencyProfiles()
        warm = profiles.warm_predict_time(provider, runtime, model, memory_gb)
        warm_bigger = profiles.warm_predict_time(provider, runtime, model,
                                                 memory_gb * 2)
        cold = profiles.cold_predict_time(provider, runtime, model, memory_gb)
        assert warm > 0
        assert warm_bigger <= warm + 1e-12
        assert cold >= warm * 0.5

    @given(st.sampled_from(["aws", "gcp"]),
           st.sampled_from(["mobilenet", "albert", "vgg"]))
    @settings(max_examples=30, deadline=None)
    def test_ort_never_slower_than_tf(self, provider, model):
        profiles = LatencyProfiles()
        tf = profiles.cold_start_stages(provider, "tf1.15", model).total()
        ort = profiles.cold_start_stages(provider, "ort1.4", model).total()
        assert ort < tf


class TestWorkloadProperties:
    @given(st.integers(min_value=50, max_value=2000),
           st.floats(min_value=5.0, max_value=200.0),
           st.integers(min_value=0, max_value=1000))
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_generated_workload_hits_target_count(self, target, high_rate, seed):
        spec = WorkloadSpec(name="prop", high_rate=high_rate,
                            low_rate=high_rate / 8, target_requests=target,
                            duration_s=120.0,
                            burst_windows=((20.0, 50.0), (70.0, 110.0)))
        workload = generate_workload(spec, seed=seed)
        assert workload.count == pytest.approx(target, rel=0.25, abs=25)
        assert workload.trace.duration <= 120.0


class TestConservationUnderFaults:
    """The 5-bucket ledger identity survives active fault schedules.

    ``submitted == completed + failed + rejected + timed_out + shed``
    must hold for every platform family whatever the fault injector
    does: every submission ends in exactly one bucket, even when
    instances die mid-request, work is re-queued, load is shed, or the
    client resubmits attempts through the retry loop.
    """

    fault_schedules = st.sampled_from([
        {"crash_mtbf_s": 30.0},
        {"crash_mtbf_s": 20.0, "retry_attempts": 3,
         "retry_base_delay_s": 0.05},
        {"outage_start_s": 10.0, "outage_duration_s": 15.0,
         "outage_fraction": 1.0, "shed_watermark": 1},
        {"outage_start_s": 8.0, "outage_duration_s": 10.0,
         "outage_fraction": 0.5, "retry_attempts": 2},
        {"request_error_rate": 0.1},
        {"request_error_rate": 0.05, "retry_attempts": 4,
         "request_timeout_s": 20.0},
        {"storm_times_s": (6.0, 14.0), "crash_mtbf_s": 60.0},
    ])

    cases = st.tuples(
        st.sampled_from(["serverless", "managed_ml", "cpu_server", "hybrid"]),
        fault_schedules,
        st.integers(min_value=1, max_value=4),
    )

    BUCKETS = ("completed", "failed", "rejected", "timed_out", "shed")

    @classmethod
    def _balanced(cls, notes, prefix=""):
        assert notes[f"{prefix}submitted"] == sum(
            notes[f"{prefix}{bucket}"] for bucket in cls.BUCKETS), prefix

    @given(case=cases)
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_ledger_balances_with_faults(self, case, tiny_w40):
        platform, faults, seed = case
        deployment = Planner().plan("aws", "mobilenet", "tf1.15", platform,
                                    **faults)
        result = ServingBenchmark(seed=seed).run(deployment, tiny_w40)
        notes = result.usage.notes
        self._balanced(notes)
        # Retries resubmit the same outcome row, so the ledger counts
        # at least one submission per table row, never fewer.
        assert notes["submitted"] >= result.table.count
        for bucket, value in notes.items():
            assert value >= 0, bucket
        if platform == "hybrid":
            # The merged usage keeps each spill path's own ledger
            # balanced under its prefix, and the front door routed
            # every submission to exactly one of them.
            for prefix in ("provisioned.", "spill."):
                self._balanced(notes, prefix)
            assert (notes["provisioned.submitted"]
                    + notes["spill.submitted"]) == notes["submitted"]
            assert notes["spilled"] == notes["spill.submitted"]


class TestEndToEndInvariants:
    """Slow-ish sampled end-to-end invariants across the whole stack."""

    cases = st.tuples(
        st.sampled_from(["aws", "gcp"]),
        st.sampled_from(["mobilenet", "albert", "vgg"]),
        st.sampled_from(["serverless", "cpu_server", "gpu_server"]),
        st.sampled_from(["tf1.15", "ort1.4"]),
    )

    @given(case=cases)
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_run_invariants(self, case, tiny_w40):
        provider, model, platform, runtime = case
        deployment = Planner().plan(provider, model, runtime, platform)
        result = ServingBenchmark(seed=1).run(deployment, tiny_w40)
        assert result.total_requests == tiny_w40.count
        assert 0.0 <= result.success_ratio <= 1.0
        assert result.cost >= 0.0
        assert result.average_latency >= 0.0
        outcomes = result.rows.to_outcomes()
        for outcome in outcomes:
            assert outcome.completion_time is not None
            assert outcome.completion_time >= outcome.send_time
            for stage, seconds in outcome.breakdown.items():
                assert seconds >= 0.0, stage
        successful = [outcome for outcome in outcomes if outcome.success]
        if successful:
            # End-to-end latency can never be smaller than the predict stage.
            for outcome in successful[:50]:
                assert outcome.latency + 1e-9 >= outcome.stage("predict")
