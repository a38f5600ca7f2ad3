"""Integration-level tests for the serverless platform simulation."""

import pytest

from repro.core.benchmark import ServingBenchmark
from repro.core.planner import Planner
from repro.serving.records import Stage
from repro.workload.generator import standard_workload


def run_serverless(bench, planner, workload, provider="aws",
                   model="mobilenet", runtime="tf1.15", **overrides):
    deployment = planner.plan(provider, model, runtime, "serverless",
                              **overrides)
    return bench.run(deployment, workload)


class TestServerlessBasics:
    def test_all_requests_succeed(self, bench, planner, tiny_w40):
        result = run_serverless(bench, planner, tiny_w40)
        assert result.total_requests == tiny_w40.count
        assert result.success_ratio == pytest.approx(1.0)

    def test_cold_starts_happen_and_are_flagged(self, bench, planner, tiny_w40):
        result = run_serverless(bench, planner, tiny_w40)
        table = result.rows
        cold = table.success & table.cold_start
        assert result.usage.cold_starts > 0
        assert cold.any(), "at least some requests must be cold-start requests"
        assert (table.stage_column(Stage.IMPORT)[cold][:20] > 0).all()
        assert (table.stage_column(Stage.LOAD)[cold][:20] > 0).all()
        assert (table.latency[cold][:20] > 2.0).all()

    def test_warm_requests_are_fast(self, bench, planner, tiny_w40):
        result = run_serverless(bench, planner, tiny_w40)
        table = result.rows
        warm = table.success & ~table.cold_start
        assert warm.any()
        mean_warm = float(table.latency[warm].mean())
        # Warm requests are far faster than the ~9 s cold start; a small
        # share of them still queues behind in-flight cold starts at this
        # tiny workload scale, so the bound is loose.
        assert mean_warm < 2.0

    def test_billing_is_positive_and_itemised(self, bench, planner, tiny_w40):
        result = run_serverless(bench, planner, tiny_w40)
        assert result.cost > 0
        assert result.usage.cost_breakdown["execution"] > 0
        assert result.usage.cost_breakdown["requests"] > 0
        assert result.usage.billed_seconds > 0

    def test_instance_gauge_recorded(self, bench, planner, tiny_w40):
        result = run_serverless(bench, planner, tiny_w40)
        assert result.usage.peak_instances >= 1
        assert len(result.usage.instance_count) > 0

    def test_vgg_skips_download_stage(self, bench, planner, tiny_w40):
        result = run_serverless(bench, planner, tiny_w40, model="vgg")
        table = result.rows
        cold = table.success & table.cold_start
        assert cold.any()
        assert (table.stage_column(Stage.DOWNLOAD)[cold] == 0.0).all()

    def test_reproducible_with_same_seed(self, planner, tiny_w40):
        first = ServingBenchmark(seed=9).run(
            planner.plan("aws", "mobilenet", "tf1.15", "serverless"), tiny_w40)
        second = ServingBenchmark(seed=9).run(
            planner.plan("aws", "mobilenet", "tf1.15", "serverless"), tiny_w40)
        assert first.average_latency == pytest.approx(second.average_latency)
        assert first.cost == pytest.approx(second.cost)


class TestServerlessDesignSpace:
    def test_ort_faster_and_cheaper_than_tf(self, bench, planner, tiny_w40):
        tf = run_serverless(bench, planner, tiny_w40, runtime="tf1.15")
        ort = run_serverless(bench, planner, tiny_w40, runtime="ort1.4")
        assert ort.average_latency < tf.average_latency
        assert ort.cost < tf.cost

    def test_gcp_slower_and_pricier_than_aws(self, bench, planner, tiny_w40):
        aws_result = run_serverless(bench, planner, tiny_w40, provider="aws")
        gcp_result = run_serverless(bench, planner, tiny_w40, provider="gcp")
        assert gcp_result.average_latency > aws_result.average_latency
        assert gcp_result.usage.instances_created > aws_result.usage.instances_created

    def test_more_memory_speeds_up_vgg(self, bench, planner, tiny_w40):
        small = run_serverless(bench, planner, tiny_w40, model="vgg",
                               memory_gb=2.0)
        large = run_serverless(bench, planner, tiny_w40, model="vgg",
                               memory_gb=8.0)
        assert large.average_latency < small.average_latency

    def test_provisioned_concurrency_reserved_and_billed(self, bench,
                                                         planner, tiny_w40):
        plain = run_serverless(bench, planner, tiny_w40)
        provisioned = run_serverless(bench, planner, tiny_w40,
                                     provisioned_concurrency=4)
        assert provisioned.usage.cost_breakdown["provisioned"] > 0
        assert plain.usage.cost_breakdown["provisioned"] == 0

    def test_batching_raises_latency_and_keeps_every_request(self, bench,
                                                          planner, tiny_w40):
        plain = run_serverless(bench, planner, tiny_w40, runtime="ort1.4")
        batched = run_serverless(bench, planner, tiny_w40,
                                 runtime="ort1.4", batch_size=4)
        # Requests wait for their batch to fill, so latency goes up; every
        # original request still gets an outcome and succeeds.  (The cost
        # and cold-start reductions only appear at the paper's request
        # rates; they are asserted in tests/test_paper_claims.py and the
        # Figure 17 benchmark.)
        assert batched.average_latency > plain.average_latency
        assert batched.total_requests == plain.total_requests
        assert batched.success_ratio > 0.99

    def test_extra_download_slows_cold_start(self, bench, planner, tiny_w40):
        base = run_serverless(bench, planner, tiny_w40)
        heavy = run_serverless(bench, planner, tiny_w40,
                               extra_download_mb=300.0)

        def mean_cold_latency(result):
            table = result.rows
            return float(table.latency[table.success & table.cold_start]
                         .mean())

        assert mean_cold_latency(heavy) > mean_cold_latency(base) + 1.0

    def test_inferences_per_request_scale_latency(self, bench, planner,
                                                  tiny_w40):
        one = run_serverless(bench, planner, tiny_w40, model="vgg",
                             runtime="ort1.4")
        four = run_serverless(bench, planner, tiny_w40, model="vgg",
                              runtime="ort1.4", inferences_per_request=4)
        assert four.average_latency > 2.0 * one.average_latency
