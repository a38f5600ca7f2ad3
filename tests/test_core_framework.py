"""Tests for the planner, executor, analyzer, metrics, and benchmark façade."""

import numpy as np
import pytest

from repro.core import Analyzer, LatencyStats, Planner, ServingBenchmark, percentile
from repro.core.metrics import mean_or_zero, ratio
from repro.core.parallel import run_cells
from repro.serving import PlatformKind
from repro.serving.records import RequestOutcome


class TestMetrics:
    def test_latency_stats_from_values(self):
        stats = LatencyStats.from_values([1.0, 2.0, 3.0, 4.0])
        assert stats.count == 4
        assert stats.mean == pytest.approx(2.5)
        assert stats.min == 1.0 and stats.max == 4.0
        assert stats.p50 == pytest.approx(2.5)
        assert set(stats.as_dict()) >= {"mean", "p99", "count"}

    def test_latency_stats_empty(self):
        stats = LatencyStats.from_values([])
        assert stats.count == 0 and stats.mean == 0.0

    def test_latency_stats_rejects_negative(self):
        with pytest.raises(ValueError):
            LatencyStats.from_values([-1.0])

    def test_percentile(self):
        assert percentile([1, 2, 3, 4], 50) == pytest.approx(2.5)
        assert percentile([], 99) == 0.0
        with pytest.raises(ValueError):
            percentile([1], 150)

    def test_helpers(self):
        assert mean_or_zero([]) == 0.0
        assert mean_or_zero([2, 4]) == 3.0
        assert ratio(1.0, 0.0) == 0.0
        assert ratio(1.0, 2.0) == 0.5


class TestPlanner:
    def test_plan_serverless_defaults(self, planner):
        deployment = planner.plan("aws", "mobilenet", "tf1.15", "serverless")
        assert deployment.config.memory_gb == 2.0
        assert deployment.provider.name == "aws"

    def test_plan_vm_disables_autoscaling(self, planner):
        deployment = planner.plan("gcp", "vgg", "tf1.15", "cpu_server")
        assert deployment.config.autoscaling is False

    def test_plan_managed_enables_autoscaling(self, planner):
        deployment = planner.plan("aws", "vgg", "tf1.15", "managed_ml")
        assert deployment.config.autoscaling is True
        assert deployment.config.initial_instances == 1

    def test_plan_accepts_objects(self, planner):
        from repro.cloud import gcp
        from repro.models import get_model
        from repro.runtimes import get_runtime
        deployment = planner.plan(gcp(), get_model("albert"),
                                  get_runtime("ort1.4"), "serverless")
        assert deployment.label == "gcp-serverless/albert/ort1.4"

    def test_plan_overrides(self, planner):
        deployment = planner.plan("aws", "mobilenet", "tf1.15", "serverless",
                                  memory_gb=8.0, batch_size=4)
        assert deployment.config.memory_gb == 8.0
        assert deployment.config.batch_size == 4

    def test_plan_matrix_skips_unsupported(self, planner):
        # Of this runtime x platform matrix only managed ORT is
        # unsupported (the managed services do not serve OnnxRuntime, and
        # the paper skips these cells too): plan rejects exactly that one.
        labels = set()
        for runtime in ("tf1.15", "ort1.4"):
            for platform in (PlatformKind.SERVERLESS,
                             PlatformKind.MANAGED_ML):
                if (runtime, platform) == ("ort1.4", PlatformKind.MANAGED_ML):
                    with pytest.raises(ValueError, match="not supported"):
                        planner.plan("aws", "mobilenet", runtime, platform)
                    continue
                labels.add(planner.plan("aws", "mobilenet", runtime,
                                        platform).label)
        assert "aws-managed_ml/mobilenet/tf1.15" in labels
        assert len(labels) == 3

    def test_plan_paper_systems(self, planner):
        # The four systems Figure 5 / Table 1 compare per provider.
        for platform in ("serverless", "managed_ml", "cpu_server",
                         "gpu_server"):
            deployment = planner.plan("aws", "mobilenet", "tf1.15", platform)
            assert deployment.config.platform == platform
        # With ORT the managed service is unavailable.
        with pytest.raises(ValueError):
            planner.plan("gcp", "mobilenet", "ort1.4", "managed_ml")
        for platform in ("serverless", "cpu_server", "gpu_server"):
            planner.plan("gcp", "mobilenet", "ort1.4", platform)

    def test_unknown_platform(self, planner):
        with pytest.raises(ValueError):
            planner.plan("aws", "mobilenet", "tf1.15", "quantum")


class TestBenchmarkAndExecutor:
    def test_run_produces_complete_results(self, bench, planner, tiny_w40):
        deployment = planner.plan("aws", "mobilenet", "ort1.4", "serverless")
        result = bench.run(deployment, tiny_w40)
        assert result.total_requests == tiny_w40.count
        assert not np.isnan(result.rows.completion_time).any()
        assert result.duration_s > 0
        assert result.workload_name == "w-40"

    def test_request_ids_unique(self, bench, planner, tiny_w40):
        deployment = planner.plan("aws", "mobilenet", "ort1.4", "serverless")
        result = bench.run(deployment, tiny_w40)
        ids = result.rows.request_id
        assert len(np.unique(ids)) == len(ids)

    def test_clients_are_assigned(self, bench, planner, tiny_w40):
        deployment = planner.plan("aws", "mobilenet", "ort1.4", "serverless")
        result = bench.run(deployment, tiny_w40)
        clients = set(result.rows.client_id.tolist())
        assert clients == set(range(8))

    def test_run_many_and_matrix(self, bench, planner, tiny_w40):
        deployments = [
            planner.plan("aws", "mobilenet", "ort1.4", "serverless"),
            planner.plan("aws", "mobilenet", "ort1.4", "gpu_server"),
        ]
        results = run_cells(bench, [(deployment, tiny_w40, 1.0, None)
                                    for deployment in deployments],
                            workers=0)
        assert [result.deployment for result in results] == deployments
        assert {result.workload_name for result in results} == {"w-40"}

    def test_batch_executor_preserves_request_count(self, bench, planner,
                                                    tiny_w40):
        deployment = planner.plan("aws", "mobilenet", "ort1.4", "serverless",
                                  batch_size=4)
        result = bench.run(deployment, tiny_w40)
        assert result.total_requests == tiny_w40.count
        assert result.success_ratio > 0.99

    def test_as_row_fields(self, bench, planner, tiny_w40):
        deployment = planner.plan("gcp", "albert", "tf1.15", "serverless")
        result = bench.run(deployment, tiny_w40)
        row = result.as_row()
        assert row["provider"] == "gcp"
        assert row["model"] == "albert"
        assert row["requests"] == tiny_w40.count


class TestAnalyzer:
    @pytest.fixture
    def sample_result(self, bench, planner, tiny_w40):
        deployment = planner.plan("aws", "mobilenet", "tf1.15", "serverless")
        return bench.run(deployment, tiny_w40)

    def test_summarize(self, sample_result):
        analyzer = Analyzer()
        summary = analyzer.summarize(sample_result)
        assert 0.0 <= summary["success_ratio"] <= 1.0
        assert summary["p99_latency_s"] >= summary["p50_latency_s"]

    def test_latency_timeline_covers_workload(self, sample_result):
        analyzer = Analyzer()
        timeline = analyzer.latency_timeline(sample_result, bin_seconds=10.0)
        assert timeline
        assert sum(p.requests for p in timeline) == sample_result.total_requests
        assert all(0.0 <= p.success_ratio <= 1.0 for p in timeline)

    def test_latency_timeline_validation(self, sample_result):
        with pytest.raises(ValueError):
            Analyzer().latency_timeline(sample_result, bin_seconds=0)

    def test_instance_timeline(self, sample_result):
        timeline = Analyzer().instance_timeline(sample_result, bin_seconds=10.0)
        assert timeline
        assert max(count for _, count in timeline) >= 1

    def test_breakdown_consistency(self, sample_result):
        breakdown = Analyzer().coldstart_breakdown(sample_result)
        assert breakdown.cold_requests > 0
        assert breakdown.cold_e2e > breakdown.warm_e2e
        assert breakdown.cold_e2e >= breakdown.cold_import
        assert breakdown.warm_predict <= breakdown.warm_e2e
        assert set(breakdown.as_dict()) == {
            "E2E (cs)", "import", "download", "load", "predict (cs)",
            "E2E (wu)", "predict (wu)"}

    def test_comparison_table_sorted(self, bench, planner, tiny_w40,
                                     sample_result):
        gpu = bench.run(
            planner.plan("aws", "mobilenet", "tf1.15", "gpu_server"), tiny_w40)
        rows = Analyzer().comparison_table([gpu, sample_result])
        assert len(rows) == 2
        assert rows[0]["platform"] <= rows[1]["platform"]

    def test_speedup_and_cost_ratio(self, sample_result):
        analyzer = Analyzer()
        assert analyzer.speedup(sample_result, sample_result) == pytest.approx(1.0)
        # A cost ratio is the plain ratio of the two runs' costs.
        assert ratio(sample_result.cost, sample_result.cost) == pytest.approx(1.0)
