"""Tests for the extension tools (navigator, batching, hybrid, cost, search)."""

import pytest

from repro.cloud import aws, gcp
from repro.models import LatencyProfiles, get_model
from repro.runtimes import get_runtime
from repro.tools import (
    AdaptiveBatchingPolicy,
    CostEstimator,
    DecomposedCostEstimate,
    DesignSpaceNavigator,
    HybridPlanner,
    NavigationConstraints,
)
from repro.workload.generator import standard_workload


@pytest.fixture
def estimator():
    return CostEstimator(provider=aws(), profiles=LatencyProfiles())


class TestCostEstimator:
    def test_serverless_estimate_components(self, estimator):
        estimate = estimator.serverless(get_model("mobilenet"),
                                        get_runtime("tf1.15"), 15_000)
        assert estimate.total == pytest.approx(
            estimate.execution_cost + estimate.request_cost)
        assert estimate.total > 0
        assert estimate.billed_seconds > 0

    def test_estimate_scales_with_requests(self, estimator):
        small = estimator.serverless(get_model("mobilenet"),
                                     get_runtime("tf1.15"), 1_000).total
        large = estimator.serverless(get_model("mobilenet"),
                                     get_runtime("tf1.15"), 100_000).total
        assert large > 50 * small

    def test_estimate_in_paper_ballpark(self, estimator):
        """AWS MobileNet w-40 cost ~ $0.05 in Table 1."""
        estimate = estimator.serverless(get_model("mobilenet"),
                                        get_runtime("tf1.15"), 15_000)
        assert 0.01 < estimate.total < 0.15

    def test_gcp_cold_fraction_matters(self):
        gcp_estimator = CostEstimator(provider=gcp(), profiles=LatencyProfiles())
        cheap = gcp_estimator.serverless(get_model("mobilenet"),
                                         get_runtime("tf1.15"), 10_000,
                                         cold_start_fraction=0.0).total
        pricey = gcp_estimator.serverless(get_model("mobilenet"),
                                          get_runtime("tf1.15"), 10_000,
                                          cold_start_fraction=0.05).total
        assert pricey > cheap

    def test_vm_and_managed_estimates(self, estimator):
        assert estimator.vm("m5.2xlarge", 3600) == pytest.approx(0.384)
        assert estimator.managed_ml(None, 3600, instances=2) == pytest.approx(1.12)

    def test_capacity_estimates(self, estimator):
        cpu = estimator.server_capacity_rps(get_model("mobilenet"),
                                            get_runtime("tf1.15"), "cpu", 8)
        gpu = estimator.server_capacity_rps(get_model("mobilenet"),
                                            get_runtime("tf1.15"), "gpu", 1)
        assert gpu > cpu > 1

    def test_validation(self, estimator):
        with pytest.raises(ValueError):
            estimator.serverless(get_model("vgg"), get_runtime("tf1.15"), -1)
        with pytest.raises(ValueError):
            estimator.vm("m5.2xlarge", -10)


class TestHybridPlanner:
    def test_plan_structure(self):
        planner = HybridPlanner(provider=aws(), model=get_model("mobilenet"),
                                runtime=get_runtime("tf1.15"))
        workload = standard_workload("w-120", seed=2, scale=0.15)
        plan = planner.plan(workload.trace)
        assert plan.servers >= 1
        assert 0 <= plan.overflow_fraction <= 1
        assert plan.hybrid_cost == pytest.approx(
            plan.server_cost + plan.serverless_overflow_cost)
        assert plan.best_strategy() in ("hybrid", "serverless", "server")

    def test_pure_server_sized_for_peak(self):
        planner = HybridPlanner(provider=aws(), model=get_model("vgg"),
                                runtime=get_runtime("tf1.15"))
        workload = standard_workload("w-200", seed=2, scale=0.1)
        plan = planner.plan(workload.trace)
        assert plan.pure_server_instances >= plan.servers
        assert plan.pure_server_cost >= plan.server_cost

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            HybridPlanner(provider=aws(), model=get_model("vgg"),
                          runtime=get_runtime("tf1.15"),
                          base_load_percentile=0.0)


class TestAdaptiveBatching:
    def test_latency_grows_with_batch(self):
        policy = AdaptiveBatchingPolicy(provider="aws", model="mobilenet",
                                        runtime="ort1.4", latency_slo_s=1.0)
        assert (policy.expected_latency(8, 40.0)
                > policy.expected_latency(1, 40.0))

    def test_decision_respects_slo(self):
        policy = AdaptiveBatchingPolicy(provider="aws", model="vgg",
                                        runtime="tf1.15", latency_slo_s=2.0)
        decision = policy.decide(100.0)
        assert decision.expected_latency_s <= 2.0 or decision.batch_size == 1

    def test_higher_rate_allows_bigger_batches(self):
        policy = AdaptiveBatchingPolicy(provider="aws", model="mobilenet",
                                        runtime="ort1.4", latency_slo_s=0.5)
        slow = policy.decide(2.0).batch_size
        fast = policy.decide(200.0).batch_size
        assert fast >= slow

    def test_decision_is_the_largest_size_within_the_slo(self):
        policy = AdaptiveBatchingPolicy(provider="aws", model="mobilenet",
                                        runtime="ort1.4", latency_slo_s=0.5)
        for rate in (5.0, 50.0, 150.0):
            decision = policy.decide(rate)
            fitting = [size for size in policy.candidate_sizes
                       if policy.expected_latency(size, rate) <= 0.5]
            assert decision.batch_size == max(fitting, default=1), rate
            assert decision.expected_latency_s == policy.expected_latency(
                decision.batch_size, rate)
            assert decision.request_rate == rate

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveBatchingPolicy(provider="aws", model="vgg",
                                   runtime="tf1.15", latency_slo_s=0.0)
        policy = AdaptiveBatchingPolicy(provider="aws", model="vgg",
                                        runtime="tf1.15", latency_slo_s=1.0)
        with pytest.raises(ValueError):
            policy.expected_latency(0, 10.0)
        with pytest.raises(ValueError):
            policy.expected_latency(1, 0.0)

    def test_evaluate_on_simulator(self):
        policy = AdaptiveBatchingPolicy(provider="aws", model="mobilenet",
                                        runtime="ort1.4", latency_slo_s=1.0)
        workload = standard_workload("w-40", seed=4, scale=0.05)
        outcome = policy.evaluate(workload)
        assert outcome["batch_size"] >= 1
        assert outcome["cost_usd"] > 0


class TestMemoryTuner:
    """Memory tuning (Section 5.3) is the navigator's memory axis, searched
    for one runtime at batch size 1 under an optional latency target."""

    @staticmethod
    def _tune(model, runtime, candidates_gb, latency_target_s=None):
        navigator = DesignSpaceNavigator(
            provider="aws", model=model, runtimes=(runtime,),
            memory_sizes_gb=candidates_gb, batch_sizes=(1,))
        workload = standard_workload("w-40", seed=4, scale=0.05)
        return navigator.search(workload, NavigationConstraints(
            max_latency_s=latency_target_s, min_success_ratio=0.0))

    def test_tuning_prefers_larger_memory_for_vgg_latency_target(self):
        outcome = self._tune("vgg", "tf1.15", (2.0, 8.0),
                             latency_target_s=1.0)
        assert outcome.evaluated[0]["memory_gb"] == 2.0
        # More memory buys VGG more CPU, so a lower latency.
        assert (outcome.evaluated[1]["avg_latency_s"]
                < outcome.evaluated[0]["avg_latency_s"])
        if outcome.found:
            assert outcome.best["memory_gb"] == 8.0

    def test_without_target_picks_balanced_option(self):
        # Without a latency target the cheapest candidate wins.
        outcome = self._tune("mobilenet", "ort1.4", (2.0, 4.0))
        assert outcome.best["memory_gb"] in (2.0, 4.0)
        assert len(outcome.evaluated) == 2

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            self._tune("vgg", "tf1.15", ())


class TestNavigator:
    def test_constraints_validation(self):
        with pytest.raises(ValueError):
            NavigationConstraints(objective="throughput")
        with pytest.raises(ValueError):
            NavigationConstraints(min_success_ratio=1.5)

    def test_constraint_checks(self):
        constraints = NavigationConstraints(max_latency_s=1.0,
                                            max_cost_usd=0.5)
        assert constraints.is_satisfied(0.5, 1.0, 0.1)
        assert not constraints.is_satisfied(2.0, 1.0, 0.1)
        assert not constraints.is_satisfied(0.5, 0.9, 0.1)
        assert not constraints.is_satisfied(0.5, 1.0, 0.9)

    def test_search_finds_feasible_configuration(self):
        navigator = DesignSpaceNavigator(provider="aws", model="mobilenet",
                                         memory_sizes_gb=(2.0,),
                                         batch_sizes=(1,))
        workload = standard_workload("w-40", seed=4, scale=0.05)
        outcome = navigator.search(workload,
                                   NavigationConstraints(max_latency_s=1.0))
        assert outcome.found
        assert outcome.best["feasible"]
        assert len(outcome.evaluated) == 2  # two runtimes

    def test_infeasible_constraints_yield_no_best(self):
        navigator = DesignSpaceNavigator(provider="aws", model="vgg",
                                         runtimes=("tf1.15",),
                                         memory_sizes_gb=(2.0,),
                                         batch_sizes=(1,))
        workload = standard_workload("w-40", seed=4, scale=0.05)
        outcome = navigator.search(
            workload, NavigationConstraints(max_latency_s=0.001))
        assert not outcome.found
        assert outcome.evaluated

    def test_candidate_grid_with_servers(self):
        navigator = DesignSpaceNavigator(provider="aws", model="mobilenet",
                                         include_servers=True)
        kinds = {candidate["platform"] for candidate in navigator.candidates()}
        assert "cpu_server" in kinds and "gpu_server" in kinds


class TestDecomposedEstimator:
    """The decomposed closed form the halving search's rung 0 ranks with."""

    def _scenario(self, name="dec", provider="aws", **config):
        from repro.core.scenario import ScenarioSpec
        return ScenarioSpec(name=name, provider=provider, model="mobilenet",
                            workload="w-40", config=config)

    def test_components_sum_to_blended_total(self, estimator):
        estimate = estimator.serverless_decomposed(
            get_model("mobilenet"), get_runtime("tf1.15"), 15_000)
        assert isinstance(estimate, DecomposedCostEstimate)
        assert estimate.total == pytest.approx(
            estimate.compute_cost + estimate.transfer_cost
            + estimate.memory_cost + estimate.request_cost)
        assert estimate.compute_cost > 0
        assert estimate.transfer_cost > 0
        assert estimate.memory_cost > 0
        assert estimate.request_cost > 0
        # Carbon is a proxy column, never part of the dollar sum.
        assert estimate.carbon_kg > 0
        assert estimate.carbon_kg < estimate.total
        assert estimate.fanout == 1.0

    def test_fanout_multiplies_every_component(self, estimator):
        from repro.serving.deployment import ServiceConfig
        plain = estimator.serverless_decomposed(
            get_model("mobilenet"), get_runtime("tf1.15"), 10_000)
        config = ServiceConfig(request_error_rate=0.05, retry_attempts=3,
                               hedge_percentile=95.0)
        fanned = estimator.serverless_decomposed(
            get_model("mobilenet"), get_runtime("tf1.15"), 10_000,
            config=config)
        expected = CostEstimator.fanout_multiplier(config)
        assert expected > 1.0
        assert fanned.fanout == pytest.approx(expected)
        for name in ("compute_cost", "transfer_cost", "memory_cost",
                     "request_cost", "gb_seconds", "carbon_kg"):
            assert getattr(fanned, name) == pytest.approx(
                getattr(plain, name) * expected), name

    def test_fanout_multiplier_closed_form(self):
        assert CostEstimator.fanout_multiplier(None) == 1.0
        from repro.serving.deployment import ServiceConfig
        retries = ServiceConfig(request_error_rate=0.1, retry_attempts=2)
        # 1 + p for a two-attempt chain.
        assert CostEstimator.fanout_multiplier(retries) == pytest.approx(1.1)
        hedged = ServiceConfig(hedge_percentile=99.0)
        assert CostEstimator.fanout_multiplier(hedged) == pytest.approx(1.01)

    @staticmethod
    def _decomposed(estimator, spec):
        """The decomposed estimate of one serverless spec, priced at its
        workload's full-scale request count."""
        deployment = spec.deployment()
        return estimator.serverless_decomposed(
            deployment.model, deployment.runtime,
            spec.workload_spec().target_requests,
            memory_gb=deployment.config.memory_gb, config=deployment.config)

    def test_estimate_scenario_decomposed_resolves_references(self,
                                                              estimator):
        # The halving search's analytic scorer resolves a spec's own
        # provider, model, runtime, memory and workload.
        from repro.tools.search import analytic_objective
        spec = self._scenario(memory_gb=4.0)
        direct = estimator.serverless_decomposed(
            get_model("mobilenet"), get_runtime("tf1.15"),
            spec.workload_spec().target_requests, memory_gb=4.0)
        assert analytic_objective(spec) == pytest.approx(direct.total)
        on_gcp = self._scenario(provider="gcp")
        gcp_estimator = CostEstimator(provider=gcp(),
                                      profiles=LatencyProfiles())
        assert analytic_objective(on_gcp) == pytest.approx(
            self._decomposed(gcp_estimator, on_gcp).total)
        assert analytic_objective(on_gcp) != pytest.approx(
            self._decomposed(estimator, on_gcp).total)


class TestNavigatorEmptyPrefilter:
    """Satellite fix: an emptied candidate space keeps its schema."""

    def _emptied(self):
        return DesignSpaceNavigator(provider="aws", model="mobilenet",
                                    prefilter=lambda labels: False)

    def test_emptied_sweep_yields_declared_columns(self):
        navigator = self._emptied()
        workload = standard_workload("w-40", seed=4, scale=0.04)
        result = navigator.search(workload, NavigationConstraints())
        assert not result.found
        assert result.evaluated == []
        assert len(result.frame) == 0
        # The declared schema survives: the feasible column (the bug),
        # the axes, and the standard metric columns all present.
        from repro.core.study import STANDARD_METRIC_COLUMNS
        columns = set(result.frame.columns)
        assert "feasible" in columns
        assert {"runtime", "memory_gb", "batch_size"} <= columns
        assert set(STANDARD_METRIC_COLUMNS) <= columns
        assert result.frame.meta["constrained_out"] == \
            {"nav/aws/mobilenet": 18}

    def test_emptied_sweep_frame_still_slices(self):
        navigator = self._emptied()
        workload = standard_workload("w-40", seed=4, scale=0.04)
        frame = navigator.search(workload, NavigationConstraints()).frame
        assert frame.to_rows() == []
        selected = frame.select("runtime", "cost_usd", "feasible")
        assert len(selected) == 0

    def test_partial_prefilter_still_runs_survivors(self):
        navigator = DesignSpaceNavigator(
            provider="aws", model="mobilenet",
            runtimes=("tf1.15",), memory_sizes_gb=(2.0, 4.0),
            batch_sizes=(1,),
            prefilter=lambda labels: labels["memory_gb"] == 2.0)
        workload = standard_workload("w-40", seed=4, scale=0.04)
        result = navigator.search(workload, NavigationConstraints())
        assert len(result.evaluated) == 1
        assert result.evaluated[0]["memory_gb"] == 2.0
        assert result.frame.meta["constrained_out"] == \
            {"nav/aws/mobilenet": 1}
