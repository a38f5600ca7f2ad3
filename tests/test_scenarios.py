"""Tests for the declarative scenario layer (specs, registry, wiring).

The tentpole claim: a new serving scenario is *configuration, not code*.
These tests exercise the spec itself, the registry, the single
construction path (benchmark / experiment context / tools), and the two
shipped config-only scenarios end-to-end.
"""

import pytest

from repro.api import run
from repro.core.planner import Planner
from repro.core.scenario import (
    ScenarioSpec,
    get_scenario,
    list_scenarios,
    register_scenario,
)
from repro.experiments.base import ExperimentContext
from repro.models import LatencyProfiles
from repro.platforms.base import build_platform
from repro.serving.deployment import PlatformKind
from repro.sim import Environment
from repro.tools.cost_estimator import CostEstimator
from repro.tools.hybrid import HybridPlanner
from repro.workload.generator import (
    WorkloadSpec,
    known_workloads,
    register_workload_spec,
    standard_workload,
    workload_spec,
)


class TestScenarioSpec:
    def test_config_normalised_and_hashable(self):
        spec = ScenarioSpec(name="s", provider="aws", model="mobilenet",
                            config={"memory_gb": 4.0, "batch_size": 2})
        assert spec.config == (("batch_size", 2), ("memory_gb", 4.0))
        assert spec.overrides == {"batch_size": 2, "memory_gb": 4.0}
        assert hash(spec)  # usable as a cache key

    def test_mapping_style_access(self):
        spec = ScenarioSpec(name="s", provider="aws", model="mobilenet",
                            config={"memory_gb": 4.0})
        assert spec["provider"] == "aws"
        assert spec["memory_gb"] == 4.0
        with pytest.raises(KeyError):
            spec["nonexistent"]

    def test_unknown_platform_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="s", provider="aws", model="mobilenet",
                         platform="mainframe")

    def test_unknown_config_knob_rejected_at_construction(self):
        with pytest.raises(ValueError, match="'memroy_gb'.*memory_gb"):
            ScenarioSpec(name="s", provider="aws", model="mobilenet",
                         config={"memroy_gb": 2})

    def test_unknown_provider_rejected_at_construction(self):
        with pytest.raises(ValueError, match="'awz'.*'aws' or 'gcp'"):
            ScenarioSpec(name="s", provider="awz", model="mobilenet")

    def test_unknown_model_rejected_at_construction(self):
        with pytest.raises(ValueError, match="'mobilenett'.*'mobilenet'"):
            ScenarioSpec(name="s", provider="aws", model="mobilenett")

    def test_unknown_runtime_rejected_at_construction(self):
        with pytest.raises(ValueError, match="'tf9'.*'tf1.15'"):
            ScenarioSpec(name="s", provider="aws", model="mobilenet",
                         runtime="tf9")

    def test_with_config_merges(self):
        spec = ScenarioSpec(name="s", provider="aws", model="mobilenet",
                            config={"memory_gb": 2.0})
        tuned = spec.with_config(memory_gb=8.0, batch_size=4)
        assert tuned.overrides == {"memory_gb": 8.0, "batch_size": 4}
        assert spec.overrides == {"memory_gb": 2.0}  # original untouched

    def test_copy_methods_keep_every_other_field(self):
        spec = ScenarioSpec(name="s", provider="gcp", model="vgg",
                            runtime="ort1.4", platform="managed_ml",
                            workload="w-120", config={"memory_gb": 2.0},
                            description="d", seed=3, fidelity=0.5)
        assert spec.with_config(batch_size=4) == ScenarioSpec(
            name="s", provider="gcp", model="vgg", runtime="ort1.4",
            platform="managed_ml", workload="w-120",
            config={"memory_gb": 2.0, "batch_size": 4}, description="d",
            seed=3, fidelity=0.5)
        reseeded = spec.with_seed(9, name="r")
        assert (reseeded.name, reseeded.seed) == ("r", 9)
        assert reseeded.with_seed(3, name="s") == spec
        shortened = spec.with_fidelity(0.25)
        assert (shortened.name, shortened.fidelity) == ("s", 0.25)
        # __post_init__ still normalises: full fidelity is no fidelity.
        assert spec.with_fidelity(1.0).fidelity is None
        assert shortened.with_fidelity(0.5) == spec

    def test_cell_scale_folds_fidelity_into_the_scale(self):
        spec = ScenarioSpec(name="s", provider="aws", model="mobilenet")
        assert spec.cell_scale(0.2) == 0.2
        assert spec.with_fidelity(0.25).cell_scale(0.2) == 0.2 * 0.25
        assert spec.with_fidelity(1.0).cell_scale(0.2) == 0.2

    def test_cell_key_is_stable_and_distinct(self):
        base = ScenarioSpec(name="a", provider="aws", model="mobilenet")
        same = ScenarioSpec(name="b", provider="aws", model="mobilenet")
        other = same.with_config(memory_gb=4.0)
        assert base.cell_key == same.cell_key  # name does not split caches
        assert base.cell_key != other.cell_key

    def test_deployment_resolution(self):
        spec = ScenarioSpec(name="s", provider="aws", model="mobilenet",
                            runtime="ort1.4", platform="serverless",
                            config={"memory_gb": 4.0})
        deployment = spec.deployment()
        assert deployment.provider.name == "aws"
        assert deployment.runtime.key == "ort1.4"
        assert deployment.config.memory_gb == 4.0

    def test_planner_plan_scenario(self):
        deployment = Planner().plan_scenario("provisioned-serverless")
        assert deployment.config.provisioned_concurrency == 8


class TestRegistry:
    def test_shipped_scenarios_registered(self):
        names = list_scenarios()
        assert "provisioned-serverless" in names
        assert "burst-storm" in names
        assert "eager-managed" in names

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            get_scenario("no-such-scenario")

    def test_conflicting_registration_rejected(self):
        spec = get_scenario("burst-storm")
        register_scenario(spec)  # identical re-registration is a no-op
        with pytest.raises(ValueError):
            register_scenario(ScenarioSpec(name="burst-storm",
                                           provider="gcp",
                                           model="mobilenet"))

    def test_workload_registry(self):
        assert "w-storm" in known_workloads()
        spec = workload_spec("w-storm")
        assert spec.high_rate > 200.0
        with pytest.raises(ValueError):
            register_workload_spec(WorkloadSpec(
                name="w-40", high_rate=1.0, low_rate=0.5,
                target_requests=10))
        with pytest.raises(ValueError):
            register_workload_spec(WorkloadSpec(
                name="w-storm", high_rate=1.0, low_rate=0.5,
                target_requests=10))

    def test_storm_workload_generates(self):
        workload = standard_workload("w-storm", seed=3, scale=0.05)
        assert workload.count == workload.spec.target_requests
        assert workload.name == "w-storm"


class TestScenarioExecution:
    def test_burst_storm_runs_end_to_end(self):
        result = run("burst-storm", seed=7, scale=0.04)
        assert result.total_requests > 1000
        assert result.success_ratio > 0.95
        assert result.usage.cold_starts > 0

    def test_provisioned_serverless_runs_end_to_end(self):
        result = run("provisioned-serverless", seed=7, scale=0.04)
        assert result.usage.cost_breakdown["provisioned"] > 0
        assert result.usage.peak_instances >= 8

    def test_storm_separates_serverless_from_managed(self):
        """The config-only storm reproduces the paper's headline split."""
        serverless, managed = ExperimentContext(seed=7, scale=0.04).run_specs(
            [get_scenario("burst-storm"), get_scenario("burst-storm-managed")])
        assert serverless.success_ratio > managed.success_ratio + 0.3
        assert serverless.total_requests == managed.total_requests

    def test_policy_overrides_reach_the_platforms(self):
        spec = get_scenario("eager-managed")
        platform = build_platform(Environment(), spec.deployment())
        assert platform._scaler.evaluation_period_s == 105.0
        assert platform.policy.target_per_instance == 2.0
        assert platform.policy.max_instances == 8

        serverless = ScenarioSpec(
            name="s", provider="aws", model="mobilenet",
            config={"scale_interval_s": 0.5})
        platform = build_platform(Environment(), serverless.deployment())
        assert platform.policy.interval_s == 0.5

    def test_eager_policy_changes_scaling_behaviour(self):
        """Policy-as-data: the override must actually move the metrics."""
        eager = run("eager-managed", seed=7, scale=0.3)
        default = run(
            ScenarioSpec(name="default-managed", provider="aws",
                         model="mobilenet", platform=PlatformKind.MANAGED_ML,
                         workload="w-120"),
            seed=7, scale=0.3)
        assert (eager.usage.instances_created
                > default.usage.instances_created)

    def test_diurnal_scalein_shrinks_the_fleet(self):
        """The config-only scale-in scenario: valleys stop billing.

        At scale 0.3 the first valley (about 330 s) exceeds the 240 s
        cooldown, so the fleet retires down between the two plateaus and
        relaunches for the second one — cheaper than the same cell with
        scale-in disabled, with a visible retire/relaunch cycle.
        """
        spec = get_scenario("diurnal-scalein")
        scaled_in, static = ExperimentContext(seed=7, scale=0.3).run_specs(
            [spec, spec.with_config(scale_in_cooldown_s=None)])
        # More launches than the no-scale-in run: retire + relaunch.
        assert (scaled_in.usage.instances_created
                > static.usage.instances_created)
        # The gauge comes back down after the peaks...
        counts = scaled_in.usage.instance_count.values
        assert counts[-1] < max(counts)
        # ...and fewer instance-seconds accrue, so the run is cheaper.
        assert scaled_in.usage.instance_seconds < static.usage.instance_seconds
        assert scaled_in.cost < static.cost
        # The conservation ledger still balances under scale-in.
        notes = scaled_in.usage.notes
        assert notes["submitted"] == (notes["completed"] + notes["failed"]
                                      + notes["rejected"]
                                      + notes["timed_out"] + notes["shed"])

    def test_diurnal_workload_registered(self):
        assert "w-diurnal" in known_workloads()
        spec = workload_spec("w-diurnal")
        assert spec.duration_s == 3600.0
        workload = standard_workload("w-diurnal", seed=3, scale=0.05)
        assert workload.count == workload.spec.target_requests

    def test_experiment_context_runs_scenarios_with_cache(self):
        context = ExperimentContext(seed=7, scale=0.04)
        first = context.run_scenario("burst-storm")
        second = context.run_scenario(get_scenario("burst-storm"))
        assert first is second  # same cache entry either way
        # An anonymous spec of the same cell shares the cache entry.
        cell = context.run_scenario(ScenarioSpec(
            name="", provider="aws", model="mobilenet", runtime="tf1.15",
            platform="serverless", workload="w-storm"))
        assert cell is first


class TestToolsIntegration:
    def test_navigator_candidates_are_scenarios(self):
        from repro.tools.navigator import DesignSpaceNavigator
        navigator = DesignSpaceNavigator(provider="aws", model="mobilenet",
                                         include_servers=True)
        candidates = navigator.candidates()
        assert all(isinstance(candidate, ScenarioSpec)
                   for candidate in candidates)
        kinds = {candidate["platform"] for candidate in candidates}
        assert PlatformKind.CPU_SERVER in kinds

    def test_cost_estimator_prices_a_scenario(self):
        # The halving search's analytic scorer prices a registered
        # serverless scenario at its workload's full-scale request count,
        # without simulating it.
        from repro.tools.search import analytic_objective
        spec = get_scenario("provisioned-serverless")
        deployment = spec.deployment()
        estimate = CostEstimator(
            provider=deployment.provider,
            profiles=LatencyProfiles()).serverless_decomposed(
                deployment.model, deployment.runtime,
                spec.workload_spec().target_requests,
                memory_gb=deployment.config.memory_gb,
                config=deployment.config)
        assert estimate.requests == spec.workload_spec().target_requests
        assert estimate.total > 0
        assert analytic_objective(spec) == pytest.approx(estimate.total)

    def test_analytic_objective_prices_server_scenarios(self):
        # A server-backed scenario is priced as one instance over the
        # workload's duration, not per request.
        from repro.tools.search import analytic_objective
        spec = get_scenario("burst-storm-managed")
        deployment = spec.deployment()
        estimator = CostEstimator(provider=deployment.provider,
                                  profiles=LatencyProfiles())
        assert analytic_objective(spec) == pytest.approx(estimator.managed_ml(
            deployment.instance_type(), spec.workload_spec().duration_s))

    def test_hybrid_planner_from_scenario(self):
        spec = get_scenario("burst-storm")
        planner = HybridPlanner.from_scenario(spec)
        assert planner.provider.name == "aws"
        assert planner.model.name == "mobilenet"
        plan = planner.plan_scenario(spec, seed=7, scale=0.05)
        assert plan.total_requests > 0
        assert plan.best_strategy() in ("hybrid", "serverless", "server")
