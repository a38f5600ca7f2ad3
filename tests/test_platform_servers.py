"""Integration-level tests for the managed-ML and VM platform simulations."""

import pytest

from repro.cloud import aws
from repro.core.planner import Planner
from repro.models import get_model
from repro.platforms.autoscaling import TargetTrackingScaler
from repro.runtimes import get_runtime
from repro.serving import Deployment, PlatformKind, ServiceConfig
from repro.sim import Environment


class TestManagedMl:
    def test_starts_with_minimum_instances(self, bench, planner, tiny_w40):
        deployment = planner.plan("aws", "mobilenet", "tf1.15", "managed_ml")
        result = bench.run(deployment, tiny_w40)
        assert result.usage.instances_created >= 1
        assert result.usage.instance_seconds > 0
        assert result.cost > 0

    def test_latency_much_higher_than_serverless(self, bench, planner,
                                                 small_w120):
        managed = bench.run(
            planner.plan("aws", "mobilenet", "tf1.15", "managed_ml"), small_w120)
        serverless = bench.run(
            planner.plan("aws", "mobilenet", "tf1.15", "serverless"), small_w120)
        assert managed.average_latency > 10 * serverless.average_latency

    def test_overload_causes_failures(self, bench, planner, small_w120):
        result = bench.run(
            planner.plan("aws", "albert", "tf1.15", "managed_ml"), small_w120)
        assert result.success_ratio < 0.9
        assert not result.rows.success.all()

    def test_autoscaler_adds_instances_under_load(self, planner, small_w120,
                                                  bench):
        result = bench.run(
            planner.plan("aws", "mobilenet", "tf1.15", "managed_ml"), small_w120)
        # The w-120 bursts exceed one instance's capacity; within the
        # (compressed) run the scaler should have launched more.
        assert result.usage.instances_created >= 1
        assert result.usage.peak_instances >= 1

    def test_autoscaling_can_be_disabled(self, bench, planner, tiny_w40):
        deployment = planner.plan("aws", "albert", "tf1.15", "managed_ml",
                                  autoscaling=False)
        result = bench.run(deployment, tiny_w40)
        assert result.usage.instances_created == 1

    def test_cost_scales_with_instances(self, bench, planner, tiny_w40):
        one = bench.run(
            planner.plan("aws", "mobilenet", "tf1.15", "managed_ml",
                         autoscaling=False), tiny_w40)
        three = bench.run(
            planner.plan("aws", "mobilenet", "tf1.15", "managed_ml",
                         autoscaling=False, initial_instances=3), tiny_w40)
        assert three.usage.instances_created == 3
        # Per-second cost of the fleet is three times higher even though
        # the single-instance run takes longer to drain its queue.
        assert (three.cost / three.duration_s) > 2.5 * (one.cost / one.duration_s)


class TestVmServers:
    def test_cpu_server_queues_under_load(self, bench, planner, small_w120):
        result = bench.run(
            planner.plan("aws", "mobilenet", "tf1.15", "cpu_server"), small_w120)
        assert result.average_latency > 1.0
        assert result.cost > 0
        assert result.usage.instances_created == 1

    def test_gpu_server_fast_at_low_load(self, bench, planner, tiny_w40):
        result = bench.run(
            planner.plan("aws", "mobilenet", "tf1.15", "gpu_server"), tiny_w40)
        assert result.success_ratio == pytest.approx(1.0)
        assert result.average_latency < 0.3

    def test_gpu_costs_more_than_cpu(self, bench, planner, tiny_w40):
        cpu = bench.run(
            planner.plan("aws", "mobilenet", "tf1.15", "cpu_server"), tiny_w40)
        gpu = bench.run(
            planner.plan("aws", "mobilenet", "tf1.15", "gpu_server"), tiny_w40)
        assert gpu.cost > cpu.cost

    def test_large_model_overwhelms_cpu_server(self, bench, planner,
                                               small_w120):
        result = bench.run(
            planner.plan("aws", "vgg", "tf1.15", "cpu_server"), small_w120)
        assert result.success_ratio < 0.7

    def test_vm_autoscaling_group_launches_instances(self, bench, planner,
                                                     small_w120):
        asg = bench.run(
            planner.plan("aws", "mobilenet", "tf1.15", "cpu_server",
                         autoscaling=True, max_instances=4), small_w120)
        fixed = bench.run(
            planner.plan("aws", "mobilenet", "tf1.15", "cpu_server"), small_w120)
        assert asg.usage.instances_created >= fixed.usage.instances_created

    def test_workers_override(self, bench, planner, tiny_w40):
        wide = bench.run(
            planner.plan("aws", "vgg", "tf1.15", "cpu_server",
                         workers_per_instance=64), tiny_w40)
        narrow = bench.run(
            planner.plan("aws", "vgg", "tf1.15", "cpu_server"), tiny_w40)
        assert wide.success_ratio > narrow.success_ratio


class TestTargetTrackingScaler:
    def _scaler(self, env, demand_value, max_step=100):
        launched = []
        state = {"total": 1}

        def launch(n):
            launched.append(n)
            state["total"] += n

        scaler = TargetTrackingScaler(
            env=env, evaluation_period_s=60.0, target_per_instance=4.0,
            min_instances=1, max_instances=10,
            demand=lambda: demand_value,
            provisioned_total=lambda: state["total"],
            launch=launch, max_scale_step=max_step)
        return scaler, launched

    def test_desired_instances_tracks_demand(self, env):
        scaler, _ = self._scaler(env, demand_value=17.0)
        assert scaler.desired_instances() == 5

    def test_respects_max_instances(self, env):
        scaler, _ = self._scaler(env, demand_value=1000.0)
        assert scaler.desired_instances() == 10

    def test_evaluate_launches_missing(self, env):
        scaler, launched = self._scaler(env, demand_value=17.0)
        assert scaler.evaluate_once() == 4
        assert launched == [4]
        assert scaler.evaluate_once() == 0

    def test_max_scale_step_limits_launches(self, env):
        scaler, launched = self._scaler(env, demand_value=40.0, max_step=1)
        assert scaler.evaluate_once() == 1
        assert launched == [1]

    def test_scale_in_retires_after_cooldown(self, env):
        from repro.platforms.policies import TargetUtilisationPolicy
        state = {"total": 6, "demand": 4.0}
        retired = []

        def retire(n):
            retired.append(n)
            state["total"] -= n

        scaler = TargetTrackingScaler(
            env=env, evaluation_period_s=60.0,
            policy=TargetUtilisationPolicy(
                target_per_instance=4.0, min_instances=1, max_instances=10,
                scale_in_cooldown_s=120.0),
            demand=lambda: state["demand"],
            provisioned_total=lambda: state["total"],
            launch=lambda n: None,
            retire=retire,
            idle=lambda: state["total"])
        # Inside the cooldown window nothing happens...
        env.timeout(60.0)
        env.run()
        assert scaler.evaluate_once() == 0
        assert retired == []
        # ...after it, the surplus above the demand's desired fleet goes.
        env.timeout(120.0)
        env.run()
        assert scaler.evaluate_once() == -5
        assert retired == [5]
        assert state["total"] == 1
        # A retirement is a scaling action: the cooldown restarts.
        assert scaler.evaluate_once() == 0

    def test_no_scale_in_while_a_scale_out_is_in_flight(self, env):
        """The endpoint reports zero retirable idle while warming > 0.

        `provisioned_total` counts warming instances, so without this
        guard the scaler could retire the only *ready* instance against
        capacity that is still minutes from serving.
        """
        from repro.core.planner import Planner
        from repro.platforms.base import build_platform
        platform = build_platform(env, Planner().plan(
            "aws", "mobilenet", "tf1.15", "managed_ml",
            scale_in_cooldown_s=0.0))
        # Bring up the initial fleet by hand (platform.start() would also
        # register the never-ending autoscaler process).
        platform.pool.launch(warm=True)
        platform._resize_workers()
        assert platform._retirable_idle() == platform.pool.idle == 1
        platform._launch_instances(1)  # warming for the next few minutes
        assert platform.pool.warming == 1
        assert platform._retirable_idle() == 0
        env.run()  # bring-up completes -> warming drains
        assert platform.pool.warming == 0
        assert platform._retirable_idle() == 2

    def test_no_scale_in_without_the_hooks(self, env):
        """A policy with a cooldown but no retire hook never scales in."""
        from repro.platforms.policies import TargetUtilisationPolicy
        scaler = TargetTrackingScaler(
            env=env, evaluation_period_s=60.0,
            policy=TargetUtilisationPolicy(
                target_per_instance=4.0, min_instances=1, max_instances=10,
                scale_in_cooldown_s=0.0),
            demand=lambda: 0.0,
            provisioned_total=lambda: 8,
            launch=lambda n: None)
        assert scaler.evaluate_once() == 0

    def test_validation(self, env):
        with pytest.raises(ValueError):
            TargetTrackingScaler(env=env, evaluation_period_s=0,
                                 target_per_instance=1, min_instances=1,
                                 max_instances=1, demand=lambda: 0,
                                 provisioned_total=lambda: 1,
                                 launch=lambda n: None)
        with pytest.raises(ValueError):
            TargetTrackingScaler(env=env, evaluation_period_s=1,
                                 target_per_instance=1, min_instances=5,
                                 max_instances=1, demand=lambda: 0,
                                 provisioned_total=lambda: 1,
                                 launch=lambda n: None)

    def test_explicit_policy_excludes_scalar_fields(self, env):
        from repro.platforms.policies import TargetUtilisationPolicy
        policy = TargetUtilisationPolicy(target_per_instance=4.0,
                                         min_instances=1, max_instances=10)
        # Scalar fields alongside an explicit policy would be silently
        # ignored (e.g. a dead max_scale_step cap), so the mix is rejected.
        with pytest.raises(ValueError, match="not both"):
            TargetTrackingScaler(env=env, evaluation_period_s=60.0,
                                 policy=policy, max_scale_step=5,
                                 demand=lambda: 0,
                                 provisioned_total=lambda: 1,
                                 launch=lambda n: None)
        scaler = TargetTrackingScaler(env=env, evaluation_period_s=60.0,
                                      policy=policy, demand=lambda: 17.0,
                                      provisioned_total=lambda: 1,
                                      launch=lambda n: None)
        assert scaler.desired_instances() == 5


class TestDirectPlatformConstruction:
    def test_build_platform_dispatch(self):
        from repro.platforms import build_platform
        env = Environment()
        for platform, expected in (
                (PlatformKind.SERVERLESS, "ServerlessPlatform"),
                (PlatformKind.MANAGED_ML, "ManagedMlPlatform"),
                (PlatformKind.CPU_SERVER, "VmPlatform"),
                (PlatformKind.GPU_SERVER, "VmPlatform")):
            deployment = Deployment(
                provider=aws(), model=get_model("mobilenet"),
                runtime=get_runtime("tf1.15"),
                config=ServiceConfig(platform=platform))
            assert type(build_platform(env, deployment)).__name__ == expected
