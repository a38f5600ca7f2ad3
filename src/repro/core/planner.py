"""Planner: build deployments from human-level choices (paper Figure 3).

The planner resolves names ("aws", "mobilenet", "tf1.15", "serverless")
into a fully specified :class:`~repro.serving.deployment.Deployment`,
applying the defaults the paper uses in Section 3: 2 GB serverless
memory, ``ml.m4.2xlarge`` / ``n1-standard-8`` managed instances with
autoscaling on and a minimum of one instance, a single always-on VM for
CPU/GPU servers, and so on.
"""

from __future__ import annotations

from typing import Dict

from repro.cloud.providers import CloudProvider, get_provider
from repro.models.zoo import ModelSpec, get_model
from repro.runtimes.base import ServingRuntime
from repro.runtimes.registry import get_runtime
from repro.serving.deployment import Deployment, PlatformKind, ServiceConfig

__all__ = ["Planner"]


class Planner:
    """Builds deployments for the evaluated serving systems."""

    #: Default serverless memory size in the paper's experiments.
    DEFAULT_MEMORY_GB = 2.0

    def plan(self, provider: str | CloudProvider, model: str | ModelSpec,
             runtime: str | ServingRuntime,
             platform: str = PlatformKind.SERVERLESS,
             **config_overrides) -> Deployment:
        """Build one deployment.

        ``config_overrides`` are forwarded to
        :class:`~repro.serving.deployment.ServiceConfig` after the paper's
        platform-specific defaults have been applied.
        """
        provider_obj = (provider if isinstance(provider, CloudProvider)
                        else get_provider(provider))
        model_obj = model if isinstance(model, ModelSpec) else get_model(model)
        runtime_obj = (runtime if isinstance(runtime, ServingRuntime)
                       else get_runtime(runtime))
        defaults = self._platform_defaults(platform)
        defaults.update(config_overrides)
        config = ServiceConfig(platform=platform, **defaults)
        return Deployment(provider=provider_obj, model=model_obj,
                          runtime=runtime_obj, config=config)

    def plan_scenario(self, scenario) -> Deployment:
        """Resolve a :class:`~repro.core.scenario.ScenarioSpec` (or a
        registered scenario name) into a deployment."""
        from repro.core.scenario import get_scenario
        if isinstance(scenario, str):
            scenario = get_scenario(scenario)
        return scenario.deployment(self)

    # -- internals -----------------------------------------------------------
    def _platform_defaults(self, platform: str) -> Dict[str, object]:
        if platform == PlatformKind.SERVERLESS:
            return {"memory_gb": self.DEFAULT_MEMORY_GB}
        if platform == PlatformKind.MANAGED_ML:
            # Autoscaling enabled, minimum of one running instance (S4.2).
            return {"initial_instances": 1, "autoscaling": True}
        if platform in (PlatformKind.CPU_SERVER, PlatformKind.GPU_SERVER):
            # A single self-rented, always-on VM; the paper's autoscaling
            # group experiments are run explicitly via config overrides.
            return {"initial_instances": 1, "autoscaling": False}
        if platform == PlatformKind.HYBRID:
            # A fixed provisioned CPU fleet plus a 2 GB serverless spill
            # path; fleet size rides on hybrid_provisioned_instances.
            return {"memory_gb": self.DEFAULT_MEMORY_GB,
                    "autoscaling": False}
        raise ValueError(f"unknown platform kind {platform!r}")
