"""The common interface of all simulated serving platforms."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.models.profiles import LatencyProfiles
from repro.serving.deployment import Deployment, PlatformKind
from repro.serving.records import RequestOutcome
from repro.sim import Environment, Process, RandomStreams, TimeSeriesMonitor

__all__ = ["PlatformUsage", "ServingPlatform", "build_platform"]


@dataclass
class PlatformUsage:
    """Cost and resource statistics of one experiment on one platform."""

    #: Total cost in dollars.
    cost: float
    #: Cost split by component (execution, requests, provisioned capacity,
    #: instance hours, ...).
    cost_breakdown: Dict[str, float] = field(default_factory=dict)
    #: Number of cold starts that occurred.
    cold_starts: int = 0
    #: Number of serving instances created over the experiment.
    instances_created: int = 0
    #: Peak number of simultaneously active instances.
    peak_instances: int = 0
    #: Number of active instances over time (Figures 7 and 11).
    instance_count: TimeSeriesMonitor = field(default_factory=TimeSeriesMonitor)
    #: Total seconds billed for function execution (serverless only).
    billed_seconds: float = 0.0
    #: Cumulative instance-seconds billed (server-based platforms).
    instance_seconds: float = 0.0
    #: Free-form notes (e.g. which scaling events happened).
    notes: Dict[str, float] = field(default_factory=dict)


class ServingPlatform(abc.ABC):
    """A simulated serving system that executes inference requests."""

    #: Platform family used for handler-overhead lookups; subclasses override.
    family: str = "serverless"

    def __init__(self, env: Environment, deployment: Deployment,
                 profiles: Optional[LatencyProfiles] = None,
                 rng: Optional[RandomStreams] = None):
        self.env = env
        self.deployment = deployment
        self.profiles = profiles or LatencyProfiles()
        self.rng = rng or RandomStreams(0)
        #: Optional callback (set by the executor) re-recording an outcome
        #: the platform mutated *after* its client already finished it —
        #: e.g. a serverless invocation that runs and bills after the
        #: client's 300 s deadline expired.
        self.outcome_sink: Optional[Callable[[RequestOutcome], None]] = None
        self.provider = deployment.provider
        self.model = deployment.model
        self.runtime = deployment.runtime
        self.config = deployment.config
        # The network model's fields, hoisted for the two per-request
        # transfer legs (the attribute/method chain cost more than the
        # arithmetic).
        network = self.provider.network
        self._net_latency_s = network.one_way_latency_s
        self._net_bandwidth = network.bandwidth_mbps
        self._net_jitter_cv = network.jitter_cv

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        """Launch background processes (autoscalers, pre-warmed instances).

        Called once, before the first request is submitted.  The default
        implementation does nothing.
        """

    @abc.abstractmethod
    def submit(self, outcome: RequestOutcome, payload_mb: float,
               response_mb: float) -> Process:
        """Submit one request; returns the process the client waits on.

        The platform fills in ``outcome`` (stages, success, billing) and
        the returned process finishes when the client has received the
        response or the error.
        """

    @abc.abstractmethod
    def finalize(self, end_time: Optional[float] = None) -> PlatformUsage:
        """Close the books: compute cost and usage statistics."""

    # -- shared helpers ------------------------------------------------------
    def _handler_overhead(self) -> float:
        """Per-request parsing/serialisation overhead for this family."""
        return self.profiles.handler_overhead_s(self.family)

    def _transfer_time(self, payload_mb: float) -> float:
        """One network leg; inlined ``NetworkModel.transfer_time``."""
        latency = self._net_latency_s
        if self._net_jitter_cv > 0:
            latency = self.rng.lognormal_around("network", latency,
                                                self._net_jitter_cv)
        return latency + payload_mb / self._net_bandwidth

    def _network_up(self, outcome: RequestOutcome, payload_mb: float) -> float:
        """Attribute the client-to-endpoint transfer; returns its duration.

        Callers ``yield`` the duration (a bare sleep).
        """
        duration = self._transfer_time(payload_mb)
        breakdown = outcome.breakdown
        breakdown["network"] = breakdown.get("network", 0.0) + duration
        return duration

    def _network_down(self, outcome: RequestOutcome,
                      response_mb: float) -> float:
        """Attribute the endpoint-to-client transfer; returns its duration.

        Callers ``yield`` the duration (a bare sleep).
        """
        duration = self._transfer_time(response_mb)
        breakdown = outcome.breakdown
        breakdown["network"] = breakdown.get("network", 0.0) + duration
        return duration


def build_platform(env: Environment, deployment: Deployment,
                   profiles: Optional[LatencyProfiles] = None,
                   rng: Optional[RandomStreams] = None) -> ServingPlatform:
    """Instantiate the right platform class for a deployment."""
    from repro.platforms.managed_ml import ManagedMlPlatform
    from repro.platforms.serverless import ServerlessPlatform
    from repro.platforms.vm import VmPlatform

    if deployment.config.region_count >= 2:
        # The multi-region front door wraps single-region replicas of
        # the configured kind (it re-enters build_platform with
        # region_count=1 per region).
        from repro.platforms.routing import MultiRegionPlatform
        return MultiRegionPlatform(env, deployment, profiles, rng)
    kind = deployment.config.platform
    if kind == PlatformKind.HYBRID:
        # The hybrid spill front door composes a provisioned CPU fleet
        # with a serverless spill path (it re-enters build_platform once
        # per path with the path's own platform kind).
        from repro.platforms.hybrid import HybridServingPlatform
        return HybridServingPlatform(env, deployment, profiles, rng)
    if kind == PlatformKind.SERVERLESS:
        return ServerlessPlatform(env, deployment, profiles, rng)
    if kind == PlatformKind.MANAGED_ML:
        return ManagedMlPlatform(env, deployment, profiles, rng)
    if kind in (PlatformKind.CPU_SERVER, PlatformKind.GPU_SERVER):
        return VmPlatform(env, deployment, profiles, rng)
    raise ValueError(f"unknown platform kind {kind!r}")
