"""The common interface of all simulated serving platforms.

A platform serves a request by writing its outcome into a row of the
column block it bound once per run (:meth:`ServingPlatform.bind`).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, Optional

from repro.models.profiles import LatencyProfiles
from repro.serving.deployment import Deployment, PlatformKind
from repro.serving.outcome_table import OutcomeColumns
from repro.sim import Environment, RandomStreams, TimeSeriesMonitor

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
        #: The rows this platform writes outcomes into (see :meth:`bind`).
        self._rows: Optional[OutcomeColumns] = None
        #: Called with a row once its request finished (None: the caller
        #: that drives this platform commits).
        self._commit: Optional[Callable[[int], None]] = None
        self.provider = deployment.provider
        self.model = deployment.model
        self.runtime = deployment.runtime
        self.config = deployment.config
        # The two per-request network legs: the jittered latency is a
        # pre-bound draw (``NetworkModel.transfer_time``, inlined).
        network = self.provider.network
        self._net_bandwidth = network.bandwidth_mbps
        self._net_latency = self.rng.lognormal_draw(
            "network", network.one_way_latency_s, network.jitter_cv)

    # -- lifecycle ----------------------------------------------------------
    def bind(self, rows: OutcomeColumns,
             commit: Optional[Callable[[int], None]] = None) -> None:
        """Write outcomes into ``rows`` (once per run, before :meth:`start`).

        ``commit`` is the recorder's commit when this platform is the
        outermost layer of the request path; None when a caller (a front
        door, the retry loop, the batch sender) commits.  Front doors
        override this to bind their backends.
        """
        self._rows = rows
        self._commit = commit

    def start(self) -> None:
        """Launch background processes (autoscalers, pre-warmed instances).

        Called once, before the first request is submitted.  The default
        implementation does nothing.
        """

    @abc.abstractmethod
    def request(self, row: int, payload_mb: float,
                response_mb: float) -> Generator:
        """Serve the request registered in ``row`` of the bound rows.

        The caller runs it as a process (the executor, one per client
        request) or delegates to it with ``yield from`` (a front door or
        a retry loop).  The first segment records the submission; the
        platform writes the row's stages, billing, cold start, instance,
        success, error and completion as they happen, and the generator
        returns once the client has received the response or the error
        (see :meth:`_finish`).  It always yields at least once, so a
        process running it is still pending when ``env.process()``
        returns.
        """

    @abc.abstractmethod
    def finalize(self, end_time: Optional[float] = None) -> PlatformUsage:
        """Close the books: compute cost and usage statistics."""

    # -- shared helpers ------------------------------------------------------
    def _handler_overhead(self) -> float:
        """Per-request parsing/serialisation overhead for this family."""
        return self.profiles.handler_overhead_s(self.family)

    def _network_leg(self, row: int, payload_mb: float) -> float:
        """Attribute one network transfer to ``row``; returns its duration.

        Callers ``yield`` the duration (a bare sleep).
        """
        duration = self._net_latency() + payload_mb / self._net_bandwidth
        self._rows.network_s[row] += duration
        return duration

    def _finish(self, row: int, success: bool, error: str = "") -> None:
        """The request in ``row`` completes now: write it, commit it.

        ``error`` may label a success too (a router's degraded serve).
        """
        rows = self._rows
        rows.completion_time[row] = self.env.now
        if success:
            rows.success[row] = True
        if error:
            rows.errors[row] = error
        if self._commit is not None:
            self._commit(row)


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
