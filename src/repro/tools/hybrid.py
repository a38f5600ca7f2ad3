"""Hybrid serverless + server provisioning (the MArk-style policy).

MArk (USENIX ATC'19), the closest related work the paper discusses,
provisions always-on servers for the predictable base load and spills the
unpredictable excess to serverless.  :class:`HybridPlanner` reproduces
that planning step on top of this package's workload and cost models: it
sizes the server fleet to a percentile of the per-second request rate,
estimates how many requests overflow to serverless, and compares the
blended cost against the pure-serverless and pure-server alternatives.

With ``routed_percentile`` set, the planner also evaluates a fourth,
*routed-spillover* strategy: size the always-on fleet to a lower
percentile and let the multi-region front door
(:mod:`repro.platforms.routing`) absorb the larger overflow — breakers,
hedging, and brownout make aggressive spillover survivable, at the price
of hedge-duplicate serverless invocations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.cloud.providers import CloudProvider
from repro.models.profiles import LatencyProfiles
from repro.models.zoo import ModelSpec
from repro.runtimes.base import ServingRuntime
from repro.tools.cost_estimator import CostEstimator
from repro.workload.traces import ArrivalTrace

__all__ = ["HybridPlan", "HybridPlanner", "HybridValidation",
           "validate_routed_plan", "ROUTED_COST_RTOL", "ROUTED_SPILL_ATOL"]

#: Documented relative tolerance between the routed closed-form blended
#: cost and a simulated hybrid cell's cost.  The closed form works on a
#: 1 s rate series with a deterministic per-server capacity; the
#: simulation adds cold starts, queueing, jittered service times, and
#: bills the serverless path per actual invocation duration — 35 %
#: relative agreement is what the two models share (see docs/hybrid.md
#: and tests/test_hybrid.py).
ROUTED_COST_RTOL = 0.35
#: Documented absolute tolerance on the spill fraction: the closed form
#: clips the rate series at fleet capacity, the simulation routes on
#: instantaneous slot occupancy, so they agree to within 15 points.
ROUTED_SPILL_ATOL = 0.15


@dataclass(frozen=True)
class HybridPlan:
    """The outcome of hybrid capacity planning for one workload."""

    servers: int
    server_capacity_rps: float
    overflow_requests: int
    total_requests: int
    server_cost: float
    serverless_overflow_cost: float
    pure_serverless_cost: float
    pure_server_cost: float
    pure_server_instances: int
    #: Always-on fleet size of the routed-spillover strategy (0 when the
    #: planner did not evaluate it — see ``HybridPlanner.routed_percentile``).
    routed_servers: int = 0
    #: Requests the routed strategy spills through the front door.
    routed_overflow_requests: int = 0
    #: Blended cost of the routed-spillover strategy, or ``None`` when
    #: routed planning is disabled.
    routed_cost: Optional[float] = None

    @property
    def hybrid_cost(self) -> float:
        """Blended cost of servers plus serverless overflow."""
        return self.server_cost + self.serverless_overflow_cost

    @property
    def overflow_fraction(self) -> float:
        """Fraction of requests that spill over to serverless."""
        if self.total_requests == 0:
            return 0.0
        return self.overflow_requests / self.total_requests

    @property
    def routed_overflow_fraction(self) -> float:
        """Fraction of requests the routed strategy spills (0 when the
        routed strategy was not evaluated)."""
        if self.total_requests == 0:
            return 0.0
        return self.routed_overflow_requests / self.total_requests

    def best_strategy(self) -> str:
        """Which of the evaluated strategies is cheapest.

        ``hybrid`` / ``serverless`` / ``server`` are always evaluated;
        ``routed`` joins the comparison only when the planner was given
        a ``routed_percentile`` (so existing plans are unchanged).
        """
        options = {
            "hybrid": self.hybrid_cost,
            "serverless": self.pure_serverless_cost,
            "server": self.pure_server_cost,
        }
        if self.routed_cost is not None:
            options["routed"] = self.routed_cost
        return min(options, key=options.get)


@dataclass
class HybridPlanner:
    """Sizes a hybrid serverless + CPU-server deployment."""

    provider: CloudProvider
    model: ModelSpec
    runtime: ServingRuntime
    profiles: LatencyProfiles = field(default_factory=LatencyProfiles)
    #: Rate percentile the always-on fleet is sized for (MArk uses the
    #: predictable base load; the 50th-70th percentile works well for the
    #: paper's bursty MMPP workloads).
    base_load_percentile: float = 60.0
    memory_gb: float = 2.0
    workers_per_server: int = 8
    #: Enables the routed-spillover strategy: size the always-on fleet to
    #: this (lower) rate percentile and let the multi-region front door
    #: absorb the larger overflow instead of the SLO absorbing it — the
    #: breakers/hedging/brownout machinery of ``platforms/routing.py``
    #: makes aggressive spillover survivable.  ``None`` (the default)
    #: skips routed planning entirely.
    routed_percentile: Optional[float] = None
    #: Fraction of routed spillover the front door duplicates as hedged
    #: requests; hedge losers still bill, so they surcharge the routed
    #: overflow cost.
    hedge_fraction: float = 0.02

    def __post_init__(self) -> None:
        if not 0 < self.base_load_percentile <= 100:
            raise ValueError("base_load_percentile must be in (0, 100]")
        if self.routed_percentile is not None:
            if not 0 < self.routed_percentile <= 100:
                raise ValueError("routed_percentile must be in (0, 100]")
        if not 0 <= self.hedge_fraction < 1:
            raise ValueError("hedge_fraction must be in [0, 1)")

    @classmethod
    def from_scenario(cls, scenario, profiles: Optional[LatencyProfiles] = None,
                      **overrides) -> "HybridPlanner":
        """Build a hybrid planner from a declarative scenario.

        The scenario's provider / model / runtime (and a ``memory_gb``
        config override, if present) are resolved through the same
        deployment path the simulator uses, so a hybrid what-if always
        analyses exactly the cell a simulation would run.
        """
        deployment = scenario.deployment()
        kwargs = {
            "provider": deployment.provider,
            "model": deployment.model,
            "runtime": deployment.runtime,
            "memory_gb": deployment.config.memory_gb,
        }
        if profiles is not None:
            kwargs["profiles"] = profiles
        kwargs.update(overrides)
        return cls(**kwargs)

    def plan_scenario(self, scenario, seed: int = 7,
                      scale: float = 1.0) -> HybridPlan:
        """Plan against a scenario's referenced workload."""
        workload = scenario.build_workload(seed=seed, scale=scale)
        return self.plan(workload.trace)

    def plan(self, trace: ArrivalTrace,
             duration_s: Optional[float] = None) -> HybridPlan:
        """Plan a hybrid deployment for one arrival trace."""
        estimator = CostEstimator(provider=self.provider, profiles=self.profiles)
        duration = duration_s if duration_s is not None else max(
            trace.duration, 1.0)
        _, rates = trace.rate_series(1.0, duration=duration)
        if rates.size == 0:
            rates = np.zeros(1)

        capacity_per_server = estimator.server_capacity_rps(
            self.model, self.runtime, "cpu", self.workers_per_server)
        base_rate = float(np.percentile(rates, self.base_load_percentile))
        servers = max(int(np.ceil(base_rate / capacity_per_server)), 1)

        fleet_capacity = servers * capacity_per_server
        overflow = int(np.sum(np.clip(rates - fleet_capacity, 0.0, None)))
        overflow = min(overflow, trace.count)

        instance_type = self.provider.cpu_instance_type
        server_cost = estimator.vm(instance_type, duration, servers)
        overflow_cost = estimator.serverless(self.model, self.runtime,
                                             overflow, self.memory_gb).total
        pure_serverless = estimator.serverless(self.model, self.runtime,
                                               trace.count, self.memory_gb).total

        peak_rate = float(rates.max()) if rates.size else 0.0
        pure_servers = max(int(np.ceil(peak_rate / capacity_per_server)), 1)
        pure_server_cost = estimator.vm(instance_type, duration, pure_servers)

        routed_servers = 0
        routed_overflow = 0
        routed_cost = None
        if self.routed_percentile is not None:
            routed_rate = float(np.percentile(rates, self.routed_percentile))
            routed_servers = max(
                int(np.ceil(routed_rate / capacity_per_server)), 1)
            routed_capacity = routed_servers * capacity_per_server
            routed_overflow = int(np.sum(
                np.clip(rates - routed_capacity, 0.0, None)))
            routed_overflow = min(routed_overflow, trace.count)
            # Hedge losers run to completion on the other region, so the
            # spilled invocations bill (1 + hedge_fraction)x.
            billed_overflow = int(np.ceil(
                routed_overflow * (1.0 + self.hedge_fraction)))
            routed_cost = (
                estimator.vm(instance_type, duration, routed_servers)
                + estimator.serverless(self.model, self.runtime,
                                       billed_overflow, self.memory_gb).total)

        return HybridPlan(
            servers=servers,
            server_capacity_rps=fleet_capacity,
            overflow_requests=overflow,
            total_requests=trace.count,
            server_cost=server_cost,
            serverless_overflow_cost=overflow_cost,
            pure_serverless_cost=pure_serverless,
            pure_server_cost=pure_server_cost,
            pure_server_instances=pure_servers,
            routed_servers=routed_servers,
            routed_overflow_requests=routed_overflow,
            routed_cost=routed_cost,
        )


@dataclass(frozen=True)
class HybridValidation:
    """One routed closed-form plan checked against a simulated hybrid cell.

    Produced by :func:`validate_routed_plan`: the planner's
    ``routed_percentile`` strategy sizes the provisioned fleet, then the
    *same* cell runs end to end through
    :class:`~repro.platforms.hybrid.HybridServingPlatform` and the two
    answers — blended cost and spill fraction — are compared.
    """

    #: The closed-form plan (``routed_cost`` is always set here).
    plan: HybridPlan
    #: Blended (provisioned + spill) cost of the simulated cell.
    simulated_cost: float
    #: Fraction of simulated requests served by the spill path.
    simulated_spill_fraction: float

    @property
    def cost_error(self) -> float:
        """Relative blended-cost disagreement, simulation vs closed form."""
        if not self.plan.routed_cost:
            return 0.0
        return (abs(self.simulated_cost - self.plan.routed_cost)
                / self.plan.routed_cost)

    @property
    def spill_error(self) -> float:
        """Absolute spill-fraction disagreement, simulation vs closed form."""
        return abs(self.simulated_spill_fraction
                   - self.plan.routed_overflow_fraction)

    def within(self, cost_rtol: float = ROUTED_COST_RTOL,
               spill_atol: float = ROUTED_SPILL_ATOL) -> bool:
        """Whether both disagreements sit inside the documented tolerances."""
        return (self.cost_error <= cost_rtol
                and self.spill_error <= spill_atol)


def validate_routed_plan(scenario, routed_percentile: float = 60.0,
                         seed: int = 7, scale: float = 1.0,
                         profiles: Optional[LatencyProfiles] = None,
                         **overrides) -> HybridValidation:
    """Check the routed closed form against a simulated hybrid cell.

    Plans ``scenario``'s workload with ``routed_percentile`` (hedging
    off — the hybrid front door routes each request exactly once), then
    simulates the same cell on :data:`~repro.serving.deployment.
    PlatformKind.HYBRID` with the plan's fleet size, the planner's
    workers per server, and the spill watermark at 1.0 — the closed
    form's capacity-clipping rule expressed as a routing decision.
    Extra ``overrides`` are forwarded to :class:`HybridPlanner`.

    Example::

        from repro.api import ScenarioSpec, validate_routed_plan

        spec = ScenarioSpec(name="validate", provider="aws",
                            model="mobilenet", platform="hybrid",
                            workload="w-40")
        check = validate_routed_plan(spec, routed_percentile=80.0,
                                     scale=0.3)
        assert check.within()

    The tolerances hold on steady and diurnal workloads; on the
    cold-start-pathological storm workloads (``w-storm``) the simulated
    spill bill runs far hotter than the warm-priced closed form, and
    ``cost_error`` reports exactly how far.
    """
    from repro.core.benchmark import ServingBenchmark
    from repro.core.scenario import ScenarioSpec, get_scenario
    from repro.experiments.base import ExperimentContext
    from repro.serving.deployment import PlatformKind
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    planner = HybridPlanner.from_scenario(
        scenario, profiles=profiles, routed_percentile=routed_percentile,
        hedge_fraction=0.0, **overrides)
    plan = planner.plan_scenario(scenario, seed=seed, scale=scale)
    config = scenario.overrides
    config.update(
        hybrid_provisioned_instances=plan.routed_servers,
        hybrid_spill_watermark=1.0,
        workers_per_instance=planner.workers_per_server,
        memory_gb=planner.memory_gb,
    )
    cell = ScenarioSpec(
        name=f"{scenario.name}-routed-validation",
        provider=scenario.provider, model=scenario.model,
        runtime=scenario.runtime, platform=PlatformKind.HYBRID,
        workload=scenario.workload, config=config, seed=scenario.seed)
    context = ExperimentContext(seed=seed, scale=scale)
    if profiles is not None:
        context.benchmark = ServingBenchmark(seed=seed, profiles=profiles)
    result = context.run_scenario(cell)
    return HybridValidation(
        plan=plan,
        simulated_cost=result.usage.cost,
        simulated_spill_fraction=result.table.spill_ratio())
