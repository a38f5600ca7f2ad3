"""Closed-form cost estimation (no simulation).

Useful for quick what-if analysis and as the analytical core of the
hybrid planner: given a request count and an expected billed duration per
request, what would serverless cost, and what would an always-on server
cost over the same period?

Two closed forms live here:

* :meth:`CostEstimator.serverless` — the original blended estimate
  (execution + request fee), kept stable for the hybrid planner.
* :meth:`CostEstimator.serverless_decomposed` — the richer
  query-cost-style decomposition the design-space search ranks with:
  explicit per-request *transfer* cost (network seconds billed at the
  memory rate), *resident-memory* cost (cold-start initialisation
  residency), a *fan-out* multiplier (expected extra invocations from
  retries and hedging), and an energy/carbon proxy.  The components sum
  exactly to the estimate's blended :attr:`DecomposedCostEstimate.total`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cloud.providers import CloudProvider
from repro.models.profiles import LatencyProfiles
from repro.models.zoo import ModelSpec
from repro.runtimes.base import ServingRuntime

__all__ = [
    "ServerlessCostEstimate",
    "DecomposedCostEstimate",
    "CostEstimator",
    "ENERGY_KWH_PER_GB_SECOND",
    "CARBON_KG_PER_KWH",
]

#: Energy-draw proxy of one allocated GB-second (kWh): roughly the wall
#: power of the slice of a shared host a 1 GB sandbox occupies.
ENERGY_KWH_PER_GB_SECOND = 1.0e-6

#: Grid carbon intensity (kg CO2e per kWh), a us-east-like average.
CARBON_KG_PER_KWH = 0.4


@dataclass(frozen=True)
class ServerlessCostEstimate:
    """Breakdown of an analytical serverless cost estimate."""

    requests: int
    billed_seconds: float
    execution_cost: float
    request_cost: float

    @property
    def total(self) -> float:
        """Total estimated cost in dollars."""
        return self.execution_cost + self.request_cost


@dataclass(frozen=True)
class DecomposedCostEstimate:
    """A serverless estimate split into explicit resource components.

    All four dollar components already include the :attr:`fanout`
    multiplier, and they sum exactly to :attr:`total` — the invariant
    the analytic-ranking tests pin.  :attr:`carbon_kg` is a proxy
    metric, not a dollar amount, and is *not* part of the sum.
    """

    #: Client-visible request count the estimate prices.
    requests: int
    #: Expected invocations per client request (retries + hedging).
    fanout: float
    #: Warm compute (predict + handler) billed at the memory rate.
    compute_cost: float
    #: Per-request network transfer seconds billed at the memory rate.
    transfer_cost: float
    #: Resident-memory cost: cold-start initialisation residency
    #: (import + model load + artifact download) billed at the memory
    #: rate — the closed form charges it whether or not the provider
    #: bills init, because the memory is occupied either way.
    memory_cost: float
    #: Flat per-invocation fee.
    request_cost: float
    #: Total allocated GB-seconds behind the estimate.
    gb_seconds: float
    #: Energy/carbon proxy (kg CO2e) for the allocated GB-seconds.
    carbon_kg: float

    @property
    def total(self) -> float:
        """Blended dollar estimate: the sum of the four components."""
        return (self.compute_cost + self.transfer_cost
                + self.memory_cost + self.request_cost)


@dataclass
class CostEstimator:
    """Analytical cost model for the paper's serving options."""

    provider: CloudProvider
    profiles: LatencyProfiles

    # -- serverless ------------------------------------------------------------
    def serverless(self, model: ModelSpec, runtime: ServingRuntime,
                   requests: int, memory_gb: float = 2.0,
                   cold_start_fraction: float = 0.01) -> ServerlessCostEstimate:
        """Estimate the cost of serving ``requests`` invocations.

        ``cold_start_fraction`` is the fraction of requests expected to
        cold start; their billed duration additionally includes the
        initialisation stages when the provider bills them (GCP).
        """
        if requests < 0:
            raise ValueError("requests must be non-negative")
        if not 0.0 <= cold_start_fraction <= 1.0:
            raise ValueError("cold_start_fraction must be in [0, 1]")
        warm = (self.profiles.warm_predict_time(
            self.provider.name, runtime.key, model.name, memory_gb)
            + self.profiles.handler_overhead_s("serverless"))
        cold_extra = 0.0
        if self.provider.serverless.billing_includes_init:
            stages = self.profiles.cold_start_stages(
                self.provider.name, runtime.key, model.name)
            cold_extra = (stages.import_s + stages.load_s
                          + self.provider.storage.download_time(model.download_mb))
        billed = requests * warm + requests * cold_start_fraction * cold_extra
        pricing = self.provider.pricing.serverless
        execution = pricing.execution_cost(memory_gb, billed, 0)
        per_request = pricing.execution_cost(memory_gb, 0.0, requests)
        return ServerlessCostEstimate(requests=requests, billed_seconds=billed,
                                      execution_cost=execution,
                                      request_cost=per_request)

    @staticmethod
    def fanout_multiplier(config=None) -> float:
        """Expected platform invocations per client request.

        Client-side retries multiply traffic by the expected attempt
        count under the configured transient error rate, and request
        hedging adds one duplicate attempt for the hedged tail fraction
        (``(100 - hedge_percentile) / 100``).  A ``None`` or default
        config yields 1.0.
        """
        fanout = 1.0
        if config is None:
            return fanout
        error_rate = getattr(config, "request_error_rate", 0.0) or 0.0
        attempts = getattr(config, "retry_attempts", 1) or 1
        if error_rate > 0.0 and attempts > 1:
            # Expected attempts of a geometric retry chain capped at
            # `attempts`: 1 + p + p^2 + ... + p^(attempts-1).
            fanout = (1.0 - error_rate ** attempts) / (1.0 - error_rate)
        hedge = getattr(config, "hedge_percentile", 0.0) or 0.0
        if hedge > 0.0:
            fanout += (100.0 - hedge) / 100.0
        return fanout

    def serverless_decomposed(self, model: ModelSpec, runtime: ServingRuntime,
                              requests: int, memory_gb: float = 2.0,
                              cold_start_fraction: float = 0.01,
                              config=None) -> DecomposedCostEstimate:
        """The decomposed closed form the design-space search ranks with.

        Splits the estimate into warm compute, per-request network
        transfer, cold-start resident-memory residency, and the flat
        request fee — each billed at the provider's memory rate and
        multiplied by the config's expected :meth:`fanout_multiplier` —
        plus an energy/carbon proxy over the allocated GB-seconds.
        Unlike :meth:`serverless` it prices transfer time and init
        residency explicitly, so two designs with equal warm compute
        still separate on payload size, model weight, and retry policy.
        """
        if requests < 0:
            raise ValueError("requests must be non-negative")
        if not 0.0 <= cold_start_fraction <= 1.0:
            raise ValueError("cold_start_fraction must be in [0, 1]")
        warm_s = (self.profiles.warm_predict_time(
            self.provider.name, runtime.key, model.name, memory_gb)
            + self.profiles.handler_overhead_s("serverless"))
        transfer_s = self.provider.network.round_trip_time(
            model.input_payload_mb, model.output_payload_mb)
        stages = self.profiles.cold_start_stages(
            self.provider.name, runtime.key, model.name)
        resident_s = (stages.import_s + stages.load_s
                      + self.provider.storage.download_time(model.download_mb))
        fanout = self.fanout_multiplier(config)
        invocations = requests * fanout
        pricing = self.provider.pricing.serverless

        def _duration_cost(seconds: float) -> float:
            return pricing.execution_cost(memory_gb, seconds, 0)

        compute_seconds = invocations * warm_s
        transfer_seconds = invocations * transfer_s
        resident_seconds = invocations * cold_start_fraction * resident_s
        gb_seconds = memory_gb * (compute_seconds + transfer_seconds
                                  + resident_seconds)
        return DecomposedCostEstimate(
            requests=requests,
            fanout=fanout,
            compute_cost=_duration_cost(compute_seconds),
            transfer_cost=_duration_cost(transfer_seconds),
            memory_cost=_duration_cost(resident_seconds),
            request_cost=invocations * pricing.per_request,
            gb_seconds=gb_seconds,
            carbon_kg=(gb_seconds * ENERGY_KWH_PER_GB_SECOND
                       * CARBON_KG_PER_KWH),
        )

    # -- servers ----------------------------------------------------------------
    def vm(self, instance_type: str, duration_s: float,
           instances: int = 1) -> float:
        """Cost of renting ``instances`` VMs for ``duration_s`` seconds."""
        if duration_s < 0 or instances < 0:
            raise ValueError("duration_s and instances must be non-negative")
        return self.provider.pricing.vm.cost(instance_type,
                                             duration_s * instances)

    def managed_ml(self, instance_type: Optional[str], duration_s: float,
                   instances: int = 1) -> float:
        """Cost of a managed endpoint with ``instances`` active instances."""
        if duration_s < 0 or instances < 0:
            raise ValueError("duration_s and instances must be non-negative")
        name = instance_type or self.provider.managed_instance_type
        return self.provider.pricing.managed_ml.cost(name,
                                                     duration_s * instances)

    # -- throughput helpers -------------------------------------------------------
    def server_capacity_rps(self, model: ModelSpec, runtime: ServingRuntime,
                            hardware: str, workers: int) -> float:
        """Sustained requests/second one server can absorb."""
        if workers < 1:
            raise ValueError("workers must be >= 1")
        service = self.profiles.server_predict_time(runtime.key, model.name,
                                                    hardware)
        if hardware == "cpu":
            service += self.profiles.handler_overhead_s("vm")
        return workers / service
