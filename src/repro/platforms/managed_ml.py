"""Simulated managed ML serving: AWS SageMaker / Google AI Platform.

A managed endpoint is a pool of identical VM-class instances fronted by a
request queue.  Each instance runs the serving runtime with one worker
per vCPU, so the endpoint's throughput is
``instances x vcpus / service_time``.  The endpoint autoscales, but a new
instance only becomes ready several minutes after the scaling decision
(Figure 7), which is why managed services fall behind the paper's bursty
workloads: the queue fills up, latency climbs, and requests beyond the
queue capacity (or older than the request timeout) fail — exactly the
success-ratio collapse of Figure 5.

Billing is per instance-hour, counted from the moment an instance is
launched, which also matches the paper's observation that "most of the
costs are spent on autoscaling instances rather than on doing the
prediction" (Section 4.2).

All of the machinery — pool, slot queue, target-utilisation scaling,
instance-hour metering — lives in
:class:`~repro.platforms.endpoint.PooledEndpointPlatform`; this class
only supplies the managed-endpoint knobs from the provider's
:class:`~repro.cloud.providers.ManagedMlTraits`.
"""

from __future__ import annotations

from repro.platforms.endpoint import PooledEndpointPlatform

__all__ = ["ManagedMlPlatform"]


class ManagedMlPlatform(PooledEndpointPlatform):
    """Managed ML model serving (SageMaker / AI Platform)."""

    family = "managed_ml"
    gauge_name = "managed-instances"
    reject_error = "throttled"
    #: Latency of a rejection response when the endpoint sheds load.
    rejection_latency_s = 0.05
    scaleout_stream = "managed-scaleout"
    predict_stream = "managed-predict"

    # -- knobs ---------------------------------------------------------------
    def _default_workers(self) -> int:
        return self.provider.managed_ml.workers_per_instance

    def _service_time_s(self) -> float:
        return (self.profiles.server_predict_time(
            self.runtime.key, self.model.name, "cpu")
            * self.provider.managed_ml.service_time_multiplier)

    def _queue_capacity(self, ready: int) -> int:
        return self.provider.managed_ml.queue_capacity_per_instance * ready

    def _request_timeout_s(self) -> float:
        return self.provider.managed_ml.request_timeout_s

    def _target_per_instance(self) -> float:
        return self.provider.managed_ml.target_inflight_per_instance

    def _max_instances(self) -> int:
        return (self.config.max_instances
                or self.provider.managed_ml.max_instances)

    def _max_scale_step(self) -> int:
        return self.provider.managed_ml.max_scale_step

    def _evaluation_period_s(self) -> float:
        return self.provider.managed_ml.scale_evaluation_period_s

    def _launch_delay_s(self) -> float:
        return self.provider.managed_ml.scale_out_delay_s

    def _pricing(self):
        return self.provider.pricing.managed_ml
