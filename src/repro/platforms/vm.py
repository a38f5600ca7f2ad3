"""Simulated self-rented servers: EC2 / Compute Engine CPU and GPU VMs.

A self-rented serving deployment is one (or a fixed number of) always-on
virtual machines running the serving runtime behind an HTTP frontend.
CPU servers execute requests with one worker per vCPU; GPU servers
execute requests back-to-back on the accelerator, each finishing in a few
tens of milliseconds.  The VM has a finite connection backlog: requests
beyond it are refused, and requests that sit in the backlog longer than
the server-side timeout fail — this is the mechanism behind the success
ratios of Figures 5, 8 and 9.

An optional autoscaling group can be enabled (the paper tried one and
found the 3–5 minute launch delay made it ineffective); billing is per
instance-hour from launch to the end of the experiment.

All of the machinery — pool, slot queue, target-utilisation scaling,
instance-hour metering — lives in
:class:`~repro.platforms.endpoint.PooledEndpointPlatform`; this class
only supplies the VM-shaped knobs.
"""

from __future__ import annotations

from repro.platforms.endpoint import PooledEndpointPlatform
from repro.serving.deployment import PlatformKind

__all__ = ["VmPlatform"]


class VmPlatform(PooledEndpointPlatform):
    """Self-rented CPU or GPU serving on EC2 / Compute Engine."""

    family = "vm"
    gauge_name = "vm-instances"
    reject_error = "connection_refused"
    rejection_latency_s = 0.02
    scaleout_stream = "vm-scaleout"
    predict_stream = "vm-predict"

    def __init__(self, env, deployment, profiles=None, rng=None):
        self._is_gpu = deployment.config.platform == PlatformKind.GPU_SERVER
        # On a GPU server the HTTP handling runs on the host CPUs and does
        # not occupy the accelerator.
        self.handler_off_worker = self._is_gpu
        super().__init__(env, deployment, profiles, rng)
        self._traits = self.provider.vm

    # -- knobs ---------------------------------------------------------------
    def _default_workers(self) -> int:
        return 1 if self._is_gpu else self._instance_type.vcpus

    def _service_time_s(self) -> float:
        return self.profiles.server_predict_time(
            self.runtime.key, self.model.name,
            "gpu" if self._is_gpu else "cpu")

    def _queue_capacity(self, ready: int) -> int:
        return self.provider.vm.queue_capacity

    def _request_timeout_s(self) -> float:
        return self.provider.vm.request_timeout_s

    def _target_per_instance(self) -> float:
        return float(self._workers_per_instance)

    def _max_instances(self) -> int:
        return self.config.max_instances or 10

    def _evaluation_period_s(self) -> float:
        return 60.0

    def _launch_delay_s(self) -> float:
        return self.provider.vm.autoscale_launch_delay_s

    def _pricing(self):
        return self.provider.pricing.vm
