"""Simulated model-serving platforms and their shared control plane.

These are the eight systems the paper evaluates, collapsed into three
platform families parameterised by cloud provider:

* :class:`~repro.platforms.serverless.ServerlessPlatform` — AWS Lambda and
  Google Cloud Functions.
* :class:`~repro.platforms.managed_ml.ManagedMlPlatform` — AWS SageMaker
  and Google AI Platform.
* :class:`~repro.platforms.vm.VmPlatform` — self-rented CPU and GPU
  servers on EC2 and Compute Engine.

All platforms implement the :class:`~repro.platforms.base.ServingPlatform`
interface — the executor submits requests, the platform simulates
queueing, scaling, cold starts, and execution — and all three are thin
compositions of the same four control-plane parts (see ARCHITECTURE.md):

* :class:`~repro.platforms.pool.InstancePool` — instance lifecycle
  (cold -> warming -> idle -> busy -> retired) with O(1) accounting;
* :mod:`~repro.platforms.policies` — pluggable scaling policies
  (concurrency-driven, target-utilisation, fixed fleet);
* :mod:`~repro.platforms.admission` — admission queues (the serverless
  backlog :class:`~repro.platforms.admission.WorkQueue`, slot-model
  :class:`~repro.platforms.admission.SlotQueue`);
* :mod:`~repro.platforms.billing` — :class:`~repro.platforms.billing.
  BillingMeter`, the single writer of
  :class:`~repro.platforms.base.PlatformUsage`.
"""

from repro.platforms.admission import PendingRequest, SlotQueue, WorkQueue
from repro.platforms.autoscaling import TargetTrackingScaler
from repro.platforms.base import PlatformUsage, ServingPlatform, build_platform
from repro.platforms.billing import BillingMeter, InstanceHourMeter, ServerlessMeter
from repro.platforms.endpoint import PooledEndpointPlatform
from repro.platforms.managed_ml import ManagedMlPlatform
from repro.platforms.policies import (
    ConcurrencyScalingPolicy,
    FixedFleetPolicy,
    TargetUtilisationPolicy,
)
from repro.platforms.pool import InstancePool, InstanceState, PoolInstance
from repro.platforms.serverless import ServerlessPlatform
from repro.platforms.vm import VmPlatform

__all__ = [
    "BillingMeter",
    "ConcurrencyScalingPolicy",
    "FixedFleetPolicy",
    "InstanceHourMeter",
    "InstancePool",
    "InstanceState",
    "ManagedMlPlatform",
    "PendingRequest",
    "PlatformUsage",
    "PoolInstance",
    "PooledEndpointPlatform",
    "ServerlessMeter",
    "ServerlessPlatform",
    "ServingPlatform",
    "SlotQueue",
    "TargetTrackingScaler",
    "TargetUtilisationPolicy",
    "VmPlatform",
    "WorkQueue",
    "build_platform",
]
