"""Cloud provider descriptors.

A :class:`CloudProvider` bundles everything that differs between AWS and
GCP in the paper's experiments: pricing, object-storage bandwidth,
network characteristics, container registry behaviour, and the observed
behavioural traits of the provider's serverless, managed-ML, and VM
offerings (sandbox setup time, autoscaling reaction time, and so on).

The two built-in providers, :func:`aws` and :func:`gcp`, are calibrated
against the measurements reported in the paper (Figures 10–12 for the
serverless stages, Figure 7 for managed autoscaling).  They are plain
dataclasses, so experiments that want to explore "what if GCP's storage
were as fast as AWS's" can simply construct modified copies.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

from repro.cloud.network import NetworkModel
from repro.cloud.pricing import PricingCatalog, aws_pricing, gcp_pricing
from repro.cloud.registry import ContainerRegistry
from repro.cloud.storage import ObjectStorage

__all__ = [
    "ServerlessTraits",
    "ManagedMlTraits",
    "VmTraits",
    "CloudProvider",
    "aws",
    "gcp",
    "get_provider",
]


@dataclass(frozen=True)
class ServerlessTraits:
    """Observed behaviour of the provider's FaaS offering."""

    #: Time to allocate and boot a fresh sandbox, excluding any image pull
    #: and excluding the runtime import / model download / load stages.
    sandbox_setup_s: float
    #: How aggressively the platform over-provisions: number of new
    #: instances started per request that finds no warm instance while
    #: other instances are still starting (>1 reproduces the
    #: over-provisioning the paper observes on GCP, Section 5.1).
    overprovision_factor: float
    #: Idle time after which a warm instance is reclaimed, seconds.
    keep_alive_s: float
    #: Account-level cap on concurrently running instances.
    max_concurrency: int
    #: Whether initialisation (runtime import) is part of the billed
    #: duration.  AWS Lambda does not bill the init phase of a request;
    #: Google Cloud Functions bills wall-clock execution of the request
    #: that triggered the cold start.
    billing_includes_init: bool
    #: How often the platform's router re-evaluates scale-out decisions.
    scale_interval_s: float = 0.5
    #: Upper bound on new instance launches per second (the platforms'
    #: burst-concurrency ramp limits).
    max_starts_per_second: float = 60.0


@dataclass(frozen=True)
class ManagedMlTraits:
    """Observed behaviour of the provider's managed ML serving service."""

    #: How often the autoscaler evaluates its scaling rule, seconds.
    scale_evaluation_period_s: float
    #: Time from the autoscaler's decision until the new instance serves
    #: traffic (the paper observes 3–5 minutes on SageMaker).
    scale_out_delay_s: float
    #: Target in-flight requests per instance used by the scaling rule.
    target_inflight_per_instance: float
    #: Maximum number of instances the autoscaler may reach.
    max_instances: int
    #: Endpoint-side queue capacity per instance; requests beyond it are
    #: rejected with an error (this is what drives the success ratio down).
    queue_capacity_per_instance: int
    #: Server-side timeout after which a queued request errors out.
    request_timeout_s: float
    #: Concurrent worker processes the managed serving container runs per
    #: instance.  The paper's measurements imply SageMaker's serving stack
    #: exploits far less of the ml.m4.2xlarge than a hand-managed server
    #: (Figure 5a vs. the CPU-server bars), while AI Platform gets close
    #: to the full machine (Figure 5d).
    workers_per_instance: int = 8
    #: Multiplier applied to the per-request service time relative to the
    #: self-managed server calibration (stack efficiency).
    service_time_multiplier: float = 1.0
    #: Maximum instances added per autoscaler evaluation.
    max_scale_step: int = 10


@dataclass(frozen=True)
class VmTraits:
    """Observed behaviour of self-rented virtual machines."""

    #: Time to launch and prepare an additional VM in an autoscaling group.
    autoscale_launch_delay_s: float
    #: Connection backlog of the serving process; excess requests fail fast.
    queue_capacity: int
    #: Server-side timeout after which a queued request errors out.
    request_timeout_s: float


@dataclass(frozen=True)
class CloudProvider:
    """Everything the simulation needs to know about one cloud."""

    name: str
    display_name: str
    serverless_service: str
    managed_service: str
    pricing: PricingCatalog
    storage: ObjectStorage
    network: NetworkModel
    registry: ContainerRegistry
    serverless: ServerlessTraits
    managed_ml: ManagedMlTraits
    vm: VmTraits
    #: Default instance types for the managed / CPU / GPU configurations.
    managed_instance_type: str = ""
    cpu_instance_type: str = ""
    gpu_instance_type: str = ""

    def with_serverless(self, **changes) -> "CloudProvider":
        """A copy of this provider with modified serverless traits."""
        return replace(self, serverless=replace(self.serverless, **changes))

    def with_managed_ml(self, **changes) -> "CloudProvider":
        """A copy of this provider with modified managed-ML traits."""
        return replace(self, managed_ml=replace(self.managed_ml, **changes))


def aws() -> CloudProvider:
    """Amazon Web Services, calibrated to the paper's observations."""
    return CloudProvider(
        name="aws",
        display_name="AWS",
        serverless_service="Lambda",
        managed_service="SageMaker",
        pricing=aws_pricing(),
        # Figure 12b: ~2.4 s to download an extra 300 MB => ~125 MB/s.
        storage=ObjectStorage(request_latency_s=0.12,
                              download_bandwidth_mbps=125.0),
        network=NetworkModel(one_way_latency_s=0.018, bandwidth_mbps=12.5),
        # Section 5.1: ~1–2 % of cold starts exceed 20 s due to image pulls.
        registry=ContainerRegistry(first_pull_probability=0.015,
                                   pull_bandwidth_mbps=110.0,
                                   unpack_overhead_s=3.0),
        serverless=ServerlessTraits(
            sandbox_setup_s=0.45,
            overprovision_factor=1.4,
            keep_alive_s=600.0,
            max_concurrency=1000,
            # The paper deploys Lambda functions as container images, and
            # Lambda bills the initialisation of container-image functions
            # as part of the triggering invocation's duration.
            billing_includes_init=True,
            scale_interval_s=0.5,
            max_starts_per_second=100.0,
        ),
        managed_ml=ManagedMlTraits(
            # SageMaker's target-tracking alarm needs several minutes of
            # sustained load before it fires, and the new instances take
            # another ~4 minutes to serve traffic (Figure 7a: desired at
            # minute 7, in service at minute 11).
            scale_evaluation_period_s=420.0,
            scale_out_delay_s=255.0,
            target_inflight_per_instance=4.0,
            max_instances=5,
            queue_capacity_per_instance=600,
            request_timeout_s=45.0,
            workers_per_instance=2,
            service_time_multiplier=1.0,
            max_scale_step=5,
        ),
        vm=VmTraits(
            autoscale_launch_delay_s=240.0,
            queue_capacity=2000,
            request_timeout_s=110.0,
        ),
        managed_instance_type="ml.m4.2xlarge",
        cpu_instance_type="m5.2xlarge",
        gpu_instance_type="g4dn.2xlarge",
    )


def gcp() -> CloudProvider:
    """Google Cloud Platform, calibrated to the paper's observations."""
    return CloudProvider(
        name="gcp",
        display_name="GCP",
        serverless_service="Cloud Functions",
        managed_service="AI Platform",
        pricing=gcp_pricing(),
        # Figure 12b: ~10 s to download an extra 300 MB => ~30 MB/s.
        storage=ObjectStorage(request_latency_s=0.25,
                              download_bandwidth_mbps=30.0),
        network=NetworkModel(one_way_latency_s=0.022, bandwidth_mbps=12.5),
        registry=ContainerRegistry(first_pull_probability=0.02,
                                   pull_bandwidth_mbps=70.0,
                                   unpack_overhead_s=3.5),
        serverless=ServerlessTraits(
            sandbox_setup_s=1.15,
            # Figure 11b: GCP starts far more instances than needed.
            overprovision_factor=3.5,
            keep_alive_s=600.0,
            max_concurrency=3000,
            billing_includes_init=True,
            scale_interval_s=0.5,
            max_starts_per_second=200.0,
        ),
        managed_ml=ManagedMlTraits(
            scale_evaluation_period_s=120.0,
            # Figure 7b: AI Platform adds its second instance slightly
            # earlier than SageMaker (~minute 6), but only one at a time.
            scale_out_delay_s=200.0,
            target_inflight_per_instance=4.0,
            max_instances=6,
            queue_capacity_per_instance=600,
            request_timeout_s=60.0,
            workers_per_instance=8,
            service_time_multiplier=0.6,
            max_scale_step=1,
        ),
        vm=VmTraits(
            autoscale_launch_delay_s=240.0,
            queue_capacity=2000,
            request_timeout_s=110.0,
        ),
        managed_instance_type="n1-standard-8",
        cpu_instance_type="n1-standard-8",
        gpu_instance_type="n1-standard-8-t4",
    )


_PROVIDERS: Dict[str, "CloudProvider"] = {}


def get_provider(name: str) -> CloudProvider:
    """Look up a provider by name (``"aws"`` or ``"gcp"``)."""
    key = name.lower()
    if key not in ("aws", "gcp"):
        raise KeyError(f"unknown provider {name!r}; expected 'aws' or 'gcp'")
    if key not in _PROVIDERS:
        _PROVIDERS[key] = aws() if key == "aws" else gcp()
    return _PROVIDERS[key]
