"""Catalog of the VM / managed-ML instance types used in the paper.

Section 3 of the paper fixes the configurations: ``ml.m4.2xlarge`` on
SageMaker, ``n1-standard-8`` on AI Platform, comparable 8-vCPU machines
for self-rented CPU servers, and ``g4dn.2xlarge`` / ``n1-standard-8 + T4``
for GPU servers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["InstanceType", "instance_catalog"]


@dataclass(frozen=True)
class InstanceType:
    """A virtual machine or managed-ML instance shape."""

    name: str
    provider: str
    vcpus: int
    memory_gb: float
    gpus: int = 0
    gpu_model: str = ""
    hourly_rate: float = 0.0


_CATALOG: Dict[str, InstanceType] = {
    # AWS -----------------------------------------------------------------
    "ml.m4.2xlarge": InstanceType(
        name="ml.m4.2xlarge", provider="aws", vcpus=8, memory_gb=32.0,
        hourly_rate=0.56),
    "m5.2xlarge": InstanceType(
        name="m5.2xlarge", provider="aws", vcpus=8, memory_gb=32.0,
        hourly_rate=0.384),
    "g4dn.2xlarge": InstanceType(
        name="g4dn.2xlarge", provider="aws", vcpus=8, memory_gb=32.0,
        gpus=1, gpu_model="T4", hourly_rate=0.752),
    # GCP -----------------------------------------------------------------
    "n1-standard-8": InstanceType(
        name="n1-standard-8", provider="gcp", vcpus=8, memory_gb=30.0,
        hourly_rate=0.38),
    "n1-standard-8-t4": InstanceType(
        name="n1-standard-8-t4", provider="gcp", vcpus=8, memory_gb=30.0,
        gpus=1, gpu_model="T4", hourly_rate=0.73),
}


def instance_catalog() -> Dict[str, InstanceType]:
    """A copy of the built-in instance-type catalog."""
    return dict(_CATALOG)


def get_instance_type(name: str) -> InstanceType:
    """Look up an instance type by name."""
    try:
        return _CATALOG[name]
    except KeyError:
        raise KeyError(
            f"unknown instance type {name!r}; known: {sorted(_CATALOG)}") from None
