"""Shared serving abstractions: deployments and per-request records.

A :class:`~repro.serving.deployment.Deployment` captures the three
dimensions the paper's planner works with (Section 3): the model, the
serving runtime, and the service configuration (which platform, how much
memory, which instance type, ...).  A
:class:`~repro.serving.records.RequestOutcome` is the object view of one
request's outcome row; the platforms write those rows in place (see
:mod:`repro.serving.outcome_table`).
"""

from repro.serving.deployment import Deployment, PlatformKind, ServiceConfig
from repro.serving.records import RequestOutcome, Stage

__all__ = [
    "Deployment",
    "PlatformKind",
    "RequestOutcome",
    "ServiceConfig",
    "Stage",
]
