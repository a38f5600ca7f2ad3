"""Shared serving abstractions: deployments and per-request records.

A :class:`~repro.serving.deployment.Deployment` captures the three
dimensions the paper's planner works with (Section 3): the model, the
serving runtime, and the service configuration (which platform, how much
memory, which instance type, ...).  A request's outcome is one row of
columns, which the platforms write in place (see
:mod:`repro.serving.outcome_table`); :class:`~repro.serving.records.Stage`
names its latency sub-stages.
"""

from repro.serving.deployment import Deployment, PlatformKind, ServiceConfig
from repro.serving.records import Stage

__all__ = [
    "Deployment",
    "PlatformKind",
    "ServiceConfig",
    "Stage",
]
