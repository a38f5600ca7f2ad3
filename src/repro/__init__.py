"""repro — a reproduction of "Serverless Data Science — Are We There Yet?
A Case Study of Model Serving" (SIGMOD 2022).

The package simulates the cloud model-serving systems the paper
evaluates (AWS Lambda, Google Cloud Functions, SageMaker, AI Platform,
and self-rented CPU/GPU servers), drives them with the paper's
MMPP-generated workloads, and reproduces every figure and table of the
paper's evaluation.

Quick start (the stable surface lives in :mod:`repro.api`)::

    from repro.api import ScenarioSpec, run

    result = run(ScenarioSpec(name="demo", provider="aws",
                              model="mobilenet"), scale=0.2)
    print(result.average_latency, result.success_ratio, result.cost)

Design-space sweeps are data too — see :class:`repro.api.Sweep` /
:class:`repro.api.Study`, and ARCHITECTURE.md for the layering.
"""

from repro.cloud import aws, gcp, get_provider
from repro.core import (
    Analyzer,
    Executor,
    Planner,
    ResultFrame,
    RunResult,
    ScenarioSpec,
    ServingBenchmark,
    Study,
    Sweep,
    get_scenario,
    get_study,
    list_scenarios,
    list_studies,
    register_scenario,
    register_study,
)
from repro.models import LatencyProfiles, get_model, list_models
from repro.runtimes import get_runtime, list_runtimes
from repro.serving import Deployment, PlatformKind, ServiceConfig
from repro.workload import (
    ArrivalTrace,
    MMPP,
    Workload,
    WorkloadSpec,
    generate_workload,
    standard_workload,
    standard_workload_specs,
)

from repro import api

__version__ = "1.1.0"

__all__ = [
    "Analyzer",
    "ArrivalTrace",
    "Deployment",
    "Executor",
    "LatencyProfiles",
    "MMPP",
    "PlatformKind",
    "Planner",
    "ResultFrame",
    "RunResult",
    "ScenarioSpec",
    "ServiceConfig",
    "ServingBenchmark",
    "Study",
    "Sweep",
    "Workload",
    "WorkloadSpec",
    "__version__",
    "api",
    "aws",
    "gcp",
    "generate_workload",
    "get_model",
    "get_provider",
    "get_runtime",
    "get_scenario",
    "get_study",
    "list_models",
    "list_runtimes",
    "list_scenarios",
    "list_studies",
    "register_scenario",
    "register_study",
    "standard_workload",
    "standard_workload_specs",
]
