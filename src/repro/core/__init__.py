"""The evaluation framework (paper Figure 3).

The framework has four components, mirroring the paper's design:

* **Load generator** — lives in :mod:`repro.workload`.
* **Planner** (:mod:`repro.core.planner`) — turns (provider, model,
  runtime, service configuration) names into a concrete
  :class:`~repro.serving.deployment.Deployment`.
* **Executor** (:mod:`repro.core.executor`) — simulated clients that
  replay the workload against a deployed platform and record one
  outcome row per request.
* **Analyzer** (:mod:`repro.core.analyzer`) — computes the paper's three
  metrics (response latency, request success ratio, cost) plus the
  time-series and cold-start breakdowns used in the figures.

:class:`~repro.core.benchmark.ServingBenchmark` is the façade that wires
the pieces together; most users only need it plus the planner.  On top
of both, :mod:`repro.core.scenario` defines the declarative
:class:`~repro.core.scenario.ScenarioSpec` layer — experiment cells as
data — and the registry of named scenarios.
"""

from repro.core.analyzer import Analyzer
from repro.core.benchmark import ServingBenchmark
from repro.core.executor import Executor
from repro.core.metrics import LatencyStats, percentile
from repro.core.planner import Planner
from repro.core.results import RunResult
from repro.core.scenario import (
    ScenarioSpec,
    get_scenario,
    list_scenarios,
    register_scenario,
    scenario_library,
)
from repro.core.study import (
    ResultFrame,
    Study,
    Sweep,
    get_study,
    list_studies,
    register_study,
    study_library,
)

__all__ = [
    "Analyzer",
    "Executor",
    "LatencyStats",
    "Planner",
    "ResultFrame",
    "RunResult",
    "ScenarioSpec",
    "ServingBenchmark",
    "Study",
    "Sweep",
    "get_scenario",
    "get_study",
    "list_scenarios",
    "list_studies",
    "percentile",
    "register_scenario",
    "register_study",
    "scenario_library",
    "study_library",
]
