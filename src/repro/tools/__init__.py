"""Extension tools built on top of the benchmark (paper Section 6).

The paper closes with research challenges and opportunities; this package
implements practical versions of them, plus the related-work policies the
paper positions itself against:

* :mod:`repro.tools.navigator` — the "navigation tool that automatically
  searches the design space" (challenge #3): given latency/cost
  constraints, sweep platform, runtime, memory, and batching choices and
  recommend a deployment.
* :mod:`repro.tools.adaptive_batching` — a BATCH-style policy that picks
  the largest batch size whose latency penalty stays within an SLO.
* :mod:`repro.tools.hybrid` — a MArk-style planner that sizes an
  always-on server fleet for the base load and uses serverless for the
  overflow, comparing the blended cost against pure strategies.
* :mod:`repro.tools.cost_estimator` — closed-form cost estimates (no
  simulation) for quick what-if analysis, decomposed into transfer /
  memory / fan-out / carbon components.
* :mod:`repro.tools.search` — budgeted successive-halving search over
  the navigator's candidate space: cheap short-horizon rungs eliminate
  most designs before anything runs at full length.

The paper's memory-size advice (Section 5.3) needs no tool of its own:
the registered ``fig15`` study sweeps memory, and the navigator searches
it under a latency target.
"""

from repro.tools.adaptive_batching import AdaptiveBatchingPolicy, BatchDecision
from repro.tools.cost_estimator import (CostEstimator, DecomposedCostEstimate,
                                        ServerlessCostEstimate)
from repro.tools.hybrid import HybridPlan, HybridPlanner
from repro.tools.navigator import DesignSpaceNavigator, NavigationConstraints, NavigationResult
from repro.tools.search import (HalvingResult, HalvingRung, SearchStudy,
                                SuccessiveHalvingSearch)

__all__ = [
    "AdaptiveBatchingPolicy",
    "BatchDecision",
    "CostEstimator",
    "DecomposedCostEstimate",
    "DesignSpaceNavigator",
    "HalvingResult",
    "HalvingRung",
    "HybridPlan",
    "HybridPlanner",
    "NavigationConstraints",
    "NavigationResult",
    "SearchStudy",
    "ServerlessCostEstimate",
    "SuccessiveHalvingSearch",
]
