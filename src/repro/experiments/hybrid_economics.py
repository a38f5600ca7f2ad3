"""Hybrid spill economics: fleet size vs blended cost, simulated.

Not a paper figure — the paper's Section 6 economic argument (rent
servers for the base load, pay serverless prices only for the bursts)
run end to end through the simulator instead of the closed form.  The
``hybrid-economics`` study sweeps the provisioned fleet size of a
:class:`~repro.platforms.hybrid.HybridServingPlatform` under the burst
storm at K=5 seeded replicates: a one-server fleet spills most of the
storm to serverless, an eight-server fleet absorbs it on rented
instance-hours, and somewhere in between the blended cost bottoms out.

Each cell reports the spill ratio (from the ``served_by`` outcome
column), the per-path mean latencies, and the blended cost split into
its ``provisioned.`` / ``spill.`` components from the merged usage
breakdown.  The result notes carry the
:class:`~repro.tools.hybrid.HybridPlanner` closed-form answer for the
same workload, so the simulated sweep and the planner's crossover can
be read side by side (their agreement is asserted in
``tests/test_hybrid.py``).
"""

from __future__ import annotations

from typing import Dict

from repro.core.results import RunResult
from repro.core.scenario import ScenarioSpec, get_scenario
from repro.core.study import Study, Sweep, register_study
from repro.experiments.base import ExperimentContext, ExperimentResult
from repro.serving.deployment import PlatformKind
from repro.serving.records import SERVED_BY_PROVISIONED, SERVED_BY_SPILL

EXPERIMENT_ID = "hybrid"
TITLE = "Hybrid spill economics: fleet size vs blended cost"

PROVIDER = "aws"
WORKLOAD = "w-storm"
REPLICATES = 5

#: Fleet sizes the sweep compares (the axis is a plain config knob).
FLEET_SIZES = (1, 2, 4, 8)

#: The spill policy every cell runs under: spill past 85 % slot
#: occupancy, in sticky 3 s windows so the storms spill contiguously.
HYBRID_CONFIG = {
    "hybrid_spill_watermark": 0.85,
    "hybrid_sticky_spill_s": 3.0,
}


def _prefixed_cost(result: RunResult, prefix: str) -> float:
    """Sum of one path's cost-breakdown entries in the merged usage."""
    return sum(value
               for key, value in result.usage.cost_breakdown.items()
               if key.startswith(prefix))


def hybrid_metrics(result: RunResult) -> Dict[str, object]:
    """Derived study metrics: spill ratio, per-path latency, cost split.

    Returns a mapping, so each reduction becomes its own frame column.
    ``spill_latency_s`` is NaN for a cell whose fleet never saturated
    (no request ever spilled).
    """
    table = result.table
    return {
        "spill_ratio": round(table.spill_ratio(), 4),
        "provisioned_latency_s": round(
            table.path_latency_mean(SERVED_BY_PROVISIONED), 4),
        "spill_latency_s": round(
            table.path_latency_mean(SERVED_BY_SPILL), 4),
        "blended_cost_usd": round(result.usage.cost, 6),
        "provisioned_cost_usd": round(
            _prefixed_cost(result, "provisioned."), 6),
        "spill_cost_usd": round(_prefixed_cost(result, "spill."), 6),
        "success_ratio": round(result.success_ratio, 4),
    }


STUDY = register_study(Study(
    name="hybrid-economics",
    title=TITLE,
    sweeps=(
        Sweep(
            name="hybrid-economics",
            base=ScenarioSpec(name="hybrid-economics", provider=PROVIDER,
                              model="mobilenet", workload=WORKLOAD,
                              platform=PlatformKind.HYBRID,
                              config=HYBRID_CONFIG),
            axes={"hybrid_provisioned_instances": FLEET_SIZES},
            replicates=REPLICATES,
        ),
    ),
    metrics={"hybrid": hybrid_metrics},
))


def run(context: ExperimentContext) -> ExperimentResult:
    """Run the fleet-size sweep and note the closed-form crossover."""
    if PROVIDER not in context.providers:
        return ExperimentResult(EXPERIMENT_ID, TITLE, [],
                                notes={"skipped": "aws not in providers"})
    frame = STUDY.run(context)
    summary = frame.replicate_summary()
    rows = [
        {"fleet": row["hybrid_provisioned_instances"],
         "spill_ratio": round(row["spill_ratio_mean"], 4),
         "provisioned_latency_s": round(row["provisioned_latency_s_mean"], 4),
         "spill_latency_s": round(row["spill_latency_s_mean"], 4),
         "blended_cost_usd": round(row["blended_cost_usd_mean"], 6),
         "cost_ci95": round(row["blended_cost_usd_ci95"], 6),
         "provisioned_cost_usd": round(row["provisioned_cost_usd_mean"], 6),
         "spill_cost_usd": round(row["spill_cost_usd_mean"], 6),
         "success_ratio": round(row["success_ratio_mean"], 4),
         "replicates": row["replicates"]}
        for row in summary.iter_rows()
    ]
    # The closed-form answer for the same (scaled) workload, so the
    # simulated sweep and the planner's crossover read side by side.
    from repro.tools.hybrid import HybridPlanner
    scenario = get_scenario("hybrid-burst")
    planner = HybridPlanner.from_scenario(scenario)
    plan = planner.plan_scenario(scenario, seed=context.seed,
                                 scale=context.scale)
    return ExperimentResult.from_frame(
        EXPERIMENT_ID, TITLE, frame, rows=rows,
        notes={"workload": WORKLOAD, "provider": PROVIDER,
               "scale": context.scale,
               "planner_servers": plan.servers,
               "planner_overflow_fraction": round(plan.overflow_fraction, 4),
               "planner_hybrid_cost_usd": round(plan.hybrid_cost, 6),
               "planner_best_strategy": plan.best_strategy()},
    )
