"""Failover recovery: does a multi-region front door actually help?

Not a paper figure — a robustness study over the reproduced platforms.
The managed ML endpoint faces the chaos-outage fault schedule (a
full-fleet failure-domain outage 40 s into the run) twice per replicate:
once as a plain single-region deployment, and once behind the
two-region routing front door (priority routing, circuit breakers with
a 5-failure trip and 10 s cooldown, 30 ms inter-region latency), at K=5
seeded replicates each.

Because correlated fault schedules strike region 0 only (see
``repro.platforms.routing``), the second region stays healthy through
the outage: breakers trip on the dead region and priority routing fails
over, so the availability timeline should barely dip and
time-to-recover should collapse from "autoscaler relaunch" to "breaker
trip latency".  The frame reports the SLO reductions plus the router's
extended-ledger rates (hedge rate, degraded ratio) and the client-side
retry pressure (mean attempts per request) with 95 % confidence
intervals.
"""

from __future__ import annotations

from typing import Dict

from repro.core.results import RunResult
from repro.core.scenario import ScenarioSpec
from repro.core.study import Study, Sweep, register_study
from repro.experiments.base import ExperimentContext, ExperimentResult
from repro.serving.deployment import PlatformKind

EXPERIMENT_ID = "failover"
TITLE = "Multi-region failover under an injected outage"

PROVIDER = "aws"
WORKLOAD = "w-40"
REPLICATES = 5

#: Latency target for the SLO-attainment reduction.
SLO_TARGET_S = 5.0
#: Bin width for the availability / recovery timeline.
AVAILABILITY_BIN_S = 5.0
#: The shared fault schedule: a full-fleet outage 40 s in, 30 s long.
OUTAGE_START_S = 40.0
OUTAGE_DURATION_S = 30.0
OUTAGE_END_S = OUTAGE_START_S + OUTAGE_DURATION_S

#: The chaos + resilience config both cells run under.  The routing
#: knobs are inert in the single-region cell (``build_platform`` only
#: installs the front door at ``region_count >= 2``), so the baseline
#: is exactly the chaos-outage deployment.
FAILOVER_CONFIG = {
    "outage_start_s": OUTAGE_START_S,
    "outage_duration_s": OUTAGE_DURATION_S,
    "outage_fraction": 1.0,
    "shed_watermark": 1,
    "retry_attempts": 3,
    "retry_base_delay_s": 0.1,
    "request_timeout_s": 30.0,
    "region_latency_s": (0.0, 0.03),
    "routing_policy": "priority",
    "breaker_failure_threshold": 5,
    "breaker_cooldown_s": 10.0,
}


def failover_metrics(result: RunResult) -> Dict[str, object]:
    """Derived study metrics: SLO reductions plus router-ledger rates.

    Returns a mapping, so each reduction becomes its own frame column.
    ``time_to_recover_s`` is measured from the end of the injected
    outage window and is NaN when the cell never recovers;
    ``hedge_rate`` and ``degraded_ratio`` are 0 for the single-region
    baseline, whose plain meter records neither.
    """
    table = result.table
    notes = result.usage.notes
    submitted = float(notes.get("submitted", 0.0))
    hedges = float(notes.get("hedges", 0.0))
    return {
        "slo_attainment": round(table.slo_attainment(SLO_TARGET_S), 4),
        "availability": round(table.availability(
            bin_s=AVAILABILITY_BIN_S), 4),
        "time_to_recover_s": table.time_to_recover(
            OUTAGE_END_S, bin_s=AVAILABILITY_BIN_S),
        "hedge_rate": round(hedges / submitted, 4) if submitted else 0.0,
        "degraded_ratio": round(table.degraded_ratio(), 4),
        "attempts_mean": round(table.attempts_mean(), 3),
    }


STUDY = register_study(Study(
    name="failover-recovery",
    title=TITLE,
    sweeps=(
        Sweep(
            name="failover-recovery",
            base=ScenarioSpec(name="failover-recovery", provider=PROVIDER,
                              model="mobilenet", workload=WORKLOAD,
                              platform=PlatformKind.MANAGED_ML,
                              config=FAILOVER_CONFIG),
            axes={"region_count": (1, 2)},
            replicates=REPLICATES,
        ),
    ),
    metrics={"failover": failover_metrics},
    reads=(("slo", SLO_TARGET_S), ("timeline", AVAILABILITY_BIN_S)),
))


def run(context: ExperimentContext) -> ExperimentResult:
    """Run the failover study and summarise replicates with error bars."""
    if PROVIDER not in context.providers:
        return ExperimentResult(EXPERIMENT_ID, TITLE, [],
                                notes={"skipped": "aws not in providers"})
    frame = STUDY.run(context)
    summary = frame.replicate_summary()
    rows = [
        {"region_count": row["region_count"],
         "slo_attainment": round(row["slo_attainment_mean"], 4),
         "availability": round(row["availability_mean"], 4),
         "availability_ci95": round(row["availability_ci95"], 4),
         "time_to_recover_s": round(row["time_to_recover_s_mean"], 2),
         "ttr_ci95": round(row["time_to_recover_s_ci95"], 2),
         "hedge_rate": round(row["hedge_rate_mean"], 4),
         "degraded_ratio": round(row["degraded_ratio_mean"], 4),
         "attempts_mean": round(row["attempts_mean_mean"], 3),
         "replicates": row["replicates"]}
        for row in summary.iter_rows()
    ]
    return ExperimentResult.from_frame(
        EXPERIMENT_ID, TITLE, frame, rows=rows,
        notes={"workload": WORKLOAD, "provider": PROVIDER,
               "slo_target_s": SLO_TARGET_S,
               "outage": f"{OUTAGE_START_S:.0f}s+{OUTAGE_DURATION_S:.0f}s",
               "scale": context.scale},
    )
