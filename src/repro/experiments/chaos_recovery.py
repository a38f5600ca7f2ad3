"""Chaos recovery: SLO attainment under identical fault schedules.

Not a paper figure — a robustness study over the reproduced platforms.
Serverless, the managed ML endpoint, and an autoscaled VM group face the
*same* declarative fault schedule (a full-fleet outage 40 s into the
run) with the same client-side resilience policy (3 retry attempts with
jittered exponential backoff under a 30 s per-request budget), at K=5
seeded replicates each.  The frame reports the three SLO reductions
every outcome backend answers — SLO attainment, availability,
time-to-recover — with 95 % confidence intervals.

The interesting contrast: serverless "recovers" by cold-starting fresh
sandboxes on demand (recovery time is a cold start), while the endpoint
families wait on the autoscaler to notice the dead fleet and relaunch
toward ``min_instances`` (recovery time is an evaluation period plus a
bring-up delay).
"""

from __future__ import annotations

from typing import Dict

from repro.core.results import RunResult
from repro.core.scenario import ScenarioSpec
from repro.core.study import Study, Sweep, register_study
from repro.experiments.base import ExperimentContext, ExperimentResult
from repro.serving.deployment import PlatformKind

EXPERIMENT_ID = "chaos"
TITLE = "SLO attainment and recovery under an injected outage"

PROVIDER = "aws"
WORKLOAD = "w-40"
PLATFORMS = (PlatformKind.SERVERLESS, PlatformKind.MANAGED_ML,
             PlatformKind.CPU_SERVER)
REPLICATES = 5

#: Latency target for the SLO-attainment reduction.
SLO_TARGET_S = 5.0
#: Bin width for the availability / recovery timeline.
AVAILABILITY_BIN_S = 5.0
#: The shared fault schedule: a full-fleet outage 40 s in, 30 s long.
OUTAGE_START_S = 40.0
OUTAGE_DURATION_S = 30.0
OUTAGE_END_S = OUTAGE_START_S + OUTAGE_DURATION_S

#: The identical chaos + resilience config every platform cell runs
#: under.  ``autoscaling`` is forced on so the VM group can relaunch
#: after the outage (the planner's default VM is a single static
#: instance, which would simply never recover); the serverless platform
#: ignores the knob.
CHAOS_CONFIG = {
    "outage_start_s": OUTAGE_START_S,
    "outage_duration_s": OUTAGE_DURATION_S,
    "outage_fraction": 1.0,
    "retry_attempts": 3,
    "retry_base_delay_s": 0.1,
    "retry_max_delay_s": 2.0,
    "request_timeout_s": 30.0,
    "autoscaling": True,
}


def slo_metrics(result: RunResult) -> Dict[str, object]:
    """Derived study metrics: the chaos-study SLO reductions.

    Returns a mapping, so each reduction becomes its own frame column;
    ``time_to_recover_s`` is measured from the end of the injected
    outage window and is NaN when the cell never recovers.
    """
    table = result.table
    return {
        "slo_attainment": round(table.slo_attainment(SLO_TARGET_S), 4),
        "availability": round(table.availability(
            bin_s=AVAILABILITY_BIN_S), 4),
        "time_to_recover_s": table.time_to_recover(
            OUTAGE_END_S, bin_s=AVAILABILITY_BIN_S),
    }


STUDY = register_study(Study(
    name="chaos-recovery",
    title=TITLE,
    sweeps=(
        Sweep(
            name="chaos-recovery",
            base=ScenarioSpec(name="chaos-recovery", provider=PROVIDER,
                              model="mobilenet", workload=WORKLOAD,
                              config=CHAOS_CONFIG),
            axes={"platform": PLATFORMS},
            replicates=REPLICATES,
        ),
    ),
    metrics={"slo": slo_metrics},
    reads=(("slo", SLO_TARGET_S), ("timeline", AVAILABILITY_BIN_S)),
))


def run(context: ExperimentContext) -> ExperimentResult:
    """Run the chaos study and summarise replicates with error bars."""
    if PROVIDER not in context.providers:
        return ExperimentResult(EXPERIMENT_ID, TITLE, [],
                                notes={"skipped": "aws not in providers"})
    frame = STUDY.run(context)
    summary = frame.replicate_summary()
    rows = [
        {"platform": row["platform"],
         "slo_attainment": round(row["slo_attainment_mean"], 4),
         "slo_ci95": round(row["slo_attainment_ci95"], 4),
         "availability": round(row["availability_mean"], 4),
         "availability_ci95": round(row["availability_ci95"], 4),
         "time_to_recover_s": round(row["time_to_recover_s_mean"], 2),
         "ttr_ci95": round(row["time_to_recover_s_ci95"], 2),
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
