"""Figure 6: serverless vs ManagedML latency over time.

Two panels: MobileNet with w-40 on AWS and ALBERT with w-40 on GCP.
For each system the experiment reports a per-time-bin average latency and
success ratio, showing the managed service falling behind once the first
demand surge arrives while serverless stays flat after warming up.
"""

from __future__ import annotations

from repro.core.scenario import ScenarioSpec
from repro.core.study import Study, Sweep, register_study
from repro.experiments.base import (
    ExperimentContext,
    ExperimentResult,
    latency_series,
    panel_rows,
)
from repro.serving.deployment import PlatformKind

EXPERIMENT_ID = "fig06"
TITLE = "Serverless and ManagedML comparison over time (Figure 6)"

PANELS = (
    ("aws", "mobilenet", "w-40"),
    ("gcp", "albert", "w-40"),
)
RUNTIME = "tf1.15"
BIN_S = 20.0

STUDY = register_study(Study(
    name="fig06",
    title=TITLE,
    sweeps=Sweep(
        name="fig06",
        base=ScenarioSpec(name="fig06", provider="aws", model="mobilenet",
                          runtime=RUNTIME),
        axes={
            "provider,model,workload": PANELS,
            "platform": (PlatformKind.SERVERLESS, PlatformKind.MANAGED_ML),
        },
    ),
    series={"{model}-{workload}-{provider}/{platform}":
            latency_series(BIN_S)},
    reads=(("timeline", BIN_S),),
))


def run(context: ExperimentContext) -> ExperimentResult:
    """Produce the two latency-over-time panels."""
    frame = STUDY.run(context)
    return ExperimentResult.from_frame(
        EXPERIMENT_ID, TITLE, frame, rows=panel_rows(frame),
        notes={"bin_s": BIN_S, "scale": context.scale},
    )
