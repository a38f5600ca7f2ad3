"""Figure 8: serverless vs CPU server latency over time.

Two panels: ALBERT with w-120 on AWS and MobileNet with w-120 on GCP.
The CPU server's latency shoots up at the first demand surge and stays
high (its queue never fully drains), while serverless remains low after
the initial cold starts.
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

EXPERIMENT_ID = "fig08"
TITLE = "Serverless and CPU server comparison over time (Figure 8)"

PANELS = (
    ("aws", "albert", "w-120"),
    ("gcp", "mobilenet", "w-120"),
)
RUNTIME = "tf1.15"
BIN_S = 20.0

STUDY = register_study(Study(
    name="fig08",
    title=TITLE,
    sweeps=Sweep(
        name="fig08",
        base=ScenarioSpec(name="fig08", provider="aws", model="mobilenet",
                          runtime=RUNTIME),
        axes={
            "provider,model,workload": PANELS,
            "platform": (PlatformKind.SERVERLESS, PlatformKind.CPU_SERVER),
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
