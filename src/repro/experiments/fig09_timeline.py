"""Figure 9: serverless vs GPU server latency over time.

Two panels, both VGG on AWS: under w-40 the GPU server is consistently
faster (serverless pays cold starts early on); under w-200 the GPU
server's queue builds up during the demand surges and serverless — once
warm — delivers lower latency through most of the run.
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

EXPERIMENT_ID = "fig09"
TITLE = "Serverless and GPU server comparison over time (Figure 9)"

PANELS = (
    ("aws", "vgg", "w-40"),
    ("aws", "vgg", "w-200"),
)
RUNTIME = "tf1.15"
BIN_S = 20.0

STUDY = register_study(Study(
    name="fig09",
    title=TITLE,
    sweeps=Sweep(
        name="fig09",
        base=ScenarioSpec(name="fig09", provider="aws", model="vgg",
                          runtime=RUNTIME),
        axes={
            "provider,model,workload": PANELS,
            "platform": (PlatformKind.SERVERLESS, PlatformKind.GPU_SERVER),
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
