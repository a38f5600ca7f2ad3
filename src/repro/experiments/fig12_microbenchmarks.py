"""Figure 12: in-depth micro-benchmarks of the serverless platforms.

Four sweeps, all under w-120 with TensorFlow 1.15:

* **12a** — inflate the container image by 0 / 0.5 / 1.0 / 1.5 GB and
  measure the cold-start end-to-end latency (it barely changes, because
  images are normally cached on the host).
* **12b** — download 0 / 100 / 200 / 300 MB of extra data at cold start
  (latency grows, much faster on GCP whose storage bandwidth is lower).
* **12c** — pack 1 / 2 / 4 / 8 samples into each request but predict only
  one (warm end-to-end latency grows only slightly).
* **12d** — run 1 / 2 / 4 / 8 inferences per request (latency grows
  roughly linearly; predict time dominates).
"""

from __future__ import annotations

from repro.core.analyzer import Analyzer
from repro.core.scenario import ScenarioSpec
from repro.core.study import Study, Sweep, register_study
from repro.experiments.base import ExperimentContext, ExperimentResult
from repro.serving.deployment import PlatformKind

EXPERIMENT_ID = "fig12"
TITLE = "In-depth serverless analysis with w-120 (Figure 12)"

WORKLOAD = "w-120"
RUNTIME = "tf1.15"

CONTAINER_EXTRA_MB = (0.0, 512.0, 1024.0, 1536.0)
DOWNLOAD_EXTRA_MB = (0.0, 100.0, 200.0, 300.0)
SAMPLES_PER_REQUEST = (1, 2, 4, 8)
INFERENCES_PER_REQUEST = (1, 2, 4, 8)

PANEL_MODELS = {
    "12a-container-size": ("mobilenet", "vgg"),
    "12b-download-size": ("mobilenet", "albert"),
    "12c-input-samples": ("mobilenet", "vgg"),
    "12d-inferences": ("mobilenet", "vgg"),
}

#: (panel, swept knob, values, picked metric column, metric label)
PANEL_SWEEPS = (
    ("12a-container-size", "extra_container_mb", CONTAINER_EXTRA_MB,
     "cold_e2e_s", "cold-start E2E"),
    ("12b-download-size", "extra_download_mb", DOWNLOAD_EXTRA_MB,
     "cold_e2e_s", "cold-start E2E"),
    ("12c-input-samples", "samples_per_request", SAMPLES_PER_REQUEST,
     "warm_e2e_s", "warm E2E"),
    ("12d-inferences", "inferences_per_request", INFERENCES_PER_REQUEST,
     "avg_latency_s", "overall latency"),
)


def _cold_e2e(result) -> float:
    return Analyzer().coldstart_breakdown(result).cold_e2e


def _warm_e2e(result) -> float:
    return Analyzer().coldstart_breakdown(result).warm_e2e


def _base_spec() -> ScenarioSpec:
    return ScenarioSpec(name="fig12", provider="aws", model="mobilenet",
                        runtime=RUNTIME, platform=PlatformKind.SERVERLESS,
                        workload=WORKLOAD)


STUDY = register_study(Study(
    name="fig12",
    title=TITLE,
    sweeps=tuple(
        Sweep(
            name=f"fig12/{panel}",
            base=_base_spec(),
            axes={
                "provider": ("aws", "gcp"),
                "model": PANEL_MODELS[panel],
                knob: values,
            },
            constants={"panel": panel},
        )
        for panel, knob, values, _metric, _label in PANEL_SWEEPS
    ),
    metrics={"cold_e2e_s": _cold_e2e, "warm_e2e_s": _warm_e2e},
))


def run(context: ExperimentContext) -> ExperimentResult:
    """Run the four micro-benchmark sweeps."""
    frame = STUDY.run(context)
    value_formats = {
        "12a-container-size": lambda v: f"base+{int(v)}MB",
        "12b-download-size": lambda v: f"base+{int(v)}MB",
    }
    picked = {panel: (knob, metric, label)
              for panel, knob, _values, metric, label in PANEL_SWEEPS}
    rows = []
    for row in frame.iter_rows():
        panel = row["panel"]
        knob, metric, label = picked[panel]
        value = row[knob]
        fmt = value_formats.get(panel)
        rows.append({
            "panel": panel, "provider": row["provider"],
            "model": row["model"],
            "value": fmt(value) if fmt else value,
            "metric_s": round(row[metric], 3),
            "metric": label,
        })
    return ExperimentResult.from_frame(
        EXPERIMENT_ID, TITLE, frame, rows=rows,
        notes={"workload": WORKLOAD, "runtime": RUNTIME,
               "scale": context.scale},
    )
