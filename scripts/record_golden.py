#!/usr/bin/env python
"""Record golden outcome-column hashes for the equivalence tests.

Runs a fixed set of (deployment, workload) cells chosen to exercise every
platform mechanism — serverless cold starts and provisioned concurrency,
VM and managed autoscaling scale-out (including the bring-up delay
draws), rejection and timeout paths — and records each cell's
SHA-256 outcome-column hash plus headline usage counters into
``tests/data/golden_hashes.json``.

More groups pin the subsystems the base cells never reach:

* ``scenarios`` — every registered scenario (fault injection and its
  interrupt path, the multi-region router, hybrid spill, scale-in,
  provisioned instances, storms) at ``SCENARIO_SCALE``, pinned by
  column hash, cost, and ``events_processed``;
* ``keep_alive`` — serverless cells whose keep-alives expire: no
  registered run idles an instance past the providers' 600 s
  keep-alive, so these cut it to ``KEEP_ALIVE_S`` on ``w-storm``,
  alone, with provisioned instances (which re-park when theirs
  expires), with crashes (which kill idle instances), and with all
  of these plus a cold-start storm; pinned by column hash, cost,
  instances created, and ``events_processed``;
* ``streamed`` — one streamed ``w-1m`` cell through the chunk ring,
  pinned by :meth:`~repro.serving.streaming.OutcomeSummary.digest`;
* ``frames`` — the study frames that read every summary reduction (the
  headline grid, both stage-breakdown figures, batched runs whose
  request ids skip the batch carriers' ids, the SLO / availability /
  recovery and hybrid-path columns), each pinned by a SHA-256 over its
  unrounded ``to_rows()`` (see :func:`frame_digest`);
* ``series`` — the latency timelines of the timeline figures (6, 8, 9),
  each study's named series pinned by a SHA-256 over ``frame.series``
  (see :func:`series_digest`);
* ``fidelity`` — one short-horizon ``with_fidelity`` cell, pinned by
  column hash and cost.

``tests/test_control_plane.py`` asserts the current code reproduces
these pins bit-for-bit.  The file is only regenerated deliberately,
when a PR *intends* to change simulation behaviour::

    PYTHONPATH=src python scripts/record_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.api import run  # noqa: E402
from repro.cloud.providers import get_provider  # noqa: E402
from repro.core.benchmark import ServingBenchmark  # noqa: E402
from repro.core.planner import Planner  # noqa: E402
from repro.core.scenario import ScenarioSpec, list_scenarios  # noqa: E402
from repro.core.study import get_study  # noqa: E402
from repro.experiments.base import (  # noqa: E402
    ExperimentContext,
    load_registered_studies,
)
from repro.workload.generator import standard_workload  # noqa: E402

OUTPUT = os.path.join(ROOT, "tests", "data", "golden_hashes.json")

SEED = 5

#: (workload name, compression scale) pairs used by the golden cells.
WORKLOADS = {
    "w-40x0.05": ("w-40", 0.05),
    "w-120x0.03": ("w-120", 0.03),
    "w-120x0.12": ("w-120", 0.12),
    "w-120x0.4": ("w-120", 0.4),
}

#: (provider, model, runtime, platform, workload key, config overrides).
CELLS = [
    # Serverless: cold starts, GCP overprovisioning, memory/batch knobs,
    # provisioned concurrency.
    ("aws", "mobilenet", "tf1.15", "serverless", "w-40x0.05", {}),
    ("gcp", "mobilenet", "tf1.15", "serverless", "w-40x0.05", {}),
    ("aws", "vgg", "ort1.4", "serverless", "w-40x0.05",
     {"memory_gb": 4.0, "batch_size": 2}),
    ("aws", "mobilenet", "tf1.15", "serverless", "w-40x0.05",
     {"provisioned_concurrency": 4}),
    # Fixed-fleet servers (CPU / GPU) and the managed endpoint.
    ("aws", "mobilenet", "tf1.15", "cpu_server", "w-40x0.05", {}),
    ("aws", "mobilenet", "tf1.15", "gpu_server", "w-40x0.05", {}),
    ("aws", "mobilenet", "tf1.15", "managed_ml", "w-40x0.05", {}),
    # Overload: rejections and queue timeouts.
    ("aws", "albert", "tf1.15", "managed_ml", "w-120x0.03", {}),
    ("aws", "albert", "tf1.15", "managed_ml", "w-120x0.12", {}),
    ("gcp", "mobilenet", "tf1.15", "managed_ml", "w-120x0.12", {}),
    # Autoscaling scale-out actually fires (bring-up delay draws).
    ("aws", "mobilenet", "tf1.15", "cpu_server", "w-120x0.12",
     {"autoscaling": True, "max_instances": 5}),
    ("aws", "vgg", "tf1.15", "cpu_server", "w-120x0.12",
     {"autoscaling": True, "max_instances": 6, "workers_per_instance": 4}),
    ("aws", "mobilenet", "tf1.15", "cpu_server", "w-120x0.03",
     {"autoscaling": True, "max_instances": 4}),
    ("gcp", "albert", "tf1.15", "managed_ml", "w-120x0.4", {}),
]


#: Workload compression of the registered-scenario cells: long enough
#: that the fault schedules (first ~100 simulated seconds) land inside
#: every scenario's trace, short enough to keep the pins a few seconds.
SCENARIO_SCALE = 0.2

#: The streamed cell: (provider, model, runtime, platform), workload,
#: scale, and chunk rows (small chunks, so several fold through the ring).
STREAMED_CELL = (("aws", "mobilenet", "tf1.15", "serverless"), "w-1m",
                 0.01, 4096)


#: Study frames pinned by row digest, each at its own context scale:
#: small enough to keep all of them a few seconds together; the
#: failover study runs longer so its two-region rows recover inside
#: the trace (a finite ``time_to_recover_s``).  AWS only, serial.
FRAMES = {
    "fig05": 0.02,
    "fig10": 0.03,
    "fig14": 0.03,
    "fig17": 0.02,
    "chaos-recovery": 0.1,
    "failover-recovery": 0.1,
    "hybrid-economics": 0.02,
}

#: Study series pinned by :func:`series_digest`, each at its own context
#: scale, over both providers (the timeline figures' panels span them),
#: serial.
SERIES = {
    "fig06": 0.1,
    "fig08": 0.1,
    "fig09": 0.1,
}

#: The keep-alive cells: aws/mobilenet/tf1.15 serverless on
#: ``KEEP_ALIVE_WORKLOAD`` at ``KEEP_ALIVE_SCALE``, with the provider's
#: keep-alive cut to ``KEEP_ALIVE_S`` (1,209-1,515 expiries per cell),
#: under each of these config overrides.
KEEP_ALIVE_S = 5.0
KEEP_ALIVE_WORKLOAD = "w-storm"
KEEP_ALIVE_SCALE = 0.1
KEEP_ALIVE_CELLS = [
    {},
    {"provisioned_concurrency": 3},
    {"crash_mtbf_s": 20.0},
    {"provisioned_concurrency": 2, "crash_mtbf_s": 30.0,
     "storm_times_s": (15.0,)},
]


#: The short-horizon cell: a spec, its fidelity, and the context scale
#: the fidelity multiplies into.
FIDELITY_CELL = (ScenarioSpec(name="", provider="aws", model="mobilenet",
                              runtime="tf1.15", platform="serverless",
                              workload="w-120"), 0.25, 0.2)


def frame_digest(frame) -> str:
    """SHA-256 over a frame's unrounded rows (JSON, sorted keys)."""
    text = json.dumps(frame.to_rows(), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def series_digest(frame) -> str:
    """SHA-256 over a frame's named series (JSON, sorted keys)."""
    text = json.dumps(frame.series, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cell_key(provider, model, runtime, platform, workload_key, overrides):
    key = f"{provider}/{model}/{runtime}/{platform}/{workload_key}"
    if overrides:
        key += "/" + ",".join(f"{k}={v}" for k, v in sorted(overrides.items()))
    return key


def record(path: str = OUTPUT) -> dict:
    planner = Planner()
    workloads = {key: standard_workload(name, seed=SEED, scale=scale)
                 for key, (name, scale) in WORKLOADS.items()}
    cells = {}
    for provider, model, runtime, platform, wkey, overrides in CELLS:
        deployment = planner.plan(provider, model, runtime, platform,
                                  **overrides)
        result = ServingBenchmark(seed=SEED).run(deployment, workloads[wkey])
        cells[cell_key(provider, model, runtime, platform, wkey,
                       overrides)] = {
            "column_hash": result.table.column_hash(),
            "requests": result.total_requests,
            "cost": result.cost,
            "cold_starts": result.usage.cold_starts,
            "instances_created": result.usage.instances_created,
            "peak_instances": result.usage.peak_instances,
        }
    payload = {
        "seed": SEED,
        "workloads": {key: {"name": name, "scale": scale}
                      for key, (name, scale) in WORKLOADS.items()},
        "cells": cells,
        "scenario_scale": SCENARIO_SCALE,
        "scenarios": record_scenarios(),
        "streamed": record_streamed(planner),
        "keep_alive": record_keep_alive(planner),
        "frames": record_frames(),
        "series": record_series(),
        "fidelity": record_fidelity(),
    }
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return payload


def _pin(digest: str, result) -> dict:
    return {
        "digest": digest,
        "requests": result.total_requests,
        "cost": result.cost,
        "events_processed": result.metadata["events_processed"],
    }


def record_scenarios() -> dict:
    """Pin every registered scenario at ``SCENARIO_SCALE``."""
    pins = {}
    for name in list_scenarios():
        result = run(name, seed=SEED, scale=SCENARIO_SCALE)
        pins[name] = _pin(result.table.column_hash(), result)
    return pins


def record_streamed(planner: Planner) -> dict:
    """Pin the streamed cell by its outcome-summary digest."""
    cell, workload_name, scale, chunk_rows = STREAMED_CELL
    result = ServingBenchmark(seed=SEED, chunk_rows=chunk_rows).run(
        planner.plan(*cell), standard_workload(workload_name, seed=SEED,
                                               scale=scale),
        workload_scale=scale)
    pin = _pin(result.table.digest(), result)
    pin.update(scale=scale, chunk_rows=chunk_rows)
    return {"/".join((*cell, workload_name)): pin}


def record_keep_alive(planner: Planner) -> dict:
    """Pin the :data:`KEEP_ALIVE_CELLS`; each entry carries its overrides
    (tuples as JSON lists) so the test can rebuild the cell."""
    provider = get_provider("aws").with_serverless(keep_alive_s=KEEP_ALIVE_S)
    workload = standard_workload(KEEP_ALIVE_WORKLOAD, seed=SEED,
                                 scale=KEEP_ALIVE_SCALE)
    pins = {}
    for overrides in KEEP_ALIVE_CELLS:
        deployment = planner.plan(provider, "mobilenet", "tf1.15",
                                  "serverless", **overrides)
        result = ServingBenchmark(seed=SEED).run(deployment, workload)
        key = cell_key("aws", "mobilenet", "tf1.15", "serverless",
                       f"{KEEP_ALIVE_WORKLOAD}x{KEEP_ALIVE_SCALE}",
                       dict(overrides, keep_alive_s=KEEP_ALIVE_S))
        pins[key] = {
            "column_hash": result.table.column_hash(),
            "requests": result.total_requests,
            "cost": result.cost,
            "instances_created": result.usage.instances_created,
            "events_processed": result.metadata["events_processed"],
            "keep_alive_s": KEEP_ALIVE_S,
            "workload": KEEP_ALIVE_WORKLOAD,
            "scale": KEEP_ALIVE_SCALE,
            "overrides": {name: list(value) if isinstance(value, tuple)
                          else value for name, value in overrides.items()},
        }
    return pins


def record_frames() -> dict:
    """Pin every frame of :data:`FRAMES` by :func:`frame_digest`."""
    load_registered_studies()
    pins = {}
    for name, scale in FRAMES.items():
        context = ExperimentContext(seed=SEED, scale=scale,
                                    providers=("aws",), workers=0)
        frame = get_study(name).run(context)
        pins[name] = {"digest": frame_digest(frame), "rows": len(frame),
                      "scale": scale}
    return pins


def record_series() -> dict:
    """Pin every study of :data:`SERIES` by :func:`series_digest`."""
    load_registered_studies()
    pins = {}
    for name, scale in SERIES.items():
        context = ExperimentContext(seed=SEED, scale=scale,
                                    providers=("aws", "gcp"), workers=0)
        frame = get_study(name).run(context)
        pins[name] = {"digest": series_digest(frame),
                      "series": len(frame.series), "scale": scale}
    return pins


def record_fidelity() -> dict:
    """Pin the short-horizon cell by column hash and cost."""
    base, fidelity, scale = FIDELITY_CELL
    spec = base.with_fidelity(fidelity)
    result = ExperimentContext(seed=SEED, scale=scale,
                               providers=("aws",)).run_scenario(spec)
    return {spec.cell_key: {"column_hash": result.table.column_hash(),
                            "requests": result.total_requests,
                            "cost": result.cost, "scale": scale}}


if __name__ == "__main__":
    payload = record()
    for group in ("cells", "scenarios", "streamed", "keep_alive", "frames",
                  "series", "fidelity"):
        for key, entry in payload[group].items():
            digest = entry.get("column_hash", entry.get("digest"))
            print(f"{digest[:16]}  {key}")
    print(f"wrote {OUTPUT} ({len(payload['cells'])} cells, "
          f"{len(payload['scenarios'])} scenarios, "
          f"{len(payload['streamed'])} streamed, "
          f"{len(payload['keep_alive'])} keep-alive, "
          f"{len(payload['frames'])} frames, "
          f"{len(payload['series'])} series, "
          f"{len(payload['fidelity'])} fidelity)")
