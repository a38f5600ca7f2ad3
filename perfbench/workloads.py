"""The benchmark's two workloads, driven through the public entry points.

Each workload splits into a ``setup`` step (everything a user pays
before the simulated requests start) and a ``run`` step, the timed
unit of work.  Every ``run`` builds a fresh ``ServingBenchmark`` (and,
for the study, a fresh ``ExperimentContext``), so no run cache or
workload cache carries over from one repetition to the next.  Simulated
clients replay seeded MMPP arrival traces open-loop in simulated time,
so the input of a workload is fixed by its seed and scale alone.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from repro import Planner, ServingBenchmark, standard_workload
from repro.core.scenario import get_scenario
from repro.core.study import get_study
from repro.experiments.base import ExperimentContext, load_registered_studies

#: Worker processes of the study workload: a fixed input size, not the
#: host's core count, so every host runs the same work.
STUDY_WORKERS = 2

#: The serverless cell every earlier profile used.
PROFILED_CELL = ("aws", "mobilenet", "tf1.15", "serverless")

#: Registered resilience scenarios.
RESILIENCE_SCENARIOS = ("failover-crash", "failover-outage", "hybrid-burst")


def cell_digest(result) -> str:
    """The output digest of one cell: column hash, or summary digest
    for streamed cells (which keep no per-request rows)."""
    if result.streaming:
        return result.table.digest()
    return result.table.column_hash()


class _Workload:
    """One benchmark input: ``setup`` once, then ``run`` repeatedly."""

    #: Worker processes ``run`` fans cells out over.
    workers = 1

    def run_serial(self, prepared):
        """The run in one process (what the cProfile pass profiles)."""
        return self.run(prepared)

    def generation_s(self, prepared) -> Optional[float]:
        """Time of the generation ``run`` does, measured apart from it
        (None: there is none; generation in ``setup`` is traced)."""
        return None


class ProfiledCell(_Workload):
    """One standard workload on the profiled serverless cell, serially."""

    def __init__(self, name: str, workload: str, base_scale: float,
                 chunk_rows: Optional[int] = None):
        self.name = name
        self.workload = workload
        self.base_scale = base_scale
        #: Streaming chunk size (None: the benchmark's default).
        self.chunk_rows = chunk_rows

    def setup(self, seed: int, scale: float) -> Dict[str, object]:
        load_registered_studies()
        return {"seed": seed, "scale": scale,
                "deployment": Planner().plan(*PROFILED_CELL),
                "workload": standard_workload(self.workload, seed=seed,
                                              scale=scale)}

    def run(self, prepared) -> List[Tuple[str, object]]:
        options = ({} if self.chunk_rows is None
                   else {"chunk_rows": self.chunk_rows})
        result = ServingBenchmark(seed=prepared["seed"], **options).run(
            prepared["deployment"], prepared["workload"],
            workload_scale=prepared["scale"])
        return [("/".join((*PROFILED_CELL, self.workload)), result)]

    def generation_s(self, prepared) -> Optional[float]:
        """A streamed workload generates its arrivals inside ``run``;
        time that alone by draining one fresh session."""
        workload = prepared["workload"]
        if not getattr(workload, "streamed", False):
            return None
        start = time.perf_counter()
        session = workload.open()
        for trace in session.client_traces:
            for _arrival in trace:
                pass
        return time.perf_counter() - start


class StudyFig05(_Workload):
    """The registered ``fig05`` study (AWS half) through ``Study.run``."""

    name = "study-fig05"
    #: 0.25 keeps the w-200 cells near or above the 1 MB shared-memory
    #: threshold, so both transport paths carry cells.
    base_scale = 0.25
    workers = STUDY_WORKERS

    def setup(self, seed: int, scale: float) -> Dict[str, object]:
        load_registered_studies()
        return {"seed": seed, "scale": scale, "study": get_study("fig05")}

    def run(self, prepared, workers: int = STUDY_WORKERS):
        # A fresh context: no run or workload cache from earlier runs.
        context = ExperimentContext(seed=prepared["seed"],
                                    scale=prepared["scale"],
                                    providers=("aws",), workers=workers)
        frame = prepared["study"].run(context)
        # Cache lookups: Study.run already simulated every cell.
        return [(spec.cell_key, context.run_scenario(spec))
                for spec in frame.specs]

    def run_serial(self, prepared):
        return self.run(prepared, workers=1)


class Resilience(_Workload):
    """Registered failover and hybrid scenarios, shortened, serially.

    Retries send every request through the executor's wrapper-process
    path; the scenarios also run the fault injector, the router and the
    hybrid spill path, with real simulated failures.
    """

    name = "resilience"
    #: At 0.3 of full length the scenarios still hedge, run into the
    #: outage (success ratio about 0.5 on failover-outage) and spill
    #: about 90% of the burst, and many timed runs fit into one run.
    base_scale = 0.3

    def setup(self, seed: int, scale: float) -> Dict[str, object]:
        load_registered_studies()
        planner = Planner()
        cells = []
        for name in RESILIENCE_SCENARIOS:
            spec = get_scenario(name)
            cells.append((name, spec.deployment(planner),
                          spec.build_workload(seed=seed, scale=scale),
                          spec.seed))
        return {"seed": seed, "scale": scale, "cells": cells}

    def run(self, prepared) -> List[Tuple[str, object]]:
        bench = ServingBenchmark(seed=prepared["seed"])
        return [(name, bench.run(deployment, workload,
                                 workload_scale=prepared["scale"],
                                 seed=cell_seed))
                for name, deployment, workload, cell_seed
                in prepared["cells"]]


class SerialCells(_Workload):
    """Several serial workloads run one after another as one workload.

    On a shared 2-vCPU VM the host's speed drifts by a quarter or more
    from one minute to the next, so separate short workloads cannot be
    told apart from that drift; one longer run over all of them can.
    Each part keeps its own scale; cell keys are prefixed with the
    part's name.
    """

    name = "serial-cells"
    base_scale = 1.0

    def __init__(self, parts):
        self.parts = parts

    def setup(self, seed: int, scale: float):
        return [(part, part.setup(seed, part.base_scale * scale))
                for part in self.parts]

    def run(self, prepared) -> List[Tuple[str, object]]:
        return [(f"{part.name}/{key}", result)
                for part, part_prepared in prepared
                for key, result in part.run(part_prepared)]

    def generation_s(self, prepared) -> Optional[float]:
        times = [part.generation_s(part_prepared)
                 for part, part_prepared in prepared]
        return sum(time_s for time_s in times if time_s is not None)


WORKLOADS = {workload.name: workload for workload in (
    StudyFig05(),
    SerialCells((
        # The w-200 cell every earlier profile used, at a quarter of its
        # 86 000 requests: the per-request hot path alone.
        ProfiledCell("cell-w200", "w-200", 0.25),
        # The streamed w-1m trace compressed to 30 000 requests:
        # arrivals are generated block by block inside the run, and
        # outcomes fold through the chunk ring into a summary and a
        # latency sketch instead of one preallocated table.  4096-row
        # chunks keep several chunks in the ring at this length.
        ProfiledCell("stream-w1m", "w-1m", 0.03, chunk_rows=4096),
        Resilience(),
    )),
)}
