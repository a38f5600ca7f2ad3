"""Shared infrastructure for the experiment modules.

Since the study-layer redesign each experiment module is a
:class:`~repro.core.study.Study` declaration (registered by name for the
CLI's ``sweep`` subcommand) plus a thin presentation shim that turns the
study's :class:`~repro.core.study.ResultFrame` into the
:class:`ExperimentResult` rows the paper's figures use.  This module
carries the shared run cache (:class:`ExperimentContext`), the
presentation container, and the per-cell series builders the timeline
figures share.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.analyzer import Analyzer
from repro.core.benchmark import ServingBenchmark
from repro.core.parallel import Cell, run_cells
from repro.core.planner import Planner
from repro.core.results import RunResult
from repro.core.scenario import ScenarioSpec, get_scenario
from repro.core.study import ResultFrame, format_table
from repro.workload.generator import Workload, standard_workload

__all__ = [
    "ExperimentContext",
    "ExperimentResult",
    "list_experiments",
    "run_experiment",
    "format_table",
    "breakdown_metrics",
    "latency_series",
    "instance_series",
    "panel_rows",
]

#: Registry of experiment ids to the module implementing them.
EXPERIMENTS: Dict[str, str] = {
    "fig04": "repro.experiments.fig04_workloads",
    "fig05": "repro.experiments.fig05_system_comparison",
    "table1": "repro.experiments.table1_costs",
    "fig06": "repro.experiments.fig06_timeline",
    "fig07": "repro.experiments.fig07_managed_instances",
    "fig08": "repro.experiments.fig08_timeline",
    "fig09": "repro.experiments.fig09_timeline",
    "fig10": "repro.experiments.fig10_breakdown",
    "fig11": "repro.experiments.fig11_serverless_instances",
    "fig12": "repro.experiments.fig12_microbenchmarks",
    "fig13": "repro.experiments.fig13_runtime_comparison",
    "fig14": "repro.experiments.fig14_runtime_breakdown",
    "table2": "repro.experiments.table2_ort_costs",
    "fig15": "repro.experiments.fig15_memory_size",
    "fig16": "repro.experiments.fig16_provisioned_concurrency",
    "fig17": "repro.experiments.fig17_batch_size",
    "chaos": "repro.experiments.chaos_recovery",
    "failover": "repro.experiments.failover_recovery",
    "hybrid": "repro.experiments.hybrid_economics",
    "navigator": "repro.experiments.navigator_halving",
}


@dataclass
class ExperimentResult:
    """Structured output of one experiment."""

    experiment_id: str
    title: str
    rows: List[Dict[str, object]]
    #: Named series (e.g. timelines), each a list of dictionaries.
    series: Dict[str, List[Dict[str, object]]] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)

    def to_text(self) -> str:
        """Render the experiment as a plain-text report."""
        lines = [f"== {self.experiment_id}: {self.title} =="]
        if self.notes:
            for key, value in self.notes.items():
                lines.append(f"  note: {key} = {value}")
        if self.rows:
            lines.append(format_table(self.rows))
        for name, series in self.series.items():
            lines.append(f"-- series: {name} --")
            lines.append(format_table(series))
        return "\n".join(lines)

    @classmethod
    def from_frame(cls, experiment_id: str, title: str, frame: ResultFrame,
                   rows: Optional[List[Dict[str, object]]] = None,
                   notes: Optional[Dict[str, object]] = None
                   ) -> "ExperimentResult":
        """Presentation shim: wrap a study's frame as an experiment result.

        ``rows`` defaults to the frame's own tidy rows; pass the shim's
        figure-specific rows to keep the paper's column layout.  The
        frame's named series carry over as-is.
        """
        return cls(
            experiment_id=experiment_id,
            title=title,
            rows=frame.to_rows() if rows is None else rows,
            series=dict(frame.series),
            notes=dict(notes or {}),
        )


@dataclass
class ExperimentContext:
    """Shared configuration and caches for experiment runs.

    ``scale`` compresses the paper's 15-minute workloads in time while
    keeping the request rates (and therefore all queueing behaviour)
    unchanged; 1.0 reproduces the full workloads.

    Every declarative cell runs through :meth:`run_specs` (or its
    one-spec form :meth:`run_scenario`): each uncached spec resolves to
    its deployment, its cached workload at the spec's effective scale
    and its pinned seed (:meth:`cell`), and the batch runs through
    :func:`~repro.core.parallel.run_cells`.  ``workers`` > 1 fans that
    batch out over that many worker processes (0 or 1 = serial,
    negative = one per core); results are bit-identical either way.
    The run cache holds whole-table summaries, not outcome tables, and
    of each summary's row-order arrays only the SLO and timeline
    answers its callers declared (``reads``): callers that read rows
    run the resolved cell through
    :meth:`~repro.core.benchmark.ServingBenchmark.run` (as
    :func:`repro.api.run` does).
    """

    seed: int = 7
    scale: float = 1.0
    providers: Sequence[str] = ("aws", "gcp")
    workers: int = 0
    benchmark: ServingBenchmark = field(default_factory=lambda: ServingBenchmark(seed=7))
    planner: Planner = field(default_factory=Planner)
    analyzer: Analyzer = field(default_factory=Analyzer)
    _workloads: Dict[tuple, Workload] = field(default_factory=dict)
    _runs: Dict[tuple, RunResult] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 < self.scale <= 1.0:
            raise ValueError("scale must be in (0, 1]")
        self.benchmark.seed = self.seed

    def workload(self, name: str, seed: Optional[int] = None,
                 scale: Optional[float] = None) -> Workload:
        """The named standard workload, cached by (name, seed, scale).

        ``seed`` and ``scale`` default to the context's own; the run path
        passes a spec's pinned seed and effective scale
        (:meth:`~repro.core.scenario.ScenarioSpec.cell_scale`), so
        replicates and rung fidelities of one workload coexist without
        regenerating each other.
        """
        seed = self.seed if seed is None else seed
        scale = self.scale if scale is None else scale
        key = (name, seed, scale)
        if key not in self._workloads:
            self._workloads[key] = standard_workload(name, seed=seed,
                                                     scale=scale)
        return self._workloads[key]

    def cell(self, spec: ScenarioSpec) -> Cell:
        """``spec`` resolved to one runnable cell: its deployment through
        this context's planner, its cached workload at the spec's
        effective scale, that scale, and its pinned seed."""
        scale = spec.cell_scale(self.scale)
        return (spec.deployment(self.planner),
                self.workload(spec.workload, spec.seed, scale),
                scale, spec.seed)

    def run_key(self, spec: ScenarioSpec) -> tuple:
        """The run cache's key for ``spec``: what :meth:`cell` resolves
        it to (provider, model, runtime, the resolved service config,
        workload, effective scale and pinned seed), without generating
        the workload.  Specs that differ only by an override set to its
        planned default share one run."""
        deployment = spec.deployment(self.planner)
        return (deployment.provider.name, deployment.model.name,
                deployment.runtime.key, deployment.config, spec.workload,
                spec.cell_scale(self.scale), spec.seed)

    def run_specs(self, specs: Iterable[ScenarioSpec],
                  reads: Tuple = ()) -> List[RunResult]:
        """Run every spec through the run cache; results in spec order.

        Specs are deduplicated by :meth:`run_key`.  Each one not yet cached
        resolves to one :meth:`cell`, and all of them run as one batch,
        over the worker pool when ``workers`` > 1.  The cache keeps each
        result :meth:`~repro.core.results.RunResult.reduced` to its
        whole-table summary (reduced where the cell finished) with the
        answers ``reads`` declares (``Study.reads`` pairs), never its
        outcome table.  A cached cell that lacks one of them runs again
        with every answer it kept as well: runs are deterministic, so
        its answers are the ones its rows gave.
        """
        specs = list(specs)
        keys = [self.run_key(spec) for spec in specs]
        union = set(reads)
        pending: Dict[tuple, Cell] = {}
        for spec, key in zip(specs, keys):
            cached = self._runs.get(key)
            if key in pending or (cached is not None
                                  and not cached.table.lacks(reads)):
                continue
            if cached is not None:
                union.update(cached.table.answers)
            pending[key] = self.cell(spec)
        if pending:
            results = run_cells(self.benchmark, list(pending.values()),
                                self.workers, tuple(union))
            self._runs.update(zip(pending, results))
        return [self._runs[key] for key in keys]

    def run_scenario(self, scenario) -> RunResult:
        """Run one declarative scenario (spec or registered name), cached."""
        spec = get_scenario(scenario) if isinstance(scenario, str) else scenario
        return self.run_specs([spec])[0]


def breakdown_metrics(result: RunResult) -> Dict[str, object]:
    """Derived study metrics: the Figure 10 / 14 sub-stage breakdown.

    Returns a mapping, so each breakdown stage becomes its own frame
    column (keys match the figure labels), plus the cold-request count.
    """
    breakdown = Analyzer().coldstart_breakdown(result)
    row: Dict[str, object] = {key: round(value, 3)
                              for key, value in breakdown.as_dict().items()}
    row["cold_requests"] = breakdown.cold_requests
    return row


def panel_rows(frame: ResultFrame) -> List[Dict[str, object]]:
    """Presentation rows for the two-panel timeline figures (6, 8, 9).

    One row per (panel, platform) cell: the panel name is composed from
    the zipped model/workload/provider axis, the headline metrics are
    rounded the way the figures report them.
    """
    return [
        {"panel": f"{row['model']}-{row['workload']}-{row['provider']}",
         "platform": row["platform"],
         "avg_latency_s": round(row["avg_latency_s"], 4),
         "success_ratio": round(row["success_ratio"], 4)}
        for row in frame.iter_rows()
    ]


def latency_series(bin_s: float):
    """A study series builder: the latency/success timeline of one cell.

    Used by the time-series figures (6, 8, 9); rows match the paper's
    panels (time, average latency, success ratio per bin).  A study
    that uses it declares ``("timeline", bin_s)`` in its ``reads``.
    """
    def build(context: ExperimentContext, spec: ScenarioSpec,
              result: RunResult) -> List[Dict[str, object]]:
        return [
            {"time_s": point.time,
             "avg_latency_s": round(point.average_latency, 4),
             "success_ratio": round(point.success_ratio, 4)}
            for point in context.analyzer.latency_timeline(result, bin_s)
        ]
    return build


def instance_series(bin_s: float):
    """A study series builder: the instance-count timeline of one cell.

    Used by the fleet-size figures (7, 11).
    """
    def build(context: ExperimentContext, spec: ScenarioSpec,
              result: RunResult) -> List[Dict[str, object]]:
        return [
            {"time_s": round(t, 1), "instances": int(count)}
            for t, count in context.analyzer.instance_timeline(result, bin_s)
        ]
    return build


def list_experiments() -> List[str]:
    """Identifiers of all registered experiments."""
    return sorted(EXPERIMENTS)


def load_registered_studies() -> List[str]:
    """Import every experiment module so its study self-registers.

    Study registration happens at module import; callers that look
    studies up by name (the CLI's ``sweep`` subcommand,
    :func:`repro.api.run_study`) call this first.  Returns the names of
    all registered studies.
    """
    from repro.core.study import list_studies
    for module_name in EXPERIMENTS.values():
        importlib.import_module(module_name)
    return list_studies()


def run_experiment(experiment_id: str,
                   context: Optional[ExperimentContext] = None) -> ExperimentResult:
    """Run one experiment by id (e.g. ``"fig05"``)."""
    if experiment_id not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {experiment_id!r}; "
                       f"known: {list_experiments()}")
    module = importlib.import_module(EXPERIMENTS[experiment_id])
    context = context or ExperimentContext()
    return module.run(context)
