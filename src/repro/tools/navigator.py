"""Design-space navigator (the paper's challenge #3, Section 6).

"A potential direction is to build a navigation tool that automatically
searches the design space for serverless deployment, and finds the best
configuration under pre-defined constraints."  The navigator does exactly
that on the simulated cloud: its candidate grid *is* a
:class:`~repro.core.study.Sweep` (runtime x memory x batch, plus
optional server platforms), each candidate is measured on a
time-compressed copy of the target workload (each candidate spec's
deployment run by :meth:`~repro.core.benchmark.ServingBenchmark.run`
against that one workload), and the evaluation comes back
as a :class:`~repro.core.study.ResultFrame` — one row per candidate with
the standard reductions plus a ``feasible`` column — from which the
feasible set is ranked under the user's latency / success-ratio / cost
constraints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.tools.search import HalvingResult

from repro.core.benchmark import ServingBenchmark
from repro.core.planner import Planner
from repro.core.scenario import ScenarioSpec
from repro.core.study import (STANDARD_METRIC_COLUMNS, ResultFrame, Sweep,
                              SweepCell)
from repro.serving.deployment import PlatformKind
from repro.workload.generator import Workload

__all__ = ["NavigationConstraints", "NavigationResult", "DesignSpaceNavigator"]


@dataclass(frozen=True)
class NavigationConstraints:
    """What the data scientist requires from a deployment."""

    max_latency_s: Optional[float] = None
    min_success_ratio: float = 0.99
    max_cost_usd: Optional[float] = None
    #: Objective to minimise among feasible candidates.
    objective: str = "cost"

    def __post_init__(self) -> None:
        if self.objective not in ("cost", "latency"):
            raise ValueError("objective must be 'cost' or 'latency'")
        if not 0.0 <= self.min_success_ratio <= 1.0:
            raise ValueError("min_success_ratio must be in [0, 1]")

    def is_satisfied(self, latency_s: float, success_ratio: float,
                     cost_usd: float) -> bool:
        """Whether a measured candidate meets every constraint."""
        if self.max_latency_s is not None and latency_s > self.max_latency_s:
            return False
        if success_ratio < self.min_success_ratio:
            return False
        if self.max_cost_usd is not None and cost_usd > self.max_cost_usd:
            return False
        return True


@dataclass
class NavigationResult:
    """Ranked outcome of a design-space search."""

    best: Optional[Dict[str, object]]
    feasible: List[Dict[str, object]] = field(default_factory=list)
    evaluated: List[Dict[str, object]] = field(default_factory=list)
    #: The full evaluation as a tidy frame (axes + reductions +
    #: ``feasible``), for further slicing / pivoting / CSV export.
    frame: Optional[ResultFrame] = None
    #: The rung-by-rung bookkeeping when the result came from
    #: ``strategy="halving"`` (``None`` for the exhaustive grid).
    halving: Optional["HalvingResult"] = None

    @property
    def found(self) -> bool:
        """Whether any candidate satisfied the constraints."""
        return self.best is not None


@dataclass
class DesignSpaceNavigator:
    """Searches the serverless design space under user constraints."""

    provider: str
    model: str
    benchmark: ServingBenchmark = field(default_factory=lambda: ServingBenchmark(seed=7))
    planner: Planner = field(default_factory=Planner)
    runtimes: Sequence[str] = ("tf1.15", "ort1.4")
    memory_sizes_gb: Sequence[float] = (2.0, 4.0, 8.0)
    batch_sizes: Sequence[int] = (1, 2, 4)
    include_servers: bool = False
    #: A-priori feasibility predicate over each candidate's label dict
    #: (``runtime`` / ``memory_gb`` / ``batch_size``).  Wired into the
    #: candidate sweep's declarative ``where`` hook: combos it rejects
    #: (say, large batches in small memory) are dropped *before any
    #: simulation runs*, and the evaluation frame's metadata reports how
    #: many — a cheap complement to the measured ``feasible`` column.
    prefilter: Optional[Callable[[Dict[str, object]], bool]] = None
    #: Registered workload the candidates reference.  The halving
    #: strategy compresses *this* workload per rung; the grid strategy
    #: measures against the explicit :class:`Workload` passed to
    #: :meth:`search`.
    workload: str = "w-40"

    def sweep(self) -> Sweep:
        """The serverless candidate grid as a declarative sweep."""
        return Sweep(
            name=f"nav/{self.provider}/{self.model}",
            base=ScenarioSpec(name=f"nav/{self.provider}/{self.model}",
                              provider=self.provider, model=self.model,
                              platform=PlatformKind.SERVERLESS,
                              workload=self.workload),
            axes={
                "runtime": tuple(self.runtimes),
                "memory_gb": tuple(self.memory_sizes_gb),
                "batch_size": tuple(self.batch_sizes),
            },
            where=self.prefilter,
            # The server candidates live outside this sweep, so a
            # prefilter that empties the serverless grid is legitimate
            # when servers are still in play; a prefilter may also
            # legitimately empty the whole space (the caller gets an
            # empty frame with the declared columns, not an error).
            allow_empty=self.include_servers or self.prefilter is not None,
        )

    def _server_cells(self) -> List[SweepCell]:
        """The optional CPU/GPU server candidates (outside the sweep)."""
        cells: List[SweepCell] = []
        if self.include_servers:
            for platform in (PlatformKind.CPU_SERVER,
                             PlatformKind.GPU_SERVER):
                spec = ScenarioSpec(
                    name=f"nav/{self.provider}/{self.model}/{platform}",
                    provider=self.provider, model=self.model,
                    runtime="tf1.15", platform=platform,
                    workload=self.workload)
                cells.append(SweepCell(sweep=spec.name,
                                       labels={"runtime": "tf1.15",
                                               "platform": platform},
                                       spec=spec))
        return cells

    def cells(self) -> List[SweepCell]:
        """Sweep cells plus (optionally) the server-platform candidates."""
        return self.sweep().cells() + self._server_cells()

    def candidates(self) -> List[ScenarioSpec]:
        """The candidate scenarios the navigator will evaluate."""
        return [cell.spec for cell in self.cells()]

    def evaluate(self, workload: Workload,
                 constraints: NavigationConstraints) -> ResultFrame:
        """Measure every candidate; returns the frame with feasibility.

        Candidates the :attr:`prefilter` hook rejected never run; their
        count lands in the frame's ``meta["constrained_out"]`` so the
        pruning stays visible next to the measured ``feasible`` column.
        """
        sweep = self.sweep()
        expansion = sweep.expand()
        cells = list(expansion.cells) + self._server_cells()
        if not cells:
            frame = self._empty_frame()
        else:
            results = [
                ({**cell.spec.as_row(), **cell.labels},
                 self.benchmark.run(cell.spec.deployment(self.planner),
                                    workload, seed=cell.spec.seed))
                for cell in cells
            ]
            frame = ResultFrame.from_results(
                results, name=f"nav/{self.provider}/{self.model}",
                specs=[cell.spec for cell in cells])
            frame = frame.with_column("feasible", [
                constraints.is_satisfied(row["avg_latency_s"],
                                         row["success_ratio"],
                                         row["cost_usd"])
                for row in frame.iter_rows()
            ])
        if expansion.dropped:
            frame.meta["constrained_out"] = {
                sweep.name: len(expansion.dropped)}
        return frame

    def _empty_frame(self) -> ResultFrame:
        """A zero-row frame that still declares the evaluation schema.

        Returned when the :attr:`prefilter` empties the candidate space:
        downstream code (CSV export, ``group_by``, the ``feasible``
        filter) keeps working against the declared columns instead of
        crashing on a column-less frame.
        """
        declared = list(self.sweep().base.as_row())
        for axis in ("runtime", "memory_gb", "batch_size"):
            if axis not in declared:
                declared.append(axis)
        declared += [name for name in STANDARD_METRIC_COLUMNS
                     if name not in declared]
        declared.append("feasible")
        return ResultFrame({name: [] for name in declared},
                           name=f"nav/{self.provider}/{self.model}")

    def search(self, workload: Optional[Workload] = None,
               constraints: Optional[NavigationConstraints] = None, *,
               strategy: str = "grid", context=None, eta: int = 3,
               budget_cells: Optional[int] = None) -> NavigationResult:
        """Search the design space and rank the feasible candidates.

        ``strategy="grid"`` (the default) measures every candidate at
        full length against the explicit ``workload``.
        ``strategy="halving"`` runs the budgeted successive-halving
        schedule instead (see
        :class:`~repro.tools.search.SuccessiveHalvingSearch`): every
        candidate enters at a short-horizon fidelity of the navigator's
        registered :attr:`workload` and the top ``1/eta`` per rung
        survive to longer horizons, so ``workload`` must stay ``None``.
        ``context`` shares an
        :class:`~repro.experiments.base.ExperimentContext` run cache
        across searches; ``budget_cells`` bounds the simulated cells,
        with the analytic estimator ranking the excluded candidates.
        """
        constraints = constraints or NavigationConstraints()
        if strategy == "grid":
            if workload is None:
                raise ValueError("strategy='grid' measures candidates "
                                 "against an explicit workload; pass one "
                                 "or use strategy='halving'")
            frame = self.evaluate(workload, constraints)
            evaluated = frame.to_rows()
            feasible = [row for row in evaluated if row["feasible"]]
            key = ("cost_usd" if constraints.objective == "cost"
                   else "avg_latency_s")
            feasible.sort(key=lambda row: row[key])
            best = feasible[0] if feasible else None
            return NavigationResult(best=best, feasible=feasible,
                                    evaluated=evaluated, frame=frame)
        if strategy != "halving":
            raise ValueError(f"unknown search strategy {strategy!r}; "
                             f"expected 'grid' or 'halving'")
        if workload is not None:
            raise ValueError("strategy='halving' compresses the "
                             "navigator's registered workload per rung; "
                             "leave workload=None")
        from repro.tools.search import SuccessiveHalvingSearch
        cells = self.cells()
        if not cells:
            return NavigationResult(best=None, frame=self._empty_frame())
        if context is None:
            from repro.experiments.base import ExperimentContext
            context = ExperimentContext(seed=self.benchmark.seed,
                                        planner=self.planner)
        halving = SuccessiveHalvingSearch(
            eta=eta, budget_cells=budget_cells).search(
                cells, constraints, context=context)
        return NavigationResult(best=halving.best,
                                feasible=halving.feasible,
                                evaluated=halving.evaluated,
                                frame=halving.frame, halving=halving)
