"""Adaptive design-space search: successive halving over sweep cells.

The navigator's grid and LHS strategies simulate every surviving
candidate at full length, which caps the reachable design-space size.
This module adds the bandit-style alternative the ROADMAP's
navigator-at-scale item calls for: run *every* candidate at a cheap
short-horizon fidelity, rank by the objective, promote the top ``1/eta``
to the next rung at a longer horizon, and repeat until the survivors run
at full length.  Three properties keep it honest:

* **Determinism** — rung seeds derive exactly like replicate seeds
  (``base_seed + rung``), candidates are tie-broken by their stable
  ``cell_key``, so the survivor sets are a pure function of the inputs.
* **Cache reuse** — a rung cell is an ordinary
  :class:`~repro.core.scenario.ScenarioSpec` with a pinned seed and
  :attr:`~repro.core.scenario.ScenarioSpec.fidelity`, so it is
  bit-identical to the same spec run through :func:`repro.api.run` and
  it lands in (and is replayed from) the
  :class:`~repro.experiments.base.ExperimentContext` run cache — a
  second search over the same context simulates nothing new.
* **Budget** — ``budget_cells=N`` bounds the total simulated cells; the
  entry rung is sized from ``eta`` to fit, and candidates that no
  longer fit are still *ranked* analytically through the decomposed
  closed-form estimator (never silently dropped).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.scenario import ScenarioSpec
from repro.core.study import (
    DEFAULT_BASE_SEED,
    ResultFrame,
    Study,
    SweepCell,
    _standard_metrics,
)
from repro.tools.navigator import NavigationConstraints

__all__ = [
    "HalvingRung",
    "HalvingResult",
    "SuccessiveHalvingSearch",
    "SearchStudy",
    "analytic_objective",
    "rung_sizes",
    "rung_fidelities",
]

#: An evaluator maps one runnable spec (seed and fidelity pinned) to a
#: metrics mapping carrying at least ``avg_latency_s`` /
#: ``success_ratio`` / ``cost_usd``.
Evaluator = Callable[[ScenarioSpec], Mapping[str, object]]


def rung_sizes(candidates: int, eta: int) -> List[int]:
    """The successive-halving rung sizes for an entry rung of ``candidates``.

    Each rung keeps ``max(1, previous // eta)`` survivors until a single
    candidate remains — the exact recurrence the halving property tests
    pin.
    """
    if candidates < 1:
        raise ValueError("candidates must be >= 1")
    if eta < 2:
        raise ValueError("eta must be >= 2")
    sizes = [candidates]
    while sizes[-1] > 1:
        sizes.append(max(1, sizes[-1] // eta))
    return sizes


def rung_fidelities(rungs: int, eta: int,
                    min_fidelity: float = 0.02) -> List[float]:
    """Geometric rung fidelities ending at 1.0 (full length).

    Rung ``r`` of ``R`` runs at ``eta ** (r - (R - 1))`` — each
    promotion buys an ``eta``-times longer horizon — floored at
    ``min_fidelity`` so very deep schedules still simulate a meaningful
    trace slice.
    """
    if rungs < 1:
        raise ValueError("rungs must be >= 1")
    if not 0.0 < min_fidelity <= 1.0:
        raise ValueError("min_fidelity must be in (0, 1]")
    return [max(min_fidelity, float(eta) ** (r - (rungs - 1)))
            for r in range(rungs)]


def _budget_entry_size(candidates: int, eta: int, budget: int) -> int:
    """The largest entry rung whose full schedule fits ``budget`` cells."""
    if budget < 1:
        raise ValueError("budget_cells must be >= 1")
    best = 0
    low, high = 1, candidates
    while low <= high:
        mid = (low + high) // 2
        if sum(rung_sizes(mid, eta)) <= budget:
            best = mid
            low = mid + 1
        else:
            high = mid - 1
    if best == 0:
        raise ValueError(f"budget_cells={budget} cannot fund even a "
                         f"single-candidate schedule")
    return best


def analytic_objective(spec: ScenarioSpec, objective: str = "cost",
                       profiles=None) -> float:
    """Closed-form score of one candidate without simulating it.

    Serverless cells score through the decomposed estimator
    (:meth:`~repro.tools.cost_estimator.CostEstimator.
    serverless_decomposed`): the blended dollar total for the ``cost``
    objective, the warm request latency (predict + handler + network
    round trip) for ``latency``.  Server-backed cells price one
    instance over the workload's duration (or its closed-form service
    time).  Used as the rung-0 prefilter when ``budget_cells`` shrinks
    the entry rung below the candidate count, so never-simulated
    candidates still come back ranked.
    """
    from repro.models.profiles import LatencyProfiles
    from repro.serving.deployment import PlatformKind
    from repro.tools.cost_estimator import CostEstimator

    if objective not in ("cost", "latency"):
        raise ValueError("objective must be 'cost' or 'latency'")
    deployment = spec.deployment()
    profiles = profiles or LatencyProfiles()
    estimator = CostEstimator(provider=deployment.provider,
                              profiles=profiles)
    platform = deployment.config.platform
    if platform == PlatformKind.SERVERLESS:
        estimate = estimator.serverless_decomposed(
            deployment.model, deployment.runtime,
            spec.workload_spec().target_requests,
            memory_gb=deployment.config.memory_gb,
            config=deployment.config)
        if objective == "cost":
            return estimate.total
        warm = (profiles.warm_predict_time(
            deployment.provider.name, deployment.runtime.key,
            deployment.model.name, deployment.config.memory_gb)
            + profiles.handler_overhead_s("serverless"))
        return warm + deployment.provider.network.round_trip_time(
            deployment.model.input_payload_mb,
            deployment.model.output_payload_mb)
    duration_s = spec.workload_spec().duration_s
    if objective == "cost":
        if platform == PlatformKind.MANAGED_ML:
            return estimator.managed_ml(deployment.instance_type(),
                                        duration_s)
        return estimator.vm(deployment.instance_type(), duration_s)
    hardware = "gpu" if platform == PlatformKind.GPU_SERVER else "cpu"
    service = profiles.server_predict_time(
        deployment.runtime.key, deployment.model.name, hardware)
    if hardware == "cpu":
        service += profiles.handler_overhead_s("vm")
    return service


@dataclass(frozen=True)
class HalvingRung:
    """Bookkeeping of one executed halving rung."""

    #: Rung position, 0 = the cheap entry rung.
    index: int
    #: Horizon fraction the rung's cells ran at (1.0 = full length).
    fidelity: float
    #: The rung's pinned seed (``base_seed + index``).
    seed: int
    #: Candidate count evaluated at this rung.
    size: int
    #: Candidate keys promoted out of this rung, ranked best-first.
    survivors: Tuple[str, ...]
    #: Cells actually simulated (``size`` minus the cache hits).
    simulated: int
    #: Cells replayed straight from the run cache.
    cached: int

    @property
    def eliminated(self) -> int:
        """Candidates ranked out at this rung."""
        return self.size - len(self.survivors)


@dataclass
class HalvingResult:
    """The full outcome of one successive-halving search."""

    #: The winning full-fidelity row (``None`` when nothing is feasible).
    best: Optional[Dict[str, object]]
    #: Per-rung bookkeeping, entry rung first.
    rungs: List[HalvingRung]
    #: The final (full-fidelity) rung as a tidy frame with a
    #: ``feasible`` column; ``meta["halving"]`` carries the per-rung
    #: survivor / elimination counts.
    frame: ResultFrame
    #: Final-rung rows that satisfied the constraints, ranked best-first.
    feasible: List[Dict[str, object]] = field(default_factory=list)
    #: Every final-rung row, ranked best-first.
    evaluated: List[Dict[str, object]] = field(default_factory=list)
    #: Candidates the budget excluded from simulation, ranked by their
    #: analytic score (each row carries ``analytic_score`` and
    #: ``analytic_rank``).
    analytic_only: List[Dict[str, object]] = field(default_factory=list)
    #: The cell budget the schedule was sized to (``None`` = unbounded).
    budget_cells: Optional[int] = None

    @property
    def found(self) -> bool:
        """Whether any full-fidelity candidate satisfied the constraints."""
        return self.best is not None

    @property
    def total_evaluations(self) -> int:
        """Total cells evaluated across all rungs (cache hits included)."""
        return sum(rung.size for rung in self.rungs)

    @property
    def total_simulated(self) -> int:
        """Total cells actually simulated (cache hits excluded)."""
        return sum(rung.simulated for rung in self.rungs)


class _ContextEvaluator:
    """Default evaluator: run cells through a shared experiment context.

    Exposes the cache-awareness and worker fan-out hooks the search
    uses: :meth:`is_cached` peeks at the context's run cache before a
    rung executes, :meth:`prefetch` runs the rung's cells as one
    :meth:`~repro.experiments.base.ExperimentContext.run_specs` batch
    (uncached cells fan out over the context's worker pool).
    """

    def __init__(self, context) -> None:
        self.context = context

    def is_cached(self, spec: ScenarioSpec) -> bool:
        """Whether the cell would replay from the run cache."""
        return self.context.run_key(spec) in self.context._runs

    def prefetch(self, specs: Sequence[ScenarioSpec]) -> None:
        """Run a rung's cells as one batch over the context's worker pool."""
        self.context.run_specs(specs)

    def __call__(self, spec: ScenarioSpec) -> Dict[str, object]:
        """The cell's standard frame metrics (simulating on a cache miss)."""
        return _standard_metrics(self.context.run_scenario(spec))


@dataclass
class SuccessiveHalvingSearch:
    """Budgeted multi-fidelity search over a candidate design space.

    Every candidate enters the cheap rung 0; each rung ranks its
    candidates under the constraints' objective and promotes the top
    ``1/eta`` to an ``eta``-times longer horizon, until the survivors
    run at full length.  With ``budget_cells`` set the entry rung is
    shrunk so the whole schedule fits the budget, and the analytic
    closed form ranks the candidates that no longer fit::

        from repro.api import (NavigationConstraints, ScenarioSpec,
                               SuccessiveHalvingSearch, Sweep)
        from repro.experiments.base import ExperimentContext

        sweep = Sweep(name="nav", base=ScenarioSpec(
                          name="nav", provider="aws", model="mobilenet"),
                      axes={"memory_gb": (2.0, 4.0, 8.0),
                            "batch_size": (1, 2, 4)})
        search = SuccessiveHalvingSearch(eta=3, budget_cells=16)
        result = search.search(sweep.cells(), NavigationConstraints(),
                               context=ExperimentContext(scale=0.1))
        print(result.best, result.frame.meta["halving"])
    """

    #: Promotion factor: each rung keeps ``size // eta`` survivors and
    #: runs them at an ``eta``-times longer horizon.
    eta: int = 3
    #: Total simulated-cell budget (``None`` = the full schedule of
    #: every candidate).
    budget_cells: Optional[int] = None
    #: Floor on the entry rung's horizon fraction.
    min_fidelity: float = 0.02
    #: Seed anchoring the per-rung seed derivation (rung ``r`` runs at
    #: ``base_seed + r``, exactly like replicate ``r`` of a replicated
    #: sweep); ``None`` defers to the context seed.
    base_seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.eta < 2:
            raise ValueError("eta must be >= 2")
        if self.budget_cells is not None and self.budget_cells < 1:
            raise ValueError("budget_cells must be >= 1")
        if not 0.0 < self.min_fidelity <= 1.0:
            raise ValueError("min_fidelity must be in (0, 1]")

    def search(self, candidates: Sequence[Union[ScenarioSpec, SweepCell]],
               constraints: Optional[NavigationConstraints] = None,
               context=None, evaluator: Optional[Evaluator] = None,
               scorer: Optional[Callable[[ScenarioSpec], float]] = None
               ) -> HalvingResult:
        """Run the halving schedule and return the ranked outcome.

        Args:
            candidates: The design space — bare specs or labelled
                :class:`~repro.core.study.SweepCell` entries (labels
                become frame columns).
            constraints: Feasibility constraints and objective
                (defaults to cost minimisation at 99 % success).
            context: Shared :class:`~repro.experiments.base.
                ExperimentContext` providing the run cache and worker
                fan-out; built fresh when neither ``context`` nor
                ``evaluator`` is given.
            evaluator: Override the simulation path entirely — any
                callable mapping a runnable spec to its metrics (the
                property tests and the bench probe inject closed-form
                evaluators here).
            scorer: Analytic objective used to rank candidates the
                budget excludes; defaults to :func:`analytic_objective`.

        Returns:
            A :class:`HalvingResult`; its frame's ``meta["halving"]``
            reports the per-rung survivor / elimination counts.
        """
        constraints = constraints or NavigationConstraints()
        entries = self._entries(candidates)
        if not entries:
            raise ValueError("successive halving needs at least one "
                             "candidate")
        if evaluator is None:
            if context is None:
                from repro.experiments.base import ExperimentContext
                context = ExperimentContext()
            evaluator = _ContextEvaluator(context)
        base_seed = self.base_seed
        if base_seed is None:
            base_seed = (context.seed if context is not None
                         else DEFAULT_BASE_SEED)
        pool, analytic_only = self._admit(entries, constraints, scorer)
        sizes = rung_sizes(len(pool), self.eta)
        fidelities = rung_fidelities(len(sizes), self.eta, self.min_fidelity)
        objective_column = ("cost_usd" if constraints.objective == "cost"
                           else "avg_latency_s")
        rungs: List[HalvingRung] = []
        final_ranked: List[Tuple[Dict[str, object], ScenarioSpec,
                                 Dict[str, object]]] = []
        for index, (size, fidelity) in enumerate(zip(sizes, fidelities)):
            seed = base_seed + index
            runnable = [(labels, key, spec.with_seed(seed)
                         .with_fidelity(fidelity))
                        for labels, key, spec in pool]
            cached = sum(1 for _l, _k, spec in runnable
                         if getattr(evaluator, "is_cached",
                                    lambda _spec: False)(spec))
            prefetch = getattr(evaluator, "prefetch", None)
            if prefetch is not None:
                prefetch([spec for _l, _k, spec in runnable])
            scored = []
            for (labels, key, runspec), (_l, _k, original) in zip(runnable,
                                                                  pool):
                metrics = dict(evaluator(runspec))
                feasible = constraints.is_satisfied(
                    metrics["avg_latency_s"], metrics["success_ratio"],
                    metrics["cost_usd"])
                rank = (not feasible, metrics[objective_column], key)
                scored.append((rank, labels, key, original, runspec,
                               metrics, feasible))
            scored.sort(key=lambda item: item[0])
            keep = sizes[index + 1] if index + 1 < len(sizes) else 1
            survivors = tuple(key for _r, _l, key, *_rest in scored[:keep])
            rungs.append(HalvingRung(
                index=index, fidelity=fidelity, seed=seed, size=size,
                survivors=survivors, simulated=size - cached, cached=cached))
            if index + 1 < len(sizes):
                promoted = {key for key in survivors}
                pool = [(labels, key, original)
                        for _r, labels, key, original, _spec, _m, _f
                        in scored if key in promoted]
            else:
                final_ranked = [(labels, runspec, {**metrics,
                                                   "feasible": feasible})
                                for _r, labels, _key, _orig, runspec,
                                metrics, feasible in scored]
        return self._assemble(constraints, rungs, final_ranked,
                              analytic_only, base_seed)

    # -- internals ---------------------------------------------------------
    @staticmethod
    def _entries(candidates) -> List[Tuple[Dict[str, object], str,
                                           ScenarioSpec]]:
        """Normalise candidates to (labels, stable key, spec) triples."""
        entries = []
        seen = set()
        for candidate in candidates:
            if isinstance(candidate, SweepCell):
                labels, spec = dict(candidate.labels), candidate.spec
            else:
                labels, spec = {}, candidate
            key = spec.cell_key
            if key in seen:
                raise ValueError(f"duplicate candidate cell {key!r}")
            seen.add(key)
            entries.append((labels, key, spec))
        return entries

    def _admit(self, entries, constraints, scorer):
        """Fit the entry rung to the budget; rank the excluded analytically."""
        if self.budget_cells is None:
            return entries, []
        admit = _budget_entry_size(len(entries), self.eta, self.budget_cells)
        if admit >= len(entries):
            return entries, []
        if scorer is None:
            def scorer(spec, _objective=constraints.objective):
                return analytic_objective(spec, _objective)
        ranked = sorted(
            ((float(scorer(spec)), labels, key, spec)
             for labels, key, spec in entries),
            key=lambda item: (item[0], item[2]))
        pool = [(labels, key, spec)
                for _score, labels, key, spec in ranked[:admit]]
        analytic_only = [
            {**labels, **spec.as_row(), "analytic_score": score,
             "analytic_rank": admit + position}
            for position, (score, labels, key, spec)
            in enumerate(ranked[admit:])
        ]
        return pool, analytic_only

    def _assemble(self, constraints, rungs, final_ranked, analytic_only,
                  base_seed) -> HalvingResult:
        """Build the result frame and bundle the rung bookkeeping."""
        rows = []
        specs = []
        label_names: List[str] = []
        for labels, runspec, metrics in final_ranked:
            row = {**runspec.as_row(), **labels, **metrics}
            for name in row:
                if name not in label_names and name not in metrics:
                    label_names.append(name)
            rows.append(row)
            specs.append(runspec)
        frame = ResultFrame.from_rows(
            rows, name="halving", specs=specs,
            meta={"labels": label_names,
                  "halving": {
                      "eta": self.eta,
                      "base_seed": base_seed,
                      "budget_cells": self.budget_cells,
                      "analytic_only": len(analytic_only),
                      "rungs": [{
                          "rung": rung.index,
                          "fidelity": rung.fidelity,
                          "seed": rung.seed,
                          "candidates": rung.size,
                          "survivors": len(rung.survivors),
                          "eliminated": rung.eliminated,
                          "simulated": rung.simulated,
                          "cached": rung.cached,
                      } for rung in rungs],
                  }})
        evaluated = frame.to_rows()
        feasible = [row for row in evaluated if row["feasible"]]
        best = feasible[0] if feasible else None
        return HalvingResult(best=best, rungs=rungs, frame=frame,
                             feasible=feasible, evaluated=evaluated,
                             analytic_only=analytic_only,
                             budget_cells=self.budget_cells)


@dataclass
class SearchStudy(Study):
    """A registered study whose run is an adaptive search, not a sweep.

    Wraps a search ``runner`` in the :class:`~repro.core.study.Study`
    interface so adaptive searches register, list, and run through the
    same CLI path as exhaustive studies (``repro-experiments sweep
    navigator-halving --budget 32``).  ``sweeps`` declares the candidate
    grid for bookkeeping (``--list``, cell counts); ``run`` delegates to
    the runner with this study's ``eta`` / ``budget_cells``.
    """

    #: ``runner(context, eta=..., budget_cells=...)`` returning the
    #: search's :class:`~repro.core.study.ResultFrame`.
    runner: Optional[Callable[..., ResultFrame]] = None
    #: Promotion factor forwarded to the runner.
    eta: int = 3
    #: Simulated-cell budget forwarded to the runner (the CLI's
    #: ``--budget`` flag overrides it per invocation).
    budget_cells: Optional[int] = None

    def run(self, context=None) -> ResultFrame:
        """Execute the search through the shared experiment context."""
        if self.runner is None:
            return super().run(context)
        if context is None:
            from repro.experiments.base import ExperimentContext
            context = ExperimentContext()
        return self.runner(context, eta=self.eta,
                           budget_cells=self.budget_cells)

    def with_budget(self, budget_cells: Optional[int]) -> "SearchStudy":
        """A copy of this study at a different cell budget."""
        return dataclasses.replace(self, budget_cells=budget_cells)
