"""The study layer: sweeps as data, results as a tidy frame.

The paper's contribution is a *design-space study* — provider x model x
runtime x platform x memory x batch x workload — yet for three PRs the
public API only ran one cell at a time (``run_scenario``) and every
figure module hand-rolled its own nested loops, caching, and row
formatting.  This module lifts the sweeps themselves into data:

* :class:`Sweep` — a declarative parameter grid over any
  :class:`~repro.core.scenario.ScenarioSpec` axis (``provider``,
  ``model``, ``runtime``, ``platform``, ``workload``) or any
  :class:`~repro.serving.deployment.ServiceConfig` knob
  (``memory_gb``, ``batch_size``, ``scale_interval_s``, ...).  A sweep
  expands to a flat list of labelled cells — the schedulable
  unit-of-work list the parallel fan-out wants.
* :class:`Study` — named sweeps plus derived metrics and named series.
  ``Study.run`` executes every cell through the shared
  :class:`~repro.experiments.base.ExperimentContext` run cache (and its
  worker-pool fan-out) and returns a :class:`ResultFrame`.
* :class:`ResultFrame` — a tidy struct-of-arrays table: one row per
  cell, columns = sweep axes plus the reductions of each cell's
  :class:`~repro.serving.streaming.OutcomeSummary`, with
  ``select`` / ``where`` / ``pivot`` / ``to_rows`` / ``to_csv`` and
  named series (timelines) attached.

The figure/table experiments are Study declarations plus a thin
presentation shim; the registry below (:func:`register_study`) makes
them runnable by name from the CLI (``repro-experiments sweep <name>``).
"""

from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import math
from dataclasses import dataclass, fields
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.results import RunResult
from repro.core.scenario import ScenarioSpec
from repro.serving.deployment import PlatformKind, ServiceConfig
from repro.serving.streaming import declared_reads

__all__ = [
    "Sweep",
    "SweepCell",
    "SweepExpansion",
    "Study",
    "ResultFrame",
    "STANDARD_METRIC_COLUMNS",
    "format_table",
    "register_study",
    "get_study",
    "list_studies",
    "study_library",
]

#: Spec fields a sweep axis may vary directly (everything else must be a
#: :class:`ServiceConfig` knob and lands in the spec's config overrides).
SPEC_AXES = ("provider", "model", "runtime", "platform", "workload")

#: The replication axis: a sweep may vary ``seed`` explicitly (every
#: value pins one :attr:`ScenarioSpec.seed`), or declare
#: ``replicates=K`` and let the expansion derive the K seeds itself.
SEED_AXIS = "seed"

#: The seed replicate 0 reproduces when no context seed is given —
#: matches ``ExperimentContext.seed`` / ``ServingBenchmark.seed``.
DEFAULT_BASE_SEED = 7

_CONFIG_AXES = frozenset(
    f.name for f in fields(ServiceConfig)) - {"platform"}


# ---------------------------------------------------------------------------
# Sweep: a declarative grid over scenario axes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepCell:
    """One expanded cell of a sweep: axis labels plus the concrete spec."""

    sweep: str
    labels: Mapping[str, object]
    spec: ScenarioSpec


@dataclass(frozen=True)
class SweepExpansion:
    """The fully expanded grid of one sweep, with its bookkeeping.

    ``cells`` is what will run.  ``dropped`` records the label dict of
    every grid point the sweep's ``where`` constraint removed; it is
    surfaced (frame metadata, CLI report) so grid control is never
    silent.
    """

    cells: Tuple[SweepCell, ...]
    dropped: Tuple[Mapping[str, object], ...] = ()


def _freeze_items(mapping) -> Tuple[Tuple[str, object], ...]:
    """Normalise a mapping (or item sequence) to an item tuple."""
    if isinstance(mapping, Mapping):
        return tuple(mapping.items())
    return tuple(tuple(item) for item in mapping)


@dataclass(frozen=True)
class Sweep:
    """A parameter grid over one base scenario.

    ``axes`` maps axis names to value sequences; the grid is the cross
    product, expanded with the *first* axis outermost (declaration order
    is iteration order).  An axis name is either a spec axis
    (:data:`SPEC_AXES`), a :class:`ServiceConfig` knob, the replication
    axis ``"seed"`` (each value pins one per-cell random seed), or a
    comma-joined group of them (``"provider,model,workload"``) whose
    values are tuples — a *zipped* axis for panel-style sweeps where
    several dimensions move together.

    ``constants`` adds fixed label columns to every cell (e.g. a panel
    name) without touching the spec.

    A sweep is pure data until expanded; the paper's memory-size study
    with error bars is three declarations::

        from repro.api import ScenarioSpec, Sweep, run_study

        sweep = Sweep(
            name="memory",
            base=ScenarioSpec(name="memory", provider="aws", model="vgg",
                              workload="w-120"),
            axes={"runtime": ("tf1.15", "ort1.4"),
                  "memory_gb": (2.0, 4.0, 8.0)},
            replicates=5,
        )
        frame = run_study(sweep, scale=0.1, workers=-1)
        print(frame.replicate_summary().to_text())

    Constraints and replication are declarative grid control, applied
    in this order at expansion time:

    * ``where`` — a predicate over each cell's label dict; grid points
      it rejects are dropped *before execution* and reported in the
      :class:`SweepExpansion` (and the study frame's metadata), never
      silently.
    * ``replicates`` / ``seeds`` — expand every surviving cell into K
      seeded replicate runs.  Seeds default to ``base_seed + r`` for
      replicate ``r`` (so replicate 0 reproduces the unreplicated cell
      bit-for-bit); pass ``seeds`` to pin them explicitly.  Replicate
      cells gain ``replicate`` and ``seed`` label columns, and
      :meth:`ResultFrame.replicate_summary` collapses them into
      per-cell mean / std / ci95 columns.
    """

    name: str
    base: ScenarioSpec
    #: Mapping of axis name -> sequence of values; stored as item tuples.
    axes: Union[Mapping[str, Sequence], Tuple[Tuple[str, tuple], ...]] = ()
    constants: Union[Mapping[str, object],
                     Tuple[Tuple[str, object], ...]] = ()
    #: An explicit cell list instead of a grid (see :meth:`from_specs`);
    #: when set, ``axes`` must be empty and ``cells()`` returns these.
    explicit_cells: Optional[Tuple[SweepCell, ...]] = None
    #: Number of seeded replicate runs per grid point (1 = no
    #: replication; the grid is exactly what it was before this field).
    replicates: int = 1
    #: Explicit replicate seeds (overrides the derived ``base_seed + r``
    #: sequence; its length becomes the replicate count).
    seeds: Optional[Tuple[int, ...]] = None
    #: Feasibility predicate over each cell's label dict; ``False``
    #: drops the grid point before execution (validated and reported).
    where: Optional[Callable[[Dict[str, object]], bool]] = None
    #: By default a ``where`` that drops *every* cell raises (an
    #: all-infeasible grid is almost certainly a predicate bug).  Set
    #: True when an empty result is legitimate — e.g. the navigator's
    #: candidate sweep, whose server candidates live outside the grid.
    allow_empty: bool = False

    def __post_init__(self) -> None:
        if self.explicit_cells is not None:
            if self.axes:
                raise ValueError("pass either axes or explicit_cells, "
                                 "not both")
            object.__setattr__(self, "explicit_cells",
                               tuple(self.explicit_cells))
        axes = tuple((key, tuple(values))
                     for key, values in _freeze_items(self.axes))
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "constants", _freeze_items(self.constants))
        self._validate_axes(axes)
        self._validate_grid_control(axes)

    def _validate_axes(self, axes) -> None:
        seen: set = set()
        base_overrides = self.base.overrides
        for key, values in axes:
            if not values:
                raise ValueError(f"axis {key!r} has no values")
            parts = self._parts(key)
            for part in parts:
                if part in seen:
                    raise ValueError(
                        f"axis {part!r} appears more than once in sweep "
                        f"{self.name!r}")
                seen.add(part)
                if (part not in SPEC_AXES and part not in _CONFIG_AXES
                        and part != SEED_AXIS):
                    raise ValueError(
                        f"unknown sweep axis {part!r}; expected a spec axis "
                        f"{SPEC_AXES}, a ServiceConfig knob, or "
                        f"{SEED_AXIS!r}")
                if part in base_overrides:
                    raise ValueError(
                        f"axis {part!r} collides with a config override on "
                        f"the base spec of sweep {self.name!r}")
            if len(parts) > 1:
                for value in values:
                    if not isinstance(value, (tuple, list)) \
                            or len(value) != len(parts):
                        raise ValueError(
                            f"zipped axis {key!r} needs {len(parts)}-tuples, "
                            f"got {value!r}")

    def _validate_grid_control(self, axes) -> None:
        if not isinstance(self.replicates, int) or self.replicates < 1:
            raise ValueError(f"replicates must be a positive integer, got "
                             f"{self.replicates!r}")
        if self.seeds is not None:
            seeds = tuple(self.seeds)
            object.__setattr__(self, "seeds", seeds)
            if not seeds or len(set(seeds)) != len(seeds):
                raise ValueError(f"seeds must be non-empty and distinct, "
                                 f"got {seeds!r}")
            if self.replicates not in (1, len(seeds)):
                raise ValueError(
                    f"replicates={self.replicates} disagrees with "
                    f"{len(seeds)} explicit seeds")
            object.__setattr__(self, "replicates", len(seeds))
        if self._replicated and any(SEED_AXIS in self._parts(key)
                                    for key, _values in axes):
            raise ValueError(
                f"sweep {self.name!r} declares both a {SEED_AXIS!r} axis "
                f"and replicates/seeds; pick one replication style")
        if self.where is not None and not callable(self.where):
            raise ValueError("where must be callable (labels -> bool)")

    @staticmethod
    def _parts(key: str) -> Tuple[str, ...]:
        return tuple(part.strip() for part in key.split(","))

    @property
    def _replicated(self) -> bool:
        return self.replicates > 1 or self.seeds is not None

    def __len__(self) -> int:
        if self.where is not None:
            return len(self.cells())
        if self.explicit_cells is not None:
            total = len(self.explicit_cells)
        else:
            total = 1
            for _key, values in self.axes:
                total *= len(values)
        return total * (self.replicates if self._replicated else 1)

    def cells(self, base_seed: Optional[int] = None) -> List[SweepCell]:
        """Expand the grid to labelled cells (first axis outermost).

        ``base_seed`` anchors derived replicate seeds (replicate ``r``
        runs at ``base_seed + r``); it defaults to
        :data:`DEFAULT_BASE_SEED`, the project-wide seed.
        """
        return list(self.expand(base_seed=base_seed).cells)

    def expand(self, base_seed: Optional[int] = None) -> SweepExpansion:
        """Fully expand the sweep, reporting constrained cells.

        Expansion order: grid (or explicit cells) -> ``where``
        constraint -> replication.  The returned
        :class:`SweepExpansion` carries the dropped label dicts, so grid
        control is observable.
        """
        if self.explicit_cells is not None:
            expanded = [(dict(cell.labels), cell)
                        for cell in self.explicit_cells]
        else:
            expanded = self._grid_cells()
        kept, dropped = self._constrain(expanded)
        cells = self._replicate([cell for _labels, cell in kept], base_seed)
        return SweepExpansion(
            cells=tuple(cells),
            dropped=tuple(labels for labels, _cell in dropped))

    def _grid_cells(self) -> List[Tuple[Dict[str, object], SweepCell]]:
        """The raw cross-product grid as (labels, cell) pairs."""
        axis_parts = [self._parts(key) for key, _values in self.axes]
        value_lists = [values for _key, values in self.axes]
        constants = dict(self.constants)
        cells: List[Tuple[Dict[str, object], SweepCell]] = []
        keys: set = set()
        for combo in itertools.product(*value_lists) if value_lists else [()]:
            assignment: Dict[str, object] = {}
            for parts, value in zip(axis_parts, combo):
                if len(parts) == 1:
                    assignment[parts[0]] = value
                else:
                    assignment.update(zip(parts, value))
            spec_fields = {axis: assignment[axis] for axis in SPEC_AXES
                           if axis in assignment}
            overrides = dict(self.base.config)
            overrides.update({key: value for key, value in assignment.items()
                              if key not in spec_fields
                              and key != SEED_AXIS})
            # Per-cell name: sweep name plus the axis values, so rows /
            # CSV exports stay identifiable (neither cell_key nor the run
            # cache's key reads the name, so this never splits a run).
            suffix = "/".join(str(value) for value in assignment.values())
            spec = ScenarioSpec(
                name=f"{self.name}/{suffix}" if suffix else self.name,
                provider=spec_fields.get("provider", self.base.provider),
                model=spec_fields.get("model", self.base.model),
                runtime=spec_fields.get("runtime", self.base.runtime),
                platform=spec_fields.get("platform", self.base.platform),
                workload=spec_fields.get("workload", self.base.workload),
                config=overrides,
                description=self.base.description,
                seed=assignment.get(SEED_AXIS),
            )
            key = spec.cell_key
            if key in keys:
                raise ValueError(
                    f"sweep {self.name!r} expands to duplicate cell "
                    f"{key!r}; every grid point must be a distinct cell")
            keys.add(key)
            labels = dict(constants)
            labels.update(assignment)
            cells.append((labels, SweepCell(sweep=self.name, labels=labels,
                                            spec=spec)))
        return cells

    def _constrain(self, expanded):
        """Apply ``where``; raise rather than silently emptying the grid."""
        if self.where is None:
            return expanded, []
        kept, dropped = [], []
        for labels, cell in expanded:
            try:
                feasible = bool(self.where(dict(labels)))
            except Exception as exc:
                raise ValueError(
                    f"constraint on sweep {self.name!r} failed for "
                    f"{labels}: {exc}") from exc
            (kept if feasible else dropped).append((labels, cell))
        if expanded and not kept and not self.allow_empty:
            raise ValueError(
                f"constraint on sweep {self.name!r} dropped all "
                f"{len(expanded)} cells; an all-infeasible grid is almost "
                f"certainly a predicate bug (pass allow_empty=True if an "
                f"empty result is legitimate)")
        return kept, dropped

    def _replicate(self, cells: List[SweepCell],
                   base_seed: Optional[int]) -> List[SweepCell]:
        """Expand each cell into K seeded replicate cells."""
        if not self._replicated:
            return cells
        base = DEFAULT_BASE_SEED if base_seed is None else base_seed
        seeds = self.seeds or tuple(base + r for r in range(self.replicates))
        replicated: List[SweepCell] = []
        for cell in cells:
            for replicate, seed in enumerate(seeds):
                spec = cell.spec.with_seed(
                    seed, name=f"{cell.spec.name}/r{replicate}")
                labels = dict(cell.labels)
                labels["replicate"] = replicate
                labels[SEED_AXIS] = seed
                replicated.append(SweepCell(sweep=cell.sweep, labels=labels,
                                            spec=spec))
        return replicated

    def with_replicates(self, replicates: int,
                        seeds: Optional[Sequence[int]] = None) -> "Sweep":
        """A copy of this sweep at a different replication factor.

        The CLI's ``sweep --replicates K`` path: any registered study's
        sweeps can be re-run replicated without re-declaring them.
        """
        return dataclasses.replace(
            self, replicates=replicates,
            seeds=tuple(seeds) if seeds is not None else None)

    @classmethod
    def from_specs(cls, name: str, specs: Sequence[ScenarioSpec],
                   label: str = "scenario") -> "Sweep":
        """A degenerate sweep over an explicit cell list.

        Each spec becomes one cell labelled by its name (under the
        ``label`` column) — the bridge between the registered scenario
        library and the study layer.
        """
        cells = []
        keys: set = set()
        for spec in specs:
            key = spec.cell_key
            if key in keys:
                raise ValueError(f"duplicate cell {key!r} in from_specs")
            keys.add(key)
            cells.append(SweepCell(sweep=name,
                                   labels={label: spec.name or key},
                                   spec=spec))
        base = specs[0] if specs else ScenarioSpec(
            name=name, provider="aws", model="mobilenet")
        return cls(name=name, base=base, explicit_cells=tuple(cells))


# ---------------------------------------------------------------------------
# ResultFrame: the tidy struct-of-arrays result table
# ---------------------------------------------------------------------------

#: The per-cell reduction columns every frame carries, in column order
#: (hybrid cells append their per-path extras after these).  Exposed so
#: consumers that must *declare* the metric columns without running any
#: cell — e.g. the navigator's legitimately-empty candidate frame — stay
#: in lockstep with :func:`_standard_metrics`.
STANDARD_METRIC_COLUMNS: Tuple[str, ...] = (
    "requests",
    "success_ratio",
    "avg_latency_s",
    "p50_latency_s",
    "p99_latency_s",
    "std_latency_s",
    "cost_usd",
    "cold_starts",
    "cold_start_ratio",
    "instances_created",
    "peak_instances",
    "duration_s",
)


def _standard_metrics(result: RunResult) -> Dict[str, object]:
    """The per-cell reductions every frame carries.

    Read off the :class:`~repro.core.results.RunResult` headline
    properties, which serve whole-table and streaming
    :class:`~repro.serving.streaming.OutcomeSummary` cells alike.
    """
    usage = result.usage
    stats = result.latency_stats()
    metrics = {
        "requests": result.total_requests,
        "success_ratio": result.success_ratio,
        "avg_latency_s": result.average_latency,
        "p50_latency_s": stats.p50,
        "p99_latency_s": stats.p99,
        "std_latency_s": stats.std,
        "cost_usd": usage.cost,
        "cold_starts": usage.cold_starts,
        "cold_start_ratio": result.cold_start_ratio,
        "instances_created": usage.instances_created,
        "peak_instances": usage.peak_instances,
        "duration_s": result.duration_s,
    }
    _add_hybrid_metrics(metrics, result)
    return metrics


def _add_hybrid_metrics(metrics: Dict[str, object],
                        result: RunResult) -> None:
    """Per-path columns for hybrid cells (``cost_usd`` is already blended).

    Only hybrid cells carry them — other platforms never populate the
    ``served_by`` outcome column, so frames over non-hybrid sweeps keep
    their exact pre-hybrid column set.  Whole-table and streaming
    :class:`~repro.serving.streaming.OutcomeSummary` cells answer both
    reductions.
    """
    from repro.serving.records import SERVED_BY_PROVISIONED, SERVED_BY_SPILL
    if result.deployment.config.platform != PlatformKind.HYBRID:
        return
    table = result.table
    metrics["spill_ratio"] = table.spill_ratio()
    metrics["provisioned_latency_s"] = table.path_latency_mean(
        SERVED_BY_PROVISIONED)
    metrics["spill_latency_s"] = table.path_latency_mean(SERVED_BY_SPILL)


def _as_scalar(value):
    """Numpy scalars -> plain Python for rows / CSV / JSON."""
    if isinstance(value, np.generic):
        return value.item()
    return value


class ResultFrame:
    """A tidy result table: one row per cell, struct-of-arrays columns.

    Label columns (sweep axes) come first, metric columns after.
    Numeric columns are held as numpy arrays; everything else stays a
    Python list.  Named series (e.g. per-cell timelines) ride along in
    :attr:`series`.
    """

    def __init__(self, columns: Mapping[str, Sequence],
                 series: Optional[Dict[str, List[Dict[str, object]]]] = None,
                 name: str = "",
                 specs: Optional[Sequence[ScenarioSpec]] = None,
                 meta: Optional[Mapping[str, object]] = None):
        self._columns: Dict[str, Sequence] = {}
        length = None
        for key, values in columns.items():
            stored = self._store(values)
            if length is None:
                length = len(stored)
            elif len(stored) != length:
                raise ValueError(
                    f"column {key!r} has {len(stored)} values, expected "
                    f"{length}")
            self._columns[key] = stored
        self.series: Dict[str, List[Dict[str, object]]] = dict(series or {})
        self.name = name
        #: Frame-level bookkeeping: ``labels`` (which columns are sweep
        #: labels), plus whatever the producing study reports —
        #: ``constrained_out`` / ``replicates``.
        self.meta: Dict[str, object] = dict(meta or {})
        self.specs: Optional[List[ScenarioSpec]] = (
            list(specs) if specs is not None else None)
        if self.specs is not None and length not in (None, len(self.specs)):
            raise ValueError("specs must align with the frame's rows")

    @staticmethod
    def _store(values: Sequence) -> Sequence:
        values = list(values)
        if values and all(isinstance(v, (bool, int, float, np.generic))
                          for v in values):
            return np.asarray(values)
        return values

    # -- shape / access ----------------------------------------------------
    @property
    def columns(self) -> List[str]:
        """Column names, labels first."""
        return list(self._columns)

    def __len__(self) -> int:
        if not self._columns:
            return 0
        first = next(iter(self._columns.values()))
        return len(first)

    def __contains__(self, column: str) -> bool:
        return column in self._columns

    def column(self, name: str) -> Sequence:
        """One column as stored (numpy array for numeric columns)."""
        return self._columns[name]

    def __getitem__(self, name: str) -> Sequence:
        return self.column(name)

    def row(self, index: int) -> Dict[str, object]:
        """One row as a plain dictionary."""
        return {key: _as_scalar(values[index])
                for key, values in self._columns.items()}

    def iter_rows(self) -> Iterator[Dict[str, object]]:
        """Iterate over the frame as plain row dictionaries."""
        for index in range(len(self)):
            yield self.row(index)

    # -- relational verbs --------------------------------------------------
    def select(self, *names: str) -> "ResultFrame":
        """A frame with only the named columns (row order preserved).

        On a frame with no columns at all (an empty study — e.g. every
        cell was provider-filtered away) this returns an empty frame
        with the requested column names, so presentation code renders
        "(no rows)" instead of crashing.
        """
        if not self._columns:
            return ResultFrame({name: [] for name in names},
                               series=self.series, name=self.name,
                               meta=self.meta)
        missing = [name for name in names if name not in self._columns]
        if missing:
            raise KeyError(f"unknown columns {missing}; have {self.columns}")
        return ResultFrame({name: self._columns[name] for name in names},
                           series=self.series, name=self.name,
                           specs=self.specs, meta=self.meta)

    def where(self, predicate: Optional[Callable[[Dict[str, object]], bool]]
              = None, **equals) -> "ResultFrame":
        """Rows matching the keyword equalities (and/or a predicate)."""
        if not self._columns:
            return self
        unknown = [key for key in equals if key not in self._columns]
        if unknown:
            raise KeyError(f"unknown columns {unknown}; have {self.columns}")
        keep: List[int] = []
        for index in range(len(self)):
            row = self.row(index)
            if any(row[key] != value for key, value in equals.items()):
                continue
            if predicate is not None and not predicate(row):
                continue
            keep.append(index)
        columns = {}
        for key, values in self._columns.items():
            if isinstance(values, np.ndarray):
                columns[key] = values[keep]
            else:
                columns[key] = [values[i] for i in keep]
        specs = ([self.specs[i] for i in keep]
                 if self.specs is not None else None)
        return ResultFrame(columns, series=self.series, name=self.name,
                           specs=specs, meta=self.meta)

    def pivot(self, index: Union[str, Sequence[str]], columns: str,
              values: Union[str, Mapping[str, str]],
              fmt: str = "{}") -> "ResultFrame":
        """Spread one label column into metric columns (long -> wide).

        ``index`` names the identity columns; each distinct value of
        ``columns`` becomes one new column per requested value column.
        ``values`` is either a single metric column (new columns named
        ``fmt.format(column_value)``) or a mapping of metric column ->
        name template.  Cells absent from the frame yield ``None``.
        """
        index_names = ((index,) if isinstance(index, str) else tuple(index))
        value_map = ({values: fmt} if isinstance(values, str)
                     else dict(values))
        if not self._columns:
            return ResultFrame({name: [] for name in index_names},
                               name=self.name)
        for name in (*index_names, columns, *value_map):
            if name not in self._columns:
                raise KeyError(f"unknown column {name!r}; have {self.columns}")
        spread: List[object] = []
        groups: Dict[tuple, Dict[str, Dict[object, object]]] = {}
        order: List[tuple] = []
        for row in self.iter_rows():
            key = tuple(row[name] for name in index_names)
            if key not in groups:
                groups[key] = {value: {} for value in value_map}
                order.append(key)
            tag = row[columns]
            if tag not in spread:
                spread.append(tag)
            for value in value_map:
                groups[key][value][tag] = row[value]
        out: Dict[str, List[object]] = {name: [] for name in index_names}
        for value, template in value_map.items():
            for tag in spread:
                out[template.format(tag)] = []
        for key in order:
            for name, part in zip(index_names, key):
                out[name].append(part)
            for value, template in value_map.items():
                for tag in spread:
                    out[template.format(tag)].append(
                        groups[key][value].get(tag))
        return ResultFrame(out, name=self.name)

    def with_column(self, name: str, values: Sequence) -> "ResultFrame":
        """A frame with one column appended (or replaced)."""
        if len(values) != len(self):
            raise ValueError(f"column {name!r} has {len(values)} values, "
                             f"expected {len(self)}")
        columns = dict(self._columns)
        columns[name] = values
        return ResultFrame(columns, series=self.series, name=self.name,
                           specs=self.specs, meta=self.meta)

    # -- grouped reductions ------------------------------------------------
    def group_by(self, *keys: str,
                 metrics: Optional[Sequence[str]] = None,
                 count_column: str = "replicates") -> "ResultFrame":
        """Collapse groups of rows into per-group ``mean/std/ci95`` columns.

        Rows sharing the same values of the ``keys`` columns form one
        group (first-seen order preserved).  Every numeric column not in
        ``keys`` — or exactly the columns named by ``metrics`` — yields
        three output columns: ``<metric>_mean``, ``<metric>_std``
        (sample standard deviation, ``ddof=1``; 0 for singleton groups),
        and ``<metric>_ci95`` (the normal-approximation 95 % confidence
        half-width, ``1.96 * std / sqrt(n)``).  A ``count_column``
        records each group's row count.  The ``replicate`` / ``seed``
        label columns are never treated as metrics; any other non-key,
        non-metric column survives only if it is constant within every
        group.

        This is how a replicated study's K x cells frame collapses into
        one row per cell with error bars::

            frame.group_by("provider", "model", "workload", "platform")

        Returns:
            A new :class:`ResultFrame`, one row per group.
        """
        if not keys:
            raise ValueError("group_by needs at least one key column")
        missing = [key for key in keys if key not in self._columns]
        if missing:
            raise KeyError(f"unknown columns {missing}; have {self.columns}")
        excluded = set(keys) | {"replicate", SEED_AXIS}
        if metrics is None:
            metrics = [name for name, values in self._columns.items()
                       if name not in excluded
                       and isinstance(values, np.ndarray)
                       and values.dtype.kind in "iufb"]
        else:
            unknown = [name for name in metrics
                       if name not in self._columns]
            if unknown:
                raise KeyError(f"unknown metric columns {unknown}; "
                               f"have {self.columns}")
        carried = [name for name in self._columns
                   if name not in excluded and name not in metrics]
        groups: Dict[tuple, List[int]] = {}
        order: List[tuple] = []
        for index in range(len(self)):
            key = tuple(_as_scalar(self._columns[name][index])
                        for name in keys)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(index)
        # Non-metric extras survive only when constant within each group.
        constant = []
        for name in carried:
            values = self._columns[name]
            if all(len({repr(_as_scalar(values[i])) for i in rows}) == 1
                   for rows in groups.values()):
                constant.append(name)
        out: Dict[str, List[object]] = {name: [] for name in keys}
        for name in constant:
            out[name] = []
        out[count_column] = []
        for metric in metrics:
            for stat in ("mean", "std", "ci95"):
                out[f"{metric}_{stat}"] = []
        for key in order:
            rows = groups[key]
            for name, part in zip(keys, key):
                out[name].append(part)
            for name in constant:
                out[name].append(_as_scalar(self._columns[name][rows[0]]))
            out[count_column].append(len(rows))
            for metric in metrics:
                values = np.asarray(
                    [self._columns[metric][i] for i in rows], dtype=float)
                mean = float(values.mean())
                std = float(values.std(ddof=1)) if len(rows) > 1 else 0.0
                out[f"{metric}_mean"].append(mean)
                out[f"{metric}_std"].append(std)
                out[f"{metric}_ci95"].append(
                    1.96 * std / math.sqrt(len(rows)))
        meta = dict(self.meta)
        meta["labels"] = list(keys) + constant
        meta["grouped_from_rows"] = len(self)
        return ResultFrame(out, series=self.series, name=self.name,
                           meta=meta)

    def replicate_summary(self) -> "ResultFrame":
        """Collapse replicate rows into per-cell error-bar columns.

        The replication convenience over :meth:`group_by`: groups by
        every label column except ``replicate`` / ``seed`` (the frame
        remembers which columns were sweep labels) and reduces every
        numeric metric to ``mean/std/ci95``.  On a frame without a
        ``replicate`` column this is the identity.

        Raises:
            ValueError: if the frame carries no label metadata (frames
                built by ``Study.run`` / ``from_results`` always do);
                guessing group keys would silently produce per-row
                "statistics", so use :meth:`group_by` with explicit keys
                instead.
        """
        if "replicate" not in self._columns:
            return self
        recorded = self.meta.get("labels")
        if recorded is None:
            raise ValueError(
                "replicate_summary needs the frame's label metadata "
                "(meta['labels']) to know the group keys; this frame has "
                "none — call group_by(*keys) with explicit key columns")
        labels = [name for name in recorded if name in self._columns]
        keys = [name for name in labels
                if name not in ("replicate", SEED_AXIS)]
        if not keys:
            raise ValueError("cannot summarise: every label column is a "
                             "replication column")
        return self.group_by(*keys)

    # -- presentation ------------------------------------------------------
    def to_rows(self, columns: Optional[Sequence[str]] = None,
                round_floats: Optional[int] = None
                ) -> List[Dict[str, object]]:
        """The frame as a list of row dictionaries.

        ``columns`` restricts and orders the output; ``round_floats``
        rounds every float value (the presentation shims' default).
        """
        frame = self.select(*columns) if columns is not None else self
        rows = []
        for row in frame.iter_rows():
            if round_floats is not None:
                row = {key: (round(value, round_floats)
                             if isinstance(value, float) else value)
                       for key, value in row.items()}
            rows.append(row)
        return rows

    def to_csv(self, path: Optional[str] = None) -> str:
        """The frame as CSV text (and optionally write it to ``path``)."""
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.iter_rows():
            writer.writerow([row[name] for name in self.columns])
        text = buffer.getvalue()
        if path:
            with open(path, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        return text

    def to_text(self) -> str:
        """The frame as an aligned plain-text table."""
        return format_table(self.to_rows(round_floats=4))

    def add_series(self, name: str,
                   rows: List[Dict[str, object]]) -> None:
        """Attach one named series (e.g. a per-cell timeline)."""
        self.series[name] = rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ResultFrame {self.name or '(anonymous)'} "
                f"{len(self)} rows x {len(self.columns)} cols>")

    # -- construction ------------------------------------------------------
    @classmethod
    def from_results(cls, cells: Sequence[Tuple[Mapping[str, object],
                                                RunResult]],
                     metrics: Optional[Mapping[str, Callable[[RunResult],
                                                             object]]] = None,
                     name: str = "",
                     specs: Optional[Sequence[ScenarioSpec]] = None
                     ) -> "ResultFrame":
        """Build a frame from ``(labels, result)`` pairs.

        Label columns are the union of all label keys in first-seen
        order (missing labels become ``None``); the standard reductions
        are appended, then any extra ``metrics``.  A metric callable may
        return a mapping, in which case its keys become columns
        directly (the figure-breakdown pattern).

        The column order is *stable*: labels, then the standard metrics,
        then the derived metrics in declaration order.  A mapping-valued
        metric contributes its keys in the mapping's own order when
        every cell agrees on that order; when cells disagree (different
        derived columns per cell), the union is emitted sorted — so CSV
        exports never depend on which cell happened to come first.
        """
        cells = list(cells)
        label_names: List[str] = []
        for labels, _result in cells:
            for key in labels:
                if key not in label_names:
                    label_names.append(key)
        rows: List[Dict[str, object]] = []
        standard_names: List[str] = []
        metric_keys: Dict[str, List[Tuple[str, ...]]] = {
            metric: [] for metric in (metrics or {})}
        for labels, result in cells:
            row = {key: labels.get(key) for key in label_names}
            standard = _standard_metrics(result)
            if not standard_names:
                standard_names = list(standard)
            row.update(standard)
            for metric, fn in (metrics or {}).items():
                value = fn(result)
                if isinstance(value, Mapping):
                    row.update(value)
                    metric_keys[metric].append(tuple(value))
                else:
                    row[metric] = value
                    metric_keys[metric].append((metric,))
            rows.append(row)
        names = list(label_names)
        names.extend(key for key in standard_names if key not in names)
        for metric in (metrics or {}):
            sequences = set(metric_keys[metric])
            if len(sequences) <= 1:
                ordered = metric_keys[metric][0] if sequences else ()
            else:
                ordered = sorted({key for sequence in sequences
                                  for key in sequence})
            names.extend(key for key in ordered if key not in names)
        columns = {key: [row.get(key) for row in rows] for key in names}
        if not rows:
            columns = {}
        return cls(columns, name=name, specs=specs,
                   meta={"labels": label_names})

    @classmethod
    def from_rows(cls, rows: Sequence[Mapping[str, object]], name: str = "",
                  specs: Optional[Sequence[ScenarioSpec]] = None,
                  meta: Optional[Mapping[str, object]] = None
                  ) -> "ResultFrame":
        """Build a frame from row dictionaries (column union, None fill)."""
        names: List[str] = []
        for row in rows:
            for key in row:
                if key not in names:
                    names.append(key)
        columns = {key: [row.get(key) for row in rows] for key in names}
        return cls(columns, name=name, specs=specs, meta=meta)


# ---------------------------------------------------------------------------
# Study: named sweeps + derived metrics -> ResultFrame
# ---------------------------------------------------------------------------

#: A per-cell series builder: (context, spec, result) -> series rows.
SeriesFn = Callable[[object, ScenarioSpec, RunResult],
                    List[Dict[str, object]]]


@dataclass
class Study:
    """A named experiment: sweeps, derived metrics, and named series.

    ``metrics`` adds derived columns (callables over each cell's
    :class:`RunResult`; mapping-valued callables expand to several
    columns).  ``series`` maps *name templates* — formatted with the
    cell's labels — to series builders; each cell contributes one named
    series per entry.  ``reads`` declares the row-level answers those
    read off each cell's summary, as ``("timeline", bin_s)`` and
    ``("slo", target_s)`` pairs
    (:func:`~repro.serving.streaming.declared_reads`): the run cache
    keeps those answers instead of the cells' row-order arrays, and a
    cell asked for one it was not declared raises ``ValueError``.

    Studies are the registerable unit the CLI runs by name::

        from repro.api import ScenarioSpec, Study, Sweep, register_study

        study = register_study(Study(
            name="cost-vs-memory",
            title="Cost against memory size",
            sweeps=Sweep(name="cost-vs-memory",
                         base=ScenarioSpec(name="m", provider="aws",
                                           model="mobilenet"),
                         axes={"memory_gb": (2.0, 4.0, 8.0)}),
            metrics={"cost_per_1k": lambda r: 1000 * r.cost
                     / max(r.total_requests, 1)},
        ))
        frame = study.run()          # -> ResultFrame, one row per cell

    (Run it later with ``repro-experiments sweep cost-vs-memory``.)
    """

    name: str
    sweeps: Sequence[Sweep]
    title: str = ""
    metrics: Union[Mapping[str, Callable[[RunResult], object]],
                   Tuple] = ()
    series: Union[Mapping[str, SeriesFn], Tuple] = ()
    notes: Union[Mapping[str, object], Tuple] = ()
    reads: Tuple[Tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if isinstance(self.sweeps, Sweep):
            self.sweeps = (self.sweeps,)
        self.sweeps = tuple(self.sweeps)
        self.metrics = dict(_freeze_items(self.metrics))
        self.series = dict(_freeze_items(self.series))
        self.notes = dict(_freeze_items(self.notes))
        self.reads = declared_reads(self.reads)

    def expansions(self, context=None) -> List[Tuple[Sweep, SweepExpansion]]:
        """Each sweep's full expansion, anchored at the context's seed."""
        base_seed = context.seed if context is not None else None
        return [(sweep, sweep.expand(base_seed=base_seed))
                for sweep in self.sweeps]

    def cells(self, context=None) -> List[SweepCell]:
        """Every sweep cell, filtered to the context's providers."""
        cells = [cell for _sweep, expansion in self.expansions(context)
                 for cell in expansion.cells]
        if context is not None:
            cells = [cell for cell in cells
                     if cell.spec.provider in context.providers]
        return cells

    def __len__(self) -> int:
        return sum(len(sweep) for sweep in self.sweeps)

    def with_replicates(self, replicates: int,
                        seeds: Optional[Sequence[int]] = None) -> "Study":
        """A copy of this study with every sweep replicated K times."""
        return Study(name=self.name,
                     sweeps=[sweep.with_replicates(replicates, seeds)
                             for sweep in self.sweeps],
                     title=self.title, metrics=self.metrics,
                     series=self.series, notes=self.notes,
                     reads=self.reads)

    def run(self, context=None) -> ResultFrame:
        """Execute every cell and assemble the tidy frame.

        Every cell runs in one
        :meth:`~repro.experiments.base.ExperimentContext.run_specs`
        batch, with this study's ``reads``: through the context's shared
        run cache (so studies overlapping on cells — e.g. fig05 and
        table1 — simulate each cell once) and its parallel fan-out when
        ``context.workers`` > 1.
        Cells whose provider is outside ``context.providers`` are
        dropped first.

        Grid control is reported, never silent: the frame's ``meta``
        carries ``constrained_out`` (cells dropped by a sweep's
        ``where`` predicate) and ``replicates`` (per-sweep replication
        factor) whenever a sweep used those hooks.
        """
        if context is None:
            from repro.experiments.base import ExperimentContext
            context = ExperimentContext()
        expansions = self.expansions(context)
        cells = [cell for _sweep, expansion in expansions
                 for cell in expansion.cells
                 if cell.spec.provider in context.providers]
        specs = [cell.spec for cell in cells]
        results = list(zip([cell.labels for cell in cells],
                           context.run_specs(specs, self.reads)))
        frame = ResultFrame.from_results(
            results, metrics=self.metrics, name=self.name, specs=specs)
        constrained = {sweep.name: len(expansion.dropped)
                       for sweep, expansion in expansions
                       if expansion.dropped}
        replicated = {sweep.name: sweep.replicates
                      for sweep, _expansion in expansions
                      if sweep._replicated}
        if constrained:
            frame.meta["constrained_out"] = constrained
        if replicated:
            frame.meta["replicates"] = replicated
        for template, fn in self.series.items():
            for cell, (_labels, result) in zip(cells, results):
                key = template.format(**{**cell.spec.as_row(),
                                         **cell.labels})
                frame.add_series(key, fn(context, cell.spec, result))
        return frame


# ---------------------------------------------------------------------------
# Study registry (the CLI's `sweep <name>` lookup)
# ---------------------------------------------------------------------------

_STUDIES: Dict[str, Study] = {}


def register_study(study: Study, overwrite: bool = False) -> Study:
    """Add ``study`` to the named registry (experiments self-register)."""
    existing = _STUDIES.get(study.name)
    if existing is not None and existing is not study and not overwrite:
        raise ValueError(f"study {study.name!r} is already registered "
                         f"(pass overwrite=True)")
    _STUDIES[study.name] = study
    return study


def get_study(name: str) -> Study:
    """Look up a registered study by name."""
    if name not in _STUDIES:
        raise KeyError(f"unknown study {name!r}; known: {list_studies()}")
    return _STUDIES[name]


def list_studies() -> List[str]:
    """Names of every registered study."""
    return sorted(_STUDIES)


def study_library() -> Iterator[Study]:
    """Iterate over the registered studies."""
    for name in list_studies():
        yield _STUDIES[name]


# ---------------------------------------------------------------------------
# Plain-text table rendering (shared by frames and the CLI)
# ---------------------------------------------------------------------------

def format_table(rows: Sequence[Mapping[str, object]]) -> str:
    """Render a list of dictionaries as an aligned plain-text table."""
    if not rows:
        return "(no rows)"
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    rendered = [[_format_cell(row.get(column, "")) for column in columns]
                for row in rows]
    widths = [max(len(column), *(len(line[i]) for line in rendered))
              for i, column in enumerate(columns)]
    header = "  ".join(column.ljust(widths[i])
                       for i, column in enumerate(columns))
    separator = "  ".join("-" * width for width in widths)
    body = [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line))
        for line in rendered
    ]
    return "\n".join([header, separator, *body])


def _format_cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)
