"""Command-line runner for the paper's experiments and studies.

Examples::

    repro-experiments --list
    repro-experiments --scenarios
    repro-experiments fig05 --scale 0.2
    repro-experiments table1 fig10 --scale 1.0 --output results.txt
    repro-experiments all --scale 0.1 --providers aws
    repro-experiments sweep fig15 --scale 0.1 --csv fig15.csv
    repro-experiments sweep burst-storm --scale 0.2
"""

from __future__ import annotations

import argparse
import difflib
import sys
import time
from typing import List, Optional, Sequence

from repro.core.scenario import get_scenario, list_scenarios, scenario_library
from repro.core.study import ResultFrame, Study, Sweep, get_study, list_studies
from repro.tools.search import SearchStudy
from repro.experiments.base import (
    ExperimentContext,
    ExperimentResult,
    list_experiments,
    load_registered_studies,
    run_experiment,
)
from repro.workload.generator import known_workloads, workload_spec

__all__ = ["main", "build_parser", "run_selected"]


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce the paper's figures and tables on the "
                    "simulated cloud, or run registered studies and "
                    "scenarios as sweeps.")
    parser.add_argument("experiments", nargs="*",
                        help="experiment ids (e.g. fig05 table1), 'all', or "
                             "'sweep <study-or-scenario> [...]' to run "
                             "named sweeps and print their result frame")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments, studies, "
                             "scenarios, and workloads, then exit")
    parser.add_argument("--scenarios", action="store_true",
                        help="list the registered scenario library (with "
                             "descriptions) and workloads, then exit")
    parser.add_argument("--scale", type=float, default=0.2,
                        help="time-compression factor for the workloads "
                             "(1.0 = the paper's full 15-minute workloads)")
    parser.add_argument("--seed", type=int, default=7,
                        help="random seed shared by all experiments")
    parser.add_argument("--providers", default="aws,gcp",
                        help="comma-separated providers to evaluate")
    parser.add_argument("--workers", type=int, default=0,
                        help="fan independent experiment cells out over "
                             "this many worker processes (0 = serial, "
                             "-1 = one per core); results are identical "
                             "to serial mode")
    parser.add_argument("--output", default="",
                        help="write the report to this file as well as stdout")
    parser.add_argument("--csv", default="",
                        help="write the result table as CSV to this file "
                             "(one experiment or sweep at a time)")
    parser.add_argument("--replicates", type=int, default=None,
                        help="run every sweep cell this many times at "
                             "derived seeds (seed, seed+1, ...) and report "
                             "per-cell mean/std/ci95 columns (sweep "
                             "subcommand only); overrides a study's "
                             "declared replication in both directions, so "
                             "--replicates 1 turns a K=5 study into a "
                             "single-run smoke cell")
    parser.add_argument("--budget", type=int, default=None,
                        help="cap the simulated cells of an adaptive "
                             "search study (sweep subcommand, search "
                             "studies such as navigator-halving only); "
                             "candidates beyond the budget are still "
                             "ranked through the analytic cost model")
    return parser


def _suggest(name: str, known: Sequence[str]) -> str:
    """Append near-misses to an unknown-name error message."""
    close = difflib.get_close_matches(name, known, n=3, cutoff=0.4)
    if close:
        return f"{name!r} (did you mean: {', '.join(close)}?)"
    return repr(name)


def run_selected(ids: List[str], context: ExperimentContext) -> List[ExperimentResult]:
    """Run the selected experiments, sharing the context's caches."""
    results = []
    for experiment_id in ids:
        started = time.time()
        result = run_experiment(experiment_id, context)
        result.notes["elapsed_s"] = round(time.time() - started, 1)
        results.append(result)
    return results


def _scenario_families(scenarios: Sequence[str]) -> List[str]:
    """Derive the --list families from the registered scenario names.

    A name prefix (everything before the first ``-``) forms its own
    family when at least two registered scenarios share it — so the
    chaos, failover, and hybrid libraries (and any future library)
    group themselves without this module keeping a hard-coded roster.
    Everything else is a ``base`` scenario; ``base`` lists first, the
    derived families follow alphabetically.
    """
    counts: dict = {}
    for name in scenarios:
        prefix = name.split("-", 1)[0]
        counts[prefix] = counts.get(prefix, 0) + 1
    return ["base"] + sorted(prefix for prefix, count in counts.items()
                             if count >= 2)


def _scenario_family(name: str, families: Sequence[str]) -> str:
    """The --list family of a scenario name (``base`` by default)."""
    prefix = name.split("-", 1)[0]
    return prefix if prefix in families else "base"


def _print_listing() -> None:
    """The --list report: every runnable name, grouped by kind.

    Scenarios are further grouped by family — ``base`` scenarios plus
    every registry-derived library prefix (chaos, failover, hybrid,
    ...) — so the scenario libraries read as units.
    """
    load_registered_studies()
    print("Available experiments:")
    for experiment_id in list_experiments():
        print(f"  {experiment_id}")
    studies = list_studies()
    if studies:
        print("\nRegistered studies (run with: sweep <name>):")
        for name in studies:
            print(f"  {name}")
    scenarios = list_scenarios()
    if scenarios:
        print("\nRegistered scenarios (run with: sweep <name>):")
        families = _scenario_families(scenarios)
        grouped = {family: [name for name in scenarios
                            if _scenario_family(name, families) == family]
                   for family in families}
        for family in families:
            if grouped[family]:
                print(f"  [{family}]")
                for name in grouped[family]:
                    print(f"    {name}")
    print("\nKnown workloads:")
    workloads = known_workloads()
    families = [""] + sorted({workload_spec(name).family
                              for name in workloads
                              if workload_spec(name).family})
    for family in families:
        members = [name for name in workloads
                   if workload_spec(name).family == family]
        if not members:
            continue
        if family:
            print(f"  [{family}]")
            for name in members:
                print(f"    {name}")
        else:
            for name in members:
                print(f"  {name}")


def _print_scenarios() -> None:
    """The --scenarios report: the scenario library with descriptions."""
    print("Registered scenarios:")
    for spec in scenario_library():
        print(f"  {spec.name}")
        print(f"    cell: {spec.cell_key}")
        if spec.description:
            print(f"    {spec.description}")
    print("\nKnown workloads:")
    for name in known_workloads():
        spec = workload_spec(name)
        print(f"  {name}: high {spec.high_rate:g} req/s, "
              f"low {spec.low_rate:g} req/s, "
              f"{spec.target_requests} requests over {spec.duration_s:g} s")


def _resolve_study(name: str,
                   parser: argparse.ArgumentParser) -> Study:
    """A named study, or a registered scenario wrapped as one."""
    load_registered_studies()
    if name in list_studies():
        return get_study(name)
    if name in list_scenarios():
        return Study(name=name,
                     sweeps=Sweep.from_specs(name, [get_scenario(name)]))
    known = sorted(set(list_studies()) | set(list_scenarios()))
    parser.error(f"unknown study or scenario {_suggest(name, known)}; "
                 f"known: {known}")


def _run_sweeps(names: List[str], args,
                parser: argparse.ArgumentParser) -> int:
    """The `sweep` subcommand: run named studies, print their frames.

    A replicated study (declared ``replicates=K`` or forced with
    ``--replicates K``) is reported collapsed — one row per cell with
    ``mean/std/ci95`` columns — after stating the raw replicate-row
    count; the CSV export carries the same stat columns.  Cells removed
    by a sweep's constraint are counted in the report header, never
    dropped silently.
    """
    if not names:
        parser.error("sweep requires at least one study or scenario name "
                     "(see --list)")
    if args.csv and len(names) > 1:
        parser.error("--csv supports one sweep at a time")
    if args.replicates is not None and args.replicates < 1:
        parser.error("--replicates must be >= 1")
    if args.budget is not None and args.budget < 1:
        parser.error("--budget must be >= 1")
    context = _build_context(args)
    reports = []
    for name in names:
        study = _resolve_study(name, parser)
        is_search = isinstance(study, SearchStudy)
        if args.replicates is not None:
            if is_search:
                parser.error(f"--replicates does not apply to the "
                             f"adaptive search study {study.name!r}; "
                             f"rung seeds are already derived per rung")
            study = study.with_replicates(args.replicates)
        if args.budget is not None:
            if not is_search:
                parser.error(f"--budget only applies to adaptive search "
                             f"studies (e.g. navigator-halving), not "
                             f"{study.name!r}")
            study = study.with_budget(args.budget)
        frame = study.run(context)
        title = study.title or study.name
        lines = [f"== sweep {study.name}: {title} ==",
                 f"  cells: {len(frame)}  scale: {context.scale}"]
        halving = frame.meta.get("halving")
        if halving:
            budget = halving.get("budget_cells")
            lines.append(
                f"  halving: eta={halving['eta']}"
                + (f"  budget={budget}" if budget else "")
                + (f"  analytic-only={halving['analytic_only']}"
                   if halving.get("analytic_only") else ""))
            for rung in halving["rungs"]:
                lines.append(
                    f"    rung {rung['rung']}: {rung['candidates']} "
                    f"candidates @ fidelity {rung['fidelity']:g} -> "
                    f"{rung['survivors']} survive "
                    f"({rung['simulated']} simulated, "
                    f"{rung['cached']} cached)")
        constrained = frame.meta.get("constrained_out")
        if constrained:
            lines.append("  constraint dropped: "
                         + ", ".join(f"{sweep}: {count}"
                                     for sweep, count in constrained.items()))
        output_frame = frame
        if "replicate" in frame:
            output_frame = frame.replicate_summary()
            lines.append(f"  replicated: {len(frame)} runs collapsed to "
                         f"{len(output_frame)} cells (mean/std/ci95)")
        lines.append(output_frame.to_text())
        reports.append("\n".join(lines))
        if args.csv:
            output_frame.to_csv(args.csv)
    _emit_report("\n\n".join(reports), args.output)
    return 0


def _emit_report(report: str, output: str) -> None:
    """Print the report, mirroring it to ``output`` when given."""
    print(report)
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")


def _build_context(args) -> ExperimentContext:
    return ExperimentContext(
        seed=args.seed,
        scale=args.scale,
        providers=tuple(p.strip() for p in args.providers.split(",")
                        if p.strip()),
        workers=args.workers,
    )


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.scenarios:
        _print_scenarios()
        return 0
    if args.list or not args.experiments:
        _print_listing()
        return 0
    if not 0.0 < args.scale <= 1.0:
        parser.error(f"--scale must be in (0, 1], got {args.scale:g}")
    if args.experiments[0] == "sweep":
        return _run_sweeps(args.experiments[1:], args, parser)

    ids = list_experiments() if args.experiments == ["all"] else args.experiments
    unknown = [i for i in ids if i not in list_experiments()]
    if unknown:
        suggestions = ", ".join(_suggest(name, list_experiments())
                                for name in unknown)
        parser.error(f"unknown experiments: {suggestions}")
    if args.csv and len(ids) > 1:
        parser.error("--csv supports one experiment at a time")

    context = _build_context(args)
    results = run_selected(ids, context)
    _emit_report("\n\n".join(result.to_text() for result in results),
                 args.output)
    if args.csv:
        ResultFrame.from_rows(results[0].rows).to_csv(args.csv)
    return 0


if __name__ == "__main__":  # pragma: no cover - manual invocation
    sys.exit(main())
