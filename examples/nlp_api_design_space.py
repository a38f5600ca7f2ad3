"""ALBERT question-answering API: exploring the serverless design space.

A data scientist exposes an ALBERT-based NLP model as an API and wants
to know how the serverless design-space choices from Section 5 of the
paper — serving runtime, memory size, and batch size — affect latency
and cost.  The example first declares the choices as a
:class:`~repro.api.Sweep` (the grid is data; the result is a tidy
frame), then lets the design-space navigator (Section 6, challenge #3)
pick a runtime, memory size and batch size under a latency constraint.

Run with::

    python examples/nlp_api_design_space.py
"""

from repro import standard_workload
from repro.api import ScenarioSpec, Sweep, run_study
from repro.tools import DesignSpaceNavigator, NavigationConstraints

MODEL = "albert"
PROVIDER = "aws"
WORKLOAD = "w-40"
SCALE = 0.15
LATENCY_SLO_S = 1.0


def sweep() -> None:
    grid = Sweep(
        name="albert-api",
        base=ScenarioSpec(name="albert-api", provider=PROVIDER, model=MODEL,
                          platform="serverless", workload=WORKLOAD),
        axes={"runtime": ("tf1.15", "ort1.4"),
              "memory_gb": (2.0, 4.0)},
    )
    frame = run_study(grid, seed=3, scale=SCALE)
    print("Declarative design-space sweep (runtime x memory):")
    print(frame.select("runtime", "memory_gb", "avg_latency_s", "cost_usd",
                       "cold_starts").to_text())


def navigate() -> None:
    workload = standard_workload(WORKLOAD, seed=3, scale=SCALE)
    navigator = DesignSpaceNavigator(
        provider=PROVIDER,
        model=MODEL,
        memory_sizes_gb=(2.0, 4.0),
        batch_sizes=(1, 2),
    )
    constraints = NavigationConstraints(max_latency_s=LATENCY_SLO_S,
                                        min_success_ratio=0.99,
                                        objective="cost")
    outcome = navigator.search(workload, constraints)
    print(f"\nNavigator evaluated {len(outcome.evaluated)} configurations, "
          f"{len(outcome.feasible)} feasible.")
    if outcome.found:
        best = outcome.best
        print(f"Best under a {LATENCY_SLO_S}s SLO: {best['runtime']} / "
              f"{best['memory_gb']:.0f}GB / batch {best['batch_size']} — "
              f"{best['avg_latency_s']:.3f}s, ${best['cost_usd']:.4f}")
    else:
        print("No configuration met the constraints.")


def main() -> None:
    sweep()
    navigate()


if __name__ == "__main__":
    main()
