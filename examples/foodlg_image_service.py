"""FoodLG-style nutrition analysis service: choosing a serving platform.

The paper's motivating application (Section 1) classifies food photos
sent from a mobile app and returns nutrition facts.  The workload is
bursty — meal times create demand surges — which is exactly what the
MMPP workloads model.  This example plays the role of the FoodLG data
scientist: it evaluates the four serving options on both clouds for the
image-classification model and prints a recommendation based on a
latency SLO and a budget.

Run with::

    python examples/foodlg_image_service.py
"""

from repro import Planner, PlatformKind, ServingBenchmark, standard_workload

#: Mobile users give up if a photo takes longer than this to analyse.
LATENCY_SLO_S = 1.0
#: Budget for one 15-minute peak period (scaled with the workload).
BUDGET_USD = 0.30

MODEL = "mobilenet"
RUNTIME = "tf1.15"
WORKLOAD = "w-120"
SCALE = 0.15


def main() -> None:
    planner = Planner()
    benchmark = ServingBenchmark(seed=11)
    workload = standard_workload(WORKLOAD, seed=11, scale=SCALE)
    budget = BUDGET_USD * SCALE

    print(f"FoodLG image service — model={MODEL}, workload={WORKLOAD} "
          f"(scale {SCALE}), SLO {LATENCY_SLO_S}s, budget ${budget:.3f}\n")

    rows = []
    for provider in ("aws", "gcp"):
        for platform in (PlatformKind.SERVERLESS, PlatformKind.MANAGED_ML,
                         PlatformKind.CPU_SERVER, PlatformKind.GPU_SERVER):
            deployment = planner.plan(provider, MODEL, RUNTIME, platform)
            result = benchmark.run(deployment, workload)
            rows.append({
                "provider": provider,
                "platform": platform,
                "latency_s": result.average_latency,
                "success": result.success_ratio,
                "cost_usd": result.cost,
            })

    print(f"{'provider':<9s}{'platform':<13s}{'latency':>9s}{'success':>9s}"
          f"{'cost':>9s}  meets SLO+budget?")
    feasible = []
    for row in rows:
        ok = (row["latency_s"] <= LATENCY_SLO_S
              and row["success"] >= 0.99
              and row["cost_usd"] <= budget)
        if ok:
            feasible.append(row)
        print(f"{row['provider']:<9s}{row['platform']:<13s}"
              f"{row['latency_s']:>8.3f}s{row['success']:>9.3f}"
              f"{row['cost_usd']:>9.4f}  {'yes' if ok else 'no'}")

    if feasible:
        best = min(feasible, key=lambda row: row["cost_usd"])
        print(f"\nRecommendation: {best['provider']} {best['platform']} — "
              f"cheapest option meeting the SLO "
              f"(${best['cost_usd']:.4f}, {best['latency_s']:.3f}s).")
    else:
        fastest = min(rows, key=lambda row: row["latency_s"])
        print("\nNo option meets both the SLO and the budget; the fastest is "
              f"{fastest['provider']} {fastest['platform']} "
              f"at {fastest['latency_s']:.3f}s.")


if __name__ == "__main__":
    main()
