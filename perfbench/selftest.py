"""Self-test of the benchmark harness at a tiny scale (about a minute).

Run from the repository root::

    python3 perfbench/selftest.py

Checks that every metric ``BENCHMARK.json`` names prints with its unit
in both modes, that the digests of a freshly recorded tiny-scale
reference verify, that a corrupted reference is counted as a failed
cell rather than crashing the run, that the command line prints the
result object as its last line, and that ``layers.json`` and
``reference.json`` cover exactly the benchmark's metrics and workloads.
"""

from __future__ import annotations

import copy
import json
import math
import subprocess
import sys

from record import record
from run import HERE, REFERENCE, ROOT, SPEC, WORKLOADS, run_benchmark

#: Shrinks every workload to a few thousand simulated requests.
TINY = 0.02


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_metrics(result: dict, expected: dict, label: str) -> None:
    """Every expected metric, and only those, with its unit and a number."""
    metrics = result["metrics"]
    check(set(metrics) == set(expected),
          f"{label}: metrics {sorted(set(metrics) ^ set(expected))} "
          f"missing or unexpected")
    for name, unit in expected.items():
        value = metrics[name]["value"]
        check(metrics[name]["unit"] == unit, f"{label}: {name} unit")
        check(isinstance(value, float) and math.isfinite(value),
              f"{label}: {name} = {value!r}")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1
          and isinstance(result["failed"], int), f"{label}: counts")


def main() -> None:
    spec = json.loads(SPEC.read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    names = [w["name"] for w in spec["workloads"]]
    check(sorted(names) == sorted(WORKLOADS), "BENCHMARK.json workloads")

    layers = json.loads((HERE / "layers.json").read_text())["metrics"]
    check(set(layers) == set(per_layer), "layers.json metrics")
    for name, entry in layers.items():
        for metric, workloads in entry["moves"].items():
            check(metric in end_to_end and set(workloads) <= set(names),
                  f"layers.json {name}")

    stored = json.loads(REFERENCE.read_text())
    for name, workload in WORKLOADS.items():
        check(stored["workloads"][name]["scale"] == workload.base_scale,
              f"reference.json {name} scale")

    tiny = record(TINY)
    for name in names:
        for trace, expected in ((False, end_to_end), (True, per_layer)):
            label = f"{name} trace={int(trace)}"
            result = run_benchmark(name, seconds=0, trace=trace,
                                   scale_factor=TINY, reference=tiny)
            check_metrics(result, expected, label)
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"]
                  >= len(tiny["workloads"][name]["cells"]),
                  f"{label}: digests do not verify: {result}")
        corrupted = copy.deepcopy(tiny)
        cell_digests = corrupted["workloads"][name]["cells"]
        cell = next(iter(cell_digests.values()))
        cell["digest"] = "0" * 64
        result = run_benchmark(name, seconds=0, scale_factor=TINY,
                               reference=corrupted)
        runs = result["attempted"] // len(cell_digests)
        check(not result["correct"] and result["failed"] == runs,
              f"{name}: corrupted reference not counted: {result}")
        check_metrics(result, end_to_end, f"{name} corrupted")

    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", names[0],
         "--seed", "3", "--seconds", "0", "--trace", "0",
         "--scale-factor", repr(TINY)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=180)
    lines = completed.stdout.strip().splitlines()
    check(any(line.startswith("cell ") for line in lines[:-1]),
          "off-default seed prints no cell digests")
    result = json.loads(lines[-1])
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
          "result keys")
    check_metrics(result, end_to_end, "command line")
    print("selftest ok")


if __name__ == "__main__":
    main()
