#!/usr/bin/env bash
# One-stop CI / pre-commit gate:
#
#   scripts/check.sh          tier-1 tests + docstring gate + perf probes
#                             + benchmark-harness self-test + smokes
#   scripts/check.sh --fast   tests only (skip docstring + perf gates)
#   scripts/check.sh --docs   the above plus the docs build/validation
#
# The perf gate is benchmarks/bench_engine_throughput.py --check.  It
# first gates three deterministic counters of the fixed probe cell
# (w-40 at scale 0.3, seed 7) against BENCH_engine.json: calendar
# events must equal the recorded count exactly, cProfile calls per
# request may be at most 2% above the recorded value, and the bytes
# the cell's outcome table stores per row (OutcomeTable.resident_bytes,
# an exact count) may not exceed the recorded value.  The calendar
# events of the fault-injection and hybrid probes, the routing probe's
# circuit-breaker trips (250), and the search probe's simulated cells
# (127) and rungs (5) must equal their recorded counts exactly too.
# The routed probe (the probe cell behind failover-crash's two-region
# front door: weighted routing, breakers, p95 hedging, crashes and
# retries) gates its calendar events exactly and its cProfile calls
# per request at most 2% above the recorded value; its req/s is
# printed but not gated.  The hybrid probe's cProfile calls per
# request are gated the same way (its spill path parks serverless
# instances on their idle line, so keep-alive work shows there too).
# These do not depend on the host's speed (only on the Python and
# numpy versions, like the recorded baseline).  It then gates, on
# wall-clock: the
# fixed simulation probe cell, the whole-table fold probe
# (OutcomeSummary.of_table over the probe cell's rows), the
# control-plane (pool / policy / queue) probe, the study-layer
# (ResultFrame build/query) probe, the replicated-frame (group_by
# collapse) probe, the fault-injection probe (the probe cell under
# an active chaos schedule), the routing probe (the multi-region
# router's decision cycle under active breakers), the hybrid probe
# (the probe cell spilling from an undersized provisioned fleet to
# serverless), the streaming probe (chunked recorder fold, with
# flat-RSS and resident-chunk residency gates), and the search probe (the successive-halving schedule over
# a 512-candidate closed-form surface), each compared against
# BENCH_engine.json with a 30% regression tolerance.  The chaos,
# failover, hybrid, and halving smokes then run one registered chaos
# scenario, a single-replicate failover-recovery study, a registered
# hybrid spill scenario, and a budgeted navigator-halving search end
# to end through the CLI sweep path, and the flat-RSS smoke (scripts/rss_smoke.py) runs the
# streamed w-1m workload at two request scales and asserts peak RSS
# stays flat in the trace length.  The pooled-suite smoke runs every
# registered experiment (`all --scale 0.03`) serially and over two
# worker processes and fails unless the two reports match, apart from
# the `elapsed_s` notes: the pooled cells are reduced in their workers,
# so this is where a study that reads rows over the pool would break.
# The run-cache gate (part of --check) runs the fig05 study (AWS half,
# scale 0.02) and requires the bytes its run cache keeps per cell
# (OutcomeSummary.resident_bytes, exact) to equal the recorded count.
# Regenerate the baseline with
# `python benchmarks/bench_engine_throughput.py` on the machine that
# runs the gate.  It runs after every other step (see below).
#
# The benchmark-harness self-test (perfbench/selftest.py, ~20 s) runs
# every perfbench workload at a tiny scale in both modes and checks
# digests, metrics, and the harness's failure accounting, so a src/
# change that breaks the harness fails here rather than in the next
# performance measurement.  The benchmark-reference step then runs
# both perfbench workloads once at full size and seed 7
# (`perfbench/run.py --workload W --seconds 0 --trace 0`, ~10 s each)
# and fails unless the last line reports `"failed": 0`: every cell must
# reproduce the digest and cost committed in perfbench/reference.json,
# so a src/ change that moves a benchmark output fails here too.
#
# The docstring gate (scripts/check_docstrings.py) requires every
# public repro.api name documented; the docs gate
# (scripts/build_docs.py) validates the mkdocs nav, internal links,
# and the generated API reference, and builds the site when mkdocs is
# installed.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 tests =="
python -m pytest -q

if [[ "${1:-}" != "--fast" ]]; then
    echo "== docstring coverage (repro.api surface) =="
    python scripts/check_docstrings.py

    echo "== benchmark-harness self-test (perfbench at a tiny scale) =="
    python3 perfbench/selftest.py

    echo "== benchmark reference (perfbench cells vs reference.json) =="
    for workload in serial-cells study-fig05; do
        python3 perfbench/run.py --workload "$workload" --seconds 0 \
            --trace 0 | tail -n 1 | python3 -c '
import json, sys
line = sys.stdin.read().strip()
print(line)
sys.exit(json.loads(line)["failed"] != 0)'
    done

    echo "== chaos-scenario smoke (fault injection via the CLI) =="
    python -m repro.experiments.runner sweep chaos-outage --scale 0.3

    echo "== failover smoke (multi-region routing via the CLI) =="
    python -m repro.experiments.runner sweep failover-recovery \
        --scale 0.3 --replicates 1

    echo "== hybrid smoke (spill front door via the CLI) =="
    python -m repro.experiments.runner sweep hybrid-burst --scale 0.3

    echo "== halving smoke (budgeted design-space search via the CLI) =="
    python -m repro.experiments.runner sweep navigator-halving \
        --budget 32 --scale 0.3

    echo "== flat-RSS smoke (streamed w-1m at two scales) =="
    python scripts/rss_smoke.py

    echo "== pooled-suite smoke (all --scale 0.03: --workers 2 == serial) =="
    serial=$(python -m repro.experiments.runner all --scale 0.03)
    pooled=$(python -m repro.experiments.runner all --scale 0.03 --workers 2)
    diff <(grep -v 'note: elapsed_s' <<<"$serial") \
         <(grep -v 'note: elapsed_s' <<<"$pooled")
fi

if [[ "${1:-}" == "--docs" ]]; then
    echo "== docs build =="
    python scripts/build_docs.py
fi

if [[ "${1:-}" != "--fast" ]]; then
    # Last: a wall-clock floor can trip on a slow host alone, and under
    # set -e every step after this one would then be skipped.
    echo "== perf gate (engine + columnar + control-plane + frame probes) =="
    python benchmarks/bench_engine_throughput.py --check
fi

echo "check.sh: OK"
