"""Record the reference digests the benchmark checks every cell against.

Run from the repository root, only when the simulated outputs are meant
to change::

    python3 perfbench/record.py

Runs every workload once at the default seed and writes each cell's
output digest (``OutcomeTable.column_hash()``, or
``OutcomeSummary.digest()`` for streamed cells) and cost to
``reference.json``.
"""

from __future__ import annotations

import json

from run import DEFAULT_SEED, REFERENCE
from workloads import WORKLOADS, cell_digest


def record(scale_factor: float = 1.0) -> dict:
    """Reference entries of every workload at the default seed."""
    entries = {}
    for name, workload in WORKLOADS.items():
        scale = workload.base_scale * scale_factor
        cells = workload.run(workload.setup(DEFAULT_SEED, scale))
        entries[name] = {
            "scale": scale,
            "cells": {key: {"digest": cell_digest(result),
                            "cost": float(result.cost)}
                      for key, result in cells},
        }
    return {"seed": DEFAULT_SEED, "workloads": entries}


if __name__ == "__main__":
    REFERENCE.write_text(json.dumps(record(), indent=1, sort_keys=True)
                         + "\n")
