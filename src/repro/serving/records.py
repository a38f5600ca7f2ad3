"""The vocabulary of per-request outcome rows: latency sub-stages and
hybrid path codes.

Serving writes outcomes straight into recorder rows
(:class:`~repro.serving.outcome_table.OutcomeColumns`); a request's
outcome exists only as that row, with one column per stage named here.
"""

from __future__ import annotations

__all__ = ["Stage", "SERVED_BY_DIRECT", "SERVED_BY_PROVISIONED",
           "SERVED_BY_SPILL", "SERVED_BY_NAMES"]

#: ``served_by`` column code for requests that never crossed a
#: hybrid front door (every non-hybrid platform; the column default).
SERVED_BY_DIRECT = 0
#: Code for requests served by the hybrid front door's provisioned fleet.
SERVED_BY_PROVISIONED = 1
#: Code for requests the hybrid front door spilled to serverless.
SERVED_BY_SPILL = 2
#: Human-readable names of the ``served_by`` codes, indexable by code.
SERVED_BY_NAMES = ("direct", "provisioned", "spill")


class Stage:
    """Names of the latency sub-stages reported in the paper (Figure 10)."""

    QUEUE = "queue"
    NETWORK = "network"
    SANDBOX = "sandbox"
    IMPORT = "import"
    DOWNLOAD = "download"
    LOAD = "load"
    PREDICT = "predict"
    HANDLER = "handler"

    #: Stages that only occur on a cold start.
    COLD_ONLY = (SANDBOX, IMPORT, DOWNLOAD, LOAD)
    #: Canonical ordering used when rendering breakdowns.
    ORDER = (QUEUE, NETWORK, SANDBOX, IMPORT, DOWNLOAD, LOAD, PREDICT, HANDLER)
