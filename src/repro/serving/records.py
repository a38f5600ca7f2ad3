"""Per-request outcome records and the cold-start sub-stage vocabulary.

Serving writes outcomes straight into recorder rows
(:class:`~repro.serving.outcome_table.OutcomeColumns`);
:class:`RequestOutcome` is the one-object-per-request view of a table
row, built on demand by :meth:`~repro.serving.outcome_table.OutcomeTable.
to_outcomes` and read back by :meth:`~repro.serving.outcome_table.
OutcomeTable.from_outcomes`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

__all__ = ["Stage", "RequestOutcome", "SERVED_BY_DIRECT",
           "SERVED_BY_PROVISIONED", "SERVED_BY_SPILL", "SERVED_BY_NAMES"]

#: ``RequestOutcome.served_by`` code for requests that never crossed a
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


@dataclass(slots=True)
class RequestOutcome:
    """Everything the framework records about one client request.

    The object view of one outcome-table row (see the module docstring);
    no simulation builds one.
    """

    request_id: int
    client_id: int
    #: Time the client handed the request to the network, seconds.
    send_time: float
    #: Time the client received the response (or the error), seconds.
    completion_time: Optional[float] = None
    success: bool = False
    error: str = ""
    #: Whether the request was served by a cold-started instance.
    cold_start: bool = False
    #: Identifier of the serving instance that executed the request.
    instance_id: Optional[int] = None
    #: Duration billed by the platform for this invocation (serverless only).
    billed_duration_s: float = 0.0
    #: Number of model inferences executed for the request (>=1 with
    #: client-side batching or the Figure 12d micro-benchmark).
    inferences: int = 1
    #: Per-stage latency breakdown in seconds.
    breakdown: Dict[str, float] = field(default_factory=dict)
    #: Number of submission attempts made for this request (1 = no
    #: retries); written by the executor's retry wrapper on completion.
    attempts: int = 1
    #: Which path of a hybrid front door served the request (see
    #: :data:`SERVED_BY_NAMES`): 0 = direct (the non-hybrid default),
    #: 1 = provisioned fleet, 2 = serverless spill.
    served_by: int = 0

    @property
    def latency(self) -> Optional[float]:
        """End-to-end latency as observed by the client, seconds."""
        if self.completion_time is None:
            return None
        return self.completion_time - self.send_time

    def add_stage(self, stage: str, seconds: float) -> None:
        """Accumulate ``seconds`` into the given breakdown stage."""
        if seconds < 0:
            raise ValueError("stage durations must be non-negative")
        self.breakdown[stage] = self.breakdown.get(stage, 0.0) + seconds

    def finish(self, time: float, success: bool, error: str = "") -> None:
        """Mark the request as completed at ``time``."""
        if time < self.send_time:
            raise ValueError("completion cannot precede the send time")
        self.completion_time = time
        self.success = success
        self.error = error

    def stage(self, name: str) -> float:
        """Seconds spent in one breakdown stage (0 if absent)."""
        return self.breakdown.get(name, 0.0)
