"""Admission control shared by the serving platforms.

Two queueing models cover every platform the paper evaluates:

* :class:`WorkQueue` — the backlog of a FaaS router: a request that
  finds no idle instance is buffered as a :class:`PendingRequest`
  ticket, first in first out.  The scaler pins queued tickets to fresh
  instances, an instance that finishes its work takes the oldest ticket,
  and the client waits on the ticket's response event under a deadline
  guard (a :meth:`~repro.sim.engine.Lane.guard`).
* :class:`SlotQueue` — the *slot* model of a server frontend (VM or
  managed endpoint): a capacity-limited connection backlog in front of
  a worker pool.  Requests beyond the backlog are rejected on the spot
  (spill); admitted requests race a server-side deadline for a worker
  slot and time out if the queue moves too slowly — the mechanism
  behind the success-ratio collapse of Figures 5, 8 and 9.

Both keep their own rejection/timeout tallies, which the platform's
:class:`~repro.platforms.billing.BillingMeter` folds into the final
:class:`~repro.platforms.base.PlatformUsage`.

``PendingRequest`` tickets are slotted *and interned*: with tens of
thousands of requests per run the ticket was a hot allocation site, so
served tickets return to a free list and are reused for later arrivals
instead of being handed back to the allocator.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.sim import Environment, Resource
from repro.sim.engine import Event

__all__ = ["PendingRequest", "WorkQueue", "SlotQueue"]


class PendingRequest:
    """A request waiting for an instance (slotted, free-listed): its
    outcome row, its inference count, and ``late`` once its client gave
    up (serving it then writes the row after its commit)."""

    __slots__ = ("row", "inferences", "response_event", "enqueue_time",
                 "late")

    def __init__(self):
        self.row = -1
        self.inferences = 1
        self.response_event: Optional[Event] = None
        self.enqueue_time = 0.0
        self.late = False


class WorkQueue:
    """The FaaS router's backlog: a FIFO of request tickets."""

    __slots__ = ("env", "tickets", "_free")

    def __init__(self, env: Environment):
        self.env = env
        #: The buffered tickets, oldest first (empty: no backlog).
        self.tickets: Deque[PendingRequest] = deque()
        self._free: List[PendingRequest] = []

    @property
    def backlog(self) -> int:
        """Number of requests waiting for an instance."""
        return len(self.tickets)

    # -- submit side -------------------------------------------------------
    def ticket(self, row: int, inferences: int,
               enqueue_time: float) -> PendingRequest:
        """A (possibly recycled) ticket for the request in ``row``, not
        buffered.

        The ticket carries a fresh response event; ``enqueue_time`` is
        when the request started waiting for an instance.
        """
        free = self._free
        if free:
            pending = free.pop()
        else:
            pending = PendingRequest()
        pending.row = row
        pending.inferences = inferences
        pending.response_event = Event(self.env)
        pending.enqueue_time = enqueue_time
        return pending

    def enqueue(self, row: int, inferences: int) -> PendingRequest:
        """Buffer one request arriving now; returns its ticket."""
        pending = self.ticket(row, inferences, self.env.now)
        self.tickets.append(pending)
        return pending

    # -- serve side --------------------------------------------------------
    def take(self) -> Optional[PendingRequest]:
        """Pop the oldest buffered ticket, or ``None`` if there is none."""
        tickets = self.tickets
        return tickets.popleft() if tickets else None

    def requeue(self, pending: PendingRequest) -> None:
        """Return a crashed instance's ticket to the tail of the backlog.

        The re-dispatch path when fault injection kills an instance
        mid-request and no idle instance can claim the ticket: it keeps
        its original ``enqueue_time`` — the eventual queue-stage
        attribution includes the time lost on the dead instance — and
        the client keeps waiting on the same ``response_event``.
        """
        self.tickets.append(pending)

    def recycle(self, pending: PendingRequest) -> None:
        """Return a served ticket to the free list for reuse."""
        pending.response_event = None
        pending.late = False
        self._free.append(pending)


class SlotQueue:
    """Slot-model admission queue (server frontend + worker pool).

    Owns the worker :class:`~repro.sim.Resource`; ``backlog`` bounds
    the *waiting* requests.  The platform sets both with :meth:`resize`
    whenever its ready fleet changes (managed ML's backlog grows with
    the fleet); until then the backlog admits nothing.
    """

    __slots__ = ("env", "workers", "_deadlines", "backlog",
                 "rejected", "timed_out")

    def __init__(self, env: Environment, deadline_s: float):
        self.env = env
        self.workers = Resource(env, capacity=1)
        self._deadlines = env.lane(deadline_s)
        self.backlog = 0
        self.rejected = 0
        self.timed_out = 0

    # -- introspection -----------------------------------------------------
    @property
    def queue_length(self) -> int:
        """Requests waiting for a worker slot."""
        return self.workers.queue_length

    @property
    def demand(self) -> float:
        """In-flight plus queued requests (the autoscaler's signal)."""
        return self.workers.count + self.workers.queue_length

    # -- protocol ----------------------------------------------------------
    def try_admit(self) -> bool:
        """Admit the request, or reject it when the backlog is full."""
        if self.workers.queue_length >= self.backlog:
            self.rejected += 1
            return False
        return True

    def acquire(self):
        """Wait for a worker slot under the server-side deadline.

        A generator (``yield from`` it): returns the granted claim —
        release it with :meth:`release` — or ``None`` on timeout.  A
        claim granted first withdraws the deadline guard from its lane.
        """
        claim = self.workers.request()
        yield self._deadlines.guard(claim)
        if not claim.triggered:
            self.workers.cancel(claim)
            self.timed_out += 1
            return None
        return claim

    def release(self, claim) -> None:
        """Return a granted worker slot."""
        self.workers.release(claim)

    def resize(self, workers: int, backlog: int) -> None:
        """Adjust the worker pool and the backlog (the fleet changed)."""
        self.workers.resize(workers)
        self.backlog = backlog
