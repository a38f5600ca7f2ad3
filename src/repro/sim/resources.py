"""Capacity-limited resources for the simulator.

A :class:`Resource` models a pool of identical servers (e.g. the worker
slots of a VM-based serving endpoint): processes ``yield resource.request()``
to obtain a slot, and call :meth:`Resource.release` when done.  Requests
are granted strictly FIFO, which matches how the serving frontends the
paper evaluates queue incoming HTTP requests.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Set

from repro.sim.engine import Environment, Event, SimulationError

__all__ = ["Request", "Resource"]


class Request(Event):
    """A pending claim on a :class:`Resource` slot.

    A granted claim triggers with no value: the claim itself is what
    :meth:`Resource.release` takes back, and a claim that held itself
    as its value would be a reference cycle only the cyclic garbage
    collector frees.
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource


class Resource:
    """A pool of ``capacity`` identical slots with a FIFO wait queue.

    Only the *waiting* queue needs FIFO order (grant order is the
    fairness contract); the set of slot holders is unordered, so it is
    kept as a set to make :meth:`release` O(1) instead of the O(n)
    ``list.remove`` scan it used to be.
    """

    __slots__ = ("env", "_capacity", "_users", "_waiting")

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise SimulationError("resource capacity must be >= 1")
        self.env = env
        self._capacity = int(capacity)
        self._users: Set[Request] = set()
        self._waiting: Deque[Request] = deque()

    # -- introspection -----------------------------------------------------
    @property
    def capacity(self) -> int:
        """Number of slots in the pool."""
        return self._capacity

    @property
    def count(self) -> int:
        """Number of slots currently in use."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiting)

    # -- protocol ----------------------------------------------------------
    def request(self) -> Request:
        """Ask for a slot; the returned event triggers when one is granted."""
        req = Request(self)
        self._waiting.append(req)
        self._dispatch()
        return req

    def release(self, request: Request) -> None:
        """Return the slot held by ``request`` to the pool."""
        try:
            self._users.remove(request)
        except KeyError:
            raise SimulationError("release() of a request that holds no slot")
        self._dispatch()

    def cancel(self, request: Request) -> None:
        """Withdraw a not-yet-granted request (e.g. client gave up waiting)."""
        try:
            self._waiting.remove(request)
        except ValueError:
            # Already granted or already cancelled; releasing is the
            # caller's responsibility in the granted case.
            pass

    def resize(self, capacity: int) -> None:
        """Change the number of slots (used by autoscaling policies)."""
        if capacity < 1:
            raise SimulationError("resource capacity must be >= 1")
        self._capacity = int(capacity)
        self._dispatch()

    # -- internal ----------------------------------------------------------
    def _dispatch(self) -> None:
        while self._waiting and len(self._users) < self._capacity:
            req = self._waiting.popleft()
            self._users.add(req)
            req.succeed()
