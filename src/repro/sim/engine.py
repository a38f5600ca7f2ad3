"""Core discrete-event simulation engine.

The engine follows the classic event-calendar design: a binary heap of
``(time, priority, sequence, event)`` entries is popped in order, each
popped event runs its callbacks, and callbacks may schedule further
events.  Processes are plain Python generators that ``yield`` events (or
plain delays); the :class:`Process` wrapper resumes the generator
whenever the yielded event triggers or the delay has passed.

The engine is intentionally small but complete enough to model serving
platforms: timeouts, triggerable events, guard timers, idle lines,
process interruption, and first-of-two races (:class:`Race`).

Performance notes
-----------------
This module is the hot path of every experiment (a full w-200 run pops
millions of calendar entries), so it trades a little uniformity for
speed.  Every entry pushed onto the heap is an event that runs: on the
profiled serverless cell, heap pushes per request equal calendar
events per request (about 4.4), apart from a handful of stale guard
and alarm tokens per run.

* Every event class uses ``__slots__``; with hundreds of thousands of
  live events per run, per-instance ``__dict__`` allocation dominated
  both memory and attribute-access time.

* **Bare sleeps.**  A process may ``yield`` a plain non-negative number
  (``int`` or ``float``, not ``bool``) instead of an event.  The engine
  then pushes the process's resume entry itself, a raw 6-tuple
  ``(now + d, NORMAL, sequence, process, True, None)`` under exactly
  the key ``env.timeout(d)`` would have taken, and the scheduler
  resumes the generator directly when it pops.  No :class:`Timeout`
  object is allocated, so private waits (network legs, service and
  cold-start stages, periodic loops, backoff) cost one tuple.
  ``env.timeout`` remains for timers that other code observes.  The
  same 6-tuple carries every direct resumption: off an
  already-processed event, and the delivery of an interrupt.

* **Guard lanes.**  A request deadline is a fixed-delay timer that
  nearly always loses its race.  :meth:`Environment.lane`
  returns a :class:`Lane` holding such guards in creation order, which
  for a constant delay is expiry order.  Only the lane's earliest guard
  sits on the heap, under the sequence number it took when it was
  created; withdrawing a guard sets a flag in O(1).  When a withdrawn
  guard's entry pops, it arms the lane's next live guard and is not
  counted in ``events_processed`` (like the tombstone it replaces).
  The global pop order, and so every random draw and every digest, is
  the same as with one :class:`Timeout` per guard.  :meth:`Lane.guard`
  is the timer and the race in one object: it triggers with the
  watched event if that fires first (withdrawing itself), or with
  ``None`` when its delay expires.

* **Idle lines.**  An :class:`IdleLine` is a lane whose timers are
  plain data: items wait in it first-in first-out, and each one
  expires a fixed delay after it joined (the serverless keep-alive of
  an idle instance).  An entry is an ``(item, expiry, sequence)``
  tuple, the sequence number drawn when the item joined; only the
  oldest entry's alarm sits on the heap, under exactly the key a
  :class:`Timeout` of that delay would have taken then.  Claiming or
  removing the oldest entry withdraws the alarm; a withdrawn alarm
  pops uncounted and arms the new oldest entry (the lane rule).  So an
  item that leaves before it expires costs no object beyond its entry.

* Starting a process runs its first step *inline*: the generator
  advances to its first ``yield`` within ``env.process()`` itself
  instead of through an URGENT calendar entry — one calendar entry per
  process saved.  The contract is that a new process's first segment
  runs synchronously, ahead of anything else scheduled at the current
  time.  For the common pattern (a segment that creates processes and
  otherwise only schedules NORMAL events) this is indistinguishable
  from the old URGENT-entry start, because the scheduler drains URGENT
  entries before resuming user code; the one observable difference is
  a segment that calls ``interrupt()`` (which enqueues an URGENT
  resume) *before* ``env.process()`` — the new process's first segment
  now runs before that interrupt is delivered, where it used to run
  after.  A corollary: yielding a non-event (or a cancelled event, or
  a negative or NaN delay) as the *first* yield raises
  :class:`SimulationError` at the ``env.process()`` call site rather
  than later inside :meth:`Environment.run`.

* The calendar is one binary heap.  Peak live entries stay under 10k
  on every registered workload (the streamed runs pop entries as fast
  as they push them), so no other queue structure is needed.

Interrupts
----------
:meth:`Process.interrupt` detaches the process from whatever it was
waiting on before scheduling the :class:`Interrupt`: its resume
callback leaves the event's callback list, and a pending sleep (or
direct resume) entry goes stale.  A stale entry still pops and counts
in ``events_processed``, but resumes nothing: the scheduler checks that
a resume entry is the process's current ``_target``.  A process that
catches the interrupt and waits again therefore wakes when its new
wait ends, never when the old one does.  Interrupts that are still
pending when another arrives coalesce (the latest cause is delivered,
once), and a process may not interrupt itself.

Tombstone cancellation
----------------------
A binary heap cannot remove an arbitrary entry cheaply, so
:meth:`Event.cancel` does not touch the heap at all: it marks the event
cancelled, drops its callbacks, and leaves the entry in place as a
*tombstone*.  When the scheduler later pops a tombstone it skips it
without running callbacks or advancing ``events_processed``.  The
environment counts outstanding tombstones and rebuilds the heap once
they outnumber the live entries, so a pathological cancel-heavy
workload stays O(live) in memory.  Cancellation semantics:

* ``cancel()`` on a pending entry returns ``True``; the callbacks never
  run, ``ok`` becomes ``None``, and ``cancelled`` is ``True``.
* ``cancel()`` on an already-processed event is a no-op returning
  ``False``.
* A cancelled event never wins a :class:`Race` (its ``ok`` is
  ``None``), and yielding a cancelled event from a process is a
  :class:`SimulationError`.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from itertools import count
from types import GeneratorType
from typing import Any, Callable, Deque, Generator, Optional

__all__ = [
    "SimulationError",
    "Interrupt",
    "Event",
    "Timeout",
    "Process",
    "Race",
    "Lane",
    "Guard",
    "IdleLine",
    "Environment",
]

#: Priority used for ordinary events.
NORMAL = 1
#: Priority used for urgent events (process resumption), processed before
#: ordinary events scheduled at the same simulated time.
URGENT = 0

#: Tombstone compaction threshold: never rebuild below this many.
_MIN_TOMBSTONES = 64


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel."""


class Interrupt(Exception):
    """Thrown into a process generator by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """An event that may be triggered once and then calls its callbacks.

    Events (and plain non-negative numbers, see :class:`Process`) are
    what a process may ``yield``.  An event is *triggered* when a value
    (or an exception) has been scheduled for it, and *processed* once
    its callbacks have run.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered",
                 "_defused", "_cancelled")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        self._triggered = False
        self._defused = False
        self._cancelled = False

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """Whether the event has been scheduled to occur."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """Whether the event's callbacks have already run."""
        return self.callbacks is None

    @property
    def cancelled(self) -> bool:
        """Whether the event was withdrawn before its callbacks ran."""
        return self._cancelled

    @property
    def ok(self) -> Optional[bool]:
        """``True`` on success, ``False`` on failure, ``None`` if pending."""
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event was triggered with."""
        if not self._triggered:
            raise SimulationError("event value is not yet available")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully after ``delay`` time units."""
        if self._triggered:
            raise SimulationError("event has already been triggered")
        if self._cancelled:
            raise SimulationError("event has been cancelled")
        self._triggered = True
        self._ok = True
        self._value = value
        env = self.env
        heappush(env._queue,
                 (env.now + delay, NORMAL, next(env._sequence), self))
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event with an exception."""
        if self._triggered:
            raise SimulationError("event has already been triggered")
        if self._cancelled:
            raise SimulationError("event has been cancelled")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exception
        env = self.env
        heappush(env._queue,
                 (env.now + delay, NORMAL, next(env._sequence), self))
        return self

    def cancel(self) -> bool:
        """Withdraw the event before its callbacks run (tombstone it).

        Returns ``True`` if the event was still pending and is now dead,
        ``False`` if its callbacks had already run (too late to cancel).
        The calendar entry, if any, stays in the heap as a tombstone and
        is skipped (and reclaimed) when the scheduler reaches it.
        """
        if self.callbacks is None:
            return False
        self.callbacks = None
        self._ok = None
        self._cancelled = True
        if self._triggered:
            env = self.env
            env._tombstones += 1
            if (env._tombstones > _MIN_TOMBSTONES
                    and env._tombstones * 2 > len(env._queue)):
                env._compact()
        return True

    # -- internal ---------------------------------------------------------
    def _skip(self) -> None:
        """The scheduler popped this event's entry after it was cancelled."""
        self.env._tombstones -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("cancelled" if self._cancelled else
                 "processed" if self.processed else
                 "triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that triggers after a fixed delay.

    For a private wait that nothing else observes, yield the delay
    itself (a bare sleep) instead.  For a fixed-delay guard that usually
    loses its race, use a :class:`Lane`.  A timeout that loses a race
    should be :meth:`~Event.cancel`-ed by the winner so the calendar
    does not fill up with dead entries.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None,
                 at: Optional[float] = None):
        if not delay >= 0:
            raise SimulationError(
                f"timeout delay must be non-negative: {delay!r}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._triggered = True
        self._defused = False
        self._cancelled = False
        self.delay = delay
        heappush(env._queue,
                 (env.now + delay if at is None else at, NORMAL,
                  next(env._sequence), self))


class Process(Event):
    """Wraps a generator and resumes it whenever the yielded event fires.

    A process may yield an :class:`Event` (it resumes with the event's
    value, or the event's exception is thrown into it) or a plain
    non-negative ``int`` / ``float`` — a *bare sleep*: it resumes with
    ``None`` that many seconds later, exactly where ``env.timeout`` of
    the same delay would have resumed it.  The process itself is an
    event: it triggers when the generator returns (successfully, with
    the generator's return value) or raises.
    """

    __slots__ = ("_generator", "_target")

    def __init__(self, env: "Environment", generator: Generator):
        if type(generator) is not GeneratorType:
            raise SimulationError("process() requires a generator")
        # Event.__init__, inlined: one process per request.
        self.env = env
        self.callbacks = []
        self._value = None
        self._ok = None
        self._triggered = False
        self._defused = False
        self._cancelled = False
        self._generator = generator
        #: What the process waits on: the event it is subscribed to, or
        #: its resume entry on the heap (a sleep or a direct resume).
        self._target: Any = None
        # Run the first step inline: no calendar entry, and a bad first
        # yield (non-event) surfaces here, at the env.process() call.
        # _step() always leaves env._active_process at None, so the
        # caller's identity is restored explicitly (process creation may
        # happen inside another process's segment).
        outer = env._active_process
        try:
            self._step(True, None)
        finally:
            env._active_process = outer

    @property
    def is_alive(self) -> bool:
        """``True`` while the underlying generator has not finished."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw an :class:`Interrupt` into the process at the current time.

        The process is detached from what it was waiting on first, so
        that wait can no longer resume it.  A second interrupt before
        the first is delivered replaces it.
        """
        if self._triggered:
            raise SimulationError("cannot interrupt a finished process")
        env = self.env
        if env._active_process is self:
            raise SimulationError("a process cannot interrupt itself")
        target = self._target
        if isinstance(target, Event) and target.callbacks is not None:
            target.callbacks.remove(self._resume)
        # A pending resume entry (sleep, direct resume, or an earlier
        # interrupt) goes stale when _target moves on: it still pops and
        # counts, but the scheduler no longer resumes the process for it.
        entry = (env.now, URGENT, next(env._sequence), self, False,
                 Interrupt(cause))
        heappush(env._queue, entry)
        self._target = entry

    # -- internal ---------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Callback interface: resume off a triggered event."""
        if event._ok:
            self._step(True, event._value)
        else:
            # Mark the failure as handled by this process.
            event._defused = True
            self._step(False, event._value)

    def _step(self, ok: bool, value: Any) -> None:
        """Advance the generator one yield with ``(ok, value)``."""
        env = self.env
        env._active_process = self
        try:
            if ok:
                result = self._generator.send(value)
            else:
                result = self._generator.throw(value)
        except StopIteration as stop:
            self._triggered = True
            self._ok = True
            self._value = stop.value
            # A resume entry held here references the process: drop it
            # so the finished process is freed by reference counting.
            self._target = None
            env._active_process = None
            # Successful completion dispatches its waiters synchronously
            # instead of through an URGENT calendar entry: one entry per
            # request saved, and everyone interested has already attached
            # (attachment happens while the process is still pending).
            # Failures (below) still travel through the calendar so the
            # scheduler's unhandled-failure check can surface them.
            callbacks, self.callbacks = self.callbacks, None
            if callbacks:
                for callback in callbacks:
                    callback(self)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate as failure
            self._triggered = True
            self._ok = False
            self._value = exc
            self._target = None
            env._active_process = None
            env._schedule(self, priority=URGENT)
            return
        env._active_process = None

        if result.__class__ is not float:
            if isinstance(result, Event):
                if result.callbacks is None:
                    if result._ok is None:
                        raise SimulationError(
                            "process yielded a cancelled event")
                    # The event already happened; resume immediately
                    # without allocating a fresh Event.
                    entry = (env.now, URGENT, next(env._sequence), self,
                             result._ok, result._value)
                    heappush(env._queue, entry)
                    self._target = entry
                else:
                    result.callbacks.append(self._resume)
                    self._target = result
                return
            if (not isinstance(result, (int, float))
                    or isinstance(result, bool)):
                raise SimulationError(
                    f"process yielded a non-event value: {result!r}")
        # Bare sleep: the key env.timeout(result) would have taken.
        if not result >= 0:
            raise SimulationError(
                f"sleep delay must be non-negative: {result!r}")
        entry = (env.now + result, NORMAL, next(env._sequence), self,
                 True, None)
        heappush(env._queue, entry)
        self._target = entry


class Race(Event):
    """Triggers when the first of two events does.

    ``Race`` triggers with the **winning event** as its value, handing
    the win to its waiters *synchronously*, inside the winning event's
    own callback cascade, instead of through an extra calendar entry
    the way ``succeed`` does: the waiter resumes within the winner's
    pop, ahead of other events scheduled at the exact same timestamp.
    A member that fails while the race waits fails the race; a
    cancelled member never wins.
    Both events must belong to this environment.  A race against a
    fixed-delay guard timer is a :meth:`Lane.guard` instead.
    """

    __slots__ = ("_a", "_b")

    def __init__(self, env: "Environment", a: Event, b: Event):
        Event.__init__(self, env)
        if a.env is not env or b.env is not env:
            raise SimulationError(
                "cannot mix events of different environments")
        self._a = a
        self._b = b
        # Already-processed failed members are defused at construction;
        # an already-processed ok member wins outright, through the
        # calendar (``succeed``).
        winner = None
        a_done = a.callbacks is None
        b_done = b.callbacks is None
        if a_done:
            if a._ok is False:
                a._defused = True
            elif a._ok:
                winner = a
        if b_done:
            if b._ok is False:
                b._defused = True
            elif winner is None and b._ok:
                winner = b
        if winner is not None:
            self.succeed(winner)
            return
        observe = self._observe
        if not a_done:
            a.callbacks.append(observe)
        if not b_done:
            b.callbacks.append(observe)

    def _observe(self, event: Event) -> None:
        if self._triggered:
            return
        if event._ok is False:
            event._defused = True
            self.fail(event._value)
            return
        # Synchronous win: trigger and run the waiters in place.
        self._triggered = True
        self._ok = True
        self._value = event
        callbacks, self.callbacks = self.callbacks, None
        if callbacks:
            for callback in callbacks:
                callback(self)


class Lane:
    """Fixed-delay guard timers that share one slot on the heap.

    Guards are kept in creation order, which for a constant delay is
    expiry order, so only the earliest one needs a calendar entry: the
    *armed* guard, pushed under the ``(expiry, NORMAL, sequence)`` key
    it took when it was created, exactly where a :class:`Timeout` of the
    same delay would sit.  When its entry pops (expired or withdrawn),
    the lane arms the next live guard.  A withdrawn guard is only
    flagged; withdrawn guards at the front of the waiting line are
    dropped at once, so with guards withdrawn roughly in creation order
    (requests served first-come first-served) the line stays as short
    as the number of guards still live.
    """

    __slots__ = ("env", "delay", "_armed", "_waiting", "_expire_hook")

    def __init__(self, env: "Environment", delay: float):
        if not delay >= 0:
            raise SimulationError(
                f"lane delay must be non-negative: {delay!r}")
        self.env = env
        self.delay = delay
        #: The guard whose entry is on the heap (None: lane empty).
        self._armed: Optional["Guard"] = None
        #: Later guards, in creation order; the first one is live.
        self._waiting: Deque["Guard"] = deque()
        #: Bound once: every guard's first callback.
        self._expire_hook = self._expire

    def __len__(self) -> int:
        """Guards held: the armed one and the waiting line."""
        return (self._armed is not None) + len(self._waiting)

    def guard(self, event: Event) -> "Guard":
        """A guard on ``event``: yield it to wait for ``event`` or expiry."""
        return Guard(self, event)

    def _expire(self, guard: "Guard") -> None:
        """The armed guard's entry popped: arm the next live guard."""
        waiting = self._waiting
        if not waiting:
            self._armed = None
            return
        head = self._armed = waiting.popleft()
        heappush(self.env._queue,
                 (head._expiry, NORMAL, head._sequence, head))
        while waiting and waiting[0]._cancelled:
            waiting.popleft()


class Guard(Event):
    """A fixed-delay timer raced against one event (see :class:`Lane`).

    Triggers with the watched event as its value if that fires first —
    the guard then withdraws itself — or with ``None`` when the lane's
    delay expires first.  A failure of the watched event is passed on
    to the guard's waiters.  :meth:`cancel` withdraws the guard in
    O(1).
    """

    __slots__ = ("_lane", "_expiry", "_sequence")

    def __init__(self, lane: Lane, event: Event):
        env = lane.env
        if event.env is not env:
            raise SimulationError(
                "cannot mix events of different environments")
        callbacks = event.callbacks
        self.env = env
        self._value = None
        self._ok = True
        self._triggered = True
        self._defused = False
        self._cancelled = False
        self._lane = lane
        self._expiry = env.now + lane.delay
        self._sequence = next(env._sequence)
        if callbacks is None and event._ok is not None:
            # The watched event is already over: settled on the spot,
            # never on the lane.
            self.callbacks = None
            self._settle(event, handled=True)
            return
        self.callbacks = [lane._expire_hook]
        if lane._armed is None:
            lane._armed = self
            heappush(env._queue,
                     (self._expiry, NORMAL, self._sequence, self))
        else:
            lane._waiting.append(self)
        if callbacks is not None:
            # (A cancelled event never fires: the guard can only expire.)
            callbacks.append(self._win)

    def cancel(self) -> bool:
        """Withdraw the guard; ``False`` if it already expired or won."""
        if self.callbacks is None:
            return False
        self.callbacks = None
        self._ok = None
        self._cancelled = True
        waiting = self._lane._waiting
        while waiting and waiting[0]._cancelled:
            waiting.popleft()
        return True

    def _skip(self) -> None:
        """The lane's entry popped after this guard was withdrawn."""
        self._lane._expire(self)

    def _settle(self, event: Event, handled: bool) -> None:
        """Take the watched event's outcome as the guard's own."""
        if event._ok:
            self._value = event
        else:
            self._ok = False
            self._value = event._value
            if handled:
                # Passed on to the guard's waiters; with none, the
                # scheduler surfaces the failure.
                event._defused = True

    def _win(self, event: Event) -> None:
        """The watched event fired first: trigger with it, leave the lane."""
        callbacks = self.callbacks
        if callbacks is None:
            # Expired or withdrawn first.
            return
        self.callbacks = None
        self._cancelled = True
        waiting = self._lane._waiting
        while waiting and waiting[0]._cancelled:
            waiting.popleft()
        # callbacks[0] is the lane's expiry hook: a won guard never
        # expires; its entry, if armed, re-arms the lane via _skip().
        del callbacks[0]
        if event._ok:
            self._value = event
        else:
            self._settle(event, handled=bool(callbacks))
        for callback in callbacks:
            callback(self)


class IdleLine:
    """Items waiting first-in first-out, each expiring ``delay`` after it
    joined: a :class:`Lane` whose timers are data.

    :meth:`park` appends an ``(item, expiry, sequence)`` entry, drawing
    the sequence number a :class:`Timeout` of ``delay`` created then
    would have drawn.  Creation order is expiry order, so only the
    oldest entry needs a calendar entry: the line's *alarm*, pushed
    under that entry's ``(expiry, NORMAL, sequence)`` key.  When it
    goes off, the oldest entry leaves the line, the next one is armed,
    and ``expire(item)`` runs (it may park the item again).
    :meth:`claim` and :meth:`remove` take an entry out early; taking
    the oldest withdraws the alarm, which then pops uncounted and arms
    the new oldest entry.  The global pop order is the same as with
    one withdrawable timer per entry.
    """

    __slots__ = ("env", "delay", "entries", "_expire", "_alarm", "_armed",
                 "_hooks")

    def __init__(self, env: "Environment", delay: float,
                 expire: Callable[[Any], None]):
        if not delay >= 0:
            raise SimulationError(
                f"idle-line delay must be non-negative: {delay!r}")
        self.env = env
        self.delay = delay
        #: ``(item, expiry, sequence)`` entries, oldest first.  Read
        #: only: :meth:`park`, :meth:`claim` and :meth:`remove` change it.
        self.entries: Deque[tuple] = deque()
        self._expire = expire
        self._alarm = _Alarm(self)
        #: Whether the alarm has an entry on the heap (live or
        #: withdrawn); always true while the line holds entries.
        self._armed = False
        #: The alarm's callbacks, bound once.
        self._hooks = [self._fire]

    def park(self, item: Any) -> tuple:
        """Put ``item`` at the tail; returns its entry (for :meth:`remove`)."""
        env = self.env
        entry = (item, env.now + self.delay, next(env._sequence))
        self.entries.append(entry)
        if not self._armed:
            self._arm(entry)
        return entry

    def claim(self) -> Any:
        """Take the oldest item out of the line (it must not be empty)."""
        item = self.entries.popleft()[0]
        # A live alarm is always the oldest entry's: withdraw it.
        self._alarm._cancelled = True
        return item

    def remove(self, entry: tuple) -> None:
        """Take ``entry`` out of the line, wherever it stands."""
        entries = self.entries
        if entry is entries[0]:
            entries.popleft()
            self._alarm._cancelled = True
        else:
            entries.remove(entry)

    def _arm(self, entry: tuple) -> None:
        """Put the alarm on the heap under ``entry``'s key."""
        alarm = self._alarm
        alarm._cancelled = False
        alarm.callbacks = self._hooks
        self._armed = True
        heappush(self.env._queue, (entry[1], NORMAL, entry[2], alarm))

    def _rearm(self) -> None:
        """The alarm's entry popped: arm the oldest entry, if any."""
        self._armed = False
        entries = self.entries
        if entries:
            self._arm(entries[0])

    def _fire(self, _alarm: "_Alarm") -> None:
        """The oldest entry expired: it leaves, the next one is armed."""
        item = self.entries.popleft()[0]
        self._rearm()
        self._expire(item)


class _Alarm(Event):
    """An :class:`IdleLine`'s one calendar entry (see there).

    Reused for every entry the line arms; ``_cancelled`` marks it
    withdrawn.  A withdrawn alarm's entry pops uncounted and re-arms
    the line, so heap compaction keeps it.
    """

    __slots__ = ("_line",)

    def __init__(self, line: IdleLine):
        Event.__init__(self, line.env)
        self.callbacks = None
        self._ok = True
        self._triggered = True
        self._line = line

    def _skip(self) -> None:
        """Popped after a withdrawal: arm the line's oldest entry."""
        self._line._rearm()


class Environment:
    """The simulation environment: clock, calendar, and process factory."""

    __slots__ = ("now", "_queue", "_sequence", "_active_process",
                 "_tombstones", "events_processed")

    def __init__(self, initial_time: float = 0.0):
        #: Current simulated time in seconds.  A plain attribute, not a
        #: property: every request reads the clock several times.  Only
        #: the scheduler sets it.
        self.now = float(initial_time)
        self._queue: list = []
        self._sequence = count()
        self._active_process: Optional[Process] = None
        #: Cancelled entries still sitting in the heap (lazy deletion).
        self._tombstones = 0
        #: Number of calendar entries executed (tombstones and withdrawn
        #: guard and alarm tokens excluded; stale resume entries included).
        self.events_processed = 0

    # -- clock ------------------------------------------------------------
    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    # -- event factories ---------------------------------------------------
    def event(self) -> Event:
        """Create a new, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` seconds from now."""
        return Timeout(self, delay, value=value)

    def timeout_at(self, when: float, value: Any = None) -> Timeout:
        """Create an event that triggers at the absolute time ``when``.

        The entry is keyed at ``when`` itself, which
        ``timeout(when - now)`` does not guarantee (``now + (when -
        now)`` may round to a neighbouring float).
        """
        return Timeout(self, when - self.now, value=value, at=when)

    def lane(self, delay: float) -> Lane:
        """A lane of guard timers that all expire ``delay`` after creation."""
        return Lane(self, delay)

    def process(self, generator: Generator) -> Process:
        """Register ``generator`` as a new process, started at the current time."""
        return Process(self, generator)

    def race(self, a: Event, b: Event) -> Race:
        """First-of-two event (value = the winning event)."""
        return Race(self, a, b)

    # -- scheduling --------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0,
                  priority: int = NORMAL) -> None:
        heappush(self._queue,
                 (self.now + delay, priority, next(self._sequence), event))

    def _compact(self) -> None:
        """Rebuild the heap without tombstones (keeps memory O(live)).

        Rebuilds in place, because ``run()`` holds a local reference to
        the list.  Lane and idle-line entries stay: a withdrawn head or
        alarm still has to re-arm its lane or line when it pops.
        """
        queue = self._queue
        queue[:] = [entry for entry in queue
                    if len(entry) == 6 or not entry[3]._cancelled
                    or entry[3].__class__ in (Guard, _Alarm)]
        heapify(queue)
        self._tombstones = 0

    def run(self, until: Optional[float] = None) -> None:
        """Run until the calendar is exhausted or ``until`` is reached."""
        if until is not None and until < self.now:
            raise SimulationError(
                f"until ({until!r}) must not be before now ({self.now!r})")
        # Popping, tombstone skipping and callback dispatch stay in this
        # one frame: a call per entry cost ~25% wall-clock on full runs.
        limit = float("inf") if until is None else until
        queue = self._queue
        pop = heappop
        processed = 0
        try:
            while queue:
                if queue[0][0] > limit:
                    break
                entry = pop(queue)
                if len(entry) == 6:
                    self.now = entry[0]
                    processed += 1
                    process = entry[3]
                    if process._target is entry:
                        process._step(entry[4], entry[5])
                    continue
                event = entry[3]
                if event._cancelled:
                    event._skip()
                    continue
                self.now = entry[0]
                processed += 1
                callbacks = event.callbacks
                if callbacks is not None:
                    event.callbacks = None
                    for callback in callbacks:
                        callback(event)
                if event._ok is False and not event._defused:
                    raise event._value
            if until is not None:
                self.now = until
        finally:
            self.events_processed += processed
