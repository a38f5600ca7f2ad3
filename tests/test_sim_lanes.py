"""Bare sleeps, guard lanes and idle lines: the engine primitives off
the heap.

* **Bare sleeps** — a process that yields a plain number resumes exactly
  where ``env.timeout`` of that delay would have resumed it; bools,
  negative and NaN delays are rejected.
* **Guard lanes** — ``lane.guard(event)`` behaves like ``env.timeout``
  raced against ``event`` with the loser cancelled: the same firing
  order, clock, and ``events_processed`` on random programs of wins,
  expiries, withdrawals, interrupts, and guards armed from a fired
  guard's callbacks — while the heap holds at most one entry per lane.
* **Idle lines** — an :class:`~repro.sim.engine.IdleLine` entry behaves
  like a withdrawable ``env.timeout`` created when it joined: the same
  expiries, clock and ``events_processed`` on random programs of parks,
  claims, removals and re-parks from the expiry hook, while the heap
  holds one alarm entry per line; a heap compaction keeps a withdrawn
  alarm, which still has to arm the next entry.
* ``env.timeout_at(when)`` keys its entry at ``when`` exactly.
"""

import gc
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Interrupt, SimulationError
from repro.sim.engine import NORMAL, IdleLine


def _entries_of(env, lane):
    """Heap entries that belong to ``lane`` (its armed head token)."""
    return [entry for entry in env._queue
            if len(entry) == 4 and getattr(entry[3], "_lane", None) is lane]


class TestBareSleeps:
    def test_sleep_advances_clock_and_resumes_with_none(self, env):
        log = []

        def proc():
            log.append((yield 2.5))
            log.append(env.now)
            yield 3  # an int is a sleep too
            log.append(env.now)

        env.process(proc())
        env.run()
        assert log == [None, 2.5, 5.5]

    def test_sleep_pops_in_timeout_order_at_equal_times(self, env):
        """Same (time, NORMAL, sequence) key as env.timeout(d)."""
        order = []

        def sleeper(name, delay):
            yield delay
            order.append(name)

        def timer(name, delay):
            yield env.timeout(delay)
            order.append(name)

        env.process(timer("t1", 1.0))
        env.process(sleeper("s1", 1.0))
        env.process(timer("t2", 1.0))
        env.process(sleeper("s2", 1))
        env.process(sleeper("s0", 0.0))
        env.run()
        assert order == ["s0", "t1", "s1", "t2", "s2"]
        assert env.events_processed == 5

    def test_sleep_matches_timeout_run_bit_for_bit(self):
        """A mixed program: sleeps and timeouts interleave identically."""
        def program(env, sleep):
            log = []

            def proc(index):
                for step in range(4):
                    delay = ((index * 7 + step * 3) % 5) * 0.25
                    if sleep:
                        yield delay
                    else:
                        yield env.timeout(delay)
                    log.append((index, step, env.now))

            for index in range(6):
                env.process(proc(index))
            env.run()
            return log, env.events_processed

        assert program(Environment(), True) == program(Environment(), False)

    @pytest.mark.parametrize("bad", [True, False, -1, -0.5, math.nan,
                                     -math.inf])
    def test_bool_negative_and_nan_rejected(self, env, bad):
        def proc():
            yield bad

        with pytest.raises(SimulationError):
            env.process(proc())

    def test_rejected_mid_run(self, env):
        def proc():
            yield 1.0
            yield math.nan

        env.process(proc())
        with pytest.raises(SimulationError):
            env.run()
        assert not math.isnan(env.now)

    def test_finished_sleeper_is_freed_without_the_cycle_collector(self,
                                                                  env):
        """The resume entry a process keeps must not outlive it.

        One such cycle per request left every finished request's
        process (and its outcome) to the cycle collector.
        """
        def proc():
            yield 1.0
            yield env.timeout(1.0)
            yield 0.5

        gc.collect()
        gc.disable()
        try:
            for _ in range(50):
                env.process(proc())
            env.run()
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_infinite_sleep_never_wakes_before_until(self, env):
        woke = []

        def proc():
            yield math.inf
            woke.append(env.now)

        env.process(proc())
        env.run(until=100.0)
        assert woke == [] and env.now == 100.0


class TestLanes:
    def test_guard_wins_with_the_event(self, env):
        lane = env.lane(10.0)
        event = env.event()
        seen = []

        def proc():
            seen.append((yield lane.guard(event)))
            seen.append(env.now)

        env.process(proc())
        event.succeed("ok", delay=3.0)
        env.run()
        assert seen == [event, 3.0]
        # The withdrawn guard's token popped without counting.
        assert env.events_processed == 1

    def test_guard_expires_with_none(self, env):
        lane = env.lane(4.0)
        seen = []

        def proc():
            seen.append((yield lane.guard(env.event())))
            seen.append(env.now)

        env.process(proc())
        env.run()
        assert seen == [None, 4.0]
        assert env.events_processed == 1

    def test_late_event_after_expiry_is_ignored(self, env):
        lane = env.lane(1.0)
        event = env.event()
        seen = []

        def proc():
            seen.append((yield lane.guard(event)))

        env.process(proc())
        event.succeed(delay=2.0)
        env.run()
        assert seen == [None]
        assert env.events_processed == 2

    def test_cancel_withdraws(self, env):
        lane = env.lane(5.0)
        guard = lane.guard(env.event())
        assert guard.cancel() is True
        assert guard.cancel() is False
        env.run()
        assert env.events_processed == 0

    def test_failure_is_passed_to_the_waiter(self, env):
        lane = env.lane(5.0)
        event = env.event()
        caught = []

        def proc():
            try:
                yield lane.guard(event)
            except KeyError as error:
                caught.append((error.args, env.now))

        env.process(proc())
        event.fail(KeyError("boom"), delay=1.0)
        env.run()
        assert caught == [(("boom",), 1.0)]

    def test_unwatched_failure_still_surfaces(self, env):
        lane = env.lane(5.0)
        event = env.event()
        lane.guard(event)
        event.fail(KeyError("boom"))
        with pytest.raises(KeyError):
            env.run()

    def test_guard_on_processed_event_wins_at_once(self, env):
        lane = env.lane(5.0)
        event = env.event()
        event.succeed()
        env.run()
        seen = []

        def proc():
            seen.append((yield lane.guard(event)))
            seen.append(env.now)

        env.process(proc())
        env.run()
        assert seen == [event, 0.0]
        assert len(lane) == 0

    def test_timeout_at_is_keyed_at_the_exact_time(self, env):
        env.run(until=0.2)
        # now + (0.9 - now) rounds to a neighbour of 0.9.
        assert env.now + (0.9 - env.now) != 0.9
        fired = []
        env.timeout_at(0.9).callbacks.append(
            lambda _event: fired.append(env.now))
        env.run()
        assert fired == [0.9]
        with pytest.raises(SimulationError):
            env.timeout_at(0.5)

    def test_negative_or_nan_delay_rejected(self, env):
        for bad in (-1.0, math.nan):
            with pytest.raises(SimulationError):
                env.lane(bad)

    def test_heap_holds_at_most_one_entry_per_lane(self, env):
        deadlines = env.lane(30.0)
        keep_alives = env.lane(50.0)
        peak = []

        def client(index):
            yield index * 0.5
            response = env.event()
            response.succeed(delay=(index % 4) * 10.0)
            yield deadlines.guard(response)
            yield keep_alives.guard(env.event())

        def probe():
            while env.now < 200.0:
                peak.append((len(_entries_of(env, deadlines)),
                             len(_entries_of(env, keep_alives))))
                yield 0.25

        for index in range(40):
            env.process(client(index))
        env.process(probe())
        env.run()
        assert max(d for d, _ in peak) == 1
        assert max(k for _, k in peak) == 1
        assert len(deadlines) == 0 and len(keep_alives) == 0


class TestIdleLine:
    @staticmethod
    def _alarm_keys(env, line):
        """Heap keys of ``line``'s alarm entries."""
        return [entry[:3] for entry in env._queue
                if len(entry) == 4 and entry[3] is line._alarm]

    def test_withdrawable_timers_fire_in_creation_order(self, env):
        """Entries expire in the order they joined; a removed one never."""
        fired = []
        line = IdleLine(env, 3.0, lambda item: fired.append((item, env.now)))
        entries = [line.park(index) for index in range(3)]
        line.remove(entries[1])
        env.run()
        assert fired == [(0, 3.0), (2, 3.0)]
        assert env.events_processed == 2
        assert not line.entries

    def test_claim_takes_the_oldest_and_its_alarm_pops_uncounted(self, env):
        fired = []
        line = IdleLine(env, 5.0, lambda item: fired.append((item, env.now)))
        line.park("a")
        env.run(until=1.0)
        line.park("b")
        assert line.claim() == "a"
        # The withdrawn alarm stays until it pops, uncounted, then arms "b".
        assert self._alarm_keys(env, line) == [(5.0, NORMAL, 0)]
        env.run(until=5.0)
        assert fired == [] and env.events_processed == 0
        assert self._alarm_keys(env, line) == [(6.0, NORMAL, 1)]
        env.run()
        assert fired == [("b", 6.0)]
        assert env.events_processed == 1

    def test_expiry_may_park_the_item_again(self, env):
        """The hook runs after the next entry is armed; a re-park joins
        the tail under a fresh key."""
        fired = []
        line = None

        def expire(item):
            fired.append((item, env.now))
            if item == "kept" and env.now < 10.0:
                line.park(item)

        line = IdleLine(env, 4.0, expire)
        line.park("kept")
        env.run(until=1.0)
        line.park("gone")
        env.run()
        assert fired == [("kept", 4.0), ("gone", 5.0), ("kept", 8.0),
                         ("kept", 12.0)]
        assert env.events_processed == 4

    def test_heap_holds_at_most_one_alarm_entry(self, env):
        line = IdleLine(env, 50.0, lambda item: None)
        peak = []

        def worker(index):
            yield index * 0.5
            entry = line.park(index)
            yield (index % 4) * 10.0
            if entry in line.entries:
                line.remove(entry)

        def probe():
            while env.now < 200.0:
                peak.append(len(self._alarm_keys(env, line)))
                yield 0.25

        for index in range(40):
            env.process(worker(index))
        env.process(probe())
        env.run()
        assert max(peak) == 1
        assert not line.entries and not self._alarm_keys(env, line)

    def test_compaction_keeps_a_withdrawn_alarm(self, env):
        """A compaction while the alarm is withdrawn must not lose the
        next entry's expiry."""
        fired = []
        line = IdleLine(env, 5.0, lambda item: fired.append((item, env.now)))
        line.park("a")
        line.park("b")
        line.claim()
        timers = [env.timeout(50.0) for _ in range(200)]
        for timer in timers:
            timer.cancel()
        assert len(env._queue) < len(timers)  # it compacted
        env.run()
        assert fired == [("b", 5.0)]

    def test_negative_or_nan_delay_rejected(self, env):
        for bad in (-1.0, math.nan):
            with pytest.raises(SimulationError):
                IdleLine(env, bad, lambda item: None)


# ---------------------------------------------------------------------------
# IdleLine == one withdrawable timeout per entry, on random programs
# ---------------------------------------------------------------------------

_LINE_PROGRAM = st.tuples(
    st.sampled_from([0.5, 1.0, 2.5, 4.0]),
    # (when, action, which entry a removal takes)
    st.lists(st.tuples(st.integers(min_value=0, max_value=14).map(
                           lambda k: k * 0.5),
                       st.sampled_from(["park", "park", "claim", "remove"]),
                       st.integers(min_value=0, max_value=7)),
             min_size=1, max_size=30),
)


def _run_line_program(delay, actions, use_line):
    """Run one program; returns (expiry log, final clock, events).

    Items whose number is a multiple of 3 park again once when they
    expire, from inside the expiry hook.
    """
    env = Environment()
    log = []
    if use_line:
        line = IdleLine(env, delay, lambda item: expire(item))
        entries = line.entries

        def park(item):
            line.park(item)

        def claim():
            return line.claim()

        def remove(index):
            line.remove(entries[index])
    else:
        entries = []

        def park(item):
            timer = env.timeout(delay)
            entry = (item, timer)
            timer.callbacks.append(lambda _timer: fire(entry))
            entries.append(entry)

        def fire(entry):
            assert entries[0] is entry
            del entries[0]
            expire(entry[0])

        def claim():
            item, timer = entries.pop(0)
            timer.cancel()
            return item

        def remove(index):
            entries.pop(index)[1].cancel()

    def expire(item):
        log.append(("expire", item, env.now))
        if item[0] % 3 == 0 and item[1] == 0:
            park((item[0], 1))

    def actor(number, when, action, which):
        yield when
        if action == "park":
            park((number, 0))
        elif entries and action == "claim":
            log.append(("claim", claim(), env.now))
        elif entries:
            remove(which % len(entries))

    for number, (when, action, which) in enumerate(actions):
        env.process(actor(number, when, action, which))
    env.run()
    return log, env.now, env.events_processed


class TestIdleLineMatchesTimeouts:
    @given(_LINE_PROGRAM)
    @settings(max_examples=300, deadline=None)
    def test_same_expiries_clock_and_event_count(self, program):
        delay, actions = program
        assert (_run_line_program(delay, actions, use_line=True)
                == _run_line_program(delay, actions, use_line=False))

    def test_program_exercises_every_action(self):
        """A fixed program: expiries, a claim, a removal from the middle
        (item 4) and re-parks from the hook (items 0 and 6)."""
        actions = [(0.0, "park", 0), (0.5, "park", 0), (1.0, "park", 0),
                   (1.5, "claim", 0), (1.5, "park", 0), (2.0, "remove", 2),
                   (3.0, "park", 0)]
        run = _run_line_program(1.0, actions, use_line=True)
        assert run == ([("expire", (0, 0), 1.0), ("claim", (1, 0), 1.5),
                        ("expire", (2, 0), 2.0), ("expire", (0, 1), 2.0),
                        ("expire", (6, 0), 4.0), ("expire", (6, 1), 5.0)],
                       5.0, 12)
        assert run == _run_line_program(1.0, actions, use_line=False)


# ---------------------------------------------------------------------------
# Lane == timeout + race, on random programs
# ---------------------------------------------------------------------------

_HALF_STEPS = st.integers(min_value=0, max_value=14).map(lambda k: k * 0.5)

_ROUND = st.fixed_dictionaries({
    # When the watched event fires after the guard is armed (None: never).
    "respond": st.one_of(st.none(), _HALF_STEPS),
    # Interrupt this long after arming (None: no interrupt).
    "interrupt": st.one_of(st.none(), _HALF_STEPS),
    # After an interrupt: withdraw and go on (True) or withdraw and quit.
    "resume": st.booleans(),
    # Arm a side guard from a plain callback on this round's guard; its
    # event fires after this share of the delay (None: no side guard).
    "side": st.sampled_from([None, 0.5, 1.0, 1.5]),
})

_PROGRAM = st.tuples(
    st.sampled_from([0.5, 1.0, 2.5, 4.0]),
    st.lists(st.tuples(_HALF_STEPS,
                       st.lists(_ROUND, min_size=1, max_size=4)),
             min_size=1, max_size=5),
)


def _run_guard_program(delay, actors, use_lane):
    """Run one program; returns (firing log, final clock, events)."""
    env = Environment()
    lane = env.lane(delay)
    log = []

    def arm(event):
        """(what to yield, how to withdraw it)."""
        if use_lane:
            guard = lane.guard(event)
            return guard, guard.cancel
        timer = env.timeout(delay)
        race = env.race(event, timer)

        def withdraw():
            timer.cancel()
            race.cancel()
        return race, withdraw

    def settle(tag, event, value, withdraw):
        won = value is event
        if won and not use_lane:
            withdraw()  # timeout + race: the winner cancels the timer
        log.append((tag, "win" if won else "expire", env.now))

    def respond(event, after):
        yield after
        event.succeed()

    def side(tag, waitable, share):
        def spawn(_fired):
            def watcher():
                event = env.event()
                event.succeed(delay=delay * share)
                target, withdraw = arm(event)
                settle(tag, event, (yield target), withdraw)
            env.process(watcher())
        waitable.callbacks.append(spawn)

    def interrupter(process, after, armed):
        yield after
        if process.is_alive and armed[0]:
            armed[0] = False
            process.interrupt()

    def actor(index, start, rounds):
        yield start
        armed = [False]
        for number, plan in enumerate(rounds):
            tag = (index, number)
            event = env.event()
            if plan["respond"] is not None:
                env.process(respond(event, plan["respond"]))
            target, withdraw = arm(event)
            if plan["side"] is not None:
                side(tag + ("side",), target, plan["side"])
            if plan["interrupt"] is not None:
                env.process(interrupter(env.active_process,
                                        plan["interrupt"], armed))
            armed[0] = True
            try:
                value = yield target
            except Interrupt:
                withdraw()
                log.append((tag, "interrupt", env.now))
                if not plan["resume"]:
                    return
                continue
            armed[0] = False
            settle(tag, event, value, withdraw)

    for index, (start, rounds) in enumerate(actors):
        env.process(actor(index, start, rounds))
    env.run()
    return log, env.now, env.events_processed


class TestLaneMatchesTimeoutRace:
    @given(_PROGRAM)
    @settings(max_examples=300, deadline=None)
    def test_same_firings_clock_and_event_count(self, program):
        delay, actors = program
        assert (_run_guard_program(delay, actors, use_lane=True)
                == _run_guard_program(delay, actors, use_lane=False))

    def test_program_exercises_every_outcome(self):
        """A fixed program hits win, expiry, interrupt, and side guards."""
        actors = [
            (0.0, [{"respond": 0.5, "interrupt": None, "resume": True,
                    "side": 1.5},
                   {"respond": None, "interrupt": None, "resume": True,
                    "side": None},
                   {"respond": 3.0, "interrupt": 0.5, "resume": True,
                    "side": None},
                   {"respond": 1.0, "interrupt": None, "resume": True,
                    "side": None}]),
            (0.5, [{"respond": 1.0, "interrupt": 1.0, "resume": False,
                    "side": 0.5}]),
        ]
        run = _run_guard_program(1.0, actors, use_lane=True)
        log = run[0]
        assert {entry[1] for entry in log} == {"win", "expire", "interrupt"}
        sides = {entry[1] for entry in log if len(entry[0]) == 3}
        assert sides == {"win", "expire"}
        assert run == _run_guard_program(1.0, actors, use_lane=False)
