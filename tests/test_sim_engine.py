"""Unit tests for the discrete-event simulation engine."""

import pytest

from repro.sim import Environment, Interrupt, SimulationError


class TestClockAndTimeouts:
    def test_time_starts_at_zero(self, env):
        assert env.now == 0.0

    def test_timeout_advances_clock(self, env):
        log = []

        def proc():
            yield env.timeout(5.0)
            log.append(env.now)

        env.process(proc())
        env.run()
        assert log == [5.0]

    def test_negative_timeout_rejected(self, env):
        with pytest.raises(SimulationError):
            env.timeout(-1.0)

    def test_nan_timeout_rejected(self, env):
        """A NaN delay used to fire first and set the clock to NaN."""
        with pytest.raises(SimulationError):
            env.timeout(float("nan"))
        env.timeout(1.0)
        env.run()
        assert env.now == 1.0

    def test_run_until_stops_early(self, env):
        log = []

        def proc():
            yield env.timeout(10.0)
            log.append("late")

        env.process(proc())
        env.run(until=5.0)
        assert log == []
        assert env.now == 5.0

    def test_run_until_before_now_rejected(self, env):
        env.run(until=3.0)
        with pytest.raises(SimulationError):
            env.run(until=1.0)

    def test_events_processed_in_time_order(self, env):
        order = []

        def proc(delay, name):
            yield env.timeout(delay)
            order.append(name)

        env.process(proc(3.0, "c"))
        env.process(proc(1.0, "a"))
        env.process(proc(2.0, "b"))
        env.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_fifo(self, env):
        order = []

        def proc(name):
            yield env.timeout(1.0)
            order.append(name)

        for name in "abc":
            env.process(proc(name))
        env.run()
        assert order == ["a", "b", "c"]

    def test_timeout_carries_value(self, env):
        seen = []

        def proc():
            value = yield env.timeout(1.0, value="payload")
            seen.append(value)

        env.process(proc())
        env.run()
        assert seen == ["payload"]

    def test_run_on_an_empty_calendar_returns_at_once(self, env):
        env.run()
        assert env.now == 0.0
        assert env.events_processed == 0

    def test_run_until_on_an_empty_calendar_moves_the_clock(self, env):
        env.run(until=4.0)
        assert env.now == 4.0
        assert env.events_processed == 0

    def test_run_until_runs_an_event_due_at_until(self, env):
        fired = []
        env.timeout(4.0).callbacks.append(lambda _event: fired.append(env.now))
        env.run(until=4.0)
        assert fired == [4.0]
        assert env.events_processed == 1

    def test_run_resumes_the_calendar_after_until(self, env):
        fired = []
        env.timeout(4.0).callbacks.append(lambda _event: fired.append(env.now))
        env.run(until=2.0)
        assert fired == [] and env.now == 2.0
        env.run()
        assert fired == [4.0] and env.now == 4.0
        assert env.events_processed == 1


class TestEvents:
    def test_event_succeed_delivers_value(self, env):
        event = env.event()
        received = []

        def waiter():
            value = yield event
            received.append(value)

        def trigger():
            yield env.timeout(2.0)
            event.succeed(42)

        env.process(waiter())
        env.process(trigger())
        env.run()
        assert received == [42]

    def test_event_cannot_trigger_twice(self, env):
        event = env.event()
        event.succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)

    def test_event_value_before_trigger_raises(self, env):
        event = env.event()
        with pytest.raises(SimulationError):
            _ = event.value

    def test_fail_requires_exception(self, env):
        event = env.event()
        with pytest.raises(SimulationError):
            event.fail("not an exception")

    def test_failed_event_raises_in_process(self, env):
        event = env.event()
        caught = []

        def waiter():
            try:
                yield event
            except RuntimeError as exc:
                caught.append(str(exc))

        def trigger():
            yield env.timeout(1.0)
            event.fail(RuntimeError("boom"))

        env.process(waiter())
        env.process(trigger())
        env.run()
        assert caught == ["boom"]

    def test_unhandled_failure_propagates(self, env):
        def failing():
            yield env.timeout(1.0)
            raise ValueError("unhandled")

        env.process(failing())
        with pytest.raises(ValueError, match="unhandled"):
            env.run()


class TestProcesses:
    def test_process_return_value(self, env):
        def child():
            yield env.timeout(1.0)
            return "done"

        results = []

        def parent():
            value = yield env.process(child())
            results.append(value)

        env.process(parent())
        env.run()
        assert results == ["done"]

    def test_process_is_alive_until_finished(self, env):
        def child():
            yield env.timeout(5.0)

        proc = env.process(child())
        assert proc.is_alive
        env.run()
        assert not proc.is_alive

    def test_non_generator_rejected(self, env):
        async def coroutine():
            return None

        # A coroutine has ``send`` but is no generator.
        awaitable = coroutine()
        for target in (lambda: None, 1, iter([1.0]), awaitable):
            with pytest.raises(SimulationError, match="requires a generator"):
                env.process(target)
        awaitable.close()

    def test_yield_non_event_rejected_at_process_creation(self, env):
        """The first step runs inline, so a bad first yield surfaces at
        the env.process() call itself, not later inside run()."""
        def bad():
            yield "42"  # numbers are bare sleeps; a string is no event

        with pytest.raises(SimulationError):
            env.process(bad())

    def test_yield_non_event_rejected_after_first_step(self, env):
        def bad():
            yield env.timeout(1.0)
            yield "42"

        env.process(bad())
        with pytest.raises(SimulationError):
            env.run()

    def test_first_step_runs_inline(self, env):
        log = []

        def proc():
            log.append(env.now)
            yield env.timeout(1.0)
            log.append(env.now)

        env.process(proc())
        assert log == [0.0]  # first segment already ran
        env.run()
        assert log == [0.0, 1.0]

    def test_inline_start_restores_active_process(self, env):
        observed = []

        def child():
            yield env.timeout(1.0)

        def parent():
            env.process(child())
            observed.append(env.active_process)
            yield env.timeout(2.0)

        parent_proc = env.process(parent())
        env.run()
        assert observed == [parent_proc]

    def test_interrupt_reaches_process(self, env):
        caught = []

        def victim():
            try:
                yield env.timeout(100.0)
            except Interrupt as interrupt:
                caught.append(interrupt.cause)

        def attacker(target):
            yield env.timeout(1.0)
            target.interrupt("stop")

        victim_proc = env.process(victim())
        env.process(attacker(victim_proc))
        env.run()
        assert caught == ["stop"]

    @pytest.mark.parametrize("sleep", [False, True])
    def test_interrupt_detaches_the_interrupted_wait(self, env, sleep):
        """Interrupted at t=1 out of a 10 s wait, a 20 s wait ends at 21.

        The old wait used to stay subscribed: it woke the process at
        t=10 and later resumed the finished generator, overwriting its
        return value with None.
        """
        log = []

        def wait(delay):
            return delay if sleep else env.timeout(delay)

        def victim():
            try:
                yield wait(10.0)
            except Interrupt:
                log.append(("interrupted", env.now))
            yield wait(20.0)
            log.append(("woke", env.now))
            return "done"

        def attacker(target):
            yield env.timeout(1.0)
            target.interrupt()

        proc = env.process(victim())
        env.process(attacker(proc))
        env.run()
        assert log == [("interrupted", 1.0), ("woke", 21.0)]
        assert proc.value == "done"
        # The stale 10 s entry still pops and counts: attacker timeout,
        # interrupt, stale wait, 20 s wait.
        assert env.events_processed == 4
        assert env.now == 21.0

    def test_interrupt_detaches_from_a_guard(self, env):
        lane = env.lane(10.0)
        log = []

        def victim():
            guard = lane.guard(env.event())
            try:
                yield guard
            except Interrupt:
                guard.cancel()
                log.append(env.now)
            yield 20.0
            log.append(env.now)

        def attacker(target):
            yield 1.0
            target.interrupt()

        proc = env.process(victim())
        env.process(attacker(proc))
        env.run()
        assert log == [1.0, 21.0]
        # The withdrawn guard's token does not count.
        assert env.events_processed == 3

    def test_pending_interrupts_coalesce(self, env):
        causes = []

        def victim():
            while True:
                try:
                    yield 100.0
                    return
                except Interrupt as interrupt:
                    causes.append((interrupt.cause, env.now))

        def attacker(target):
            yield 1.0
            target.interrupt("first")
            target.interrupt("second")

        proc = env.process(victim())
        env.process(attacker(proc))
        env.run()
        assert causes == [("second", 1.0)]
        assert not proc.is_alive and env.now == 101.0

    def test_self_interrupt_rejected(self, env):
        def selfish():
            yield 1.0
            env.active_process.interrupt()

        env.process(selfish())
        with pytest.raises(SimulationError):
            env.run()

    def test_interrupt_finished_process_rejected(self, env):
        def quick():
            yield env.timeout(1.0)

        proc = env.process(quick())
        env.run()
        with pytest.raises(SimulationError):
            proc.interrupt()

    def test_nested_processes(self, env):
        trace = []

        def grandchild():
            yield env.timeout(1.0)
            trace.append("grandchild")
            return 3

        def child():
            value = yield env.process(grandchild())
            trace.append("child")
            return value * 2

        def parent():
            value = yield env.process(child())
            trace.append(("parent", value))

        env.process(parent())
        env.run()
        assert trace == ["grandchild", "child", ("parent", 6)]

