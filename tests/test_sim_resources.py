"""Unit tests for Resource."""

import gc

import pytest

from repro.core.benchmark import ServingBenchmark
from repro.core.planner import Planner
from repro.sim import Resource, SimulationError
from repro.sim.resources import Request


class TestResource:
    def test_capacity_validation(self, env):
        with pytest.raises(SimulationError):
            Resource(env, capacity=0)

    def test_grants_up_to_capacity(self, env):
        resource = Resource(env, capacity=2)
        first = resource.request()
        second = resource.request()
        third = resource.request()
        assert first.triggered and second.triggered
        assert not third.triggered
        assert resource.count == 2
        assert resource.queue_length == 1

    def test_release_grants_next_in_fifo_order(self, env):
        resource = Resource(env, capacity=1)
        first = resource.request()
        second = resource.request()
        third = resource.request()
        resource.release(first)
        assert second.triggered
        assert not third.triggered

    def test_release_unknown_request_rejected(self, env):
        resource = Resource(env, capacity=1)
        resource.request()
        stranger = resource.request()
        with pytest.raises(SimulationError):
            resource.release(stranger)

    def test_cancel_waiting_request(self, env):
        resource = Resource(env, capacity=1)
        held = resource.request()
        waiting = resource.request()
        resource.cancel(waiting)
        resource.release(held)
        assert not waiting.triggered
        assert resource.count == 0

    def test_resize_grants_waiting_requests(self, env):
        resource = Resource(env, capacity=1)
        resource.request()
        waiting = resource.request()
        assert not waiting.triggered
        resource.resize(2)
        assert waiting.triggered
        assert resource.capacity == 2

    def test_resize_validation(self, env):
        resource = Resource(env, capacity=1)
        with pytest.raises(SimulationError):
            resource.resize(0)

    def test_usage_in_processes(self, env):
        """Two workers sharing one slot serialise their critical sections."""
        resource = Resource(env, capacity=1)
        timeline = []

        def worker(name, hold):
            claim = resource.request()
            yield claim
            timeline.append((name, "start", env.now))
            yield env.timeout(hold)
            resource.release(claim)
            timeline.append((name, "end", env.now))

        env.process(worker("a", 2.0))
        env.process(worker("b", 1.0))
        env.run()
        assert timeline == [("a", "start", 0.0), ("a", "end", 2.0),
                            ("b", "start", 2.0), ("b", "end", 3.0)]

    def test_granted_claims_are_freed_without_the_cycle_collector(
            self, tiny_w40):
        """A managed-ML cell grants a worker slot per request; with the
        cyclic collector off, no granted claim is left for it: each one
        is freed by reference counting when its request is done."""
        deployment = Planner().plan("aws", "mobilenet", "tf1.15",
                                    "managed_ml")
        enabled, flags = gc.isenabled(), gc.get_debug()
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            ServingBenchmark(seed=5).run(deployment, tiny_w40)
            gc.collect()
            assert not [obj for obj in gc.garbage
                        if isinstance(obj, Request)]
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
            if enabled:
                gc.enable()
