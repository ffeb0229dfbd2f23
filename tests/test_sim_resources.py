"""Unit tests for Resource and Store."""

import gc

import pytest

from repro.sim import Environment, Interrupt, Resource, SimulationError, Store


def test_resource_serializes_users():
    env = Environment()
    resource = Resource(env, capacity=1)
    log = []

    def user(tag, hold):
        grant = resource.request()
        yield grant
        log.append(("start", tag, env.now))
        yield env.timeout(hold)
        resource.release(grant)
        log.append(("end", tag, env.now))

    env.process(user("a", 5))
    env.process(user("b", 3))
    env.run()
    assert log == [
        ("start", "a", 0),
        ("end", "a", 5),
        ("start", "b", 5),
        ("end", "b", 8),
    ]


def test_resource_capacity_two_runs_concurrently():
    env = Environment()
    resource = Resource(env, capacity=2)
    starts = []

    def user(tag):
        grant = resource.request()
        yield grant
        starts.append((tag, env.now))
        yield env.timeout(10)
        resource.release(grant)

    for tag in range(3):
        env.process(user(tag))
    env.run()
    assert starts == [(0, 0), (1, 0), (2, 10)]


def test_resource_fifo_order():
    env = Environment()
    resource = Resource(env, capacity=1)
    order = []

    def user(tag, arrive):
        yield env.timeout(arrive)
        grant = resource.request()
        yield grant
        order.append(tag)
        yield env.timeout(100)
        resource.release(grant)

    for tag, arrive in enumerate([0, 1, 2, 3]):
        env.process(user(tag, arrive))
    env.run()
    assert order == [0, 1, 2, 3]


def test_resource_acquire_helper():
    env = Environment()
    resource = Resource(env, capacity=1)
    log = []

    def user(tag):
        yield from resource.acquire(4)
        log.append((tag, env.now))

    env.process(user("x"))
    env.process(user("y"))
    env.run()
    assert log == [("x", 4), ("y", 8)]



class _Owner:
    """Stands for simulation state reachable from a pending callback."""

    def step(self, _event):
        pass


def _held_and_queued(hold):
    """A link with one holder mid-hold, one waiter queued behind it, and an
    owner reachable only through a callback still on the queue."""
    env = Environment()
    resource = Resource(env, capacity=1)
    for _ in range(2):
        env.process(hold(env, resource))
    env.timeout(50.0).callbacks.append(_Owner().step)
    env.run(until=1.0)


def _owners_alive_after_one_collection(build):
    """Build a run, drop it, and count the owners one gc pass leaves alive.

    Weak references cannot tell: the collector clears them before it runs
    finalizers, even for objects those finalizers then keep alive.
    """
    gc.collect()
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        build()
        gc.collect()
        return sum(1 for obj in gc.get_objects() if type(obj) is _Owner)
    finally:
        if enabled:
            gc.enable()


def _acquire_hold(env, resource):
    yield from resource.acquire(4)


def test_collecting_a_held_resource_frees_the_run_in_one_pass():
    # Tearing down a run finalizes the holder's generator.  Handing the link
    # on from there would schedule a grant from inside the collection and
    # keep the whole discarded run alive until the next one.
    assert _owners_alive_after_one_collection(
        lambda: _held_and_queued(_acquire_hold)
    ) == 0


def test_interrupting_a_holder_still_releases_the_resource():
    env = Environment()
    resource = Resource(env, capacity=1)
    log = []

    def holder():
        try:
            yield from resource.acquire(10)
        except Interrupt:
            log.append(("interrupted", env.now))

    def waiter():
        yield from resource.acquire(1)
        log.append(("served", env.now))

    first = env.process(holder())
    env.process(waiter())

    def interrupter():
        yield env.timeout(2)
        first.interrupt("stop")

    env.process(interrupter())
    env.run()
    assert log == [("interrupted", 2), ("served", 3)]


def test_resource_release_queued_request_cancels_it():
    env = Environment()
    resource = Resource(env, capacity=1)
    held = resource.request()
    queued = resource.request()
    assert resource.queue_length == 1
    resource.release(queued)  # cancel while still waiting
    assert resource.queue_length == 0
    resource.release(held)
    assert resource.count == 0


def test_resource_release_unknown_grant_raises():
    env = Environment()
    resource = Resource(env, capacity=1)
    foreign = env.event()
    with pytest.raises(SimulationError):
        resource.release(foreign)


def test_resource_invalid_capacity():
    env = Environment()
    with pytest.raises(SimulationError):
        Resource(env, capacity=0)


def test_resource_counters():
    env = Environment()
    resource = Resource(env, capacity=1)
    first = resource.request()
    resource.request()
    assert resource.count == 1
    assert resource.queue_length == 1
    resource.release(first)
    assert resource.count == 1
    assert resource.queue_length == 0


def test_store_put_then_get():
    env = Environment()
    store = Store(env)
    store.put("a")
    store.put("b")
    got = []

    def getter():
        got.append((yield store.get()))
        got.append((yield store.get()))

    env.process(getter())
    env.run()
    assert got == ["a", "b"]


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    got = []

    def getter():
        item = yield store.get()
        got.append((env.now, item))

    def putter():
        yield env.timeout(6)
        store.put("late")

    env.process(getter())
    env.process(putter())
    env.run()
    assert got == [(6, "late")]


def test_store_multiple_getters_fifo():
    env = Environment()
    store = Store(env)
    got = []

    def getter(tag):
        item = yield store.get()
        got.append((tag, item))

    env.process(getter(1))
    env.process(getter(2))

    def putter():
        yield env.timeout(1)
        store.put("x")
        store.put("y")

    env.process(putter())
    env.run()
    assert got == [(1, "x"), (2, "y")]


def test_store_len():
    env = Environment()
    store = Store(env)
    assert len(store) == 0
    store.put(1)
    assert len(store) == 1
