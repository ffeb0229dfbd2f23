"""FCFS resources and stores for the simulation kernel.

:class:`Resource` models a server with fixed capacity and an infinite FIFO
queue (the MSS channels and the per-host radio are Resources of capacity 1).
:class:`Store` is an unbounded FIFO item buffer (the MSS request queue).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Iterator, List

from repro.sim.kernel import Environment, Event, SimulationError

__all__ = ["Resource", "Store"]


class Resource:
    """A capacity-limited resource with an infinite FCFS wait queue.

    Usage from a process::

        grant = resource.request()
        yield grant
        ...  # hold the resource
        resource.release(grant)

    A holder that can be interrupted releases in an ``except`` clause
    that lets ``GeneratorExit`` through (see :meth:`acquire`): releasing
    while a discarded run is being collected would schedule an event
    from inside the collection.
    """

    __slots__ = ("env", "capacity", "_users", "_queue")

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._users: List[Event] = []
        self._queue: Deque[Event] = deque()

    @property
    def count(self) -> int:
        """Number of grants currently held."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a grant."""
        return len(self._queue)

    def request(self) -> Event:
        """Ask for a grant.  The returned event fires when granted."""
        grant = Event(self.env)
        if len(self._users) < self.capacity:
            self._users.append(grant)
            grant.succeed()
        else:
            self._queue.append(grant)
        return grant

    def release(self, grant: Event) -> None:
        """Return a grant; hands the slot to the oldest waiter, if any."""
        try:
            self._users.remove(grant)
        except ValueError:
            # Granted but never fired (still queued): cancel the request.
            try:
                self._queue.remove(grant)
                return
            except ValueError:
                raise SimulationError("release() of a grant not held") from None
        if self._queue:
            waiter = self._queue.popleft()
            self._users.append(waiter)
            waiter.succeed()

    def acquire(self, hold_time: float) -> Iterator[Event]:
        """Process helper: request, hold for ``hold_time``, release.

        Intended to be delegated to with ``yield from``::

            yield from resource.acquire(tx_time)
        """
        grant = self.request()
        yield grant
        try:
            yield self.env.timeout(hold_time)
        except GeneratorExit:
            # Closed, as when a discarded run is collected: hand the slot to
            # nobody (see ServerChannel._send).
            raise
        except BaseException:
            self.release(grant)  # interrupted mid-hold
            raise
        self.release(grant)


class Store:
    """An unbounded FIFO buffer of items with blocking ``get``."""

    __slots__ = ("env", "_items", "_getters")

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit an item; wakes the oldest blocked getter, if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event that fires with the oldest item."""
        event = Event(self.env)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event
