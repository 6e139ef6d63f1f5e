"""Contended-resource primitives for the cluster model.

Three primitives cover every piece of modelled hardware:

- :class:`Resource` -- a counted semaphore with a FIFO wait queue (CPU
  slots, PFS metadata server, ...).
- :class:`Store` -- an unbounded FIFO of items with blocking ``get``
  (message queues, VeloC server work queues).
- :class:`BandwidthPipe` -- a serializing link with latency + bandwidth;
  the building block for NICs and PFS I/O servers.  Large transfers should
  be chunked by the caller so that competing traffic can interleave (this
  is exactly how the VeloC server's asynchronous flushes delay application
  MPI messages in the paper's Figure 5 discussion).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator, Optional

from repro.sim.engine import Engine, Event
from repro.util.errors import SimulationError


class Resource:
    """Counted FIFO semaphore.

    Usage (inside a process generator)::

        yield from res.acquire()
        try:
            ...
        finally:
            res.release()
    """

    def __init__(self, engine: Engine, capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name or "resource"
        self._in_use = 0
        self._waiters: deque[Event] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def request(self) -> Event:
        """Return an event that succeeds when a slot is granted."""
        ev = self.engine.event(name=f"{self.name}:request")
        if self._in_use < self.capacity:
            self._in_use += 1
            ev.succeed(None)
        else:
            self._waiters.append(ev)
        return ev

    def acquire(self) -> Generator[Event, Any, None]:
        """Generator helper: ``yield from res.acquire()``.

        A process killed while it waits gives its request back: a queued
        request leaves the queue, and a slot already granted to it is
        released, so a dead waiter never holds the resource."""
        ev = self.request()
        try:
            yield ev
        except Exception:
            if ev.triggered:
                self.release()
            else:
                self._waiters.remove(ev)
            raise

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError(f"{self.name}: release without acquire")
        if self._waiters:
            # Hand the slot directly to the next waiter (count unchanged).
            self._waiters.popleft().succeed(None)
        else:
            self._in_use -= 1


class Store:
    """Unbounded FIFO store with blocking ``get``.

    ``put`` never blocks.  Waiting getters are served in FIFO order and
    items are delivered in insertion order.
    """

    def __init__(self, engine: Engine, name: str = "") -> None:
        self.engine = engine
        self.name = name or "store"
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get_event(self) -> Event:
        ev = self.engine.event(name=f"{self.name}:get")
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def get(self) -> Generator[Event, Any, Any]:
        """Generator helper: ``item = yield from store.get()``."""
        item = yield self.get_event()
        return item

    def drain(self) -> list[Any]:
        """Remove and return all queued items without blocking."""
        items = list(self._items)
        self._items.clear()
        return items

    def fail_waiters(self, exc: BaseException) -> None:
        """Fail every blocked getter (used when tearing down a job)."""
        while self._getters:
            self._getters.popleft().fail(exc)


class BandwidthPipe:
    """A serializing link: one transfer at a time, cost = latency + n/bw.

    Models a NIC port or a PFS I/O server.  FIFO service means a message
    queued behind a large transfer waits for it -- callers that should be
    preemptable (e.g. background checkpoint flushes) must chunk their
    transfers.
    """

    def __init__(
        self,
        engine: Engine,
        bandwidth: float,
        latency: float = 0.0,
        name: str = "",
    ) -> None:
        if bandwidth <= 0:
            raise SimulationError(f"bandwidth must be positive, got {bandwidth}")
        if latency < 0:
            raise SimulationError(f"latency must be >= 0, got {latency}")
        self.engine = engine
        self.bandwidth = float(bandwidth)  # bytes / second
        self.latency = float(latency)  # seconds per transfer
        self.name = name or "pipe"
        self._lock = Resource(engine, capacity=1, name=f"{self.name}:lock")
        self.bytes_moved = 0.0
        self.busy_time = 0.0

    def transfer_time(self, nbytes: float) -> float:
        """Pure service time for ``nbytes`` (excludes queueing)."""
        return self.latency + float(nbytes) / self.bandwidth

    def transfer(self, nbytes: float) -> Generator[Event, Any, float]:
        """Occupy the pipe for ``nbytes``; returns the completion time."""
        if nbytes < 0:
            raise SimulationError(f"negative transfer size: {nbytes}")
        yield from self._lock.acquire()
        try:
            hold = self.transfer_time(nbytes)
            self.busy_time += hold
            self.bytes_moved += float(nbytes)
            yield self.engine.timeout(hold)
        finally:
            self._lock.release()
        return self.engine.now

    def acquire_lock(self) -> Generator[Event, Any, None]:
        """Acquire exclusive use of the pipe (for multi-pipe transfers
        coordinated by :class:`repro.sim.network.Network`):
        ``yield from pipe.acquire_lock()``."""
        return self._lock.acquire()

    def request_lock(self) -> Event:
        """The lock request event itself, for callers that chain a
        callback on the grant instead of yielding from a process."""
        return self._lock.request()

    def release_lock(self) -> None:
        self._lock.release()

    @property
    def queue_length(self) -> int:
        return self._lock.queue_length

    def utilization(self, horizon: Optional[float] = None) -> float:
        """Fraction of time the pipe has been busy up to ``horizon``
        (defaults to the current simulated time)."""
        t = horizon if horizon is not None else self.engine.now
        if t <= 0:
            return 0.0
        return min(1.0, self.busy_time / t)
