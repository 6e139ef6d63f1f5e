"""Interconnect model.

Inter-node transfers hold both the sender's TX pipe and the receiver's RX
pipe for ``latency + nbytes/bandwidth`` seconds, so concurrent traffic to or
from the same node queues up (NIC contention) while disjoint node pairs
proceed in parallel -- the first-order behaviour that makes asynchronous
checkpoint flushes delay application messages in the paper's measurements.

Transfers larger than ``chunk_bytes`` are moved in chunks so competing
messages can interleave between chunks instead of stalling behind one
multi-hundred-megabyte flush.

MPI messages take :meth:`Network.deliver`, which runs as event callbacks
rather than a process, so one message costs the host the same fixed work
at any rank count; bulk copies whose caller continues inline use the
:meth:`Network.transfer` generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Sequence, Tuple

from repro.sim.engine import Engine, Event
from repro.sim.node import Node
from repro.sim.resources import BandwidthPipe
from repro.util.errors import ConfigError, SimulationError
from repro.util.units import MiB


@dataclass(frozen=True)
class NetworkSpec:
    """Interconnect fabric parameters."""

    #: additional fabric latency per message beyond the NIC latency.
    fabric_latency: float = 0.5e-6
    #: default chunk size for preemptable bulk transfers.
    chunk_bytes: float = 4.0 * MiB

    def __post_init__(self) -> None:
        if self.fabric_latency < 0:
            raise ConfigError("fabric latency must be >= 0")
        if self.chunk_bytes <= 0:
            raise ConfigError("chunk size must be positive")


class Network:
    """Moves bytes between nodes, charging NIC + fabric costs."""

    def __init__(self, engine: Engine, nodes: Sequence[Node], spec: NetworkSpec) -> None:
        self.engine = engine
        self.nodes = list(nodes)
        self.spec = spec
        self.messages_sent = 0
        self.bytes_sent = 0.0

    def estimate_time(self, src: Node, dst: Node, nbytes: float) -> float:
        """Uncontended end-to-end estimate (used by cost sanity checks)."""
        if src is dst:
            return src.memcpy_time(nbytes)
        bw = min(src.tx.bandwidth, dst.rx.bandwidth)
        return src.tx.latency + self.spec.fabric_latency + float(nbytes) / bw

    def transfer(
        self,
        src: Node,
        dst: Node,
        nbytes: float,
        chunked: bool = False,
    ) -> Generator[Event, Any, None]:
        """Move ``nbytes`` from ``src`` to ``dst``.

        ``chunked=True`` splits the transfer at ``spec.chunk_bytes``
        boundaries, releasing the NICs between chunks; use it for background
        bulk traffic that must not head-of-line-block application messages.
        """
        self._count(nbytes)
        if src is dst:
            yield from src.memcpy(nbytes)
            return
        if chunked and nbytes > self.spec.chunk_bytes:
            remaining = float(nbytes)
            while remaining > 0:
                piece = min(remaining, self.spec.chunk_bytes)
                yield from self._move_piece(src, dst, piece)
                remaining -= piece
            return
        yield from self._move_piece(src, dst, nbytes)

    def deliver(
        self, src: Node, dst: Node, nbytes: float, on_arrival: Callable[[], None]
    ) -> None:
        """Move one message of ``nbytes`` and call ``on_arrival()`` once it
        has arrived.

        Same simulated costs, contention and event order as an unchunked
        :meth:`transfer` run in its own process started now, without the
        process: each step is a callback on the event the process would
        have waited for.
        """
        _Delivery(self, src, dst, float(nbytes), on_arrival)

    # -- shared by transfer() and deliver() ------------------------------

    def _count(self, nbytes: float) -> None:
        if nbytes < 0:
            raise SimulationError(f"negative transfer: {nbytes}")
        self.messages_sent += 1
        self.bytes_sent += float(nbytes)

    @staticmethod
    def _lock_order(src: Node, dst: Node) -> Tuple[BandwidthPipe, BandwidthPipe]:
        """Both NIC halves, in the global order that avoids lock cycles."""
        if dst.index < src.index:
            return dst.rx, src.tx
        return src.tx, dst.rx

    def _charge(self, src: Node, dst: Node, nbytes: float) -> float:
        """Book one piece on both NIC halves; returns their hold time."""
        bw = min(src.tx.bandwidth, dst.rx.bandwidth)
        hold = src.tx.latency + self.spec.fabric_latency + float(nbytes) / bw
        src.tx.busy_time += hold
        dst.rx.busy_time += hold
        src.tx.bytes_moved += float(nbytes)
        dst.rx.bytes_moved += float(nbytes)
        return hold

    def _move_piece(
        self, src: Node, dst: Node, nbytes: float
    ) -> Generator[Event, Any, None]:
        first, second = self._lock_order(src, dst)
        yield from first.acquire_lock()
        try:
            yield from second.acquire_lock()
            try:
                yield self.engine.timeout(self._charge(src, dst, nbytes))
            finally:
                second.release_lock()
        finally:
            first.release_lock()


class _Delivery:
    """One :meth:`Network.deliver` message, as a chain of callbacks: the
    start event, the first NIC-half lock, the second, the hold timeout."""

    __slots__ = ("network", "src", "dst", "nbytes", "on_arrival",
                 "first", "second")

    def __init__(
        self,
        network: Network,
        src: Node,
        dst: Node,
        nbytes: float,
        on_arrival: Callable[[], None],
    ) -> None:
        self.network = network
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        self.on_arrival = on_arrival
        start = Event(network.engine, name="deliver")
        start.add_callback(self._start)
        start.succeed(None)

    def _start(self, _ev: Event) -> None:
        network, src, dst = self.network, self.src, self.dst
        network._count(self.nbytes)
        if src is dst:
            network.engine.timeout(src.memcpy_time(self.nbytes)).add_callback(
                self._arrived)
            return
        self.first, self.second = network._lock_order(src, dst)
        self.first.request_lock().add_callback(self._first_locked)

    def _first_locked(self, _ev: Event) -> None:
        self.second.request_lock().add_callback(self._both_locked)

    def _both_locked(self, _ev: Event) -> None:
        network = self.network
        hold = network._charge(self.src, self.dst, self.nbytes)
        network.engine.timeout(hold).add_callback(self._released)

    def _released(self, _ev: Event) -> None:
        self.second.release_lock()
        self.first.release_lock()
        self.on_arrival()

    def _arrived(self, _ev: Event) -> None:
        self.on_arrival()
