"""Interconnect model.

Inter-node transfers hold both the sender's TX pipe and the receiver's RX
pipe for ``latency + nbytes/bandwidth`` seconds, so concurrent traffic to or
from the same node queues up (NIC contention) while disjoint node pairs
proceed in parallel -- the first-order behaviour that makes asynchronous
checkpoint flushes delay application messages in the paper's measurements.

Transfers larger than ``chunk_bytes`` are moved in chunks so competing
messages can interleave between chunks instead of stalling behind one
multi-hundred-megabyte flush.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Sequence

from repro.sim.engine import Engine, Event
from repro.sim.node import Node
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
        if nbytes < 0:
            raise SimulationError(f"negative transfer: {nbytes}")
        self.messages_sent += 1
        self.bytes_sent += float(nbytes)
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

    def _move_piece(
        self, src: Node, dst: Node, nbytes: float
    ) -> Generator[Event, Any, None]:
        # Acquire both NIC halves in a global order to avoid lock cycles.
        first, second = (src.tx, dst.rx)
        if dst.index < src.index:
            first, second = (dst.rx, src.tx)
        yield from first.acquire_lock()
        try:
            yield from second.acquire_lock()
            try:
                bw = min(src.tx.bandwidth, dst.rx.bandwidth)
                hold = src.tx.latency + self.spec.fabric_latency + float(nbytes) / bw
                src.tx.busy_time += hold
                dst.rx.busy_time += hold
                src.tx.bytes_moved += float(nbytes)
                dst.rx.bytes_moved += float(nbytes)
                yield self.engine.timeout(hold)
            finally:
                second.release_lock()
        finally:
            first.release_lock()
