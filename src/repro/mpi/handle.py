"""Per-rank communicator facade (the object application code talks to).

A :class:`CommHandle` binds a shared :class:`~repro.mpi.comm.Communicator`
to one rank's :class:`~repro.mpi.world.RankContext`.  Its API mirrors
mpi4py's lowercase object interface (``send``/``recv``/``bcast``/
``allreduce``/...), every blocking call is a generator to be driven with
``yield from``, and every call charges its wall time to the rank's
:class:`~repro.util.timing.TimeAccount` under kind ``"mpi"`` -- which is
exactly the paper's "App MPI" measurement.

Collectives are implemented *on top of the point-to-point layer* with
binomial trees (bcast/reduce) and dissemination (barrier), so their cost
scales as ``O(log P)`` network hops and they contend for NICs like any
other traffic -- both properties the paper's scaling discussion relies on.

Subclasses may override :meth:`_on_mpi_error` to implement an MPI error
handler; :class:`repro.fenix.FenixCommHandle` uses this hook to revoke the
communicator and long-jump into recovery.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional

from repro.mpi.comm import Communicator
from repro.mpi.errors import MPIError
from repro.mpi.ops import ReduceOp, SUM
from repro.mpi.status import ANY_SOURCE, ANY_TAG, Request, Status, payload_nbytes
from repro.sim.engine import Event
from repro.util.errors import SimulationError

# collective op ids folded into reserved tags
_OP_BCAST = 1
_OP_REDUCE = 2
_OP_GATHER = 3
_OP_SCATTER = 4
_OP_ALLTOALL = 5
_OP_BARRIER = 6
_OP_SCAN = 7
_OP_SPLIT = 8


class CommHandle:
    """One rank's view of a communicator."""

    def __init__(self, comm: Communicator, ctx: "Any") -> None:
        self.comm = comm
        self.ctx = ctx
        rank = comm.comm_rank(ctx.rank)
        if rank is None:
            raise SimulationError(
                f"world rank {ctx.rank} is not a member of {comm.name}"
            )
        self._rank = rank

    # -- identity ----------------------------------------------------------

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self.comm.size

    @property
    def engine(self):
        return self.comm.world.engine

    def rebind(self, comm: Communicator) -> "CommHandle":
        """A handle of the same class/context on another communicator
        (used after shrink/repair)."""
        return type(self)(comm, self.ctx)

    # -- error-handler hook ---------------------------------------------------

    def _on_mpi_error(self, exc: MPIError) -> None:
        """Called when an operation fails with an MPI error, before the
        error propagates.  The default (MPI_ERRORS_ARE_FATAL flavour) lets
        the exception raise; Fenix overrides this to enter recovery."""

    def _timed(self, gen: Generator) -> Generator[Event, Any, Any]:
        engine = self.engine
        t0 = engine.now
        tel = engine.telemetry
        if tel.enabled:
            # span name mirrors the public op ("mpi.send", "mpi.agree", ...)
            # so the profiler can tell App-MPI waits from ULFM agreement
            op = getattr(gen, "__name__", "op").lstrip("_")
            with tel.span(f"rank{self.ctx.rank}", f"mpi.{op}"):
                try:
                    result = yield from gen
                    return result
                except MPIError as exc:
                    self._on_mpi_error(exc)
                    raise
                finally:
                    self.ctx.account.charge("mpi", engine.now - t0)
        else:
            try:
                result = yield from gen
                return result
            except MPIError as exc:
                self._on_mpi_error(exc)
                raise
            finally:
                self.ctx.account.charge("mpi", engine.now - t0)

    # -- point-to-point ---------------------------------------------------------

    def send(
        self, payload: Any, dest: int, tag: int = 0, nbytes: Optional[float] = None
    ) -> Generator[Event, Any, None]:
        """Blocking send: completes when the message is delivered."""
        return self._timed(self._send(payload, dest, tag, nbytes))

    def _send(self, payload, dest, tag, nbytes):
        yield self.comm.send_op(self._rank, dest, tag, payload, nbytes)

    def recv(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> Generator[Event, Any, Any]:
        """Blocking receive: returns the payload."""
        return self._timed(self._recv(source, tag))

    def _recv(self, source, tag):
        payload, _status = yield self.comm.recv_op(self._rank, source, tag)
        return payload

    def recv_status(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> Generator[Event, Any, Any]:
        """Blocking receive returning ``(payload, Status)``."""
        return self._timed(self._recv_status(source, tag))

    def _recv_status(self, source, tag):
        result = yield self.comm.recv_op(self._rank, source, tag)
        return result

    def isend(
        self, payload: Any, dest: int, tag: int = 0, nbytes: Optional[float] = None
    ) -> Request:
        """Nonblocking send (completes on delivery)."""
        return Request(self.comm.send_op(self._rank, dest, tag, payload, nbytes), "isend")

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Nonblocking receive; wait() returns ``(payload, Status)``."""
        return Request(self.comm.recv_op(self._rank, source, tag), "irecv")

    def waitall(self, requests: List[Request]) -> Generator[Event, Any, list]:
        """Timed MPI_Waitall."""
        return self._timed(Request.waitall(requests))

    def sendrecv(
        self,
        payload: Any,
        dest: int,
        source: int,
        sendtag: int = 0,
        recvtag: Optional[int] = None,
        nbytes: Optional[float] = None,
    ) -> Generator[Event, Any, Any]:
        """Combined send+receive (deadlock-free halo exchange primitive)."""
        return self._timed(
            self._sendrecv(payload, dest, source, sendtag, recvtag, nbytes)
        )

    def _sendrecv(self, payload, dest, source, sendtag, recvtag, nbytes):
        rtag = recvtag if recvtag is not None else sendtag
        recv_ev = self.comm.recv_op(self._rank, source, rtag)
        send_ev = self.comm.send_op(self._rank, dest, sendtag, payload, nbytes)
        values = yield self.engine.all_of([recv_ev, send_ev])
        recv_payload, _status = values[0]
        return recv_payload

    # -- collectives -------------------------------------------------------------

    def bcast(
        self,
        value: Any = None,
        root: int = 0,
        nbytes: Optional[float] = None,
        algorithm: str = "binomial",
    ) -> Generator[Event, Any, Any]:
        """Broadcast; every rank returns the root's value.

        ``algorithm`` selects ``"binomial"`` (default, O(log P) rounds) or
        ``"flat"`` (root sends to every rank directly, O(P) on the root's
        NIC) -- kept for the collectives ablation study.
        """
        if algorithm == "flat":
            return self._timed(self._bcast_flat(value, root, nbytes))
        return self._timed(self._bcast(value, root, nbytes))

    def _bcast_flat(self, value, root, nbytes):
        comm = self.comm
        comm.check_collective()
        tag = comm.next_collective_tag(self._rank, _OP_BCAST)
        if self._rank == root:
            sends = [
                comm.send_op(self._rank, dst, tag, value, nbytes)
                for dst in range(comm.size)
                if dst != root
            ]
            if sends:
                yield self.engine.all_of(sends)
            return value
        value, _ = yield comm.recv_op(self._rank, root, tag)
        return value

    def _bcast(self, value, root, nbytes):
        comm = self.comm
        comm.check_collective()
        tag = comm.next_collective_tag(self._rank, _OP_BCAST)
        size = comm.size
        rel = (self._rank - root) % size
        mask = 1
        if rel != 0:
            while mask < size:
                if rel & mask:
                    src = (rel - mask + root) % size
                    value, status = yield comm.recv_op(self._rank, src, tag)
                    # forward with the size the root measured
                    nbytes = status.nbytes
                    break
                mask <<= 1
        else:
            while mask < size:
                mask <<= 1
        mask >>= 1
        sends = []
        while mask > 0:
            if rel + mask < size:
                if nbytes is None:
                    # the root sizes the payload once per broadcast, not
                    # once per tree edge
                    nbytes = payload_nbytes(value)
                dst = (rel + mask + root) % size
                sends.append(comm.send_op(self._rank, dst, tag, value, nbytes))
            mask >>= 1
        if sends:
            yield self.engine.all_of(sends)
        return value

    def reduce(
        self,
        value: Any,
        op: ReduceOp = SUM,
        root: int = 0,
        nbytes: Optional[float] = None,
    ) -> Generator[Event, Any, Any]:
        """Binomial-tree reduction; returns the result at root, None elsewhere."""
        return self._timed(self._reduce(value, op, root, nbytes))

    def _reduce(self, value, op, root, nbytes):
        comm = self.comm
        comm.check_collective()
        tag = comm.next_collective_tag(self._rank, _OP_REDUCE)
        size = comm.size
        rel = (self._rank - root) % size
        acc = value
        mask = 1
        while mask < size:
            if rel & mask:
                parent = (rel - mask + root) % size
                yield comm.send_op(self._rank, parent, tag, acc, nbytes)
                return None
            child_rel = rel | mask
            if child_rel < size:
                src = (child_rel + root) % size
                child_val, _ = yield comm.recv_op(self._rank, src, tag)
                acc = op(acc, child_val)
            mask <<= 1
        return acc

    def allreduce(
        self, value: Any, op: ReduceOp = SUM, nbytes: Optional[float] = None
    ) -> Generator[Event, Any, Any]:
        """Reduce-to-0 + broadcast; every rank returns the reduced value."""
        return self._timed(self._allreduce(value, op, nbytes))

    def _allreduce(self, value, op, nbytes):
        reduced = yield from self._reduce(value, op, 0, nbytes)
        result = yield from self._bcast(reduced, 0, nbytes)
        return result

    def barrier(self) -> Generator[Event, Any, None]:
        """Dissemination barrier: ceil(log2 P) rounds of empty exchanges."""
        return self._timed(self._barrier())

    def _barrier(self):
        comm = self.comm
        comm.check_collective()
        tag = comm.next_collective_tag(self._rank, _OP_BARRIER)
        size = comm.size
        dist = 1
        while dist < size:
            dst = (self._rank + dist) % size
            src = (self._rank - dist) % size
            recv_ev = comm.recv_op(self._rank, src, tag)
            send_ev = comm.send_op(self._rank, dst, tag, None, 0.0)
            yield self.engine.all_of([recv_ev, send_ev])
            dist <<= 1

    def gather(
        self, value: Any, root: int = 0, nbytes: Optional[float] = None
    ) -> Generator[Event, Any, Any]:
        """Gather to root; root returns the list indexed by rank."""
        return self._timed(self._gather(value, root, nbytes))

    def _gather(self, value, root, nbytes):
        comm = self.comm
        comm.check_collective()
        tag = comm.next_collective_tag(self._rank, _OP_GATHER)
        size = comm.size
        if self._rank == root:
            sources = [src for src in range(size) if src != root]
            events = [comm.recv_op(self._rank, src, tag) for src in sources]
            values = yield self.engine.all_of(events)
            result: List[Any] = [None] * size
            result[root] = value
            for src, (payload, _status) in zip(sources, values):
                result[src] = payload
            return result
        yield comm.send_op(self._rank, root, tag, value, nbytes)
        return None

    def allgather(
        self, value: Any, nbytes: Optional[float] = None
    ) -> Generator[Event, Any, Any]:
        """Gather to 0 + broadcast; every rank returns the full list."""
        return self._timed(self._allgather(value, nbytes))

    def _allgather(self, value, nbytes):
        gathered = yield from self._gather(value, 0, nbytes)
        total = None if nbytes is None else nbytes * self.comm.size
        result = yield from self._bcast(gathered, 0, total)
        return result

    def scatter(
        self, values: Optional[List[Any]] = None, root: int = 0,
        nbytes: Optional[float] = None,
    ) -> Generator[Event, Any, Any]:
        """Scatter from root; each rank returns its element."""
        return self._timed(self._scatter(values, root, nbytes))

    def _scatter(self, values, root, nbytes):
        comm = self.comm
        comm.check_collective()
        tag = comm.next_collective_tag(self._rank, _OP_SCATTER)
        size = comm.size
        if self._rank == root:
            if values is None or len(values) != size:
                raise SimulationError(
                    f"scatter root needs {size} values, got "
                    f"{None if values is None else len(values)}"
                )
            sends = [
                comm.send_op(self._rank, dst, tag, values[dst], nbytes)
                for dst in range(size)
                if dst != root
            ]
            if sends:
                yield self.engine.all_of(sends)
            return values[root]
        payload, _status = yield comm.recv_op(self._rank, root, tag)
        return payload

    def alltoall(
        self, values: List[Any], nbytes: Optional[float] = None
    ) -> Generator[Event, Any, Any]:
        """Personalized all-to-all exchange."""
        return self._timed(self._alltoall(values, nbytes))

    def _alltoall(self, values, nbytes):
        comm = self.comm
        comm.check_collective()
        size = comm.size
        if len(values) != size:
            raise SimulationError(f"alltoall needs {size} values, got {len(values)}")
        tag = comm.next_collective_tag(self._rank, _OP_ALLTOALL)
        sources = [src for src in range(size) if src != self._rank]
        recv_events = [comm.recv_op(self._rank, src, tag) for src in sources]
        send_events = [
            comm.send_op(self._rank, dst, tag, values[dst], nbytes)
            for dst in range(size)
            if dst != self._rank
        ]
        received = yield self.engine.all_of(recv_events)
        if send_events:
            yield self.engine.all_of(send_events)
        result: List[Any] = [None] * size
        result[self._rank] = values[self._rank]
        for src, (payload, _status) in zip(sources, received):
            result[src] = payload
        return result

    def scan(
        self, value: Any, op: ReduceOp = SUM, nbytes: Optional[float] = None
    ) -> Generator[Event, Any, Any]:
        """Inclusive prefix reduction: rank r returns op over ranks 0..r.

        Linear-chain algorithm (each rank receives its predecessor's
        prefix, folds, forwards) -- O(P) latency like small-message MPI
        implementations.
        """
        return self._timed(self._scan(value, op, nbytes, exclusive=False))

    def exscan(
        self, value: Any, op: ReduceOp = SUM, nbytes: Optional[float] = None
    ) -> Generator[Event, Any, Any]:
        """Exclusive prefix reduction: rank r returns op over ranks 0..r-1
        (None at rank 0, like MPI_Exscan's undefined result)."""
        return self._timed(self._scan(value, op, nbytes, exclusive=True))

    def _scan(self, value, op, nbytes, exclusive):
        comm = self.comm
        comm.check_collective()
        tag = comm.next_collective_tag(self._rank, _OP_SCAN)
        size = comm.size
        prefix = None
        if self._rank > 0:
            prefix, _ = yield comm.recv_op(self._rank, self._rank - 1, tag)
        inclusive = value if prefix is None else op(prefix, value)
        if self._rank + 1 < size:
            yield comm.send_op(self._rank, self._rank + 1, tag, inclusive, nbytes)
        return prefix if exclusive else inclusive

    # -- communicator management ------------------------------------------------------

    def dup(self) -> Generator[Event, Any, "CommHandle"]:
        """MPI_Comm_dup: a new communicator with the same group but a
        private matching context (collective)."""
        return self._timed(self._dup())

    def _dup(self):
        comm = self.comm
        comm.check_collective()
        # agree on the duplicate via a zero-byte barrier, then rank 0's
        # deterministic construction is shared state
        yield from self._barrier()
        key = ("dup", comm.next_collective_tag(self._rank, _OP_SPLIT))
        store = getattr(comm, "_dup_cache", None)
        if store is None:
            store = {}
            comm._dup_cache = store
        new_comm = store.get(key)
        if new_comm is None:
            new_comm = comm.world.create_comm(
                comm.members, name=f"{comm.name}.dup"
            )
            store[key] = new_comm
        return self.rebind(new_comm)

    def split(
        self, color: int, key: int = 0
    ) -> Generator[Event, Any, "Optional[CommHandle]"]:
        """MPI_Comm_split: partition members by ``color`` (ordered by
        ``key`` then old rank).  ``color < 0`` (undefined) returns None."""
        return self._timed(self._split(color, key))

    def _split(self, color, key):
        comm = self.comm
        comm.check_collective()
        contributions = yield from self._allgather((color, key, self._rank), None)
        store = getattr(comm, "_split_cache", None)
        if store is None:
            store = {}
            comm._split_cache = store
        signature = tuple(contributions)
        groups = store.get(signature)
        if groups is None:
            by_color = {}
            for c, k, r in contributions:
                if c is None or (isinstance(c, int) and c < 0):
                    continue
                by_color.setdefault(c, []).append((k, r))
            groups = {}
            for c, members in sorted(by_color.items()):
                ordered = [r for _k, r in sorted(members)]
                groups[c] = comm.world.create_comm(
                    [comm.world_rank(r) for r in ordered],
                    name=f"{comm.name}.split{c}",
                )
            store[signature] = groups
        if color is None or (isinstance(color, int) and color < 0):
            return None
        return self.rebind(groups[color])

    # -- probing ------------------------------------------------------------------------

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Nonblocking probe: Status of a matching pending message, else
        None.  (Only observes messages already buffered, like MPI_Iprobe.)
        """
        entry = self.comm.probe_op(self._rank, source, tag)
        if entry is None:
            return None
        return Status(source=entry.src, tag=entry.tag, nbytes=entry.nbytes)

    # -- ULFM extension ------------------------------------------------------------

    def revoke(self) -> None:
        """MPI_Comm_revoke (local call, global effect)."""
        self.comm.revoke()

    def agree(self, flag: bool = True) -> Generator[Event, Any, Any]:
        """MPI_Comm_agree over survivors; returns (and_flag, failed_set)."""
        return self._timed(self._agree(flag))

    def _agree(self, flag):
        result = yield self.comm.agree_gate(self._rank, flag)
        return result

    def shrink(self) -> Generator[Event, Any, "CommHandle"]:
        """MPI_Comm_shrink: returns a handle on the survivor communicator."""
        return self._timed(self._shrink())

    def _shrink(self):
        new_comm = yield self.comm.shrink_gate(self._rank)
        return self.rebind(new_comm)

    def get_failed(self) -> List[int]:
        """Comm-local ranks known dead."""
        return self.comm.get_failed()

    def ack_failed(self):
        """MPI_Comm_failure_ack."""
        return self.comm.ack_failed()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CommHandle rank={self._rank}/{self.size} on {self.comm.name}>"
