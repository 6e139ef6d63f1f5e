"""The point-to-point message path: payload value semantics, delivery
timing and order under NIC contention, and how revoke and rank death fail
queued operations."""

import copy

import numpy as np
import pytest

from repro.mpi import ANY_SOURCE, World
from repro.mpi.errors import ProcFailedError, RevokedError
from repro.sim.engine import Process
from tests.mpi.conftest import run_ranks, small_cluster

RENDEZVOUS = 1e5  # bytes; above the eager limit, so a send completes at delivery


def _mutate_list(buf):
    buf.append(99)
    buf[0] = -1


def _mutate_dict(buf):
    buf["k"].append(99)
    buf["new"] = 1


def _mutate_array(buf):
    buf[:] = 99.0


PAYLOADS = [
    (lambda: [1, 2, 3], _mutate_list),
    (lambda: {"k": [1, 2]}, _mutate_dict),
    (lambda: np.arange(4.0), _mutate_array),
]


class TestPayloadValueSemantics:
    @pytest.mark.parametrize("make, mutate", PAYLOADS)
    @pytest.mark.parametrize("recv_first", [False, True])
    def test_sender_mutation_never_reaches_receiver(self, make, mutate,
                                                     recv_first):
        def body(h):
            if h.rank == 0:
                if recv_first:
                    yield h.engine.timeout(1e-3)  # the receive is posted
                buf = make()
                req = h.isend(buf, dest=1)
                mutate(buf)
                yield from h.waitall([req])
                mutate(buf)
                return None
            if not recv_first:
                yield h.engine.timeout(1e-3)  # the send is buffered
            return (yield from h.recv(source=0))

        results, _ = run_ranks(2, body)
        expected = make()
        received = results[1]
        if isinstance(expected, np.ndarray):
            np.testing.assert_array_equal(received, expected)
        else:
            assert received == expected

    def test_tuple_of_scalars_arrives_as_same_object(self):
        sent = (1, 2.5, "x", None, True, b"y", 3j)

        def body(h):
            if h.rank == 0:
                yield from h.send(sent, dest=1)
                return None
            return (yield from h.recv(source=0))

        results, _ = run_ranks(2, body)
        assert results[1] is sent

    def test_list_of_immutables_arrives_as_its_deep_copy(self):
        sent = [10**20, (1, "a"), "s", None, 2.5]

        def body(h):
            if h.rank == 0:
                yield from h.send(sent, dest=1)
                return None
            return (yield from h.recv(source=0))

        results, _ = run_ranks(2, body)
        received = results[1]
        deep = copy.deepcopy(sent)
        assert received is not sent
        assert received == deep
        assert all(a is b for a, b in zip(received, deep))

    def test_internal_aliasing_survives(self):
        inner = [1, 2]
        arr = np.zeros(3)
        sent = {"a": inner, "b": inner, "x": arr, "y": arr}

        def body(h):
            if h.rank == 0:
                yield from h.send(sent, dest=1)
                return None
            return (yield from h.recv(source=0))

        results, _ = run_ranks(2, body)
        received = results[1]
        assert received["a"] is received["b"]
        assert received["x"] is received["y"]
        assert received["a"] is not inner and received["x"] is not arr

    def _count_deepcopies(self, monkeypatch, contribution):
        calls = []
        real = copy.deepcopy

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(copy, "deepcopy", counting)

        def body(h):
            return (yield from h.allgather(contribution(h.rank)))

        results, _ = run_ranks(64, body)
        assert all(results[r] == [contribution(i) for i in range(64)]
                   for r in range(64))
        return len(calls)

    def test_tuple_allgather_makes_no_deep_copy(self, monkeypatch):
        assert self._count_deepcopies(
            monkeypatch, lambda r: (r, r + 1, r + 2)) == 0

    def test_list_allgather_still_deep_copies(self, monkeypatch):
        # the counter does see the copies mutable contributions need
        assert self._count_deepcopies(monkeypatch, lambda r: [[r]]) > 0


def _world(n_nodes, n_ranks, ranks_per_node=1):
    cluster = small_cluster(n_nodes)
    return cluster, World(cluster, n_ranks, ranks_per_node=ranks_per_node)


class TestDeliveryOrder:
    def test_contended_nic_completions_are_pinned(self):
        # node0: ranks 0 and 1, node1: ranks 2 and 3, node2: rank 4.  Four
        # messages converge on node 0 at t=0 while rank 0 also sends out.
        cluster, world = _world(3, 5, ranks_per_node=2)
        comm, engine = world.comm_world, cluster.engine
        log = []

        def record(what):
            return lambda ev: log.append((what, engine.now))

        for _ in range(4):
            comm.recv_op(0, ANY_SOURCE, 0).add_callback(
                lambda ev: log.append(
                    (f"recv<-{ev.value[1].source}", engine.now)))
        for src, nbytes in ((2, RENDEZVOUS), (4, RENDEZVOUS),
                            (1, RENDEZVOUS), (3, 2 * RENDEZVOUS)):
            comm.send_op(src, 0, 0, src, nbytes).add_callback(
                record(f"done{src}->0"))
        comm.recv_op(2, 0, 0).add_callback(record("recv2<-0"))
        comm.send_op(0, 2, 0, "out", RENDEZVOUS).add_callback(
            record("done0->2"))
        engine.run()
        assert log == [
            ("recv<-1", 1e-05),
            ("done1->0", 1e-05),
            ("recv<-2", 0.000101),
            ("done2->0", 0.000101),
            ("recv2<-0", 0.000101),
            ("done0->2", 0.000101),
            ("recv<-4", 0.000202),
            ("done4->0", 0.000202),
            ("recv<-3", 0.00040300000000000004),
            ("done3->0", 0.00040300000000000004),
        ]
        node0 = cluster.node(0)
        assert node0.rx.bytes_moved == 4 * RENDEZVOUS
        assert node0.rx.busy_time == 0.00040300000000000004
        assert cluster.network.messages_sent == 5
        assert cluster.network.bytes_sent == 6 * RENDEZVOUS

    def test_sending_creates_no_process(self, monkeypatch):
        cluster, world = _world(2, 4, ranks_per_node=2)
        comm = world.comm_world
        created = []
        real_init = Process.__init__

        def counting(self, *args, **kwargs):
            created.append(self)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(Process, "__init__", counting)
        done = [comm.send_op(0, 2, 0, "far", RENDEZVOUS),
                comm.send_op(0, 1, 0, "near", RENDEZVOUS)]
        recvs = [comm.recv_op(2, 0, 0), comm.recv_op(1, 0, 0)]
        cluster.engine.run()
        assert created == []
        assert all(ev.processed for ev in done + recvs)
        assert [ev.value[0] for ev in recvs] == ["far", "near"]


class TestFailureOrder:
    def _failures(self, engine, events):
        order = []
        for name, ev in events:
            ev.add_callback(
                lambda ev, name=name: order.append(
                    (name, type(ev.exception).__name__)))
        engine.run()
        return order

    def test_revoke_fails_queues_in_posting_order(self):
        cluster, world = _world(4, 4)
        comm = world.comm_world
        events = [
            ("recv3<-0", comm.recv_op(3, 0, 7)),
            ("send0->2", comm.send_op(0, 2, 8, "x", RENDEZVOUS)),
            ("recv1<-2", comm.recv_op(1, 2, 7)),
            ("recv3<-1", comm.recv_op(3, 1, 7)),
            ("send1->0", comm.send_op(1, 0, 8, "y", RENDEZVOUS)),
            ("recv2<-3", comm.recv_op(2, 3, 7)),
            ("send3->2", comm.send_op(3, 2, 8, "z", RENDEZVOUS)),
        ]
        comm.revoke()
        # receives first, then sends, each in the order they were posted
        assert self._failures(cluster.engine, events) == [
            ("recv3<-0", "RevokedError"),
            ("recv1<-2", "RevokedError"),
            ("recv3<-1", "RevokedError"),
            ("recv2<-3", "RevokedError"),
            ("send0->2", "RevokedError"),
            ("send1->0", "RevokedError"),
            ("send3->2", "RevokedError"),
        ]
        with pytest.raises(RevokedError):
            comm.recv_op(0, 1, 7)

    def test_rank_death_fails_its_operations_in_posting_order(self):
        cluster, world = _world(4, 4)
        comm = world.comm_world
        events = [
            ("recv2<-3", comm.recv_op(2, 3, 7)),
            ("send0->3", comm.send_op(0, 3, 8, "x", RENDEZVOUS)),
            ("recv0<-3", comm.recv_op(0, 3, 7)),
            ("recv1<-2", comm.recv_op(1, 2, 7)),
            ("recv1<-3", comm.recv_op(1, 3, 7)),
            ("send1->3", comm.send_op(1, 3, 8, "y", RENDEZVOUS)),
            ("recv2<-3b", comm.recv_op(2, 3, 9)),
        ]
        world.mark_dead(3)
        # receives from the dead rank, then sends to it, each in the order
        # they were posted
        assert self._failures(cluster.engine, events) == [
            ("recv2<-3", "ProcFailedError"),
            ("recv0<-3", "ProcFailedError"),
            ("recv1<-3", "ProcFailedError"),
            ("recv2<-3b", "ProcFailedError"),
            ("send0->3", "ProcFailedError"),
            ("send1->3", "ProcFailedError"),
        ]
        # the receive from the live rank 2 is still queued and matchable
        assert comm._queued(comm._posted) == [comm._posted[1][0]]
        comm.send_op(2, 1, 7, "late", RENDEZVOUS)
        cluster.engine.run()
        assert events[3][1].value[0] == "late"
        with pytest.raises(ProcFailedError):
            comm.recv_op(0, 3, 7)
