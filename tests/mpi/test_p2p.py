"""Point-to-point messaging tests."""

import numpy as np
import pytest

from repro.mpi import ANY_SOURCE, ANY_TAG, World
from repro.mpi.comm import PendingSend, PostedRecv
from tests.mpi.conftest import run_ranks, small_cluster


class TestBasicSendRecv:
    def test_python_object_roundtrip(self):
        def body(h):
            if h.rank == 0:
                yield from h.send({"a": 7, "b": 3.14}, dest=1, tag=11)
                return None
            if h.rank == 1:
                data = yield from h.recv(source=0, tag=11)
                return data
            return None

        results, _ = run_ranks(2, body)
        assert results[1] == {"a": 7, "b": 3.14}

    def test_numpy_array_roundtrip(self):
        def body(h):
            if h.rank == 0:
                yield from h.send(np.arange(100, dtype=np.float64), dest=1)
            elif h.rank == 1:
                data = yield from h.recv(source=0)
                return data.sum()
            return None

        results, _ = run_ranks(2, body)
        assert results[1] == pytest.approx(np.arange(100).sum())

    def test_send_copies_payload(self):
        # MPI value semantics: mutating the buffer after send must not
        # affect the delivered message.
        def body(h):
            if h.rank == 0:
                buf = np.zeros(4)
                req = h.isend(buf, dest=1)
                buf[:] = 99.0
                yield from h.waitall([req])
            elif h.rank == 1:
                data = yield from h.recv(source=0)
                return float(data.sum())
            return None

        results, _ = run_ranks(2, body)
        assert results[1] == 0.0

    def test_tag_matching(self):
        def body(h):
            if h.rank == 0:
                yield from h.send("tagA", dest=1, tag=5)
                yield from h.send("tagB", dest=1, tag=6)
            elif h.rank == 1:
                # receive in reverse tag order: matching must be by tag
                b = yield from h.recv(source=0, tag=6)
                a = yield from h.recv(source=0, tag=5)
                return (a, b)
            return None

        results, _ = run_ranks(2, body)
        assert results[1] == ("tagA", "tagB")

    def test_message_ordering_same_tag(self):
        def body(h):
            if h.rank == 0:
                for i in range(5):
                    yield from h.send(i, dest=1, tag=0)
            elif h.rank == 1:
                got = []
                for _ in range(5):
                    got.append((yield from h.recv(source=0, tag=0)))
                return got
            return None

        results, _ = run_ranks(2, body)
        assert results[1] == [0, 1, 2, 3, 4]

    def test_any_source_any_tag(self):
        def body(h):
            if h.rank in (0, 2):
                yield from h.send(f"from{h.rank}", dest=1, tag=h.rank)
            elif h.rank == 1:
                a = yield from h.recv(source=ANY_SOURCE, tag=ANY_TAG)
                b = yield from h.recv(source=ANY_SOURCE, tag=ANY_TAG)
                return {a, b}
            return None

        results, _ = run_ranks(3, body)
        assert results[1] == {"from0", "from2"}

    def test_recv_status(self):
        def body(h):
            if h.rank == 0:
                yield from h.send(b"xyz", dest=1, tag=42)
            elif h.rank == 1:
                payload, status = yield from h.recv_status(source=ANY_SOURCE)
                return (payload, status.source, status.tag, status.nbytes)
            return None

        results, _ = run_ranks(2, body)
        assert results[1] == (b"xyz", 0, 42, 3.0)


class TestNonblocking:
    def test_isend_irecv_waitall(self):
        def body(h):
            if h.rank == 0:
                reqs = [h.isend(i, dest=1, tag=i) for i in range(3)]
                yield from h.waitall(reqs)
            elif h.rank == 1:
                reqs = [h.irecv(source=0, tag=i) for i in range(3)]
                values = yield from h.waitall(reqs)
                return [payload for payload, _status in values]
            return None

        results, _ = run_ranks(2, body)
        assert results[1] == [0, 1, 2]

    def test_request_test_flag(self):
        def body(h):
            if h.rank == 0:
                req = h.isend("x", dest=1)
                assert not req.test()
                yield from h.waitall([req])
                assert req.test()
            elif h.rank == 1:
                yield from h.recv(source=0)
            return None

        run_ranks(2, body)

    def test_sendrecv_exchange(self):
        def body(h):
            partner = 1 - h.rank
            got = yield from h.sendrecv(
                f"hello-from-{h.rank}", dest=partner, source=partner
            )
            return got

        results, _ = run_ranks(2, body)
        assert results[0] == "hello-from-1"
        assert results[1] == "hello-from-0"

    def test_ring_sendrecv(self):
        def body(h):
            right = (h.rank + 1) % h.size
            left = (h.rank - 1) % h.size
            got = yield from h.sendrecv(h.rank, dest=right, source=left)
            return got

        results, _ = run_ranks(5, body)
        for r in range(5):
            assert results[r] == (r - 1) % 5


class TestTimingAndSizes:
    def test_mpi_time_charged(self):
        def body(h):
            if h.rank == 0:
                yield from h.send(np.zeros(1000), dest=1)
            else:
                yield from h.recv(source=0)
            return h.ctx.account.get("app_mpi")

        results, _ = run_ranks(2, body)
        assert results[0] > 0.0
        assert results[1] > 0.0

    def test_modeled_nbytes_scales_time(self):
        def make_body(nbytes):
            def body(h):
                if h.rank == 0:
                    yield from h.send(b"tiny", dest=1, nbytes=nbytes)
                else:
                    yield from h.recv(source=0)
                return h.ctx.account.get("app_mpi")

            return body

        small, _ = run_ranks(2, make_body(1e3))
        large, _ = run_ranks(2, make_body(1e8))
        assert large[1] > small[1] * 100

    def test_zero_byte_message(self):
        def body(h):
            if h.rank == 0:
                yield from h.send(None, dest=1, nbytes=0.0)
            else:
                return (yield from h.recv(source=0))
            return None

        results, _ = run_ranks(2, body)
        assert results[1] is None


class TestMatchingQueues:
    """Queue entries are removed by identity: removing one never compares
    it field by field against every entry queued before it."""

    @pytest.fixture
    def eq_calls(self, monkeypatch):
        calls = []
        for cls in (PendingSend, PostedRecv):
            generated = cls.__dict__.get("__eq__")
            if generated is not None:
                def counting(a, b, _eq=generated):
                    calls.append(type(a).__name__)
                    return _eq(a, b)
                monkeypatch.setattr(cls, "__eq__", counting)
        return calls

    def test_identical_sends_match_in_posting_order(self, eq_calls):
        cluster = small_cluster(3)
        comm = World(cluster, 3).comm_world
        comm.send_op(2, 0, 9, "unrelated")  # queued ahead of both
        first = comm.send_op(0, 1, 5, "same")
        second = comm.send_op(0, 1, 5, "same")
        _, queued_first, queued_second = comm._unexpected
        assert queued_first.done is first and queued_second.done is second
        comm.recv_op(1, 0, 5)
        assert comm._unexpected[1] is queued_second
        comm.recv_op(1, 0, 5)
        assert len(comm._unexpected) == 1
        cluster.engine.run()
        assert first.processed and second.processed
        assert eq_calls == []

    def test_identical_receives_match_in_posting_order(self, eq_calls):
        cluster = small_cluster(3)
        comm = World(cluster, 3).comm_world
        comm.recv_op(0, 2, 9)  # posted ahead of both, never matched
        recv_a = comm.recv_op(1, 0, 5)
        recv_b = comm.recv_op(1, 0, 5)
        comm.send_op(0, 1, 5, "a")
        comm.send_op(0, 1, 5, "b")
        assert len(comm._posted) == 1
        cluster.engine.run(until=1.0)
        assert recv_a.value[0] == "a" and recv_b.value[0] == "b"
        assert eq_calls == []
