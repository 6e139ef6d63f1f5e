"""Collective-operation correctness across sizes, roots, datatypes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mpi import LAND, LOR, MAX, MIN, PROD, SUM
from tests.mpi.conftest import run_ranks


SIZES = [1, 2, 3, 4, 5, 7, 8]


class TestBcast:
    @pytest.mark.parametrize("size", SIZES)
    def test_bcast_from_zero(self, size):
        def body(h):
            value = {"payload": 123} if h.rank == 0 else None
            got = yield from h.bcast(value, root=0)
            return got

        results, _ = run_ranks(size, body)
        assert all(results[r] == {"payload": 123} for r in range(size))

    @pytest.mark.parametrize("root", [0, 1, 2, 3])
    def test_bcast_nonzero_root(self, root):
        def body(h):
            value = f"root-data-{h.rank}" if h.rank == root else None
            got = yield from h.bcast(value, root=root)
            return got

        results, _ = run_ranks(4, body)
        assert all(results[r] == f"root-data-{root}" for r in range(4))

    def test_bcast_numpy(self):
        def body(h):
            value = np.arange(50) if h.rank == 0 else None
            got = yield from h.bcast(value, root=0)
            return got.sum()

        results, _ = run_ranks(6, body)
        assert all(v == np.arange(50).sum() for v in results.values())


class TestReduce:
    @pytest.mark.parametrize("size", SIZES)
    def test_reduce_sum_scalar(self, size):
        def body(h):
            got = yield from h.reduce(h.rank + 1, op=SUM, root=0)
            return got

        results, _ = run_ranks(size, body)
        assert results[0] == sum(range(1, size + 1))
        assert all(results[r] is None for r in range(1, size))

    @pytest.mark.parametrize("op,expected", [
        (SUM, 0 + 1 + 2 + 3),
        (MIN, 0),
        (MAX, 3),
        (PROD, 0),
    ])
    def test_reduce_ops(self, op, expected):
        def body(h):
            return (yield from h.reduce(h.rank, op=op, root=0))

        results, _ = run_ranks(4, body)
        assert results[0] == expected

    def test_reduce_arrays_elementwise(self):
        def body(h):
            local = np.full(8, float(h.rank))
            got = yield from h.reduce(local, op=MAX, root=2)
            return got

        results, _ = run_ranks(5, body)
        assert np.array_equal(results[2], np.full(8, 4.0))

    def test_logical_ops(self):
        def body(h):
            flag = h.rank != 2  # one rank contributes False
            land = yield from h.allreduce(flag, op=LAND)
            lor = yield from h.allreduce(h.rank == 2, op=LOR)
            return (bool(land), bool(lor))

        results, _ = run_ranks(4, body)
        assert all(v == (False, True) for v in results.values())


class TestAllreduce:
    @pytest.mark.parametrize("size", SIZES)
    def test_allreduce_sum(self, size):
        def body(h):
            got = yield from h.allreduce(np.array([h.rank, 1.0]), op=SUM)
            return got

        results, _ = run_ranks(size, body)
        expected = np.array([sum(range(size)), float(size)])
        for r in range(size):
            assert np.allclose(results[r], expected)

    @settings(max_examples=15, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=2,
            max_size=6,
        )
    )
    def test_allreduce_matches_numpy(self, values):
        size = len(values)

        def body(h):
            got = yield from h.allreduce(values[h.rank], op=SUM)
            return got

        results, _ = run_ranks(size, body)
        expected = float(np.sum(values))
        for r in range(size):
            assert results[r] == pytest.approx(expected, rel=1e-9, abs=1e-9)


class TestBarrier:
    def test_barrier_synchronizes(self):
        after_times = {}

        def body(h):
            # stagger arrival: rank r computes r seconds first
            yield from h.ctx.sleep(float(h.rank))
            yield from h.barrier()
            after_times[h.rank] = h.engine.now
            return None

        _, world = run_ranks(4, body)
        latest_arrival = 3.0
        for t in after_times.values():
            assert t >= latest_arrival

    def test_barrier_single_rank(self):
        def body(h):
            yield from h.barrier()
            return "done"

        results, _ = run_ranks(1, body)
        assert results[0] == "done"


class TestGatherScatter:
    @pytest.mark.parametrize("size", SIZES)
    def test_gather(self, size):
        def body(h):
            got = yield from h.gather(h.rank * 10, root=0)
            return got

        results, _ = run_ranks(size, body)
        assert results[0] == [r * 10 for r in range(size)]
        assert all(results[r] is None for r in range(1, size))

    def test_gather_nonzero_root(self):
        def body(h):
            return (yield from h.gather(chr(ord("a") + h.rank), root=3))

        results, _ = run_ranks(5, body)
        assert results[3] == ["a", "b", "c", "d", "e"]

    @pytest.mark.parametrize("size", SIZES)
    def test_scatter(self, size):
        def body(h):
            values = [f"item{i}" for i in range(size)] if h.rank == 0 else None
            got = yield from h.scatter(values, root=0)
            return got

        results, _ = run_ranks(size, body)
        assert all(results[r] == f"item{r}" for r in range(size))

    def test_scatter_wrong_length_rejected(self):
        def body(h):
            values = [1] if h.rank == 0 else None
            got = yield from h.scatter(values, root=0)
            return got

        with pytest.raises(Exception):
            run_ranks(3, body)

    @pytest.mark.parametrize("size", SIZES)
    def test_allgather(self, size):
        def body(h):
            got = yield from h.allgather(h.rank**2)
            return got

        results, _ = run_ranks(size, body)
        expected = [r**2 for r in range(size)]
        for r in range(size):
            assert results[r] == expected

    def test_allgather_sizes_the_broadcast_once(self, monkeypatch):
        # every rank sizes its own gather contribution; the gathered list
        # is sized once, by the root, and forwarded with its Status size
        import repro.mpi.comm as comm_mod
        import repro.mpi.handle as handle_mod

        size = 64
        sized = []
        original = comm_mod.payload_nbytes

        def counting(payload):
            if isinstance(payload, list) and len(payload) == size:
                sized.append(payload)
            return original(payload)

        monkeypatch.setattr(comm_mod, "payload_nbytes", counting)
        monkeypatch.setattr(handle_mod, "payload_nbytes", counting,
                            raising=False)

        def body(h):
            got = yield from h.allgather(h.rank**2)
            return got

        results, world = run_ranks(size, body)
        assert all(results[r] == [q**2 for q in range(size)]
                   for r in range(size))
        assert len(sized) == 1
        # wire traffic is what it was when every hop re-sized the list:
        # 63 gather sends of 8 B, 63 broadcast sends of 16 + 64 * 8 B
        assert world.network.messages_sent == 126
        assert world.network.bytes_sent == 63 * 8.0 + 63 * 528.0


class TestAlltoall:
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 6])
    def test_alltoall(self, size):
        def body(h):
            values = [(h.rank, dst) for dst in range(size)]
            got = yield from h.alltoall(values)
            return got

        results, _ = run_ranks(size, body)
        for r in range(size):
            assert results[r] == [(src, r) for src in range(size)]


class TestConcurrentCollectives:
    def test_back_to_back_collectives_do_not_cross_match(self):
        def body(h):
            a = yield from h.allreduce(1, op=SUM)
            b = yield from h.allreduce(h.rank, op=MAX)
            c = yield from h.bcast("x" if h.rank == 1 else None, root=1)
            return (int(a), int(b), c)

        results, _ = run_ranks(6, body)
        assert all(v == (6, 5, "x") for v in results.values())

    def test_collectives_with_interleaved_p2p(self):
        def body(h):
            partner = (h.rank + 1) % h.size
            source = (h.rank - 1) % h.size
            token = yield from h.sendrecv(h.rank, dest=partner, source=source)
            total = yield from h.allreduce(token, op=SUM)
            return int(total)

        results, _ = run_ranks(4, body)
        assert all(v == 6 for v in results.values())
