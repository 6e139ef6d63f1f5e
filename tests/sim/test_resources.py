"""Unit tests for Resource, Store and BandwidthPipe."""

import pytest

from repro.sim import Engine
from repro.sim.resources import BandwidthPipe, Resource, Store
from repro.util.errors import SimulationError


class TestResource:
    def test_capacity_validation(self):
        with pytest.raises(SimulationError):
            Resource(Engine(), capacity=0)

    def test_serializes_beyond_capacity(self):
        eng = Engine()
        res = Resource(eng, capacity=2)
        spans = {}

        def worker(tag):
            yield res.request()
            start = eng.now
            yield eng.timeout(1.0)
            res.release()
            spans[tag] = (start, eng.now)

        for tag in range(4):
            eng.process(worker(tag))
        eng.run()
        # two run at t=0..1, the next two at t=1..2
        starts = sorted(s for s, _ in spans.values())
        assert starts == [0.0, 0.0, 1.0, 1.0]

    def test_fifo_grant_order(self):
        eng = Engine()
        res = Resource(eng, capacity=1)
        order = []

        def worker(tag):
            yield res.request()
            order.append(tag)
            yield eng.timeout(1.0)
            res.release()

        for tag in range(5):
            eng.process(worker(tag))
        eng.run()
        assert order == list(range(5))

    def test_release_without_acquire_rejected(self):
        eng = Engine()
        res = Resource(eng, capacity=1)
        with pytest.raises(SimulationError):
            res.release()

    def test_counters(self):
        eng = Engine()
        res = Resource(eng, capacity=1)

        def holder():
            yield res.request()
            assert res.in_use == 1
            yield eng.timeout(1.0)
            res.release()

        def waiter():
            ev = res.request()
            assert res.queue_length == 1
            yield ev
            res.release()

        eng.process(holder())
        eng.process(waiter())
        eng.run()
        assert res.in_use == 0
        assert res.queue_length == 0

    def test_killed_waiter_leaves_the_queue(self):
        eng = Engine()
        res = Resource(eng, capacity=1)
        granted = []

        def holder():
            yield from res.acquire()
            yield eng.timeout(1.0)
            res.release()

        def waiter(tag):
            yield from res.acquire()
            granted.append((tag, eng.now))
            res.release()

        eng.process(holder())
        victim = eng.process(waiter("victim"))
        victim.add_callback(lambda _ev: None)  # its death is observed
        eng.process(waiter("next"))

        def killer():
            yield eng.timeout(0.5)
            victim.kill()

        eng.process(killer())
        eng.run()
        assert granted == [("next", 1.0)]
        assert res.in_use == 0 and res.queue_length == 0

    def test_killed_grantee_releases_the_slot(self):
        eng = Engine()
        res = Resource(eng, capacity=1)
        granted = []

        def holder():
            yield from res.acquire()
            yield eng.timeout(1.0)
            res.release()

        def waiter(tag):
            yield from res.acquire()
            granted.append((tag, eng.now))
            res.release()

        eng.process(holder())
        victim = eng.process(waiter("victim"))
        victim.add_callback(lambda _ev: None)
        eng.process(waiter("next"))

        def killer():
            # the slot is handed to the victim at t=1; kill it before it
            # resumes, in the same instant
            yield eng.timeout(1.0)
            victim.kill()

        eng.process(killer())
        eng.run()
        assert granted == [("next", 1.0)]
        assert res.in_use == 0 and res.queue_length == 0


class TestStore:
    def test_put_then_get(self):
        eng = Engine()
        store = Store(eng)
        got = []

        def consumer():
            item = yield from store.get()
            got.append(item)

        store.put("x")
        eng.process(consumer())
        eng.run()
        assert got == ["x"]

    def test_get_blocks_until_put(self):
        eng = Engine()
        store = Store(eng)
        got = []

        def consumer():
            item = yield from store.get()
            got.append((eng.now, item))

        def producer():
            yield eng.timeout(3.0)
            store.put("late")

        eng.process(consumer())
        eng.process(producer())
        eng.run()
        assert got == [(3.0, "late")]

    def test_fifo_ordering_items_and_getters(self):
        eng = Engine()
        store = Store(eng)
        got = []

        def consumer(tag):
            item = yield from store.get()
            got.append((tag, item))

        eng.process(consumer("first"))
        eng.process(consumer("second"))

        def producer():
            yield eng.timeout(1.0)
            store.put(1)
            store.put(2)

        eng.process(producer())
        eng.run()
        assert got == [("first", 1), ("second", 2)]

    def test_drain(self):
        eng = Engine()
        store = Store(eng)
        store.put(1)
        store.put(2)
        assert store.drain() == [1, 2]
        assert len(store) == 0

    def test_fail_waiters(self):
        eng = Engine()
        store = Store(eng)
        caught = []

        def consumer():
            try:
                yield from store.get()
            except RuntimeError as exc:
                caught.append(str(exc))

        eng.process(consumer())

        def killer():
            yield eng.timeout(1.0)
            store.fail_waiters(RuntimeError("shutdown"))

        eng.process(killer())
        eng.run()
        assert caught == ["shutdown"]


class TestBandwidthPipe:
    def test_transfer_time_formula(self):
        pipe = BandwidthPipe(Engine(), bandwidth=100.0, latency=0.5)
        assert pipe.transfer_time(200.0) == pytest.approx(0.5 + 2.0)

    def test_transfers_serialize(self):
        eng = Engine()
        pipe = BandwidthPipe(eng, bandwidth=100.0, latency=0.0)
        done = []

        def mover(tag):
            yield from pipe.transfer(100.0)  # 1 second each
            done.append((tag, eng.now))

        eng.process(mover("a"))
        eng.process(mover("b"))
        eng.run()
        assert done == [("a", 1.0), ("b", 2.0)]

    def test_byte_accounting(self):
        eng = Engine()
        pipe = BandwidthPipe(eng, bandwidth=10.0)

        def mover():
            yield from pipe.transfer(5.0)

        eng.process(mover())
        eng.run()
        assert pipe.bytes_moved == 5.0
        assert pipe.busy_time == pytest.approx(0.5)

    def test_utilization(self):
        eng = Engine()
        pipe = BandwidthPipe(eng, bandwidth=10.0)

        def mover():
            yield from pipe.transfer(10.0)  # busy 1s
            yield eng.timeout(1.0)  # idle 1s

        eng.process(mover())
        eng.run()
        assert pipe.utilization() == pytest.approx(0.5)

    def test_invalid_parameters(self):
        with pytest.raises(SimulationError):
            BandwidthPipe(Engine(), bandwidth=0.0)
        with pytest.raises(SimulationError):
            BandwidthPipe(Engine(), bandwidth=1.0, latency=-1.0)

    def test_negative_transfer_rejected(self):
        eng = Engine()
        pipe = BandwidthPipe(eng, bandwidth=1.0)

        def mover():
            yield from pipe.transfer(-1.0)

        eng.process(mover())
        with pytest.raises(SimulationError):
            eng.run()
