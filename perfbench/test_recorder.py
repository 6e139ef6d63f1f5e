"""Tests of the span recorder on a synthetic coroutine program.

    PYTHONPATH=src python3 -m pytest perfbench -q

A fake clock advances only when the program "works", so every count and
self time is exact.  A round-robin scheduler resumes two coroutines in
turn and burns time between resumes, like the engine running other
ranks: that time must land in no span.
"""

import sys

import pytest

from recorder import SpanRecorder

THIS = sys.modules[__name__]


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def work(self, seconds: float) -> None:
        self.now += seconds


clock = FakeClock()


def leaf(n):
    clock.work(1.0 * n)
    return n


def inner():
    clock.work(2.0)
    got = yield "a"
    clock.work(3.0)
    leaf(1)
    yield got
    clock.work(0.5)
    return 7


def outer():
    clock.work(1.0)
    result = yield from inner()
    clock.work(4.0)
    return result


def countdown(n):
    clock.work(1.0)
    if n:
        yield from countdown(n - 1)
    yield n


def catcher():
    try:
        yield "wait"
    except KeyError:
        clock.work(2.0)
        return "caught"
    return "missed"


def drive(coroutines, gap):
    """Resume each coroutine in turn, sending its last yield back and
    burning ``gap`` seconds of unwrapped time before every resume."""
    results, last = {}, {name: None for name in coroutines}
    while coroutines:
        for name, gen in list(coroutines.items()):
            clock.work(gap)
            try:
                last[name] = gen.send(last[name])
            except StopIteration as stop:
                results[name] = stop.value
                del coroutines[name]
    return results


@pytest.fixture
def recorder():
    clock.now = 0.0
    rec = SpanRecorder(clock=clock)
    with rec:
        for name in ("leaf", "inner", "outer", "countdown", "catcher"):
            assert rec.patch(THIS, name, name)
        yield rec
    assert THIS.outer.__name__ == "outer" and not rec._patches


def test_interleaved_coroutines_charge_only_their_own_slices(recorder):
    results = drive({"rank0": outer(), "rank1": outer()}, gap=10.0)

    assert results == {"rank0": 7, "rank1": 7}
    assert recorder.calls == {"outer.calls": 2, "inner.calls": 2,
                              "leaf.calls": 2}
    assert recorder.self_s == {"outer": 10.0, "inner": 11.0, "leaf": 2.0}
    # three resumes per coroutine, each after a 10 s gap in no span
    unwrapped = 2 * 3 * 10.0
    assert sum(recorder.self_s.values()) + unwrapped == clock.now
    assert not recorder._stack


def test_recursive_generator_counts_every_level(recorder):
    assert list(countdown(3)) == [0, 1, 2, 3]
    assert recorder.calls == {"countdown.calls": 4}
    assert recorder.self_s == {"countdown": 4.0}


def test_thrown_exception_reaches_the_wrapped_generator(recorder):
    gen = catcher()
    assert next(gen) == "wait"
    with pytest.raises(StopIteration) as stop:
        gen.throw(KeyError("x"))
    assert stop.value.value == "caught"
    assert recorder.self_s == {"catcher": 2.0}

    gen = catcher()
    next(gen)
    with pytest.raises(ValueError):
        gen.throw(ValueError("y"))
    assert not recorder._stack


def test_closing_a_suspended_generator_closes_the_wrapped_one(recorder):
    gen = outer()
    next(gen)
    gen.close()
    assert not recorder._stack
    assert recorder.calls["inner.calls"] == 1


def test_missing_targets_are_reported_not_raised():
    rec = SpanRecorder(clock=clock)
    rec.install([("perfbench_no_such_module", "f", "x", None),
                 ("test_recorder", "no_such_function", "x", None)])
    assert rec.unresolved == ["perfbench_no_such_module.f",
                              "test_recorder.no_such_function"]
    assert not rec._patches


def test_every_layer_boundary_resolves():
    pytest.importorskip("repro")
    from layers import TARGETS

    rec = SpanRecorder()
    with rec:
        rec.install(TARGETS)
        assert rec.unresolved == []
        assert len(rec._patches) == len(TARGETS)
    from repro.mpi.handle import CommHandle

    assert not hasattr(CommHandle.send, "__wrapped__")
