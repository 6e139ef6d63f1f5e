"""View discovery from checkpoint-region functions."""

import functools
import sys

import numpy as np

import repro.core.detect as detect
from repro.core import discover_views
from repro.kokkos import KokkosRuntime
from repro.mpi import World
from tests.mpi.conftest import small_cluster


def test_closure_capture():
    rt = KokkosRuntime()
    v = rt.view("x", shape=(4,))

    def region():
        v[0] = 1.0

    assert discover_views(region) == [v]


def test_multiple_captures_in_order():
    rt = KokkosRuntime()
    a = rt.view("a", shape=(2,))
    b = rt.view("b", shape=(2,))

    def region():
        a[0] = b[0]

    found = discover_views(region)
    assert set(found) == {a, b}
    assert len(found) == 2


def test_container_captures():
    rt = KokkosRuntime()
    views = [rt.view(f"v{i}", shape=(2,)) for i in range(3)]
    table = {"fields": views}

    def region():
        return table

    assert set(discover_views(region)) == set(views)


def test_object_attribute_capture():
    rt = KokkosRuntime()

    class State:
        def __init__(self):
            self.temps = rt.view("temps", shape=(4,))
            self.other = 42

    state = State()

    def region():
        state.temps[0] = 1.0

    assert discover_views(region) == [state.temps]


def test_nested_function_discovery():
    # "data being used deep in nested function calls"
    rt = KokkosRuntime()
    deep = rt.view("deep", shape=(2,))

    def inner():
        deep[0] = 1.0

    def middle():
        inner()

    def region():
        middle()

    assert discover_views(region) == [deep]


def test_partial_arguments():
    rt = KokkosRuntime()
    v = rt.view("p", shape=(2,))

    def kernel(view, scale):
        view[0] = scale

    region = functools.partial(kernel, v, 2.0)
    assert discover_views(region) == [v]


def test_default_arguments():
    rt = KokkosRuntime()
    v = rt.view("d", shape=(2,))

    def region(view=v):
        view[0] = 1.0

    assert discover_views(region) == [v]


def test_bound_method_receiver():
    rt = KokkosRuntime()

    class App:
        def __init__(self):
            self.data = rt.view("bound", shape=(2,))

        def step(self):
            self.data[0] += 1.0

    app = App()
    assert discover_views(app.step) == [app.data]


def test_duplicate_objects_deduped():
    rt = KokkosRuntime()
    v = rt.view("x", shape=(2,))
    pair = (v, v)

    def region():
        return pair

    assert discover_views(region) == [v]


def test_extra_root():
    rt = KokkosRuntime()
    v = rt.view("sub", shape=(2,))

    def region():
        pass

    assert discover_views(region, extra=[v]) == [v]


def test_depth_bound_terminates_on_cycles():
    rt = KokkosRuntime()
    v = rt.view("x", shape=(2,))
    a = {}
    b = {"a": a, "v": v}
    a["b"] = b  # cycle

    def region():
        return a

    assert v in discover_views(region)


def _discover_counting_calls(fn):
    """``discover_views(fn)`` plus the Python calls the walk made."""
    calls = 0

    def profiler(frame, event, _arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename == detect.__file__:
            calls += 1

    sys.setprofile(profiler)
    try:
        found = discover_views(fn)
    finally:
        sys.setprofile(None)
    return found, calls


def test_communicator_handle_is_a_leaf():
    # a region capturing its MPI handle (Heatdis's does) must not walk the
    # communicator's per-rank tables: discovery cost is independent of P
    def walk(n_ranks):
        world = World(small_cluster(n_ranks // 4), n_ranks, ranks_per_node=4)
        h = world.comm_world_handle(0)
        v = KokkosRuntime().view("u", shape=(2,))

        def region():
            v[0] = h.rank

        found, calls = _discover_counting_calls(region)
        assert found == [v]
        return calls

    assert walk(4) == walk(64)
