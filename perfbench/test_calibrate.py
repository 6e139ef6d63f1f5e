"""Tests of the speed scaling on synthetic probe records.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import pytest

from calibrate import REF_S, Speedometer


def meter(*probes):
    m = Speedometer()
    m.probes = list(probes)
    return m


def test_probes_inside_are_left_out_and_set_the_speed():
    # boundary at 0, timed probes at 1 and 2, boundary just after 3
    m = meter((0.0, REF_S), (1.0, 2 * REF_S), (2.0, 3 * REF_S),
              (3.0, 2 * REF_S))
    wall, ref = m.measure(0, 3, 0.0 + REF_S, 3.0)
    assert wall == pytest.approx(3.0 - REF_S - 5 * REF_S)
    # the mean probe took twice REF_S: the host ran at half speed
    assert ref == pytest.approx(wall / 2)


def test_probe_started_after_the_end_is_not_left_out():
    # a timed probe fired between the segment's end and its boundary
    m = meter((0.0, REF_S), (2.5, REF_S), (2.6, REF_S))
    wall, ref = m.measure(0, 2, 0.0, 2.4)
    assert wall == pytest.approx(2.4)
    assert ref == pytest.approx(2.4)


def test_probe_seconds_counts_probes_started_in_the_window():
    m = meter((0.0, 0.5), (1.0, 0.25), (2.0, 0.125))
    assert m.probe_seconds(0.5, 2.0) == pytest.approx(0.25)


def test_sample_times_the_probe():
    m = Speedometer()
    assert m.boundary() == 0 and m.boundary() == 1
    assert all(s > 0 for _, s in m.probes)
