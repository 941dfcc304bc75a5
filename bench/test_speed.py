"""The speed gauge leaves its own samples out and scales the rest."""

from __future__ import annotations

import numpy as np

import speed


def gauge_with(marks):
    g = speed.Gauge()
    g.marks = list(marks)
    return g


def test_scaled_cpu_leaves_out_the_samples():
    # samples run 1.0-1.1 and 2.0-2.1, each at the reference speed
    ref = speed.REFERENCE_S
    g = gauge_with([(1.0, 1.1, ref), (2.0, 2.1, ref)])
    assert np.isclose(g.scaled_cpu(0.0, 3.0), 1.0 + 0.9 + 0.9)


def test_scaled_cpu_divides_by_the_slowdown():
    g = gauge_with([(1.0, 1.0, 2 * speed.REFERENCE_S)] * 3)
    assert np.allclose(g.slowdown(), 2.0)
    assert np.isclose(g.scaled_cpu(0.0, 1.0), 0.5)


def test_slowdown_is_a_running_median():
    ref = speed.REFERENCE_S
    times = [ref] * 40 + [3 * ref] + [2 * ref] * 40
    g = gauge_with((float(k), float(k), d) for k, d in enumerate(times))
    slow = g.slowdown()
    assert np.allclose(slow[:20], 1.0) and np.allclose(slow[-20:], 2.0)
    assert slow[40] in (1.0, 2.0)   # one outlier does not move the median


def test_median_slowdown_over_a_slice():
    ref = speed.REFERENCE_S
    g = gauge_with([(0.0, 0.0, ref)] * 3 + [(0.0, 0.0, 4 * ref)] * 3)
    assert np.isclose(g.median_slowdown(3, 6), 4.0)
    assert np.isclose(g.median_slowdown(0, 3), 1.0)


def test_sample_records_a_positive_time_inside_its_interval():
    g = speed.Gauge()
    g.sample()
    (begin, end, d), = g.marks
    assert 0.0 < d <= end - begin
