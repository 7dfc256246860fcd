"""Unit tests for latency/throughput statistics."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.stats import LatencyRecorder, ThroughputMeter, percentile


def test_percentile_basic():
    samples = [10, 20, 30, 40, 50]
    assert percentile(samples, 0.0) == 10
    assert percentile(samples, 1.0) == 50
    assert percentile(samples, 0.5) == 30
    assert percentile(samples, 0.25) == 20


def test_percentile_interpolates():
    assert percentile([0, 10], 0.5) == 5.0


def test_percentile_empty_rejected():
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_percentile_fraction_bounds():
    with pytest.raises(ValueError):
        percentile([1], 1.5)
    with pytest.raises(ValueError):
        percentile([1], -0.1)


@given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=1))
def test_percentile_within_range(samples):
    for fraction in [0.0, 0.25, 0.5, 0.9, 1.0]:
        value = percentile(samples, fraction)
        assert min(samples) <= value <= max(samples)


def test_latency_recorder_summary():
    rec = LatencyRecorder()
    for value in [100, 200, 300]:
        rec.record(value)
    assert rec.count == 3
    assert rec.mean == pytest.approx(200)
    assert (rec.min, rec.max) == (100, 300)
    assert rec.p50 == 200


def test_latency_recorder_rejects_negative():
    rec = LatencyRecorder()
    with pytest.raises(ValueError):
        rec.record(-1)


def test_latency_recorder_empty_mean_rejected():
    rec = LatencyRecorder()
    with pytest.raises(ValueError):
        _ = rec.mean


def test_latency_recorder_empty_percentiles_match_summary():
    """Empty-recorder percentiles are 0.0 instead of raising."""
    rec = LatencyRecorder()
    assert rec.percentile(0.5) == 0.0
    assert rec.p50 == 0.0
    assert rec.p99 == 0.0


def test_latency_recorder_empty_percentile_still_validates_fraction():
    rec = LatencyRecorder()
    with pytest.raises(ValueError):
        rec.percentile(1.5)
    with pytest.raises(ValueError):
        rec.percentile(-0.1)


def test_latency_recorder_nonempty_percentile_unchanged():
    rec = LatencyRecorder()
    for value in [10, 20, 30, 40, 50]:
        rec.record(value)
    assert rec.percentile(0.5) == 30
    assert rec.p50 == 30


def test_latency_recorder_thinning_preserves_extremes_and_count():
    rec = LatencyRecorder(max_samples=64)
    for value in range(1000):
        rec.record(value)
    assert rec.count == 1000
    assert rec.min == 0
    assert rec.max == 999
    assert rec.total == sum(range(1000))
    # Percentiles remain sane after thinning.
    assert 400 <= rec.p50 <= 600


@given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=500))
def test_latency_recorder_mean_matches_reference(values):
    rec = LatencyRecorder()
    for value in values:
        rec.record(value)
    assert rec.mean == pytest.approx(sum(values) / len(values))


def test_throughput_meter():
    meter = ThroughputMeter()
    meter.start(0)
    meter.record(500_000_000, operations=5)
    meter.record(1_000_000_000, operations=5)
    assert meter.completed == 10
    assert meter.ops_per_sec() == pytest.approx(10.0)


def test_throughput_meter_stop_extends_window():
    meter = ThroughputMeter()
    meter.start(0)
    meter.record(100_000_000, operations=10)
    meter.stop(1_000_000_000)
    assert meter.ops_per_sec() == pytest.approx(10.0)


def test_throughput_meter_requires_start():
    meter = ThroughputMeter()
    with pytest.raises(ValueError):
        meter.record(10)


def test_throughput_meter_empty_window_reports_zero():
    meter = ThroughputMeter()
    meter.start(100)
    meter.record(100)
    assert meter.ops_per_sec() == 0.0


def test_throughput_meter_unstarted_reports_zero():
    assert ThroughputMeter().ops_per_sec() == 0.0
