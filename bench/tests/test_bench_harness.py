"""Percentiles and calibration arithmetic."""

import pytest

import harness
from harness import Block


def test_percentile_is_nearest_rank():
    samples = [15, 20, 35, 40, 50]
    assert harness.percentile(samples, 5) == 15
    assert harness.percentile(samples, 30) == 20
    assert harness.percentile(samples, 40) == 20
    assert harness.percentile(samples, 50) == 35
    assert harness.percentile(samples, 95) == 50
    assert harness.percentile(samples, 100) == 50
    # Always an observed sample, never an interpolation.
    assert harness.percentile([1.0, 2.0], 50) == 1.0


def test_percentile_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        harness.percentile([], 50)


def test_speed_factor_is_reference_over_median_kernel_time():
    assert harness.speed_factor([2.0, 4.0, 100.0]) == harness.CAL_REF_MS / 4.0
    with pytest.raises(ValueError):
        harness.speed_factor([])


def test_calibrated_seconds_scales_by_the_factor():
    # Kernel took 2 ms where the reference is 1 ms: the machine is at
    # half speed, so 3 raw seconds are 1.5 calibrated seconds.
    assert harness.calibrated_seconds(3.0, [2.0] * 5) == pytest.approx(1.5)


def test_blocks_at_different_machine_speeds_summarize_alike():
    fast = Block(latency_ms=[1.0, 2.0, 3.0, 4.0], cpu_ms=10.0,
                 cal_ms=[1.0, 1.0])
    # The same work on a machine running at half speed.
    slow = Block(latency_ms=[2.0, 4.0, 6.0, 8.0], cpu_ms=20.0,
                 cal_ms=[2.0, 2.0])
    alone = harness.summarize_blocks([fast])
    both = harness.summarize_blocks([fast, slow, slow])
    for name in ("queries_per_s", "query_ms_p50", "query_ms_p95",
                 "cpu_ms_per_query"):
        assert both[name] == pytest.approx(alone[name])
    assert alone["queries_per_s"] == pytest.approx(4 / 0.010)
    assert alone["query_ms_p50"] == 2.0
    assert alone["query_ms_p95"] == 4.0
    assert alone["cpu_ms_per_query"] == 2.5
    # The raw twin is not protected.
    assert both["raw_queries_per_s"] == pytest.approx(4 / 0.020)
    assert (both["speed_factor_min"], both["speed_factor_max"]) == (0.5, 1.0)


def test_untimed_extra_work_counts_toward_throughput_not_latency():
    block = Block(latency_ms=[1.0, 1.0], cal_ms=[1.0], extra_ms=2.0)
    summary = harness.summarize_blocks([block])
    assert summary["queries_per_s"] == pytest.approx(2 / 0.004)
    assert summary["query_ms_p50"] == 1.0


def test_calibration_kernel_takes_about_a_millisecond():
    samples = sorted(harness.calibrate() for _ in range(9))
    assert 0.1 < samples[4] < 20.0
