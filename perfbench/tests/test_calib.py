"""Calibration arithmetic for durations, latencies and rates."""

import time
import tracemalloc

import pytest

import calib
import run

REF = calib.REFERENCE_PROBE_S


def test_scale_factor_is_reference_over_mean_probe():
    probes = [(0.0, 1.0, 2 * REF), (2.0, 3.0, 4 * REF)]
    assert calib.scale_factor(probes) == pytest.approx(1 / 3)
    with pytest.raises(calib.CalibrationError):
        calib.scale_factor([])


def test_probe_cost_charges_overlap_pro_rata():
    probes = [
        (1.0, 1.1, 0.1),   # inside: all of it
        (1.95, 2.05, 0.1),  # straddles the end: half
        (3.0, 3.1, 0.1),   # outside
    ]
    assert calib.probe_cost(0.0, 2.0, probes) == pytest.approx(0.15)


def test_probe_cost_counts_cpu_not_wall_when_sharing_a_cpu():
    # A probe that got half the CPU over 0.2 s of wall time delayed the
    # work beside it by its 0.1 s of CPU, not by 0.2 s.
    assert calib.probe_cost(0.0, 1.0, [(0.4, 0.6, 0.1)]) == pytest.approx(0.1)


def test_duration_subtracts_probes_then_scales():
    # 2 s of wall, one probe inside it, on a host twice as slow as the
    # reference.
    cal = calib.Calibrator([(0.5, 0.6, 2 * REF)])
    assert cal.seconds(0.0, 2.0) == pytest.approx((2.0 - 2 * REF) * 0.5)


def test_each_interval_is_scaled_by_its_own_neighbourhood():
    fast = [(0.1 * i, 0.1 * i + 0.001, REF) for i in range(20)]          # 0-2 s
    slow = [(5 + 0.1 * i, 5 + 0.1 * i + 0.001, 2 * REF) for i in range(20)]  # 5-7 s
    cal = calib.Calibrator(fast + slow, window=0.5)
    assert cal.factor(0.5, 1.5) == pytest.approx(1.0)
    assert cal.factor(5.5, 6.5) == pytest.approx(0.5)
    # A latency between probes still finds its neighbours.
    assert cal.seconds(6.0205, 6.0405) == pytest.approx(0.010)
    # Parts of one section scaled alike add up to it.
    whole = cal.seconds(0.0, 7.0)
    parts = [cal.seconds(a, b, cal.factor(0.0, 7.0)) for a, b in ((0, 1.04), (1.04, 5.5), (5.5, 7))]
    assert sum(parts) == pytest.approx(whole)
    # Far from every probe: the process's mean.
    assert cal.factor(100.0, 100.1) == pytest.approx(2 / 3)
    with pytest.raises(calib.CalibrationError):
        calib.Calibrator([])


def test_latency_and_rate_aggregation():
    cal = calib.Calibrator([(9.0, 9.001, 2 * REF)])
    assert 1e3 * cal.seconds(10.0, 10.040) == pytest.approx(20.0)

    def repeat(s, raw_s, latencies):
        return {"s": s, "raw_s": raw_s, "refs": 1000, "peak_rss_mb": 50.0,
                "latencies": [("translate", ms, 2 * ms) for ms in latencies]}

    runs = [repeat(1.0, 2.0, range(1, 101)), repeat(2.0, 4.0, range(2, 202, 2)),
            repeat(4.0, 8.0, range(3, 303, 3))]
    setups = [{"s": 0.1, "raw_s": 0.2}, {"s": 0.3, "raw_s": 0.6}, {"s": 0.2, "raw_s": 0.4}]
    e2e = run.end_to_end(setups, runs, "serve")
    values, raw = e2e["values"], e2e["raw"]
    assert values["run_s"] == 2.0 and raw["run_s"] == 4.0
    assert values["refs_per_s"] == pytest.approx(500.0)
    assert raw["refs_per_s"] == pytest.approx(250.0)
    assert values["setup_s"] == 0.2
    # Pooled over the repeats: 300 samples, nearest rank.
    pooled = sorted([*range(1, 101), *range(2, 202, 2), *range(3, 303, 3)])
    assert values["latency_p50_ms"] == pooled[149]
    assert values["latency_p99_ms"] == pooled[296]
    assert raw["latency_p99_ms"] == 2 * pooled[296]


def test_suite_latency_is_per_scheme_cell_median():
    def repeat(cells):
        return {"s": 1.0, "raw_s": 1.0, "refs": 3, "peak_rss_mb": 1.0,
                "latencies_ms": cells, "raw_latencies_ms": cells}

    runs = [repeat([1.0, 5.0, 3.0]), repeat([2.0, 9.0, 2.0]), repeat([9.0, 6.0, 4.0])]
    values = run.end_to_end([{"s": 1, "raw_s": 1}], runs, "suite")["values"]
    # Per-scheme medians are 2, 6, 3: the middle cell and the slowest.
    assert values["latency_p50_ms"] == 3.0
    assert values["latency_p99_ms"] == 6.0


def test_starved_handler_is_rejected():
    probes = [(0.05 * i, 0.05 * i + 0.001, REF) for i in range(3)]
    with pytest.raises(calib.CalibrationError):
        calib.check_probes(0.0, 10.0, probes, interval=0.1)
    dense = [(0.1 * i, 0.1 * i + 0.001, REF) for i in range(100)]
    assert calib.check_probes(0.0, 10.0, dense, interval=0.1) == 100


def test_probe_kernel_allocates_nothing():
    calib.probe_kernel()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        calib.probe_kernel()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    grown = [
        stat for stat in after.compare_to(before, "filename")
        if stat.traceback[0].filename == calib.__file__ and stat.size_diff > 0
    ]
    assert grown == []


def test_prober_samples_on_sigalrm():
    prober = calib.Prober(interval=0.02)
    prober.start()
    start = time.perf_counter()
    while time.perf_counter() - start < 0.3:
        pass
    end = time.perf_counter()
    prober.stop()
    assert calib.check_probes(start, end, prober.probes, interval=0.02) >= 5
    assert all(cpu > 0 for _, _, cpu in prober.probes)
