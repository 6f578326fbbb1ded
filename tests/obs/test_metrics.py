"""Metric families: instruments, snapshots, merge and strip semantics."""

import pytest

from repro.obs.metrics import (
    COUNTER,
    GAUGE,
    HISTOGRAM,
    HISTOGRAM_BOUNDS,
    KINDS,
    MetricRegistry,
    format_series,
    merge_snapshots,
    parse_series,
    strip_timers,
)


def test_series_key_round_trip():
    key = format_series("stream_pairs_total", {"pass": "0", "shard": "3"})
    assert key == "stream_pairs_total{pass=0,shard=3}"
    assert parse_series(key) == ("stream_pairs_total", {"pass": "0", "shard": "3"})
    assert parse_series("bare_name") == ("bare_name", {})


def test_counter_monotonic():
    registry = MetricRegistry()
    counter = registry.counter("events_total").labels()
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_gauge_tracks_high_water():
    gauge = MetricRegistry().gauge("space_words").labels()
    gauge.set(10)
    gauge.set(3)
    assert gauge.value == 3
    assert gauge.high_water == 10


def test_histogram_accumulates():
    assert KINDS == (COUNTER, GAUGE, HISTOGRAM)
    histogram = MetricRegistry().histogram("pass_seconds").labels()
    histogram.observe(0.5)
    histogram.observe(0.25)
    assert histogram.total == 0.75
    assert histogram.count == 2
    assert sum(histogram.buckets) == 2
    # The top occupied bucket bounds the largest observation.
    top = max(i for i, n in enumerate(histogram.buckets) if n)
    assert HISTOGRAM_BOUNDS[top - 1] < 0.5 <= HISTOGRAM_BOUNDS[top]
    with pytest.raises(ValueError):
        histogram.observe(-0.1)


def test_labelled_series_are_independent():
    registry = MetricRegistry()
    family = registry.counter("pairs_total", labelnames=("pass",))
    family.labels(**{"pass": "0"}).inc(7)
    family.labels(**{"pass": "1"}).inc(2)
    snap = registry.snapshot()
    assert snap["pairs_total{pass=0}"]["value"] == 7
    assert snap["pairs_total{pass=1}"]["value"] == 2
    with pytest.raises(ValueError):
        family.labels(wrong="x")


def test_kind_conflict_rejected():
    registry = MetricRegistry()
    registry.counter("thing")
    with pytest.raises(ValueError):
        registry.gauge("thing")


def test_snapshot_load_round_trip():
    registry = MetricRegistry()
    registry.counter("a_total").labels().inc(3)
    g = registry.gauge("b_words").labels()
    g.set(9)
    g.set(2)
    registry.histogram("c_seconds").labels().observe(1.5)
    snap = registry.snapshot()

    reloaded = MetricRegistry()
    reloaded.load_snapshot(snap)
    assert reloaded.snapshot() == snap


def _histogram_blob(observations):
    registry = MetricRegistry()
    histogram = registry.histogram("t").labels()
    for seconds in observations:
        histogram.observe(seconds)
    return registry.snapshot()["t"]


def test_merge_snapshots_semantics():
    a = {
        "pairs_total": {"kind": COUNTER, "value": 10},
        "space": {"kind": GAUGE, "value": 5, "high_water": 8},
        "t": _histogram_blob([0.2, 0.8]),
    }
    b = {
        "pairs_total": {"kind": COUNTER, "value": 4},
        "space": {"kind": GAUGE, "value": 7, "high_water": 7},
        "t": _histogram_blob([0.5]),
    }
    merged = merge_snapshots([a, b])
    assert merged["pairs_total"]["value"] == 14
    assert merged["space"] == {"kind": GAUGE, "value": 7, "high_water": 8}
    assert merged["t"] == _histogram_blob([0.2, 0.8, 0.5])
    # inputs untouched
    assert a["pairs_total"]["value"] == 10


def test_merge_rejects_kind_conflicts():
    with pytest.raises(ValueError):
        merge_snapshots([
            {"x": {"kind": COUNTER, "value": 1}},
            {"x": {"kind": GAUGE, "value": 1, "high_water": 1}},
        ])


def test_strip_timers():
    snap = {
        "a_total": {"kind": COUNTER, "value": 1},
        "b_words": {"kind": GAUGE, "value": 1, "high_water": 1},
        "t": _histogram_blob([1.0]),
    }
    assert set(strip_timers(snap)) == {"a_total", "b_words"}
