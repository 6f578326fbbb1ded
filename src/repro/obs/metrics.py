"""Labelled metric families: counters, gauges, and histograms.

The model follows the Prometheus client shape without the dependency: a
:class:`MetricRegistry` holds :class:`MetricFamily` objects (one per
metric *name*), a family holds one instrument per distinct label
combination, and ``family.labels(pass_index="0")`` returns the live
instrument for that series.  Three instrument kinds exist:

* :class:`Counter` — monotonically increasing total (``inc``);
* :class:`Gauge` — instantaneous value plus its high-water mark (``set``);
* :class:`Histogram` — bucketed observations over *fixed* exponential
  bounds (:data:`HISTOGRAM_BOUNDS`), so independently collected
  histograms merge deterministically bucket-by-bucket.  Every wall-time
  quantity in the tree is a histogram.

Everything serialises through :meth:`MetricRegistry.snapshot`: a flat,
JSON-safe ``{series_key: {kind, ...values}}`` dict whose series keys look
like ``stream_pairs_total{pass=0}``.  Snapshots from independent workers
merge with :func:`merge_snapshots` (counters add, gauges keep the
high-water, histograms add bucket-by-bucket), which is what the
experiment harness's per-trial roll-up uses.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

Snapshot = Dict[str, Dict[str, Any]]

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"
KINDS = (COUNTER, GAUGE, HISTOGRAM)

#: The one fixed bucket layout every histogram in the tree uses: upper
#: bounds in seconds, powers of two from 1 µs to ~8.4 s (24 buckets),
#: plus an implicit ``+Inf`` overflow bucket.  Fixing the bounds is what
#: makes :func:`merge_snapshots` deterministic — two workers can never
#: disagree on bucket edges, so merging is pure elementwise addition.
HISTOGRAM_BOUNDS: Tuple[float, ...] = tuple(1e-6 * 2.0**i for i in range(24))


def format_series(name: str, labels: Mapping[str, str]) -> str:
    """Canonical series key: ``name{k1=v1,k2=v2}`` with sorted labels."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def parse_series(series: str) -> Tuple[str, Dict[str, str]]:
    """Invert :func:`format_series` (labels may not contain ``,{}=``)."""
    if "{" not in series:
        return series, {}
    name, _, rest = series.partition("{")
    body = rest.rstrip("}")
    labels: Dict[str, str] = {}
    if body:
        for part in body.split(","):
            key, _, value = part.partition("=")
            labels[key] = value
    return name, labels


class Counter:
    """A monotonically increasing total."""

    kind = COUNTER

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only increase; use a gauge")
        self.value += amount

    def dump(self) -> Dict[str, Any]:
        return {"kind": COUNTER, "value": self.value}

    def load(self, blob: Mapping[str, Any]) -> None:
        self.value = blob["value"]


class Gauge:
    """An instantaneous value plus its high-water mark."""

    kind = GAUGE

    __slots__ = ("value", "high_water")

    def __init__(self) -> None:
        self.value: float = 0
        self.high_water: float = 0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.high_water:
            self.high_water = value

    def dump(self) -> Dict[str, Any]:
        return {"kind": GAUGE, "value": self.value, "high_water": self.high_water}

    def load(self, blob: Mapping[str, Any]) -> None:
        self.value = blob["value"]
        self.high_water = blob["high_water"]


class Histogram:
    """Bucketed observations over fixed exponential bounds.

    ``buckets[i]`` counts observations with ``value <= bounds[i]`` that
    no earlier bucket claimed (non-cumulative storage); ``buckets[-1]``
    is the ``+Inf`` overflow.  :meth:`cumulative` produces the
    Prometheus-style running totals for exposition.
    """

    kind = HISTOGRAM

    __slots__ = ("bounds", "buckets", "total", "count")

    def __init__(self, bounds: Sequence[float] = HISTOGRAM_BOUNDS) -> None:
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        if list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError("histogram bounds must be strictly increasing")
        self.buckets: List[int] = [0] * (len(self.bounds) + 1)
        self.total: float = 0.0
        self.count: int = 0

    def observe(self, value: float) -> None:
        if value < 0:
            raise ValueError("histogram observations cannot be negative")
        self.buckets[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1

    def cumulative(self) -> Iterator[Tuple[float, int]]:
        """Yield ``(upper_bound, running_count)``; the last bound is inf."""
        running = 0
        for bound, n in zip(self.bounds, self.buckets):
            running += n
            yield bound, running
        yield float("inf"), self.count

    def quantile(self, q: float) -> float:
        """Estimate the q-quantile (0..1) by linear bucket attribution.

        Returns the upper bound of the bucket holding the q-th
        observation — a conservative (over-) estimate, which is the safe
        direction for latency SLOs.  Empty histograms estimate 0.
        """
        if not 0 <= q <= 1:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        running = 0
        for bound, n in zip(self.bounds, self.buckets):
            running += n
            if running >= rank:
                return bound
        return self.bounds[-1] if self.bounds else 0.0

    def dump(self) -> Dict[str, Any]:
        return {
            "kind": HISTOGRAM,
            "bounds": list(self.bounds),
            "buckets": list(self.buckets),
            "total": self.total,
            "count": self.count,
        }

    def load(self, blob: Mapping[str, Any]) -> None:
        self.bounds = tuple(float(b) for b in blob["bounds"])
        self.buckets = [int(n) for n in blob["buckets"]]
        self.total = blob["total"]
        self.count = int(blob["count"])


_INSTRUMENTS = {COUNTER: Counter, GAUGE: Gauge, HISTOGRAM: Histogram}


class MetricFamily:
    """All series of one metric name: a kind, help text, and label names."""

    def __init__(self, name: str, kind: str, help: str = "", labelnames: Tuple[str, ...] = ()):
        if kind not in _INSTRUMENTS:
            raise ValueError(f"unknown metric kind {kind!r} (choose from {KINDS})")
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames = tuple(labelnames)
        self._series: Dict[Tuple[str, ...], Any] = {}

    def labels(self, **labelvalues: str) -> Any:
        """The instrument for one label combination (created on first use)."""
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        key = tuple(str(labelvalues[k]) for k in self.labelnames)
        instrument = self._series.get(key)
        if instrument is None:
            instrument = _INSTRUMENTS[self.kind]()
            self._series[key] = instrument
        return instrument

    def series(self) -> Iterator[Tuple[Dict[str, str], Any]]:
        """Yield ``(labels, instrument)`` for every live series, sorted."""
        for key in sorted(self._series):
            yield dict(zip(self.labelnames, key)), self._series[key]

    def __len__(self) -> int:
        return len(self._series)


class MetricRegistry:
    """A set of metric families, addressable by name."""

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}

    def _family(self, name: str, kind: str, help: str, labelnames: Tuple[str, ...]) -> MetricFamily:
        family = self._families.get(name)
        if family is None:
            family = MetricFamily(name, kind, help=help, labelnames=labelnames)
            self._families[name] = family
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as a {family.kind}, not a {kind}"
            )
        return family

    def counter(self, name: str, help: str = "", labelnames: Tuple[str, ...] = ()) -> MetricFamily:
        return self._family(name, COUNTER, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Tuple[str, ...] = ()) -> MetricFamily:
        return self._family(name, GAUGE, help, labelnames)

    def histogram(self, name: str, help: str = "", labelnames: Tuple[str, ...] = ()) -> MetricFamily:
        return self._family(name, HISTOGRAM, help, labelnames)

    def families(self) -> List[MetricFamily]:
        return [self._families[name] for name in sorted(self._families)]

    def __len__(self) -> int:
        return sum(len(f) for f in self._families.values())

    def snapshot(self) -> Snapshot:
        """Flat JSON-safe dump: ``{series_key: {kind, ...values}}``."""
        out: Snapshot = {}
        for family in self.families():
            for labels, instrument in family.series():
                out[format_series(family.name, labels)] = instrument.dump()
        return out

    def load_snapshot(self, snapshot: Snapshot, help_texts: Optional[Mapping[str, str]] = None) -> None:
        """Rebuild families/series from :meth:`snapshot` output (additive)."""
        for series_key in sorted(snapshot):
            blob = snapshot[series_key]
            name, labels = parse_series(series_key)
            help_text = (help_texts or {}).get(name, "")
            family = self._family(name, blob["kind"], help_text, tuple(sorted(labels)))
            family.labels(**labels).load(blob)


def merge_snapshots(snapshots: Iterable[Snapshot]) -> Snapshot:
    """Roll independent worker snapshots into one.

    Counters add; gauges keep the maximum value and high-water mark (the
    roll-up of per-worker peaks is the fleet peak); histograms add
    bucket-by-bucket, with sums and counts.  Mixing kinds under one
    series key is an error.
    """
    merged: Snapshot = {}
    for snapshot in snapshots:
        for series_key, blob in snapshot.items():
            slot = merged.get(series_key)
            if slot is None:
                merged[series_key] = dict(blob)
                continue
            if slot["kind"] != blob["kind"]:
                raise ValueError(
                    f"series {series_key!r} has conflicting kinds "
                    f"{slot['kind']!r} vs {blob['kind']!r}"
                )
            kind = blob["kind"]
            if kind == COUNTER:
                slot["value"] += blob["value"]
            elif kind == GAUGE:
                slot["value"] = max(slot["value"], blob["value"])
                slot["high_water"] = max(slot["high_water"], blob["high_water"])
            else:  # histogram
                if list(slot["bounds"]) != list(blob["bounds"]):
                    raise ValueError(
                        f"series {series_key!r} has conflicting histogram "
                        "bucket bounds; all histograms must use the fixed "
                        "HISTOGRAM_BOUNDS layout"
                    )
                slot["buckets"] = [a + b for a, b in zip(slot["buckets"], blob["buckets"])]
                slot["total"] += blob["total"]
                slot["count"] += blob["count"]
    return {key: merged[key] for key in sorted(merged)}


def label_snapshot(snapshot: Snapshot, **labels: str) -> Snapshot:
    """Re-key every series with extra labels (e.g. ``worker="3"``).

    The router tags each worker's shipped snapshot with its worker index
    before merging, so per-worker series stay distinguishable in the
    ``/metrics`` exposition while :func:`merge_snapshots` still pools
    identically-labelled series.
    """
    out: Snapshot = {}
    for series_key, blob in snapshot.items():
        name, existing = parse_series(series_key)
        existing.update({k: str(v) for k, v in labels.items()})
        out[format_series(name, existing)] = dict(blob)
    return out


def strip_timers(snapshot: Snapshot) -> Snapshot:
    """Drop the wall-clock series (every histogram) from a snapshot.

    Counters and gauges emitted by the instrumented runner are pure
    functions of (stream, seed); histograms record wall time, which is
    not.  Determinism assertions (serial roll-up == parallel roll-up)
    compare stripped snapshots.
    """
    return {k: v for k, v in snapshot.items() if v["kind"] != HISTOGRAM}


def histogram_quantile(blob: Mapping[str, Any], q: float) -> float:
    """Quantile estimate straight from a snapshot blob of kind histogram."""
    h = Histogram(blob["bounds"])
    h.load(blob)
    return h.quantile(q)
