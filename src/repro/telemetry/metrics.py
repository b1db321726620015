"""Mergeable counters, gauges and fixed-bucket histograms.

The registry exists to make per-stage accounting *aggregatable across
worker processes*: every worker collects into its own
:class:`MetricsRegistry`, returns a :meth:`~MetricsRegistry.snapshot`
(a plain JSON-able dict, picklable across the process pool), and the
driver folds the snapshots back together with :func:`merge_snapshots`.
Folding per-trial snapshots in job order makes the merged result a pure
function of the trials themselves, so a campaign aggregated from 4
workers is bit-identical to the same campaign run serially — the
invariant :mod:`repro.bench.faults_campaign` asserts.

Determinism rules:

* counters and histogram bucket counts are integers — associative and
  exact under any merge grouping;
* metrics derived from wall-clock time (decode latency histograms) are
  flagged ``timing=True`` and excluded from deterministic snapshots
  (``snapshot(include_timing=False)``), so merged/compared artifacts
  carry no timestamps;
* histogram buckets are fixed at creation: ``bounds`` are inclusive
  upper edges (a value lands in the first bucket whose bound is
  ``>= value``; values above the last bound go to the overflow bucket).
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "merge_snapshots",
    "DECODE_LATENCY_BUCKETS_MS",
    "TRACKING_DT_BUCKETS",
    "MARGIN_BUCKETS",
]

#: Decode latency histogram edges in milliseconds (timing metric).
DECODE_LATENCY_BUCKETS_MS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0)
#: Tracking-bar cyclic distance d_t takes values 0..3.
TRACKING_DT_BUCKETS = (0.0, 1.0, 2.0, 3.0)
#: Classification margins are normalized distances to the decision
#: boundary in [0, 1].
MARGIN_BUCKETS = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


class Counter:
    """Monotonic integer counter."""

    __slots__ = ("value",)

    def __init__(self, value: int = 0):
        self.value = int(value)

    def inc(self, n: int = 1) -> None:
        self.value += int(n)


class Gauge:
    """Last-written value (merge keeps the later snapshot's value)."""

    __slots__ = ("value",)

    def __init__(self, value: float = 0.0):
        self.value = value

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bucket histogram with inclusive upper edges.

    ``counts`` has ``len(bounds) + 1`` entries; the last is the overflow
    bucket for values above ``bounds[-1]``.  ``sum`` accumulates the raw
    values (exact for integer observations; for float observations it is
    deterministic per trial because each trial observes in a fixed
    order).
    """

    __slots__ = ("bounds", "counts", "count", "sum")

    def __init__(self, bounds: Iterable[float]):
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("histogram bounds must be strictly increasing")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.observe_many((value,))

    def observe_many(self, values: Sequence[float] | np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.size == 0:
            return
        # side="left": first index whose bound >= value (inclusive edge).
        idx = np.searchsorted(np.asarray(self.bounds), values, side="left")
        for i, n in zip(*np.unique(idx, return_counts=True)):
            self.counts[int(i)] += int(n)
        self.count += int(values.size)
        self.sum += float(values.sum())


def _metric_key(name: str, labels: dict[str, object]) -> str:
    """Canonical flat key: ``name{k=v,...}`` with sorted labels."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """A process-local collection of named metrics.

    Metric accessors are get-or-create: ``registry.counter("decode.failures",
    stage="corners").inc()``.  A metric created with ``timing=True`` is
    excluded from deterministic snapshots.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._timing: set[str] = set()

    def __bool__(self) -> bool:
        return True

    # -- accessors ---------------------------------------------------------

    def counter(self, name: str, timing: bool = False, **labels: object) -> Counter:
        key = _metric_key(name, labels)
        metric = self._counters.get(key)
        if metric is None:
            metric = self._counters[key] = Counter()
            if timing:
                self._timing.add(key)
        return metric

    def gauge(self, name: str, timing: bool = False, **labels: object) -> Gauge:
        key = _metric_key(name, labels)
        metric = self._gauges.get(key)
        if metric is None:
            metric = self._gauges[key] = Gauge()
            if timing:
                self._timing.add(key)
        return metric

    def histogram(
        self, name: str, bounds: Iterable[float], timing: bool = False, **labels: object
    ) -> Histogram:
        key = _metric_key(name, labels)
        metric = self._histograms.get(key)
        if metric is None:
            metric = self._histograms[key] = Histogram(bounds)
            if timing:
                self._timing.add(key)
        return metric

    # -- queries -----------------------------------------------------------

    def counter_family(self, name: str) -> dict[str, int]:
        """Label-string -> value for every counter named *name*.

        ``counter_family("decode.failures")`` returns e.g.
        ``{"stage=corners": 3, "stage=header": 1}`` (an empty label
        string keys the unlabeled counter).
        """
        prefix = f"{name}{{"
        out: dict[str, int] = {}
        for key, metric in self._counters.items():
            if key == name:
                out[""] = metric.value
            elif key.startswith(prefix) and key.endswith("}"):
                out[key[len(prefix):-1]] = metric.value
        return out

    # -- snapshot / merge --------------------------------------------------

    def snapshot(self, include_timing: bool = True) -> dict[str, Any]:
        """Plain-dict snapshot, canonically ordered and JSON-able."""

        def keep(key: str) -> bool:
            return include_timing or key not in self._timing

        return {
            "counters": {
                k: self._counters[k].value for k in sorted(self._counters) if keep(k)
            },
            "gauges": {k: self._gauges[k].value for k in sorted(self._gauges) if keep(k)},
            "histograms": {
                k: {
                    "bounds": list(h.bounds),
                    "counts": list(h.counts),
                    "count": h.count,
                    "sum": h.sum,
                }
                for k in sorted(self._histograms)
                if keep(k)
                for h in (self._histograms[k],)
            },
        }

    def merge_snapshot(
        self, snap: dict[str, Any], *, timing: bool = False
    ) -> "MetricsRegistry":
        """Fold one snapshot into this registry; returns self.

        With ``timing=True`` every merged key is flagged as a timing
        metric here, so a snapshot carrying wall-clock-derived metrics
        (e.g. the timing-only remainder of a per-capture collection) can
        be folded without contaminating ``snapshot(include_timing=False)``.
        """
        for key, value in snap.get("counters", {}).items():
            # Keys arrive with labels already flattened in; store verbatim.
            metric = self._counters.get(key)
            if metric is None:
                metric = self._counters[key] = Counter()
            if timing:
                self._timing.add(key)
            metric.inc(value)
        for key, value in snap.get("gauges", {}).items():
            gauge = self._gauges.get(key)
            if gauge is None:
                gauge = self._gauges[key] = Gauge()
            if timing:
                self._timing.add(key)
            gauge.set(value)
        for key, doc in snap.get("histograms", {}).items():
            hist = self._histograms.get(key)
            if hist is None:
                hist = self._histograms[key] = Histogram(doc["bounds"])
            if timing:
                self._timing.add(key)
            if list(hist.bounds) != [float(b) for b in doc["bounds"]]:
                raise ValueError(f"histogram {key!r}: mismatched bucket bounds in merge")
            hist.counts = [a + int(b) for a, b in zip(hist.counts, doc["counts"])]
            hist.count += int(doc["count"])
            hist.sum += float(doc["sum"])
        return self


def merge_snapshots(snapshots: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Fold an ordered sequence of snapshots into one merged snapshot.

    The fold is left-to-right; because counters and bucket counts are
    integers the grouping does not matter, and because per-trial float
    sums are deterministic, folding the same per-trial snapshots in the
    same job order gives a bit-identical result no matter how many
    worker processes produced them.
    """
    registry = MetricsRegistry()
    for snap in snapshots:
        registry.merge_snapshot(snap)
    return registry.snapshot()


class _NullMetric:
    """Accepts every mutation and stores nothing."""

    __slots__ = ()
    value = 0

    def inc(self, n: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def observe_many(self, values: Sequence[float] | np.ndarray) -> None:
        pass


class NullRegistry:
    """Zero-cost registry used whenever telemetry is disabled.

    Tests falsy (``bool(NULL_REGISTRY) is False``) so instrumentation
    can skip *computing* expensive observations, not just recording
    them: ``if reg: reg.histogram(...).observe_many(margins())``.
    """

    __slots__ = ()

    def __bool__(self) -> bool:
        return False

    def counter(self, name: str, timing: bool = False, **labels: object) -> _NullMetric:
        return _NULL_METRIC

    def gauge(self, name: str, timing: bool = False, **labels: object) -> _NullMetric:
        return _NULL_METRIC

    def histogram(
        self, name: str, bounds: Iterable[float], timing: bool = False, **labels: object
    ) -> _NullMetric:
        return _NULL_METRIC

    def counter_family(self, name: str) -> dict[str, int]:
        return {}

    def snapshot(self, include_timing: bool = True) -> dict[str, Any]:
        return {"counters": {}, "gauges": {}, "histograms": {}}


_NULL_METRIC = _NullMetric()
NULL_REGISTRY = NullRegistry()
