"""MetricsRegistry merge edge cases: empty, disjoint, boundary, timing.

The quality observatory leans on snapshot merging being exact in the
corners — an empty worker, workers that touched disjoint key sets,
histogram observations landing exactly on bucket edges, and the
timing-remainder fold that keeps wall-clock metrics out of the
deterministic snapshot.
"""

import pytest

from repro.telemetry.metrics import MetricsRegistry, merge_snapshots


def _snapshot_of(fill) -> dict:
    registry = MetricsRegistry()
    fill(registry)
    return registry.snapshot()


class TestEmptyMerges:
    def test_merge_of_no_snapshots(self):
        merged = merge_snapshots([])
        assert merged == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_empty_registry_snapshot_is_identity(self):
        full = _snapshot_of(lambda r: r.counter("a").inc(3))
        empty = MetricsRegistry().snapshot()
        assert merge_snapshots([full, empty]) == merge_snapshots([full])
        assert merge_snapshots([empty, full]) == merge_snapshots([full])

    def test_all_empty_registries(self):
        empties = [MetricsRegistry().snapshot() for _ in range(4)]
        assert merge_snapshots(empties) == {"counters": {}, "gauges": {}, "histograms": {}}


class TestDisjointKeySets:
    def test_disjoint_counters_union(self):
        a = _snapshot_of(lambda r: r.counter("only.a").inc(1))
        b = _snapshot_of(lambda r: r.counter("only.b").inc(2))
        merged = merge_snapshots([a, b])
        assert merged["counters"] == {"only.a": 1, "only.b": 2}

    def test_disjoint_label_sets_stay_separate(self):
        a = _snapshot_of(lambda r: r.counter("hits", stage="x").inc(5))
        b = _snapshot_of(lambda r: r.counter("hits", stage="y").inc(7))
        merged = merge_snapshots([a, b])
        assert merged["counters"] == {"hits{stage=x}": 5, "hits{stage=y}": 7}

    def test_disjoint_histograms_union(self):
        a = _snapshot_of(lambda r: r.histogram("h.a", (1.0, 2.0)).observe(0.5))
        b = _snapshot_of(lambda r: r.histogram("h.b", (10.0,)).observe(20.0))
        merged = merge_snapshots([a, b])
        assert set(merged["histograms"]) == {"h.a", "h.b"}
        assert merged["histograms"]["h.a"]["counts"] == [1, 0, 0]
        assert merged["histograms"]["h.b"]["counts"] == [0, 1]

    def test_mismatched_bounds_rejected(self):
        a = _snapshot_of(lambda r: r.histogram("h", (1.0, 2.0)).observe(0.5))
        b = _snapshot_of(lambda r: r.histogram("h", (1.0, 3.0)).observe(0.5))
        with pytest.raises(ValueError, match="mismatched bucket bounds"):
            merge_snapshots([a, b])


class TestBoundaryValues:
    def test_values_on_bucket_edges_merge_exactly(self):
        # Inclusive upper edges: a value exactly on a bound belongs to
        # that bound's bucket, on both sides of the merge.
        def fill(registry):
            h = registry.histogram("edges", (0.25, 0.5, 1.0))
            for v in (0.25, 0.5, 1.0):
                h.observe(v)

        direct = MetricsRegistry()
        fill(direct)
        fill(direct)
        merged = merge_snapshots([_snapshot_of(fill), _snapshot_of(fill)])
        assert merged == direct.snapshot()
        assert merged["histograms"]["edges"]["counts"] == [2, 2, 2, 0]

    def test_just_past_the_edge_overflows(self):
        snap = _snapshot_of(lambda r: r.histogram("h", (1.0,)).observe(1.0 + 1e-9))
        assert merge_snapshots([snap])["histograms"]["h"]["counts"] == [0, 1]

    def test_merged_sum_matches_fold_order(self):
        # Float sums fold left-to-right; merging the same snapshots in
        # the same order is bit-identical to one sequential registry.
        values = [0.1, 0.2, 0.3, 0.7]
        direct = MetricsRegistry()
        h = direct.histogram("s", (1.0,))
        for v in values:
            h.observe(v)
        parts = [
            _snapshot_of(lambda r, v=v: r.histogram("s", (1.0,)).observe(v))
            for v in values
        ]
        assert merge_snapshots(parts)["histograms"]["s"]["sum"] == (
            direct.snapshot()["histograms"]["s"]["sum"]
        )


class TestTimingMerge:
    def test_timing_flag_hides_merged_keys(self):
        donor = MetricsRegistry()
        donor.counter("decode.latency_calls").inc(3)
        donor.histogram("decode.latency_ms", (1.0, 10.0)).observe(5.0)
        receiver = MetricsRegistry()
        receiver.counter("quality.rs_codewords").inc(1)
        receiver.merge_snapshot(donor.snapshot(), timing=True)

        det = receiver.snapshot(include_timing=False)
        assert det["counters"] == {"quality.rs_codewords": 1}
        assert det["histograms"] == {}

        full = receiver.snapshot()
        assert full["counters"]["decode.latency_calls"] == 3
        assert full["histograms"]["decode.latency_ms"]["count"] == 1

    def test_default_merge_keeps_keys_deterministic(self):
        donor = MetricsRegistry()
        donor.counter("quality.symbols_total").inc(8)
        receiver = MetricsRegistry().merge_snapshot(donor.snapshot())
        assert receiver.snapshot(include_timing=False)["counters"] == {
            "quality.symbols_total": 8
        }

    def test_timing_gauges_hidden_too(self):
        donor = MetricsRegistry()
        donor.gauge("serve.pool.pending_jobs").set(2.0)
        receiver = MetricsRegistry().merge_snapshot(donor.snapshot(), timing=True)
        assert receiver.snapshot(include_timing=False)["gauges"] == {}
        assert receiver.snapshot()["gauges"] == {"serve.pool.pending_jobs": 2.0}
