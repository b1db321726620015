"""Nearest-rank percentiles: the rule behind perfbench's per-layer p50/p75."""

from __future__ import annotations

import pytest

from repro.telemetry.perf.aggregate import nearest_rank


class TestNearestRank:
    def test_percentiles_are_actual_samples(self):
        samples = sorted(float(v) for v in [5, 1, 9, 3, 7])
        assert nearest_rank(samples, 50) == 5.0
        assert nearest_rank(samples, 95) == 9.0
        assert nearest_rank(samples, 100) == 9.0
        assert nearest_rank(samples, 1) == 1.0

    def test_empty_and_out_of_range_raise(self):
        with pytest.raises(ValueError):
            nearest_rank([], 50)
        with pytest.raises(ValueError):
            nearest_rank([1.0], 0)
        with pytest.raises(ValueError):
            nearest_rank([1.0], 101)
