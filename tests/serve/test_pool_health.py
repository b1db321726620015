"""Pool-health telemetry: the in-flight gauge and per-worker counters.

All pool-health metrics are timing-flagged: they describe *this* run's
scheduling (which worker got which job, how many were in flight), so
they must ride in the full snapshot but stay out of the deterministic
``include_timing=False`` view that the bit-identity contract covers.
"""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.serve import close_shared_pools, map_ordered


def _double(x):
    return 2 * x


@pytest.fixture(autouse=True)
def _two_cores(monkeypatch):
    monkeypatch.setattr("repro.serve.pool.available_cpus", lambda: 2)
    yield
    close_shared_pools()


@pytest.fixture
def live_telemetry(tmp_path, monkeypatch):
    monkeypatch.setenv(telemetry.ENV_DIR, str(tmp_path))
    telemetry.configure(True)
    yield telemetry.registry()
    telemetry.configure(None)


class TestPoolHealth:
    def test_submission_and_completion_counters(self, live_telemetry):
        out = map_ordered(_double, [{"x": i} for i in range(6)], workers=2)
        assert list(out) == [2 * i for i in range(6)]
        snap = live_telemetry.snapshot()
        assert snap["counters"]["serve.pool.jobs_submitted"] == 6
        worker_counts = {
            key: value
            for key, value in snap["counters"].items()
            if key.startswith("serve.pool.jobs_completed{worker=")
        }
        assert sum(worker_counts.values()) == 6
        # Worker identity is the worker process's pid.
        assert all("repro-pool-" in key for key in worker_counts)

    def test_pending_jobs_gauge_present(self, live_telemetry):
        assert list(map_ordered(_double, [{"x": 21}], workers=2)) == [42]
        gauges = live_telemetry.snapshot()["gauges"]
        # Drained: nothing in flight.
        assert gauges["serve.pool.pending_jobs"] == 0

    def test_health_metrics_are_timing_flagged(self, live_telemetry):
        assert list(map_ordered(_double, [{"x": 1}], workers=2)) == [2]
        det = live_telemetry.snapshot(include_timing=False)
        assert not any(k.startswith("serve.pool.") for k in det["counters"])
        assert not any(k.startswith("serve.pool.") for k in det["gauges"])

    def test_disabled_telemetry_records_nothing(self):
        telemetry.configure(False)
        try:
            assert list(map_ordered(_double, [{"x": 3}], workers=2)) == [6]
            assert not telemetry.registry()
        finally:
            telemetry.configure(None)
