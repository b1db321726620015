"""Pool-health telemetry: the queue gauge and per-worker counters.

All pool-health metrics are timing-flagged: they describe *this* run's
scheduling (which worker got which job, how deep the queue was), so
they must ride in the full snapshot but stay out of the deterministic
``include_timing=False`` view that the bit-identity contract covers.
"""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.serve import WorkerPool


def _double(x):
    return 2 * x


@pytest.fixture
def live_telemetry(tmp_path, monkeypatch):
    monkeypatch.setenv(telemetry.ENV_DIR, str(tmp_path))
    telemetry.configure(True)
    yield telemetry.registry()
    telemetry.configure(None)


class TestPoolHealth:
    def test_submission_and_completion_counters(self, live_telemetry):
        with WorkerPool(2) as pool:
            futures = [pool.submit(_double, x=i) for i in range(6)]
            assert [f.result(30) for f in futures] == [2 * i for i in range(6)]
            pool.join(30)
        snap = live_telemetry.snapshot()
        assert snap["counters"]["serve.pool.jobs_submitted"] == 6
        worker_counts = {
            key: value
            for key, value in snap["counters"].items()
            if key.startswith("serve.pool.jobs_completed{worker=")
        }
        assert sum(worker_counts.values()) == 6
        # Worker identity comes from the spawned process names.
        assert all("repro-pool-" in key for key in worker_counts)

    def test_pending_jobs_gauge_present(self, live_telemetry):
        with WorkerPool(2) as pool:
            future = pool.submit(_double, x=21)
            assert future.result(30) == 42
            pool.join(30)
        gauges = live_telemetry.snapshot()["gauges"]
        # Drained pool: nothing pending.
        assert gauges["serve.pool.pending_jobs"] == 0

    def test_health_metrics_are_timing_flagged(self, live_telemetry):
        with WorkerPool(2) as pool:
            pool.submit(_double, x=1).result(30)
            pool.join(30)
        det = live_telemetry.snapshot(include_timing=False)
        assert not any(k.startswith("serve.pool.") for k in det["counters"])
        assert not any(k.startswith("serve.pool.") for k in det["gauges"])

    def test_disabled_telemetry_records_nothing(self):
        telemetry.configure(False)
        try:
            with WorkerPool(2) as pool:
                assert pool.submit(_double, x=3).result(30) == 6
            assert not telemetry.registry()
        finally:
            telemetry.configure(None)
