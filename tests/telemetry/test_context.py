"""Telemetry facade: toggles, scoping, and artifact flushing."""

import json

import pytest

from repro import telemetry
from repro.telemetry import EventSink, MetricsRegistry
from repro.telemetry.events import NULL_SINK
from repro.telemetry.metrics import NULL_REGISTRY


@pytest.fixture(autouse=True)
def _reset_telemetry(monkeypatch):
    """Each test starts disabled and leaves no process default behind."""
    monkeypatch.delenv(telemetry.ENV_TOGGLE, raising=False)
    monkeypatch.delenv(telemetry.ENV_DIR, raising=False)
    telemetry.configure(None)
    yield
    telemetry.configure(None)


class TestDisabledDefault:
    def test_disabled_accessors_are_shared_noops(self):
        assert not telemetry.enabled()
        assert telemetry.registry() is NULL_REGISTRY
        assert telemetry.sink() is NULL_SINK
        assert not telemetry.sink()
        assert telemetry.emit("frame", sequence=0, ok=True) == {}
        assert telemetry.flush() == {}

    def test_env_toggle_truthy_values(self, monkeypatch):
        for value in ("1", "true", "YES", " on "):
            monkeypatch.setenv(telemetry.ENV_TOGGLE, value)
            assert telemetry.env_enabled()
        for value in ("", "0", "off", "nope"):
            monkeypatch.setenv(telemetry.ENV_TOGGLE, value)
            assert not telemetry.env_enabled()


class TestScoped:
    def test_scoped_installs_and_restores(self):
        registry = MetricsRegistry()
        with telemetry.scoped(registry=registry) as ctx:
            assert telemetry.enabled()
            assert telemetry.registry() is registry
            assert ctx.registry is registry
            telemetry.registry().counter("inside").inc()
        assert not telemetry.enabled()
        assert telemetry.registry() is NULL_REGISTRY
        assert registry.counter("inside").value == 1

    def test_scope_replaces_whole_context(self, monkeypatch, tmp_path):
        # Even with the env toggle on, a registry-only scope must not
        # emit events: deterministic aggregation wants metrics alone.
        monkeypatch.setenv(telemetry.ENV_TOGGLE, "1")
        monkeypatch.setenv(telemetry.ENV_DIR, str(tmp_path))
        telemetry.configure(None)
        registry = MetricsRegistry()
        with telemetry.scoped(registry=registry):
            assert telemetry.registry() is registry
            assert not telemetry.sink()

    def test_nested_scopes_unwind_in_order(self):
        outer, inner = MetricsRegistry(), MetricsRegistry()
        with telemetry.scoped(registry=outer):
            with telemetry.scoped(registry=inner):
                telemetry.registry().counter("c").inc()
            telemetry.registry().counter("c").inc(10)
        assert inner.counter("c").value == 1
        assert outer.counter("c").value == 10


class TestEnvBootstrapAndFlush:
    def test_env_enabled_run_writes_artifacts(self, monkeypatch, tmp_path):
        monkeypatch.setenv(telemetry.ENV_TOGGLE, "1")
        monkeypatch.setenv(telemetry.ENV_DIR, str(tmp_path))
        telemetry.configure(None)
        assert telemetry.enabled()
        telemetry.registry().counter("decode.captures_ok").inc()
        telemetry.emit("session_start", frames=1, payload_bytes=3)

        paths = telemetry.flush()
        assert set(paths) == {"metrics"}
        assert not (tmp_path / "trace.json").exists()
        metrics = json.loads(paths["metrics"].read_text())
        assert metrics["counters"]["decode.captures_ok"] == 1
        shards = list(tmp_path.glob("events-*.jsonl"))
        assert len(shards) == 1
        first = json.loads(shards[0].read_text().splitlines()[0])
        assert first["event"] == "run"
        assert "git_rev" in first["meta"]

    def test_configure_true_overrides_env_off(self, monkeypatch, tmp_path):
        monkeypatch.setenv(telemetry.ENV_DIR, str(tmp_path))
        telemetry.configure(True)
        assert telemetry.enabled()
        telemetry.configure(False)
        assert not telemetry.enabled()

    def test_flush_to_explicit_directory(self, tmp_path):
        sink = EventSink()
        with telemetry.scoped(registry=MetricsRegistry(), sink=sink):
            paths = telemetry.flush(tmp_path)
        assert paths["metrics"].parent == tmp_path
        assert paths["metrics"].exists()
