"""Unified telemetry: metrics and structured events.

One facade over two collectors, threaded through the whole
encode -> channel -> decode -> link pipeline:

* :mod:`~repro.telemetry.metrics` — counters / gauges / fixed-bucket
  histograms whose snapshots merge bit-identically across worker
  processes;
* :mod:`~repro.telemetry.events` — a JSONL event log with per-run
  metadata and per-process shard files.

Telemetry is **off by default** and zero-cost when off: every accessor
returns a shared no-op collector.  Enable it with the environment
toggle ``REPRO_TELEMETRY=1`` (artifacts land under
``$REPRO_TELEMETRY_DIR``, default ``telemetry/``), programmatically
with :func:`configure`, or for one block with :func:`scoped`::

    from repro import telemetry
    from repro.telemetry import MetricsRegistry

    with telemetry.scoped(registry=MetricsRegistry()) as ctx:
        extraction = decoder.extract(capture)    # instrumented internally
    print(extraction.diagnostics.stage_ms)       # per-stage milliseconds
    print(ctx.registry.snapshot(include_timing=False))

Per-stage timing of a whole run comes from perfbench's probes
(``python3 perfbench/run.py --workload transfer --seed 1 --seconds 5
--trace 1``), not from these collectors.

Worker processes each bootstrap their own context (the per-process
event shard naming is what makes concurrent JSONL writes safe); the
``repro telemetry report`` CLI merges shards and renders the tables.
"""

from __future__ import annotations

import json
import os
from contextvars import ContextVar, Token
from pathlib import Path
from typing import Any

from .events import (
    EVENT_SCHEMA,
    NULL_SINK,
    EventSink,
    NullEventSink,
    merge_shards,
    run_metadata,
    shard_path,
    validate_event,
    validate_events_file,
)
from .metrics import (
    DECODE_LATENCY_BUCKETS_MS,
    MARGIN_BUCKETS,
    NULL_REGISTRY,
    TRACKING_DT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    merge_snapshots,
)

__all__ = [
    "ENV_TOGGLE",
    "ENV_DIR",
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
    "EventSink",
    "NullEventSink",
    "NULL_SINK",
    "EVENT_SCHEMA",
    "run_metadata",
    "shard_path",
    "merge_shards",
    "validate_event",
    "validate_events_file",
    "TelemetryContext",
    "enabled",
    "env_enabled",
    "output_dir",
    "configure",
    "scoped",
    "registry",
    "sink",
    "emit",
    "flush",
]

#: Environment toggle: set to 1/true/yes/on to enable telemetry.
ENV_TOGGLE = "REPRO_TELEMETRY"
#: Where the enabled-by-environment run writes its artifacts.
ENV_DIR = "REPRO_TELEMETRY_DIR"
DEFAULT_DIR = "telemetry"

_TRUTHY = {"1", "true", "yes", "on"}


class TelemetryContext:
    """The two collectors active for the current context."""

    __slots__ = ("registry", "sink")

    def __init__(
        self,
        registry: MetricsRegistry | NullRegistry,
        sink: EventSink | NullEventSink,
    ):
        self.registry = registry
        self.sink = sink

    @property
    def enabled(self) -> bool:
        return bool(self.registry) or bool(self.sink)


_DISABLED = TelemetryContext(NULL_REGISTRY, NULL_SINK)

#: Explicitly scoped context (``scoped(...)``); None falls through to
#: the process default.
_scoped: ContextVar[TelemetryContext | None] = ContextVar("repro_telemetry", default=None)

#: Lazily bootstrapped process default, keyed by PID so a forked worker
#: re-bootstraps with its own event shard instead of inheriting the
#: parent's open file descriptor.
_process_default: TelemetryContext | None = None
_process_pid: int | None = None
_forced: bool | None = None  # configure() override of the env toggle


def env_enabled() -> bool:
    """Whether ``REPRO_TELEMETRY`` asks for telemetry."""
    return os.environ.get(ENV_TOGGLE, "").strip().lower() in _TRUTHY


def output_dir() -> Path:
    """Artifact directory for environment-enabled runs."""
    return Path(os.environ.get(ENV_DIR, "").strip() or DEFAULT_DIR)


def _bootstrap() -> TelemetryContext:
    if _forced is False or (_forced is None and not env_enabled()):
        return _DISABLED
    out = output_dir()
    return TelemetryContext(
        MetricsRegistry(),
        EventSink(shard_path(out), meta=run_metadata()),
    )


def _current() -> TelemetryContext:
    ctx = _scoped.get()
    if ctx is not None:
        return ctx
    global _process_default, _process_pid
    pid = os.getpid()
    if _process_default is None or _process_pid != pid:
        _process_default = _bootstrap()
        _process_pid = pid
    return _process_default


def configure(enabled: bool | None) -> None:
    """Force telemetry on/off for this process (None re-reads the env).

    Discards the current process-default collectors; the next telemetry
    call bootstraps fresh ones.
    """
    global _forced, _process_default
    _forced = enabled
    if _process_default is not None and _process_default.sink:
        _process_default.sink.close()
    _process_default = None


def enabled() -> bool:
    """Whether any collector is live in the current context."""
    return _current().enabled


class _Scope:
    def __init__(self, ctx: TelemetryContext):
        self._ctx = ctx
        self._token: Token[TelemetryContext | None] | None = None

    def __enter__(self) -> TelemetryContext:
        self._token = _scoped.set(self._ctx)
        return self._ctx

    def __exit__(self, *exc: object) -> bool:
        if self._token is not None:
            _scoped.reset(self._token)
        return False


def scoped(
    registry: MetricsRegistry | None = None,
    sink: EventSink | None = None,
) -> _Scope:
    """Context manager installing collectors for the enclosed block.

    Components left as None stay disabled inside the scope (the scope
    replaces the whole context, it does not layer over the process
    default) — so ``scoped(registry=reg)`` collects metrics without
    event output, which is what deterministic aggregation across
    worker processes wants.
    """
    return _Scope(TelemetryContext(registry or NULL_REGISTRY, sink or NULL_SINK))


def registry() -> MetricsRegistry | NullRegistry:
    """The current metrics registry (falsy no-op when disabled)."""
    return _current().registry


def sink() -> EventSink | NullEventSink:
    """The current event sink (falsy no-op when disabled)."""
    return _current().sink


def emit(event: str, **fields: Any) -> dict[str, Any]:
    """Emit a structured event on the current sink (no-op when disabled)."""
    return _current().sink.emit(event, **fields)


def flush(out_dir: str | Path | None = None) -> dict[str, Path]:
    """Write the current context's metrics to *out_dir*.

    Writes ``metrics.json`` (events stream to their shard as they are
    emitted).  Returns ``{"metrics": path}``, or an empty dict when
    telemetry is disabled.  Only the
    calling process's collectors are written; worker processes that need
    their metrics aggregated return registry snapshots instead (see
    :func:`~repro.telemetry.metrics.merge_snapshots`).
    """
    ctx = _current()
    if not ctx.enabled:
        return {}
    out = Path(out_dir) if out_dir is not None else output_dir()
    out.mkdir(parents=True, exist_ok=True)
    metrics_path = out / "metrics.json"
    metrics_path.write_text(
        json.dumps(ctx.registry.snapshot(), indent=2, sort_keys=True) + "\n"
    )
    if ctx.sink:
        ctx.sink.close()
    return {"metrics": metrics_path}
