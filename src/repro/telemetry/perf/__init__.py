"""Performance observatory: trace export, percentile aggregation, campaign tail.

This subpackage turns the artifacts a telemetry-enabled run already
produces (span trees, JSONL event shards) into performance tooling:

* :mod:`~repro.telemetry.perf.chrome_trace` — export recorded spans as
  Chrome ``trace_event`` JSON loadable in Perfetto / ``chrome://tracing``
  (``repro telemetry export-trace``);
* :mod:`~repro.telemetry.perf.aggregate` — fold per-trial span trees
  into per-stage wall/self-time p50/p95/p99 with a bit-identical,
  associative merge (``repro telemetry aggregate``);
* :mod:`~repro.telemetry.perf.tail` — live campaign progress from
  worker heartbeats (``repro telemetry tail``).

Everything here post-processes *recorded* timings; rule RB004 bans
fresh wall-clock reads throughout the telemetry package.  The parent
:mod:`repro.telemetry` facade intentionally does **not** import this
subpackage — the pipeline never needs it, only the CLI and benchmarks
do (and they import it lazily).
"""

from .aggregate import PERCENTILES, StageAggregate, format_summary, nearest_rank
from .chrome_trace import (
    TraceSource,
    export_chrome_trace,
    flatten_span_tree,
    load_trace_sources,
    to_chrome_trace,
    validate_chrome_trace,
)
from .tail import ScenarioProgress, collect_progress, format_progress, tail

__all__ = [
    "PERCENTILES",
    "StageAggregate",
    "nearest_rank",
    "format_summary",
    "TraceSource",
    "flatten_span_tree",
    "load_trace_sources",
    "to_chrome_trace",
    "export_chrome_trace",
    "validate_chrome_trace",
    "ScenarioProgress",
    "collect_progress",
    "format_progress",
    "tail",
]
