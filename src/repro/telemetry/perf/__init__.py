"""Performance observatory: campaign tail and nearest-rank percentiles.

* :mod:`~repro.telemetry.perf.tail` — live campaign progress from
  worker heartbeats (``repro telemetry tail``);
* :mod:`~repro.telemetry.perf.aggregate` — the nearest-rank percentile
  rule perfbench's per-layer latencies use.

Per-stage timing is perfbench's job: ``perfbench/run.py --trace 1``
reports every layer, and ``repro perf check`` gates it against
``budgets.toml``.  Everything here post-processes *recorded* data;
rule RB004 bans fresh wall-clock reads throughout the telemetry
package.  The parent :mod:`repro.telemetry` facade intentionally does
**not** import this subpackage — the pipeline never needs it, only the
CLI and benchmarks do (and they import it lazily).
"""

from .aggregate import nearest_rank
from .tail import ScenarioProgress, collect_progress, format_progress, tail

__all__ = [
    "nearest_rank",
    "ScenarioProgress",
    "collect_progress",
    "format_progress",
    "tail",
]
