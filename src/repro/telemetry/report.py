"""Render telemetry artifacts into tables and breakdowns.

Consumes the artifacts a telemetry-enabled run leaves under its output
directory — ``metrics.json`` and the ``events-*.jsonl`` shards — and
renders:

* a decode failure-stage breakdown (from the
  ``decode.failures{stage=...}`` counter family);
* pool health (the jobs-in-flight gauge plus per-worker completion
  counters from the ``serve.pool.*`` family);
* event counts by type.

``build_report`` returns a plain dict; ``format_report`` renders the
human table; ``check_report`` is the CI assertion entry point behind
``repro telemetry report --check`` (schema-validates every event line
and the metrics document).  Per-stage timing is not here: it comes from
perfbench's probes (``perfbench/run.py --trace 1``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .events import merge_shards, validate_events_file

__all__ = ["build_report", "format_report", "check_report", "write_report"]


def _load_json(path: Path) -> dict[str, Any]:
    if not path.exists():
        return {}
    return json.loads(path.read_text())


def build_report(telemetry_dir: str | Path) -> dict[str, Any]:
    """Aggregate the artifacts under *telemetry_dir* into one report."""
    telemetry_dir = Path(telemetry_dir)
    metrics = _load_json(telemetry_dir / "metrics.json")
    events = merge_shards(telemetry_dir)

    # Lazy import: telemetry is a substrate layer below core in the
    # declared import DAG (RB006); the decoder's stage list is only
    # needed at report-render time, never at import time.
    from ..core.decoder import DECODE_STAGES

    counters = metrics.get("counters", {})
    failure_stages = {stage: 0 for stage in DECODE_STAGES}
    for key, value in counters.items():
        if key.startswith("decode.failures{stage="):
            failure_stages[key[len("decode.failures{stage="):-1]] = value
    failure_stages = {k: v for k, v in failure_stages.items() if v}

    event_counts: dict[str, int] = {}
    for obj in events:
        name = obj.get("event", "?")
        event_counts[name] = event_counts.get(name, 0) + 1

    gauges = metrics.get("gauges", {})
    worker_prefix = "serve.pool.jobs_completed{worker="
    pool = {
        "gauges": {k: v for k, v in sorted(gauges.items()) if k.startswith("serve.pool.")},
        "jobs_submitted": counters.get("serve.pool.jobs_submitted", 0),
        "workers": {
            key[len(worker_prefix):-1]: value
            for key, value in sorted(counters.items())
            if key.startswith(worker_prefix)
        },
    }

    return {
        "telemetry_dir": str(telemetry_dir),
        "failure_stages": failure_stages,
        "counters": counters,
        "gauges": gauges,
        "histograms": metrics.get("histograms", {}),
        "pool": pool,
        "event_counts": dict(sorted(event_counts.items())),
        "events_total": len(events),
    }


def format_report(report: dict[str, Any]) -> str:
    """Human-readable rendering of :func:`build_report`'s output."""
    lines = [f"telemetry report — {report['telemetry_dir']}", ""]
    failures = report["failure_stages"]
    if failures:
        lines.append("decode failures by stage")
        for stage, count in failures.items():
            lines.append(f"  {stage:<12} {count}")
    else:
        lines.append("decode failures by stage: none recorded")

    lines.append("")
    pool = report.get("pool") or {}
    if pool.get("gauges") or pool.get("workers"):
        lines.append("pool health")
        for key, value in pool.get("gauges", {}).items():
            lines.append(f"  {key[len('serve.pool.'):]:<20} {value}")
        if pool.get("jobs_submitted"):
            lines.append(f"  {'jobs submitted':<20} {pool['jobs_submitted']}")
        for worker, count in pool.get("workers", {}).items():
            lines.append(f"  {worker:<20} {count} job(s) completed")
        lines.append("")
    if report["event_counts"]:
        lines.append(f"events ({report['events_total']} total)")
        for name, count in report["event_counts"].items():
            lines.append(f"  {name:<16} {count}")
    else:
        lines.append("events: none recorded")
    return "\n".join(lines) + "\n"


def check_report(telemetry_dir: str | Path) -> list[str]:
    """CI assertion: schema-validate the artifacts; returns problems.

    Demands that the directory holds at least one artifact, that every
    event line passes :func:`~repro.telemetry.events.validate_event`,
    and that any metrics document present has all three sections.
    """
    telemetry_dir = Path(telemetry_dir)
    problems: list[str] = []
    shards = sorted(telemetry_dir.glob("events-*.jsonl"))
    metrics_path = telemetry_dir / "metrics.json"
    if not shards and not metrics_path.exists():
        return [f"{telemetry_dir}: no telemetry artifacts (no events-*.jsonl, no metrics.json)"]

    for shard in shards:
        problems.extend(validate_events_file(shard))
        with open(shard, encoding="utf-8") as fh:
            first = fh.readline().strip()
        if first:
            head = json.loads(first) if not problems else {}
            if head and head.get("event") != "run":
                problems.append(f"{shard}: first event is {head.get('event')!r}, not 'run'")

    if metrics_path.exists():
        try:
            metrics = json.loads(metrics_path.read_text())
        except json.JSONDecodeError as exc:
            problems.append(f"{metrics_path}: not valid JSON ({exc.msg})")
        else:
            for section in ("counters", "gauges", "histograms"):
                if section not in metrics:
                    problems.append(f"{metrics_path}: missing {section!r} section")
    return problems


def write_report(
    report: dict[str, Any], out_dir: str | Path, stem: str = "T1_telemetry_report"
) -> tuple[Path, Path]:
    """Write the text and JSON renderings under *out_dir*."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    txt = out / f"{stem}.txt"
    js = out / f"{stem}.json"
    txt.write_text(format_report(report))
    js.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return txt, js
