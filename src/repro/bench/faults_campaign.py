"""Fault-injection campaign: sweep the fault matrix across seeds.

Runs one :class:`~repro.link.session.TransferSession` per
(scenario, seed) pair with the scenario's
:class:`~repro.faults.plan.FaultPlan` attached, and aggregates
per-scenario frame-loss and recovery counters.  Jobs fan across the
process pool of :mod:`repro.bench.parallel`; because every trial
derives all of its randomness from its own ``(scenario, seed)`` pair
and results return in job order, the aggregated counters are
bit-identical whether the campaign runs serially or on N workers —
the acceptance check of the ``faults-campaign`` CLI.

The campaign uses a reduced geometry (a 24 x 44 grid at 8 px on a
300 x 480 sensor) so a full matrix x 8 seeds finishes in about a
minute on one core; the counters measure *relative* degradation per
fault, not absolute paper throughput.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .. import telemetry
from ..channel.link import LinkConfig
from ..core.encoder import FrameCodecConfig
from ..core.layout import FrameLayout
from ..faults import scenario_names, scenario_plan
from ..link.session import TransferSession
from ..telemetry.metrics import MetricsRegistry, merge_snapshots
from ..telemetry.quality import quality_summary
from .parallel import run_trials_parallel

__all__ = [
    "FaultTrialResult",
    "ScenarioSummary",
    "run_fault_trial",
    "run_campaign",
    "summarize",
    "format_table",
    "campaign_to_json",
    "write_campaign_results",
]

#: Reduced campaign geometry (see module docstring).
CAMPAIGN_GRID = (24, 44, 8)  # grid_rows, grid_cols, block_px
CAMPAIGN_SENSOR = (300, 480)  # sensor height, width

#: Trials completed by this process — the heartbeat's progress counter.
_COMPLETED = 0


@dataclass(frozen=True)
class FaultTrialResult:
    """Counters of one faulted transfer session."""

    scenario: str
    seed: int
    delivered: bool
    rounds: int
    frames_total: int
    frames_sent: int
    frames_failed: int
    captures: int
    captures_dropped: int
    #: 1 when the session returned bytes that differ from those sent
    #: (a wrong payload reported as delivered), else 0.
    undetected_errors: int = 0
    drop_reasons: dict = field(default_factory=dict)
    #: Deterministic telemetry snapshot of the trial (no timing metrics),
    #: as produced by :meth:`repro.telemetry.MetricsRegistry.snapshot`.
    metrics: dict = field(default_factory=dict)


@dataclass
class ScenarioSummary:
    """Aggregated counters of every seed of one scenario."""

    scenario: str
    trials: int = 0
    delivered: int = 0
    #: Delivered sessions that needed more than one round (the NACK
    #: path actually recovered lost frames).
    recovered_by_retransmission: int = 0
    rounds: int = 0
    frames_total: int = 0
    frames_sent: int = 0
    frames_failed: int = 0
    captures: int = 0
    captures_dropped: int = 0
    undetected_errors: int = 0
    drop_reasons: dict = field(default_factory=dict)
    #: Merged per-trial telemetry snapshots (fold order = job order, so
    #: the merge is bit-identical across worker counts).
    metrics: dict = field(default_factory=dict)

    @property
    def capture_loss_rate(self) -> float:
        return self.captures_dropped / self.captures if self.captures else 0.0

    @property
    def retransmission_overhead(self) -> float:
        if self.frames_total == 0:
            return 0.0
        return self.frames_sent / self.frames_total - 1.0

    def fold(self, trial: FaultTrialResult) -> None:
        self.trials += 1
        self.delivered += int(trial.delivered)
        self.recovered_by_retransmission += int(trial.delivered and trial.rounds > 1)
        self.rounds += trial.rounds
        self.frames_total += trial.frames_total
        self.frames_sent += trial.frames_sent
        self.frames_failed += trial.frames_failed
        self.captures += trial.captures
        self.captures_dropped += trial.captures_dropped
        self.undetected_errors += trial.undetected_errors
        for stage, count in trial.drop_reasons.items():
            self.drop_reasons[stage] = self.drop_reasons.get(stage, 0) + count
        if trial.metrics:
            self.metrics = merge_snapshots([self.metrics, trial.metrics] if self.metrics
                                           else [trial.metrics])

    @property
    def failure_stages(self) -> dict[str, int]:
        """Failure-stage histogram from the merged telemetry counters.

        Parses ``decode.failures{stage=...}`` out of the merged metrics
        snapshot.  A superset of ``drop_reasons``: the hand-kept dict
        only sees capture-level drops, while the registry also counts
        frame-level ``assemble`` failures (RS/CRC rejects during
        finalization) under the same :data:`DECODE_STAGES` taxonomy.
        On every capture-level stage the two agree — the telemetry
        integration test asserts it.
        """
        return _failure_stages(self.metrics)


def _failure_stages(metrics: dict) -> dict[str, int]:
    """``decode.failures{stage=...}`` histogram of a metrics snapshot."""
    out: dict[str, int] = {}
    prefix = "decode.failures{stage="
    for key, value in metrics.get("counters", {}).items():
        if key.startswith(prefix) and key.endswith("}"):
            out[key[len(prefix):-1]] = int(value)
    return out


def _campaign_config(num_frames: int) -> tuple[FrameCodecConfig, LinkConfig, int]:
    rows, cols, block = CAMPAIGN_GRID
    codec = FrameCodecConfig(layout=FrameLayout(grid_rows=rows, grid_cols=cols, block_px=block))
    link = LinkConfig(sensor_size=CAMPAIGN_SENSOR)
    return codec, link, codec.payload_bytes_per_frame * num_frames


def _trial_payload(scenario: str, seed: int, length: int) -> bytes:
    """Deterministic per-trial payload (independent of numpy state)."""
    tag = zlib.crc32(scenario.encode())
    return bytes((seed * 37 + tag + i * 101) % 256 for i in range(length))


def run_fault_trial(
    scenario: str,
    seed: int,
    num_frames: int = 2,
    max_rounds: int = 3,
) -> FaultTrialResult:
    """Run one faulted transfer session (module-level => picklable).

    Every random draw — channel noise, mobility jitter, fault plan —
    derives from ``(scenario, seed)`` alone, so the result is a pure
    function of the arguments regardless of process or call order.
    """
    codec, link_config, payload_len = _campaign_config(num_frames)
    payload = _trial_payload(scenario, seed, payload_len)
    session = TransferSession(
        codec,
        link_config=link_config,
        rng=np.random.default_rng([seed, zlib.crc32(scenario.encode())]),
        faults=scenario_plan(scenario, seed=seed),
    )
    # Collect this trial's metrics into a private registry, so the
    # deterministic snapshot travels with the (picklable) result no
    # matter which worker process ran it.  Timing metrics are excluded:
    # the snapshot must be a pure function of (scenario, seed).
    # When the process has a live event sink (REPRO_TELEMETRY=1), the
    # trial streams a progress heartbeat into this worker's shard after
    # the trial; the deterministic result below never depends on it.
    process_sink = telemetry.sink()
    registry = MetricsRegistry()
    with telemetry.scoped(registry=registry):
        recovered, stats = session.transmit(payload, max_rounds=max_rounds)
    result = FaultTrialResult(
        scenario=scenario,
        seed=seed,
        delivered=recovered == payload,
        undetected_errors=int(recovered is not None and recovered != payload),
        rounds=stats.rounds,
        frames_total=stats.frames_total,
        frames_sent=stats.frames_sent,
        frames_failed=stats.frames_failed,
        captures=stats.captures,
        captures_dropped=stats.captures_dropped,
        drop_reasons=dict(stats.drop_reasons),
        metrics=registry.snapshot(include_timing=False),
    )
    if process_sink:
        _emit_progress(process_sink, result)
    return result


def _emit_progress(
    sink: "telemetry.EventSink | telemetry.NullEventSink",
    result: FaultTrialResult,
) -> None:
    """Stream one finished trial's progress heartbeat.

    The heartbeat carries the worker-local completion counter and the
    trial's failure-stage histogram for ``repro telemetry tail``.
    """
    global _COMPLETED
    _COMPLETED += 1
    sink.emit(
        "progress",
        scenario=result.scenario,
        seed=result.seed,
        completed=_COMPLETED,
        delivered=int(result.delivered),
        rounds=result.rounds,
        captures=result.captures,
        captures_dropped=result.captures_dropped,
        failure_stages=_failure_stages(result.metrics),
    )


def run_campaign(
    scenarios: list[str] | None = None,
    seeds: int = 8,
    workers: int | None = None,
    num_frames: int = 2,
    max_rounds: int = 3,
    chunksize: int | None = None,
) -> list[FaultTrialResult]:
    """Run the (scenario x seed) matrix; results in job order.

    Jobs fan across the persistent process pool of
    :func:`repro.serve.map_ordered` (via ``run_trials_parallel``), so
    back-to-back campaigns in one process reuse warm workers;
    *chunksize* groups consecutive (scenario, seed) jobs per IPC
    message without changing result order.
    """
    scenarios = list(scenarios) if scenarios else scenario_names()
    jobs = [
        {"scenario": name, "seed": seed, "num_frames": num_frames, "max_rounds": max_rounds}
        for name in scenarios
        for seed in range(seeds)
    ]
    return run_trials_parallel(
        run_fault_trial, jobs, workers=workers, chunksize=chunksize
    )


def summarize(trials: list[FaultTrialResult]) -> list[ScenarioSummary]:
    """Per-scenario aggregation, in first-seen scenario order."""
    summaries: dict[str, ScenarioSummary] = {}
    for trial in trials:
        summaries.setdefault(trial.scenario, ScenarioSummary(trial.scenario)).fold(trial)
    return list(summaries.values())


def format_table(summaries: list[ScenarioSummary]) -> str:
    """Human-readable per-fault loss/recovery table."""
    header = (
        f"{'scenario':<20} {'deliv':>7} {'retx-rec':>8} {'cap-loss':>8} "
        f"{'frm-fail':>8} {'overhead':>8} {'undet':>5}  drop stages"
    )
    lines = [header, "-" * len(header)]
    for s in summaries:
        reasons = ", ".join(f"{k}:{v}" for k, v in sorted(s.drop_reasons.items())) or "-"
        lines.append(
            f"{s.scenario:<20} {s.delivered:>3}/{s.trials:<3} "
            f"{s.recovered_by_retransmission:>8} {s.capture_loss_rate:>7.1%} "
            f"{s.frames_failed:>8} {s.retransmission_overhead:>7.1%} "
            f"{s.undetected_errors:>5}  {reasons}"
        )
    return "\n".join(lines)


def campaign_to_json(trials: list[FaultTrialResult], summaries: list[ScenarioSummary]) -> str:
    """Canonical JSON of all counters (byte-identical across runs)."""
    doc = {
        "summaries": [
            {
                "scenario": s.scenario,
                "trials": s.trials,
                "delivered": s.delivered,
                "recovered_by_retransmission": s.recovered_by_retransmission,
                "rounds": s.rounds,
                "frames_total": s.frames_total,
                "frames_sent": s.frames_sent,
                "frames_failed": s.frames_failed,
                "captures": s.captures,
                "captures_dropped": s.captures_dropped,
                "undetected_errors": s.undetected_errors,
                "drop_reasons": dict(sorted(s.drop_reasons.items())),
                "failure_stages": dict(sorted(s.failure_stages.items())),
                "quality": quality_summary(s.metrics),
                "metrics": s.metrics,
            }
            for s in summaries
        ],
        "trials": [
            {
                "scenario": t.scenario,
                "seed": t.seed,
                "delivered": t.delivered,
                "rounds": t.rounds,
                "frames_sent": t.frames_sent,
                "frames_failed": t.frames_failed,
                "captures": t.captures,
                "captures_dropped": t.captures_dropped,
                "undetected_errors": t.undetected_errors,
                "drop_reasons": dict(sorted(t.drop_reasons.items())),
            }
            for t in trials
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def write_campaign_results(
    out_dir: str | Path,
    trials: list[FaultTrialResult],
    summaries: list[ScenarioSummary],
    stem: str = "F1_fault_campaign",
) -> tuple[Path, Path]:
    """Write the table (.txt) and counters (.json) under *out_dir*."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    txt = out / f"{stem}.txt"
    js = out / f"{stem}.json"
    txt.write_text(format_table(summaries) + "\n")
    js.write_text(campaign_to_json(trials, summaries) + "\n")
    return txt, js
