"""Channel-quality observatory: link-health indicators and their summary.

This module is the read/write vocabulary for every channel-quality
indicator the pipeline records:

* **RS correction margin** — per-codeword correction accounting from the
  :class:`~repro.coding.reed_solomon.RSDecodeStats` side-channel: how
  much of the ``2e + s <= n - k`` parity budget each block consumed;
* **color confusion matrix** — ground truth comes from re-encoding a
  CRC-verified frame (so only frames the channel actually delivered are
  measured; undecodable frames show up in the failure rates instead);
* **geometry/sync confidence** — locator residual refinement, corner
  purity and reassembly row coverage;
* **CRC failure rate and goodput timeline** — per-round payload
  throughput over *simulated* display time (never wall clock, rule
  RB004), also streamed per round as a ``quality`` event.

Everything is recorded into the ordinary :class:`MetricsRegistry`
(counters + fixed-bucket histograms), so quality snapshots inherit the
registry's merge discipline: folded per capture, in capture order, the
result is bit-identical no matter how many worker processes decoded.

The read side turns a metrics snapshot into a :func:`quality_summary`,
renders it (`repro quality report`), and `repro quality report
--check` gates it against the ``[quality.*]`` tables of
``budgets.toml`` through :mod:`repro.telemetry.budgets`.
:class:`QualityFeedback` condenses the summary into the
channel-pressure signal :class:`~repro.link.adaptive.AdaptiveConfigurator`
consumes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from .metrics import MARGIN_BUCKETS

__all__ = [
    "SYMBOL_COLORS",
    "ERASED_LABEL",
    "GOODPUT_BUCKETS_KBPS",
    "record_rs_stats",
    "record_confusion",
    "record_capture_quality",
    "record_sync_coverage",
    "record_round_goodput",
    "confusion_matrix",
    "quality_summary",
    "build_quality_report",
    "format_quality_report",
    "write_quality_report",
    "QualityFeedback",
]

#: Data-symbol color names in symbol-value order (must match
#: :data:`repro.core.palette.DATA_COLORS`; pinned by a unit test so the
#: two modules cannot drift without failing CI).
SYMBOL_COLORS = ("white", "red", "green", "blue")
#: Confusion-matrix column for observed symbols outside 0..3 (erasures).
ERASED_LABEL = "erased"

#: Per-round effective goodput histogram edges in kilobits per second.
GOODPUT_BUCKETS_KBPS = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0)


# -- recording --------------------------------------------------------------
# All record_* helpers take the registry explicitly so callers keep the
# "if registry:" zero-cost-when-disabled idiom and scoped-registry folds.


def record_rs_stats(registry: Any, stats: Any) -> None:
    """Fold one frame's RS correction accounting into *registry*.

    *stats* is an :class:`~repro.coding.reed_solomon.RSDecodeStats`
    (typed as Any to keep this module import-light).  Per successfully
    decoded codeword: corrected-symbol/erasure/parity counters plus the
    remaining-margin histogram.  Failed codewords only bump the failure
    counter — a margin of a failed attempt is not a margin.
    """
    margin_hist = registry.histogram("quality.rs_margin", MARGIN_BUCKETS)
    for cw in stats.codewords:
        if cw.failed:
            registry.counter("quality.rs_failed_codewords").inc()
            continue
        registry.counter("quality.rs_codewords").inc()
        registry.counter("quality.rs_corrected_symbols").inc(cw.errors)
        registry.counter("quality.rs_erasures").inc(cw.erasures)
        registry.counter("quality.rs_parity_capacity").inc(cw.parity)
        registry.counter("quality.rs_budget_used").inc(cw.budget_used)
        margin_hist.observe(cw.margin)


def record_confusion(
    registry: Any,
    sent_symbols: Sequence[int] | np.ndarray,
    read_symbols: Sequence[int] | np.ndarray,
) -> None:
    """Fold sent-vs-read symbol pairs into the color confusion matrix.

    *sent_symbols* are ground-truth values 0..3 (from re-encoding a
    CRC-verified frame); *read_symbols* are the pre-correction observed
    values, where anything outside 0..3 counts as an erasure column.
    """
    sent = np.asarray(sent_symbols, dtype=np.int64).ravel()
    read = np.asarray(read_symbols, dtype=np.int64).ravel()
    if sent.size != read.size:
        raise ValueError("sent/read symbol streams differ in length")
    if sent.size == 0:
        return
    columns = len(SYMBOL_COLORS) + 1  # + erased
    read_col = np.where((read < 0) | (read >= len(SYMBOL_COLORS)), columns - 1, read)
    names = SYMBOL_COLORS + (ERASED_LABEL,)
    pairs, counts = np.unique(sent * columns + read_col, return_counts=True)
    for pair, n in zip(pairs, counts):
        s, r = divmod(int(pair), columns)
        registry.counter("quality.confusion", read=names[r], sent=names[s]).inc(int(n))
    registry.counter("quality.symbols_total").inc(int(sent.size))
    registry.counter("quality.symbol_errors").inc(int(np.sum(sent != read_col)))


def record_capture_quality(
    registry: Any, *, locator_refinement: float, corner_purity: float
) -> None:
    """Geometry confidence of one successfully extracted capture."""
    registry.histogram("quality.locator_refinement", MARGIN_BUCKETS).observe(
        float(locator_refinement)
    )
    registry.histogram("quality.corner_purity", MARGIN_BUCKETS).observe(
        float(corner_purity)
    )


def record_sync_coverage(registry: Any, coverage: float) -> None:
    """Row coverage of one finalized (or abandoned) reassembly frame."""
    registry.histogram("quality.sync_coverage", MARGIN_BUCKETS).observe(float(coverage))


def record_round_goodput(
    registry: Any, *, payload_bytes: int, display_s: float, crc_failures: int
) -> float:
    """Fold one link round's delivery outcome; returns the round's kbps.

    *display_s* is simulated display time (the frame schedule's
    duration), so the goodput timeline is deterministic and RB004-clean.
    """
    kbps = 0.0
    if display_s > 0:
        kbps = 8.0 * payload_bytes / display_s / 1000.0
    registry.counter("quality.round_payload_bytes").inc(int(payload_bytes))
    registry.counter("quality.crc_failures").inc(int(crc_failures))
    registry.histogram("quality.round_goodput_kbps", GOODPUT_BUCKETS_KBPS).observe(kbps)
    return kbps


# -- summary ----------------------------------------------------------------


def _parse_labels(key: str, name: str) -> dict[str, str] | None:
    """Labels of a flattened metric key, or None when *key* isn't *name*."""
    prefix = f"{name}{{"
    if not (key.startswith(prefix) and key.endswith("}")):
        return None
    out: dict[str, str] = {}
    for part in key[len(prefix) : -1].split(","):
        label, _, value = part.partition("=")
        out[label] = value
    return out


def confusion_matrix(snapshot: Mapping[str, Any]) -> dict[str, dict[str, int]]:
    """Nested ``{sent: {read: count}}`` matrix from a metrics snapshot.

    Only cells that were observed appear; an empty dict means no
    CRC-verified frame contributed ground truth.
    """
    matrix: dict[str, dict[str, int]] = {}
    for key, value in snapshot.get("counters", {}).items():
        labels = _parse_labels(key, "quality.confusion")
        if labels is None:
            continue
        sent = labels.get("sent", "?")
        read = labels.get("read", "?")
        matrix.setdefault(sent, {})[read] = int(value)
    return matrix


def _hist_mean(histograms: Mapping[str, Any], key: str) -> float | None:
    doc = histograms.get(key)
    if not doc or not doc.get("count"):
        return None
    return float(doc["sum"]) / int(doc["count"])


def _rate(numerator: int, denominator: int) -> float | None:
    if denominator <= 0:
        return None
    return numerator / denominator


def quality_summary(snapshot: Mapping[str, Any]) -> dict[str, Any]:
    """Fold a metrics snapshot into the flat channel-quality summary.

    Every value is derived from counters/histograms, so summaries of
    bit-identical snapshots are bit-identical.  Indicators whose inputs
    were never recorded are ``None`` — the gate treats a budgeted-but-
    absent metric as a failure rather than silently passing.
    """
    counters = snapshot.get("counters", {})
    histograms = snapshot.get("histograms", {})

    def c(name: str) -> int:
        return int(counters.get(name, 0))

    frames_ok = c("decode.frames{ok=true}")
    frames_failed = c("decode.frames{ok=false}")
    captures_ok = c("decode.captures_ok")
    captures_failed = sum(
        int(value)
        for key, value in counters.items()
        if _parse_labels(key, "decode.failures") is not None
    )
    rs_capacity = c("quality.rs_parity_capacity")

    return {
        "captures_ok": captures_ok,
        "captures_failed": captures_failed,
        "capture_failure_rate": _rate(captures_failed, captures_ok + captures_failed),
        "frames_ok": frames_ok,
        "frames_failed": frames_failed,
        "frame_failure_rate": _rate(frames_failed, frames_ok + frames_failed),
        "rs_codewords": c("quality.rs_codewords"),
        "rs_failed_codewords": c("quality.rs_failed_codewords"),
        "rs_corrected_symbols": c("quality.rs_corrected_symbols"),
        "rs_erasures": c("quality.rs_erasures"),
        "rs_erasure_fallbacks": c("quality.rs_erasure_fallbacks"),
        "rs_margin_mean": _hist_mean(histograms, "quality.rs_margin"),
        "rs_budget_utilization": _rate(c("quality.rs_budget_used"), rs_capacity),
        "symbols_total": c("quality.symbols_total"),
        "symbol_errors": c("quality.symbol_errors"),
        "symbol_error_rate": _rate(c("quality.symbol_errors"), c("quality.symbols_total")),
        "confusion": confusion_matrix(snapshot),
        "classify_margin_mean": _hist_mean(histograms, "classify.margin"),
        "locator_refinement_mean": _hist_mean(histograms, "quality.locator_refinement"),
        "corner_purity_mean": _hist_mean(histograms, "quality.corner_purity"),
        "sync_coverage_mean": _hist_mean(histograms, "quality.sync_coverage"),
        "rounds": c("link.rounds"),
        "crc_failures": c("quality.crc_failures"),
        "round_payload_bytes": c("quality.round_payload_bytes"),
        "goodput_kbps_mean": _hist_mean(histograms, "quality.round_goodput_kbps"),
    }


# -- report -----------------------------------------------------------------


def build_quality_report(telemetry_dir: str | Path) -> dict[str, Any]:
    """Quality report document from a telemetry artifact directory.

    Reads ``metrics.json`` (written by ``telemetry.flush``); raises
    :exc:`FileNotFoundError` / :exc:`ValueError` on missing or malformed
    input so the CLI can map them onto usage-error exit 2.
    """
    directory = Path(telemetry_dir)
    metrics_path = directory / "metrics.json"
    if not metrics_path.is_file():
        raise FileNotFoundError(f"{metrics_path}: no metrics snapshot (enable telemetry)")
    snapshot = json.loads(metrics_path.read_text())
    if not isinstance(snapshot, dict):
        raise ValueError(f"{metrics_path}: metrics snapshot is not a JSON object")
    return {
        "telemetry_dir": str(directory),
        "summary": quality_summary(snapshot),
    }


def _fmt(value: Any, digits: int = 4) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.{digits}f}"
    return str(value)


def format_quality_report(report: Mapping[str, Any]) -> str:
    """Human-readable channel-quality report."""
    summary = report["summary"]
    lines = [f"channel quality — {report.get('telemetry_dir', '?')}", ""]

    lines.append("link health")
    for label, key in (
        ("captures ok", "captures_ok"),
        ("captures failed", "captures_failed"),
        ("capture failure rate", "capture_failure_rate"),
        ("frames ok (CRC)", "frames_ok"),
        ("frames failed (CRC)", "frames_failed"),
        ("CRC frame failure rate", "frame_failure_rate"),
        ("link rounds", "rounds"),
        ("goodput mean (kbps)", "goodput_kbps_mean"),
    ):
        lines.append(f"  {label:<24} {_fmt(summary.get(key))}")

    lines.append("")
    lines.append("RS correction")
    for label, key in (
        ("codewords decoded", "rs_codewords"),
        ("codewords failed", "rs_failed_codewords"),
        ("symbols corrected", "rs_corrected_symbols"),
        ("erasures consumed", "rs_erasures"),
        ("erasure fallbacks", "rs_erasure_fallbacks"),
        ("margin mean", "rs_margin_mean"),
        ("parity budget used", "rs_budget_utilization"),
    ):
        lines.append(f"  {label:<24} {_fmt(summary.get(key))}")

    lines.append("")
    lines.append("classification")
    for label, key in (
        ("symbols measured", "symbols_total"),
        ("symbol errors", "symbol_errors"),
        ("symbol error rate", "symbol_error_rate"),
        ("classify margin mean", "classify_margin_mean"),
        ("locator refinement mean", "locator_refinement_mean"),
        ("corner purity mean", "corner_purity_mean"),
        ("sync coverage mean", "sync_coverage_mean"),
    ):
        lines.append(f"  {label:<24} {_fmt(summary.get(key))}")

    matrix = summary.get("confusion") or {}
    lines.append("")
    if not matrix:
        lines.append("confusion matrix: (no CRC-verified frames measured)")
    else:
        columns = list(SYMBOL_COLORS) + [ERASED_LABEL]
        corner = "sent \\ read"
        header = "  " + f"{corner:<12}" + "".join(f"{c:>9}" for c in columns)
        lines.append("confusion matrix (symbols)")
        lines.append(header)
        for sent in SYMBOL_COLORS:
            row = matrix.get(sent, {})
            cells = "".join(f"{row.get(c, 0):>9}" for c in columns)
            lines.append(f"  {sent:<12}{cells}")
    return "\n".join(lines)


def write_quality_report(
    report: Mapping[str, Any],
    out_dir: str | Path,
    stem: str = "Q1_quality_report",
) -> tuple[Path, Path]:
    """Write text + JSON renderings; returns ``(txt_path, json_path)``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    txt_path = out / f"{stem}.txt"
    txt_path.write_text(format_quality_report(report) + "\n")
    json_path = out / f"{stem}.json"
    json_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return txt_path, json_path


# -- adaptive feedback ------------------------------------------------------


@dataclass(frozen=True)
class QualityFeedback:
    """Channel feedback condensed for the adaptive configurator.

    ``pressure()`` maps the observed channel health onto [0, 1]: 0 means
    a comfortable channel (full RS margin, no symbol/CRC losses), 1
    means the receiver is at the edge of its correction budget and the
    sender should move to a coarser, more robust block size — the same
    direction motion pushes in.
    """

    rs_margin_mean: float | None = None
    symbol_error_rate: float | None = None
    frame_failure_rate: float | None = None

    @classmethod
    def from_summary(cls, summary: Mapping[str, Any]) -> "QualityFeedback":
        def pick(key: str) -> float | None:
            value = summary.get(key)
            return float(value) if value is not None else None

        return cls(
            rs_margin_mean=pick("rs_margin_mean"),
            symbol_error_rate=pick("symbol_error_rate"),
            frame_failure_rate=pick("frame_failure_rate"),
        )

    def pressure(self) -> float:
        """Channel pressure in [0, 1]; 0.0 when nothing was observed."""
        terms = [0.0]
        if self.rs_margin_mean is not None:
            terms.append(1.0 - self.rs_margin_mean)
        if self.symbol_error_rate is not None:
            # 10% symbol errors saturates the signal; beyond that the
            # channel is failing outright and CRC losses dominate anyway.
            terms.append(self.symbol_error_rate * 10.0)
        if self.frame_failure_rate is not None:
            terms.append(self.frame_failure_rate)
        return float(min(1.0, max(0.0, max(terms))))
