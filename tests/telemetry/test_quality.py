"""Channel-quality observatory: recording, summary, report, and gate."""

import json

import numpy as np
import pytest

from repro.coding.reed_solomon import CodewordStats, RSDecodeStats
from repro.core.palette import DATA_COLORS
from repro.telemetry.budgets import Budget, check_budgets, format_check, load_budgets
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.quality import (
    ERASED_LABEL,
    SYMBOL_COLORS,
    QualityFeedback,
    build_quality_report,
    confusion_matrix,
    format_quality_report,
    quality_summary,
    record_confusion,
    record_round_goodput,
    record_rs_stats,
    write_quality_report,
)


class TestPaletteConsistency:
    def test_symbol_colors_match_data_colors(self):
        # The confusion-matrix axis is the palette's symbol order; the
        # two modules must not drift apart.
        assert SYMBOL_COLORS == tuple(c.name.lower() for c in DATA_COLORS)


class TestRecordRsStats:
    def test_counters_and_margin_histogram(self):
        registry = MetricsRegistry()
        stats = RSDecodeStats()
        stats.add(CodewordStats(errors=1, erasures=2, parity=8))
        stats.add(CodewordStats(errors=0, erasures=0, parity=8))
        stats.add(CodewordStats(errors=0, erasures=9, parity=8, failed=True))
        record_rs_stats(registry, stats)
        snap = registry.snapshot()
        assert snap["counters"]["quality.rs_codewords"] == 2
        assert snap["counters"]["quality.rs_failed_codewords"] == 1
        assert snap["counters"]["quality.rs_corrected_symbols"] == 1
        assert snap["counters"]["quality.rs_erasures"] == 2
        assert snap["counters"]["quality.rs_budget_used"] == 4
        assert snap["counters"]["quality.rs_parity_capacity"] == 16
        hist = snap["histograms"]["quality.rs_margin"]
        assert hist["count"] == 2  # failed codewords observe no margin
        assert hist["sum"] == pytest.approx(0.5 + 1.0)


class TestRecordConfusion:
    def test_matrix_cells_and_error_count(self):
        registry = MetricsRegistry()
        sent = np.array([0, 0, 1, 2, 3, 3])
        read = np.array([0, 1, 1, 2, -1, 3])
        record_confusion(registry, sent, read)
        snap = registry.snapshot()
        matrix = confusion_matrix(snap)
        assert matrix["white"] == {"white": 1, "red": 1}
        assert matrix["blue"] == {"blue": 1, ERASED_LABEL: 1}
        assert snap["counters"]["quality.symbols_total"] == 6
        assert snap["counters"]["quality.symbol_errors"] == 2

    def test_out_of_range_reads_are_erased(self):
        registry = MetricsRegistry()
        record_confusion(registry, [1, 1], [7, -3])
        matrix = confusion_matrix(registry.snapshot())
        assert matrix == {"red": {ERASED_LABEL: 2}}

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            record_confusion(MetricsRegistry(), [0, 1], [0])

    def test_empty_streams_record_nothing(self):
        registry = MetricsRegistry()
        record_confusion(registry, [], [])
        assert registry.snapshot()["counters"] == {}


class TestRecordGoodput:
    def test_kbps_math(self):
        registry = MetricsRegistry()
        kbps = record_round_goodput(
            registry, payload_bytes=1250, display_s=2.0, crc_failures=1
        )
        assert kbps == pytest.approx(8.0 * 1250 / 2.0 / 1000.0)
        snap = registry.snapshot()
        assert snap["counters"]["quality.round_payload_bytes"] == 1250
        assert snap["counters"]["quality.crc_failures"] == 1
        assert snap["histograms"]["quality.round_goodput_kbps"]["count"] == 1

    def test_zero_display_time_is_zero_goodput(self):
        assert record_round_goodput(
            MetricsRegistry(), payload_bytes=100, display_s=0.0, crc_failures=0
        ) == 0.0


class TestQualitySummary:
    def test_unrecorded_indicators_are_none(self):
        summary = quality_summary({"counters": {}, "histograms": {}})
        assert summary["rs_margin_mean"] is None
        assert summary["symbol_error_rate"] is None
        assert summary["frame_failure_rate"] is None
        assert summary["confusion"] == {}

    def test_rates_and_means(self):
        registry = MetricsRegistry()
        registry.counter("decode.frames", ok="true").inc(3)
        registry.counter("decode.frames", ok="false").inc(1)
        registry.counter("decode.captures_ok").inc(4)
        registry.counter("decode.failures", stage="corners").inc(2)
        stats = RSDecodeStats()
        stats.add(CodewordStats(errors=2, erasures=0, parity=8))
        record_rs_stats(registry, stats)
        record_confusion(registry, [0, 1, 2, 3], [0, 1, 2, 0])
        summary = quality_summary(registry.snapshot())
        assert summary["frame_failure_rate"] == pytest.approx(0.25)
        assert summary["capture_failure_rate"] == pytest.approx(2 / 6)
        assert summary["rs_margin_mean"] == pytest.approx(0.5)
        assert summary["rs_budget_utilization"] == pytest.approx(0.5)
        assert summary["symbol_error_rate"] == pytest.approx(0.25)

    def test_summary_is_pure_function_of_snapshot(self):
        registry = MetricsRegistry()
        record_confusion(registry, [0, 1], [0, 1])
        snap = registry.snapshot()
        assert quality_summary(snap) == quality_summary(json.loads(json.dumps(snap)))


class TestReport:
    def _telemetry_dir(self, tmp_path):
        registry = MetricsRegistry()
        record_confusion(registry, [0, 1, 2, 3], [0, 1, 2, 3])
        (tmp_path / "metrics.json").write_text(json.dumps(registry.snapshot()))
        return tmp_path

    def test_build_and_format(self, tmp_path):
        report = build_quality_report(self._telemetry_dir(tmp_path))
        text = format_quality_report(report)
        assert "confusion matrix" in text
        assert "white" in text and ERASED_LABEL in text
        assert "RS correction" in text

    def test_missing_metrics_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            build_quality_report(tmp_path)

    def test_malformed_metrics_raises(self, tmp_path):
        (tmp_path / "metrics.json").write_text("[]")
        with pytest.raises(ValueError):
            build_quality_report(tmp_path)

    def test_write_report_artifacts(self, tmp_path):
        report = build_quality_report(self._telemetry_dir(tmp_path))
        txt, js = write_quality_report(report, tmp_path / "out")
        assert txt.is_file() and js.is_file()
        doc = json.loads(js.read_text())
        assert doc["summary"]["symbol_errors"] == 0


BUDGETS_TOML = """
schema_version = 1
[quality.rs_margin_mean]
min = 0.25
[quality.symbol_error_rate]
max = 0.05
[perf.receive_replay."decoder.corners_ms"]
max = 94.582
"""


class TestBudgetsAndGate:
    def test_load_quality_budgets(self, tmp_path):
        path = tmp_path / "budgets.toml"
        path.write_text(BUDGETS_TOML)
        budgets = load_budgets(path, "quality")
        assert budgets["rs_margin_mean"].min_value == 0.25
        assert budgets["symbol_error_rate"].max_value == 0.05
        # The same loader reads the perf tables, whose metric keys hold dots.
        perf = load_budgets(path, "perf.receive_replay")
        assert perf == {"decoder.corners_ms": Budget("decoder.corners_ms", max_value=94.582)}
        assert load_budgets(path, "perf.transfer") == {}

    def test_toml_and_json_load_identically(self, tmp_path):
        toml_path = tmp_path / "budgets.toml"
        toml_path.write_text(BUDGETS_TOML)
        json_path = tmp_path / "budgets.json"
        json_path.write_text(json.dumps({
            "schema_version": 1,
            "quality": {"rs_margin_mean": {"min": 0.25}, "symbol_error_rate": {"max": 0.05}},
            "perf": {"receive_replay": {"decoder.corners_ms": {"max": 94.582}}},
        }))
        for table in ("quality", "perf.receive_replay"):
            assert load_budgets(toml_path, table) == load_budgets(json_path, table)

    def test_unknown_keys_and_versions_rejected(self, tmp_path):
        path = tmp_path / "budgets.json"
        path.write_text(json.dumps({"perf": {"transfer": {"session_ms_p50": {"maxx": 1}}}}))
        with pytest.raises(ValueError, match="unknown perf.transfer budget keys"):
            load_budgets(path, "perf.transfer")
        path.write_text(json.dumps({"schema_version": 99}))
        with pytest.raises(ValueError, match="schema_version"):
            load_budgets(path, "quality")
        with pytest.raises(ValueError, match=r"\.toml or \.json"):
            load_budgets(tmp_path / "budgets.yaml", "quality")

    def test_repo_budgets_parse(self):
        budgets = load_budgets("budgets.toml", "quality")
        assert "rs_margin_mean" in budgets

    def test_budget_without_bounds_rejected(self, tmp_path):
        path = tmp_path / "budgets.toml"
        path.write_text("schema_version = 1\n[quality.rs_margin_mean]\n")
        with pytest.raises(ValueError, match="min and/or max"):
            load_budgets(path, "quality")

    def test_unknown_budget_keys_rejected(self, tmp_path):
        path = tmp_path / "budgets.toml"
        path.write_text("schema_version = 1\n[quality.x]\nminimum = 1.0\n")
        with pytest.raises(ValueError, match="unknown quality budget keys"):
            load_budgets(path, "quality")

    def test_gate_pass_fail_and_missing(self):
        budgets = {
            "rs_margin_mean": Budget("rs_margin_mean", min_value=0.25),
            "symbol_error_rate": Budget("symbol_error_rate", max_value=0.05),
            "never_recorded": Budget("never_recorded", min_value=0.0),
        }
        summary = {"rs_margin_mean": 0.1, "symbol_error_rate": 0.01, "never_recorded": None}
        verdicts = {v.metric: v for v in check_budgets(summary, budgets)}
        assert not verdicts["rs_margin_mean"].ok
        assert verdicts["symbol_error_rate"].ok
        assert not verdicts["never_recorded"].ok
        assert verdicts["never_recorded"].note == "metric not recorded"
        rendered = format_check(list(verdicts.values()), "quality check")
        assert "quality check: FAIL" in rendered

    def test_gate_all_pass_renders_pass(self):
        budgets = {"symbol_error_rate": Budget("symbol_error_rate", max_value=0.1)}
        verdicts = check_budgets({"symbol_error_rate": 0.0}, budgets)
        assert all(v.ok for v in verdicts)
        assert "quality check: PASS" in format_check(verdicts, "quality check")


class TestQualityFeedback:
    def test_no_observations_zero_pressure(self):
        assert QualityFeedback().pressure() == 0.0

    def test_pressure_saturates_at_one(self):
        fb = QualityFeedback(rs_margin_mean=0.0, symbol_error_rate=0.5)
        assert fb.pressure() == 1.0

    def test_margin_drives_pressure(self):
        assert QualityFeedback(rs_margin_mean=0.75).pressure() == pytest.approx(0.25)

    def test_from_summary(self):
        fb = QualityFeedback.from_summary(
            {"rs_margin_mean": 0.5, "symbol_error_rate": None, "frame_failure_rate": 0.1}
        )
        assert fb.rs_margin_mean == 0.5
        assert fb.symbol_error_rate is None
        assert fb.pressure() == pytest.approx(0.5)
