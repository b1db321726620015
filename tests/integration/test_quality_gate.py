"""The quality observatory end to end: fold identity and the CLI gate.

Two contracts from the channel-quality work are pinned here. First,
the deterministic quality snapshot (``include_timing=False``) must
fold bit-identically no matter how the corpus is decoded — serial,
2 workers, 4 workers, at any chunk size, or replayed from a recorded
trace. Second, ``repro quality report`` must honour the
0 / 1 / 2 exit contract (healthy / budget violation / operational
error) against the golden corpus and ``budgets.toml``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro import telemetry
from repro.cli import main
from repro.core.decoder import FrameDecoder
from repro.core.encoder import FrameCodecConfig
from repro.core.layout import FrameLayout
from repro.io import read_png
from repro.io.trace import TraceMetadata, TraceReader, TraceWriter
from repro.serve import close_shared_pools
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.quality import confusion_matrix, quality_summary

CORPUS_DIR = Path(__file__).parent.parent / "fixtures" / "corpus"
TRACES_DIR = CORPUS_DIR / "traces"
EXPECTED = json.loads((CORPUS_DIR / "expected.json").read_text())


@pytest.fixture(autouse=True)
def _force_pooling(monkeypatch):
    # One-CPU hosts silently fall back to the serial path; report four
    # cores so the fold-identity claims actually cross worker processes
    # (mirrors tests/integration/test_parallel.py).
    monkeypatch.setattr("repro.serve.pool.available_cpus", lambda: 4)
    yield
    close_shared_pools()


def _decoder() -> FrameDecoder:
    # Must match tests/fixtures/regen_corpus.py's GRID.
    layout = FrameLayout(grid_rows=24, grid_cols=44, block_px=8)
    return FrameDecoder(FrameCodecConfig(layout=layout, display_rate=10))


def _png_image(name: str) -> np.ndarray:
    return read_png(CORPUS_DIR / f"{name}.png").astype(np.float64) / 255.0


def _collect(fn):
    """Run ``fn`` under a private registry; return (results, det snapshot)."""
    registry = MetricsRegistry()
    with telemetry.scoped(registry=registry):
        results = fn()
    return results, registry.snapshot(include_timing=False)


@pytest.fixture(scope="module")
def corpus_images():
    names = sorted(EXPECTED)
    return names, [_png_image(n) for n in names]


@pytest.fixture(scope="module")
def combined_trace(tmp_path_factory, corpus_images):
    """All corpus fixtures concatenated into one multi-chunk trace."""
    names, _ = corpus_images
    path = tmp_path_factory.mktemp("quality") / "corpus.rbtrace"
    with TraceWriter(
        path,
        metadata=TraceMetadata(resolution=(300, 480), fps=30.0,
                               extra={"fixtures": names}),
        chunk_frames=2,
    ) as writer:
        for i, name in enumerate(names):
            reader = TraceReader(TRACES_DIR / f"{name}.rbtrace")
            images, _ = reader.read_all()
            writer.append(images[0], i / 30.0)
    return path


class TestFoldIdentity:
    """serial == 2w == 4w == any chunking == trace replay, bit for bit."""

    @pytest.fixture(scope="class")
    def serial(self, corpus_images):
        _, images = corpus_images
        return _collect(lambda: _decoder().decode_stream(images))

    def test_snapshot_is_substantive(self, serial):
        _, snap = serial
        summary = quality_summary(snap)
        assert summary["rs_margin_mean"] is not None
        assert confusion_matrix(snap), "corpus decode recorded no confusion"
        assert snap["counters"]["quality.symbols_total"] > 0

    def test_snapshot_is_clean_of_timing(self, serial):
        _, snap = serial
        assert not any(k.startswith("serve.pool.") for k in snap["counters"])
        assert "decode.latency_ms" not in snap["histograms"]

    @pytest.mark.parametrize(
        "workers, chunksize",
        [
            pytest.param(2, None, id="2"),
            pytest.param(4, None, id="4"),
            pytest.param(2, 1, id="2-chunk1"),
            pytest.param(4, 5, id="4-chunk5"),
        ],
    )
    def test_pooled_decode_matches_serial(self, serial, corpus_images, workers, chunksize):
        serial_results, serial_snap = serial
        _, images = corpus_images
        results, snap = _collect(
            lambda: _decoder().decode_stream(images, workers=workers, chunksize=chunksize)
        )
        assert results == serial_results
        assert snap == serial_snap

    def test_trace_replay_matches_serial(self, serial, combined_trace):
        serial_results, serial_snap = serial
        results, snap = _collect(lambda: _decoder().decode_trace(combined_trace))
        assert results == serial_results
        assert snap == serial_snap

    def test_pooled_trace_replay_matches_serial(self, serial, combined_trace):
        serial_results, serial_snap = serial
        results, snap = _collect(lambda: _decoder().decode_trace(combined_trace, workers=2))
        assert results == serial_results
        assert snap == serial_snap


class TestQualityGateCli:
    """The 0/1/2 exit contract of ``repro quality report`` on the corpus."""

    @pytest.fixture()
    def _telemetry_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(telemetry.ENV_TOGGLE, "1")
        monkeypatch.setenv(telemetry.ENV_DIR, str(tmp_path / "telemetry"))
        telemetry.configure(None)
        yield tmp_path / "telemetry"
        telemetry.configure(None)

    @pytest.fixture()
    def decoded_corpus(self, _telemetry_env, tmp_path):
        """Replay the clean corpus trace with telemetry; yield the dir."""
        trace = TRACES_DIR / "clean.rbtrace"
        out = tmp_path / "outcomes.json"
        try:
            assert main([
                "trace", "decode", str(trace), "--grid", "24x44x8",
                "--workers", "2", "--json", str(out),
            ]) == 0
        finally:
            close_shared_pools()
        return _telemetry_env, out

    def test_outcomes_embed_metrics_snapshot(self, decoded_corpus):
        _, out = decoded_corpus
        doc = json.loads(out.read_text())
        assert "metrics" in doc
        assert doc["metrics"]["counters"]["quality.symbols_total"] > 0
        # Timing metrics must not leak into the diffable outcome file.
        assert not any(
            k.startswith("serve.pool.") for k in doc["metrics"]["counters"]
        )

    def test_report_and_check_pass_on_clean_corpus(
        self, decoded_corpus, tmp_path, capsys
    ):
        tel_dir, _ = decoded_corpus
        out_dir = tmp_path / "results"
        assert main(["quality", "report", "--dir", str(tel_dir),
                     "--out", str(out_dir)]) == 0
        text = capsys.readouterr().out
        assert "confusion matrix" in text
        report = json.loads((out_dir / "Q1_quality_report.json").read_text())
        assert report["summary"]["confusion"], "report carries an empty confusion matrix"
        assert (out_dir / "Q1_quality_report.txt").exists()

        # The repo's own budgets must pass on the clean fixture.
        assert main(["quality", "report", "--dir", str(tel_dir),
                     "--check"]) == 0
        assert "quality check: PASS" in capsys.readouterr().out

    def test_check_fails_against_impossible_budget(
        self, decoded_corpus, tmp_path, capsys
    ):
        tel_dir, _ = decoded_corpus
        budget = tmp_path / "strict.toml"
        budget.write_text(
            "schema_version = 1\n[quality.rs_margin_mean]\nmin = 1.5\n"
        )
        assert main(["quality", "report", "--dir", str(tel_dir),
                     "--check", "--budget", str(budget)]) == 1
        assert "quality check: FAIL" in capsys.readouterr().out

    def test_check_rejects_malformed_budget(self, decoded_corpus, tmp_path, capsys):
        tel_dir, _ = decoded_corpus
        budget = tmp_path / "bad.toml"
        budget.write_text(
            "schema_version = 1\n[quality.rs_margin_mean]\nminimum = 1.0\n"
        )
        assert main(["quality", "report", "--dir", str(tel_dir),
                     "--check", "--budget", str(budget)]) == 2
        assert "quality report:" in capsys.readouterr().err

    def test_check_rejects_budget_without_quality_tables(
        self, decoded_corpus, tmp_path, capsys
    ):
        tel_dir, _ = decoded_corpus
        budget = tmp_path / "empty.toml"
        budget.write_text("schema_version = 1\n")
        assert main(["quality", "report", "--dir", str(tel_dir),
                     "--check", "--budget", str(budget)]) == 2
        assert "no [quality.*] tables" in capsys.readouterr().err

    def test_missing_telemetry_dir_is_operational_error(self, tmp_path, capsys):
        missing = tmp_path / "nowhere"
        assert main(["quality", "report", "--dir", str(missing)]) == 2
        assert "no telemetry directory" in capsys.readouterr().err

    def test_outcomes_omit_metrics_when_telemetry_off(self, tmp_path, monkeypatch):
        monkeypatch.delenv(telemetry.ENV_TOGGLE, raising=False)
        telemetry.configure(None)
        out = tmp_path / "outcomes.json"
        try:
            assert main([
                "trace", "decode", str(TRACES_DIR / "clean.rbtrace"),
                "--grid", "24x44x8", "--json", str(out),
            ]) == 0
        finally:
            telemetry.configure(None)
        assert "metrics" not in json.loads(out.read_text())

    def test_pool_health_visible_in_telemetry_report(
        self, _telemetry_env, combined_trace, capsys
    ):
        # The multi-capture corpus exercises the pool and its health
        # gauges.
        try:
            assert main([
                "trace", "decode", str(combined_trace), "--grid", "24x44x8",
                "--workers", "2",
            ]) == 0
        finally:
            close_shared_pools()
        assert main(["telemetry", "report", "--dir", str(_telemetry_env),
                     "--out", "-"]) == 0
        text = capsys.readouterr().out
        assert "pool health" in text
        assert "repro-pool-" in text
