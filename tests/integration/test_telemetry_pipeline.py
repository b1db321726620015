"""Telemetry threaded through the whole pipeline.

One end-to-end transfer under a live registry and sink leaves metrics
from every layer (channel -> locators -> decode -> sync -> link) that
agree with the session accounting; every golden-corpus fixture that
decodes reports the same ordered ``stage_ms`` breakdown; and campaign
metric snapshots merge identically no matter how the trials were
grouped across workers.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro import telemetry
from repro.channel.link import LinkConfig
from repro.core.decoder import DecodeError, FrameDecoder
from repro.core.encoder import FrameCodecConfig
from repro.core.layout import FrameLayout
from repro.io import read_png
from repro.link.session import TransferSession
from repro.telemetry import EventSink, MetricsRegistry

CORPUS_DIR = Path(__file__).parent.parent / "fixtures" / "corpus"

#: ``DecodeDiagnostics.stage_ms`` keys of a successful extract, in
#: pipeline order, with or without a live telemetry context.
DECODE_STAGE_KEYS = [
    "input", "brightness", "corners", "locators", "classify", "header", "tracking",
]

#: Counters one delivered session must leave, one or more per layer.
PIPELINE_COUNTERS = {
    "channel.captures",
    "locators.walked",
    "decode.captures_ok",
    "decode.frames{ok=true}",
    "sync.captures_merged",
    "sync.frames_finalized",
    "link.rounds",
    "link.frames_sent",
}


def _codec() -> FrameCodecConfig:
    layout = FrameLayout(grid_rows=24, grid_cols=44, block_px=8)
    return FrameCodecConfig(layout=layout, display_rate=10)


@pytest.fixture(autouse=True)
def _disabled_default():
    telemetry.configure(False)
    yield
    telemetry.configure(None)


class TestPipelineTelemetry:
    def test_session_metrics_cover_every_pipeline_layer(self):
        codec = _codec()
        session = TransferSession(
            codec,
            link_config=LinkConfig(sensor_size=(300, 480)),
            rng=np.random.default_rng(3),
        )
        payload = bytes(range(codec.payload_bytes_per_frame))
        sink = EventSink(meta={"seed": 3})
        with telemetry.scoped(registry=MetricsRegistry(), sink=sink) as ctx:
            recovered, stats = session.transmit(payload, max_rounds=3)

        assert recovered == payload
        counters = ctx.registry.snapshot()["counters"]
        missing = PIPELINE_COUNTERS - {k for k, v in counters.items() if v > 0}
        assert not missing, f"metrics lost pipeline layers: {sorted(missing)}"

        # Metrics and events agree with the session accounting.
        assert counters["channel.captures"] == stats.captures
        assert counters["link.rounds"] == stats.rounds
        assert counters["link.frames_sent"] == stats.frames_sent
        events = [e["event"] for e in sink.buffer]
        assert events[0] == "run"
        assert events.count("round") == stats.rounds
        assert "session_start" in events and "session_end" in events

    def test_failed_capture_records_failure_stage(self):
        decoder = FrameDecoder(_codec())
        noise = np.zeros((300, 480, 3))
        with telemetry.scoped(registry=MetricsRegistry()) as ctx:
            with pytest.raises(DecodeError):
                decoder.extract(noise)
        assert "decode.captures_ok" not in ctx.registry.snapshot()["counters"]
        families = ctx.registry.counter_family("decode.failures")
        assert sum(families.values()) == 1
        assert all(key.startswith("stage=") for key in families)

    def test_disabled_telemetry_still_fills_stage_ms(self):
        # Backward compatibility for bench E10: diagnostics carry the
        # per-stage breakdown even with no telemetry context at all.
        from repro.core.encoder import FrameEncoder

        codec = _codec()
        image = FrameEncoder(codec).encode_frame(b"x", sequence=1).render()
        extraction = FrameDecoder(codec).extract(image)
        stage_ms = extraction.diagnostics.stage_ms
        assert list(stage_ms) == DECODE_STAGE_KEYS
        assert all(v >= 0.0 for v in stage_ms.values())


class TestGoldenCorpusStages:
    def test_every_fixture_produces_the_same_stage_set(self):
        """Every successfully-decoding fixture reports the same ordered
        ``stage_ms`` keys, with and without a live registry — the stage
        breakdown is a stable pipeline contract, not a per-image
        accident."""
        expected = json.loads((CORPUS_DIR / "expected.json").read_text())
        decoder = FrameDecoder(_codec())
        decoded = 0
        for name, pin in sorted(expected.items()):
            if not pin["decodes"]:
                continue
            image = read_png(CORPUS_DIR / f"{name}.png").astype(np.float64) / 255.0
            plain = decoder.extract(image).diagnostics.stage_ms
            with telemetry.scoped(registry=MetricsRegistry()):
                live = decoder.extract(image).diagnostics.stage_ms
            assert list(plain) == DECODE_STAGE_KEYS, name
            assert list(live) == DECODE_STAGE_KEYS, name
            assert all(v >= 0.0 for v in [*plain.values(), *live.values()]), name
            decoded += 1
        assert decoded >= 2


class TestCampaignMetrics:
    def test_trial_snapshot_matches_drop_reasons(self):
        from repro.bench.faults_campaign import run_fault_trial, summarize

        trial = run_fault_trial("glare", seed=1)
        assert trial.metrics["counters"], "trial collected no metrics"
        (summary,) = summarize([trial])
        # failure_stages ⊇ drop_reasons: the registry additionally sees
        # frame-level assemble failures; capture-level stages must agree.
        capture_level = {
            k: v for k, v in summary.failure_stages.items() if k != "assemble"
        }
        assert capture_level == trial.drop_reasons

        # The snapshot is deterministic: re-running the same trial in
        # the same process reproduces it bit for bit.
        again = run_fault_trial("glare", seed=1)
        assert again.metrics == trial.metrics

    def test_summary_merge_is_grouping_independent(self):
        from repro.bench.faults_campaign import run_fault_trial, summarize
        from repro.telemetry.metrics import merge_snapshots

        trials = [run_fault_trial("capture_drops", seed=s) for s in range(3)]
        (summary,) = summarize(trials)
        serial = merge_snapshots([t.metrics for t in trials])
        split = merge_snapshots(
            [merge_snapshots([trials[0].metrics, trials[1].metrics]), trials[2].metrics]
        )
        assert summary.metrics == serial == split


@pytest.mark.slow
class TestCampaignMetricsAcrossWorkersSlow:
    def test_four_worker_campaign_metrics_bit_identical_to_serial(self):
        from repro.bench.faults_campaign import run_campaign, summarize

        scenarios = ["clean", "glare"]
        serial = summarize(run_campaign(scenarios=scenarios, seeds=4, workers=1))
        quad = summarize(run_campaign(scenarios=scenarios, seeds=4, workers=4))
        assert [s.metrics for s in serial] == [s.metrics for s in quad]
        assert [s.failure_stages for s in serial] == [s.failure_stages for s in quad]
