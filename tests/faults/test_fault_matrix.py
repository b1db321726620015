"""Graceful-degradation regressions: no fault may crash the receive path.

The hard guarantee under test: for every fault scenario, the decoder
and the link layer either succeed or report a structured
:class:`~repro.core.decoder.DecodeFailure` / failed
:class:`~repro.core.decoder.FrameResult` — never an uncaught
exception.  A fast subset runs in tier 1; the full matrix (and an
end-to-end NACK-recovery sweep) runs in the ``slow`` lane.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel.link import LinkConfig, ScreenCameraLink
from repro.channel.screen import FrameSchedule
from repro.core.decoder import DECODE_STAGES, DecodeError, FrameDecoder
from repro.core.encoder import FrameCodecConfig, FrameEncoder
from repro.core.layout import FrameLayout
from repro.faults import scenario_names, scenario_plan
from repro.link.receiver_modes import BufferedReceiver
from repro.link.session import TransferSession

#: Small geometry shared with the campaign and the golden corpus.
LAYOUT = FrameLayout(grid_rows=24, grid_cols=44, block_px=8)
SENSOR = (300, 480)

#: Scenarios that exercise every hook stage, for the tier-1 subset.
FAST_SCENARIOS = ["occlusion_finger", "glare", "scanline", "combined"]


def _codec() -> FrameCodecConfig:
    return FrameCodecConfig(layout=LAYOUT)


def _captures(scenario: str, seed: int, num_frames: int = 2):
    codec = _codec()
    payload = bytes(i % 256 for i in range(codec.payload_bytes_per_frame * num_frames))
    frames = FrameEncoder(codec).encode_stream(payload)
    faults = scenario_plan(scenario, seed=seed)
    schedule = FrameSchedule(
        [f.render() for f in frames], display_rate=codec.display_rate, faults=faults
    )
    link = ScreenCameraLink(
        LinkConfig(sensor_size=SENSOR), rng=np.random.default_rng(seed), faults=faults
    )
    return link.capture_stream(schedule, start_offset=0.01)


def _assert_graceful(decoder: FrameDecoder, captures) -> None:
    """Every capture decodes or yields a stage-tagged failure; no raise."""
    for capture in captures:
        extraction, diagnostics = decoder.extract_diagnosed(capture.image)
        if extraction is None:
            assert diagnostics.failure is not None
            assert diagnostics.failure.stage in DECODE_STAGES
            assert diagnostics.failure.reason
        else:
            assert diagnostics.failure is None


class TestDecoderNeverRaisesFast:
    @pytest.mark.parametrize("scenario", FAST_SCENARIOS)
    def test_faulted_captures_decode_or_fail_structurally(self, scenario):
        _assert_graceful(FrameDecoder(_codec()), _captures(scenario, seed=1))

    def test_garbage_inputs_fail_structurally(self):
        decoder = FrameDecoder(_codec())
        garbage = [
            np.zeros((10, 10, 3)),
            np.full((100, 160, 3), np.nan),
            np.full((100, 160, 3), np.inf),
            np.random.default_rng(0).random((60, 90, 3)),
            np.zeros((50, 50)),  # wrong ndim
            np.zeros((0, 0, 3)),  # empty
            np.zeros((40, 64, 4)),  # wrong channel count
        ]
        for image in garbage:
            extraction, diagnostics = decoder.extract_diagnosed(image)
            assert extraction is None
            assert diagnostics.failure is not None
            assert diagnostics.failure.stage in DECODE_STAGES

    def test_extract_raises_only_stage_tagged_decode_errors(self):
        decoder = FrameDecoder(_codec())
        with pytest.raises(DecodeError) as excinfo:
            decoder.extract(np.zeros((64, 96, 3)))
        assert excinfo.value.failure.stage in DECODE_STAGES

    def test_buffered_receiver_counts_drop_stages(self):
        decoder = FrameDecoder(_codec())
        report = BufferedReceiver(decoder).process(_captures("occlusion_finger", seed=2))
        assert report.captures_seen == report.captures_decoded + report.captures_dropped_error
        assert sum(report.drop_reasons.values()) == report.captures_dropped_error
        assert set(report.drop_reasons) <= set(DECODE_STAGES)


@pytest.mark.slow
class TestFullFaultMatrixSlow:
    @pytest.mark.parametrize("scenario", scenario_names())
    def test_every_scenario_decodes_gracefully(self, scenario):
        decoder = FrameDecoder(_codec())
        for seed in (0, 1):
            _assert_graceful(decoder, _captures(scenario, seed=seed))

    @pytest.mark.parametrize("scenario", scenario_names())
    def test_transfer_session_survives_every_scenario(self, scenario):
        """End-to-end NACK loop under faults: terminates, never raises."""
        codec = _codec()
        payload = bytes(i % 251 for i in range(codec.payload_bytes_per_frame * 2))
        session = TransferSession(
            codec,
            link_config=LinkConfig(sensor_size=SENSOR),
            rng=np.random.default_rng(17),
            faults=scenario_plan(scenario, seed=6),
        )
        recovered, stats = session.transmit(payload, max_rounds=2)
        assert recovered is None or recovered == payload
        assert stats.rounds <= 2
        assert sum(stats.drop_reasons.values()) == stats.captures_dropped
        assert set(stats.drop_reasons) <= set(DECODE_STAGES)


@pytest.mark.slow
class TestCampaignDeterminismSlow:
    def test_serial_and_parallel_counters_identical(self):
        from repro.bench.faults_campaign import campaign_to_json, run_campaign, summarize

        scenarios = ["clean", "glare", "capture_drops"]
        serial = run_campaign(scenarios=scenarios, seeds=2, workers=1)
        parallel = run_campaign(scenarios=scenarios, seeds=2, workers=2)
        assert campaign_to_json(serial, summarize(serial)) == campaign_to_json(
            parallel, summarize(parallel)
        )


class TestUndetectedErrors:
    """A session that returns wrong bytes is counted, never "delivered"."""

    @pytest.fixture
    def corrupting_session(self, monkeypatch):
        transmit = TransferSession.transmit

        def flip_first_bit(session, payload, max_rounds=3):
            recovered, stats = transmit(session, payload, max_rounds=max_rounds)
            if recovered is not None:
                recovered = bytes([recovered[0] ^ 1]) + recovered[1:]
            return recovered, stats

        monkeypatch.setattr(TransferSession, "transmit", flip_first_bit)

    def test_clean_trial_has_none(self):
        from repro.bench.faults_campaign import run_fault_trial

        trial = run_fault_trial("clean", seed=0, num_frames=1, max_rounds=1)
        assert trial.delivered and trial.undetected_errors == 0

    def test_wrong_bytes_are_counted(self, corrupting_session):
        from repro.bench.faults_campaign import format_table, run_fault_trial, summarize

        trial = run_fault_trial("clean", seed=0, num_frames=1, max_rounds=1)
        assert not trial.delivered and trial.undetected_errors == 1
        (summary,) = summarize([trial, trial])
        assert summary.undetected_errors == 2
        assert "undet" in format_table([summary])

    def test_campaign_cli_exits_1(self, corrupting_session, capsys):
        from repro.cli import main

        argv = ["faults-campaign", "--seeds", "1", "--workers", "1", "--scenarios",
                "clean", "--frames", "1", "--max-rounds", "1", "--out", "-"]
        assert main(argv) == 1
        assert "returned wrong bytes" in capsys.readouterr().err
