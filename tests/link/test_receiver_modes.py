"""Real-time vs buffered receiver modes."""

import numpy as np
import pytest

from repro.channel.link import LinkConfig, ScreenCameraLink
from repro.channel.mobility import tripod
from repro.channel.screen import FrameSchedule
from repro.core.decoder import FrameDecoder
from repro.core.encoder import FrameCodecConfig, FrameEncoder
from repro.link.receiver_modes import BufferedReceiver, RealTimeReceiver


@pytest.fixture(scope="module")
def stream():
    cfg = FrameCodecConfig(display_rate=10)
    enc = FrameEncoder(cfg)
    rng = np.random.default_rng(0)
    payloads = [
        bytes(rng.integers(0, 256, cfg.payload_bytes_per_frame, dtype=np.uint8))
        for __ in range(3)
    ]
    frames = [enc.encode_frame(p, sequence=i) for i, p in enumerate(payloads)]
    sched = FrameSchedule([f.render() for f in frames], display_rate=10)
    link = ScreenCameraLink(LinkConfig(mobility=tripod()), rng=np.random.default_rng(1))
    return cfg, link.capture_stream(sched, start_offset=0.005), payloads


class TestBuffered:
    def test_processes_every_capture(self, stream):
        cfg, captures, payloads = stream
        report = BufferedReceiver(FrameDecoder(cfg)).process(captures)
        assert report.captures_seen == len(captures)
        assert report.captures_decoded == len(captures)
        assert report.frames_ok == len(payloads)
        assert report.mean_decode_time_s > 0


class TestRealTime:
    def test_fast_decoder_keeps_up(self, stream):
        cfg, captures, payloads = stream
        # Decode budget well under the 33 ms capture period.
        rx = RealTimeReceiver(FrameDecoder(cfg), decode_budget_s=0.001)
        report = rx.process(captures)
        assert report.captures_dropped_busy == 0
        assert report.frames_ok == len(payloads)

    def test_slow_decoder_drops_captures(self, stream):
        cfg, captures, payloads = stream
        # 80 ms decode (the paper's S4 figure) vs 33 ms capture period:
        # roughly every second and third capture is dropped.
        rx = RealTimeReceiver(FrameDecoder(cfg), decode_budget_s=0.080)
        report = rx.process(captures)
        assert report.captures_dropped_busy > 0
        assert report.captures_decoded < report.captures_seen
        # At f_d = 10 every frame is shown 3 captures long, so frames
        # still get through even with drops.
        assert report.frames_ok >= len(payloads) - 1

    def test_speed_factor_reduces_drops(self, stream):
        cfg, captures, payloads = stream
        slow = RealTimeReceiver(FrameDecoder(cfg), decode_budget_s=0.080)
        slow_report = slow.process(list(captures))
        fast = RealTimeReceiver(
            FrameDecoder(cfg), decode_budget_s=0.080, speed_factor=4.0
        )
        fast_report = fast.process(list(captures))
        assert fast_report.captures_dropped_busy <= slow_report.captures_dropped_busy

    def test_max_sustainable_rate(self, stream):
        cfg, captures, payloads = stream
        rx = RealTimeReceiver(FrameDecoder(cfg), decode_budget_s=0.080)
        rx.process(captures)
        assert rx.max_sustainable_rate() == pytest.approx(12.5, rel=0.01)

    def test_invalid_speed_factor(self, stream):
        cfg, __, __ = stream
        with pytest.raises(ValueError):
            RealTimeReceiver(FrameDecoder(cfg), speed_factor=0.0)


class TestReceivePathsAgree:
    """Every receive path decodes a stream through the same loop.

    A fixed faulted stream of the fault matrix goes through the buffered
    receiver, a real-time receiver whose budget never drops a capture,
    one transfer-session round and a RainBar trial; all four must agree
    on the frame results and on the drop stages.  ``occlusion_finger``
    seed 2 loses every capture at the locators, ``occlusion_edge`` seed 1
    drops two headers and delivers both frames, and ``glare`` seed 2
    fails one frame's CRC.
    """

    @pytest.mark.parametrize(
        "scenario, seed", [("occlusion_finger", 2), ("occlusion_edge", 1), ("glare", 2)]
    )
    def test_same_results_and_drop_reasons(self, monkeypatch, scenario, seed):
        from repro.bench import runner
        from repro.channel import link as link_module
        from repro.link import session as session_module
        from repro.link.session import TransferSession
        from tests.faults.test_fault_matrix import SENSOR, _captures, _codec

        codec = _codec()
        captures = _captures(scenario, seed=seed)
        buffered = BufferedReceiver(FrameDecoder(codec)).process(captures)
        assert buffered.drop_reasons or not all(r.ok for r in buffered.results)

        realtime = RealTimeReceiver(FrameDecoder(codec), decode_budget_s=0.0).process(captures)
        assert realtime.captures_dropped_busy == 0

        reports = []

        class Recording(BufferedReceiver):
            def finish(self):
                reports.append(super().finish())
                return reports[-1]

        monkeypatch.setattr(
            link_module.ScreenCameraLink, "capture_stream", lambda self, schedule: captures
        )
        monkeypatch.setattr(session_module, "BufferedReceiver", Recording)
        monkeypatch.setattr(runner, "BufferedReceiver", Recording)
        link_config = LinkConfig(sensor_size=SENSOR)
        payload = bytes(i % 256 for i in range(codec.payload_bytes_per_frame * 2))
        __, stats = TransferSession(codec, link_config=link_config).transmit(
            payload, max_rounds=1
        )
        trial = runner.run_rainbar_trial(codec, link_config, num_frames=2, seed=seed)
        session_report, trial_report = reports

        for report in (realtime, session_report, trial_report):
            assert report.results == buffered.results
            assert report.drop_reasons == buffered.drop_reasons
        assert stats.drop_reasons == buffered.drop_reasons
        assert stats.captures == len(captures)
        assert trial.captures_dropped == sum(buffered.drop_reasons.values())
