"""LightSync under rolling shutter: shared sync machinery, binary assembly."""

import numpy as np
import pytest

from repro.baselines.lightsync import LightSyncConfig, LightSyncEncoder, LightSyncReceiver
from repro.channel.link import LinkConfig, ScreenCameraLink
from repro.channel.mobility import tripod
from repro.channel.screen import FrameSchedule
from repro.core.sync import StreamReassembler
from repro.link.receiver_modes import BufferedReceiver


@pytest.fixture(scope="module")
def stream():
    cfg = LightSyncConfig(display_rate=18)
    enc = LightSyncEncoder(cfg)
    rng = np.random.default_rng(0)
    payloads = [
        bytes(rng.integers(0, 256, cfg.payload_bytes_per_frame, dtype=np.uint8))
        for __ in range(4)
    ]
    frames = [enc.encode_frame(p, sequence=i) for i, p in enumerate(payloads)]
    return cfg, frames, payloads


class TestRollingShutterRegime:
    def test_mixed_captures_reassemble(self, stream):
        """LightSync's own contribution is line-level sync; our
        reproduction gives it the shared tracking-bar machinery, and it
        must survive f_d = 18 > f_c / 2 like RainBar does."""
        cfg, frames, payloads = stream
        sched = FrameSchedule([f.render() for f in frames], display_rate=18)
        link = ScreenCameraLink(LinkConfig(mobility=tripod()), rng=np.random.default_rng(1))
        rx = LightSyncReceiver(cfg)
        receiver = BufferedReceiver(
            rx.decoder, StreamReassembler(cfg.rainbar_equivalent(), assemble=rx.assemble)
        )
        mixed_seen = False
        for cap in link.capture_stream(sched):
            ext = receiver.receive(cap)
            mixed_seen = mixed_seen or (ext is not None and ext.has_next_frame_rows)
        results = receiver.finish().results
        assert mixed_seen, "regime sanity: some captures must be mixed"
        ok = {r.sequence for r in results if r.ok}
        # Interior frames must always reassemble; the first frame's
        # bottom may predate the first capture.
        assert {1, 2}.issubset(ok)
        for r in results:
            if r.ok and r.sequence < len(payloads):
                assert r.payload == payloads[r.sequence]

    def test_assemble_rejects_wrong_checksum(self, stream):
        cfg, frames, payloads = stream
        rx = LightSyncReceiver(cfg)
        ext = rx.decoder.extract(frames[0].render())
        from repro.core.header import FrameHeader

        forged = FrameHeader(
            sequence=0,
            display_rate=18,
            app_type=0,
            payload_checksum=(frames[0].header.payload_checksum ^ 1),
        )
        result = rx.assemble(forged, ext.data_symbols)
        assert not result.ok
