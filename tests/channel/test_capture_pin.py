"""Byte pin of the simulated capture on the configurations it must hold.

Captures leave the camera as ``uint8`` (H, W, 3) samples.  The SHA-256
of every capture's bytes is pinned on nine link conditions at the
paper's sensor size (tripod, handheld, walking, outdoor at 45 degrees,
7 cm on a tripod and walking, 8 cm, 30 cm and a barrel lens) and on the
whole capture stream of all thirteen fault scenarios of the campaign
grid.  All but the two 7 cm digests and the five sensor-stage scenarios
were computed when captures were still carried as float64 on 8-bit
levels, as ``np.round(image * 255).astype(np.uint8)``, so any change to
a single fault-free sample fails here.

The five scenarios with a sensor-stage fault (``overexposed``,
``underexposed``, ``wb_drift``, ``scanline`` and ``combined``) were
pinned while the camera pipeline still returned interleaved float RGB
and the link ran the fault and then quantized.  The pipeline now writes
the uint8 capture straight from its planes and builds float RGB only
for such a fault, so these five digests pin that branch.

The blurs compute only on the box where the frame is not the constant
background, and fall back to the whole frame when that box, grown by
the kernel's margin, does not fit in the frame.  At 8 cm the lens blur
takes the box; at 7 cm it takes the whole frame, and so does the second
capture's motion blur under ``walking()``.  The two 7 cm digests were
computed when every blur still ran on the whole frame.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.bench.faults_campaign import CAMPAIGN_GRID, CAMPAIGN_SENSOR
from repro.channel.environment import outdoor
from repro.channel.link import LinkConfig, ScreenCameraLink
from repro.channel.mobility import handheld, walking
from repro.channel.optics import LensModel
from repro.channel.screen import FrameSchedule
from repro.core.encoder import FrameCodecConfig, FrameEncoder
from repro.core.layout import FrameLayout
from repro.faults import scenario_plan

#: Link condition -> SHA-256 over two captures at the default geometry.
LINK_DIGESTS = {
    "tripod": "4e721553d3b0d204c943492c4f3d0dc04da0723382c0655f0e65b05e876219ce",
    "handheld": "35af2d92ec4ceb2a392935f735c2664cb0997e93a83631c9686c231e0565243f",
    "walking": "03e53e5f5aee46a6f67f4154b2471f00945a3c556b273f0b791f6479ac2ee1f8",
    "outdoor_45deg": "61801bb4cbce2d6c4ccc185159496e60c89414b01d3067d6abc7cac643d80dce",
    "distance_7cm": "f03a647d263e828110d08d98d416d4d9905bd5e4a0b5dc9bd133f3ddc48ef3f9",
    "distance_7cm_walking": "d3046abbc6247745ea0a37e67af76367cd9f7de931d0209984be15cb70f4c5f1",
    "distance_8cm": "6a3de4fa4386902f3b49a91309b241089b204d46461eed3f7dd33b1ac983d91b",
    "distance_30cm": "57c17a9aae3e0b4126e9638708d266f3b69e7b179900b99ad76fa4febd7ecc90",
    "barrel": "423a025ccef382bd10fa46d1a49f5c04a9c3bdc015c4b277768976ee3c7f1528",
}

#: Fault scenario -> SHA-256 over its capture stream on the campaign grid.
SCENARIO_DIGESTS = {
    "clean": "7adb4a7626e98256256feb888e62ae5977a30a7a62351b4a6e19b27ba1c43b99",
    "occlusion_finger": "819527ef4d008999e3c426dfc68a39a096400373a86beba416c32e01f5fc2607",
    "occlusion_edge": "0465bb9e90b8c6c8db366ffd9a427a41c4e48c365a4376dcb4e4d481452fccb0",
    "glare": "0a288235008978fe40f27c4fedfe3640d363253c6da8baec0bd225dd5f328bfc",
    "display_flicker": "5e9ee71774b137b2dda681823e4f55a62283dd02eabc9beeb23443f28fec474f",
    "capture_drops": "2ce75f347d60ce6232c80dafdbf77b9409435215fc447b1ea76ca1c9897f9503",
    "capture_duplicates": "113b50d1dd5f33fbf74a6f59845072c4911ef0e84194653a60ae2075f5d9295b",
    "shutter_jitter": "5186369601a3a447cbdfd42d8146a9276ddf0a3184410f05e2bc337eaad087a2",
    "overexposed": "3e205f5618b41afdcd6eec7c32742872ff1733df1f6ae666ce4e2ba46029160d",
    "underexposed": "e8a2c17ec6b62f0564e88903e7902c58450602b50c5a9f78cb9f6fc082e8ab01",
    "wb_drift": "0319a9c88a2f617d918bd9a0102027f9a92df46e8cb65c17610c44a3d40913e2",
    "scanline": "9c0bc672f0bda1b1416a6ee47c95357c04c48e97d13bf4cf5e6d18abb8efaaf1",
    "combined": "8c59aa45181e86ef49898de3a192a4a1d877c68e831c9d99a7911b33bd801b19",
}

_LINKS = {
    "tripod": LinkConfig(),
    "handheld": LinkConfig(mobility=handheld()),
    "walking": LinkConfig(mobility=walking()),
    "outdoor_45deg": LinkConfig(environment=outdoor(), view_angle_deg=45.0),
    "distance_7cm": LinkConfig(distance_cm=7.0),
    "distance_7cm_walking": LinkConfig(distance_cm=7.0, mobility=walking()),
    "distance_8cm": LinkConfig(distance_cm=8.0),
    "distance_30cm": LinkConfig(distance_cm=30.0),
    "barrel": LinkConfig(lens=LensModel(k1=0.08, k2=0.01)),
}


def _schedule(codec: FrameCodecConfig, num_frames: int, faults=None) -> FrameSchedule:
    payload = bytes((i * 53 + 7) % 256 for i in range(codec.payload_bytes_per_frame * num_frames))
    frames = FrameEncoder(codec).encode_stream(payload)
    return FrameSchedule(
        [f.render() for f in frames], display_rate=codec.display_rate, faults=faults
    )


def _digest(captures, sensor: tuple[int, int]) -> str:
    h = hashlib.sha256()
    for capture in captures:
        assert capture.image.dtype == np.uint8
        assert capture.image.shape == (*sensor, 3)
        h.update(f"{capture.time!r}".encode())
        h.update(capture.image.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(_LINKS))
def test_link_captures_match_pin(name):
    config = _LINKS[name]
    link = ScreenCameraLink(config, rng=np.random.default_rng(29))
    schedule = _schedule(FrameCodecConfig(), num_frames=2)
    period = config.timing.capture_period
    # The second capture's readout straddles the frame switch.
    captures = [link.capture_at(schedule, t, capture_index=i)
                for i, t in enumerate((0.01, 0.01 + 2 * period))]
    assert _digest(captures, config.sensor_size) == LINK_DIGESTS[name]


@pytest.mark.parametrize("scenario", sorted(SCENARIO_DIGESTS))
def test_campaign_streams_match_pin(scenario):
    rows, cols, block = CAMPAIGN_GRID
    codec = FrameCodecConfig(layout=FrameLayout(grid_rows=rows, grid_cols=cols, block_px=block))
    faults = scenario_plan(scenario, seed=2)
    link = ScreenCameraLink(
        LinkConfig(sensor_size=CAMPAIGN_SENSOR), rng=np.random.default_rng(31), faults=faults
    )
    captures = link.capture_stream(_schedule(codec, 2, faults), start_offset=0.02)
    assert captures
    assert _digest(captures, CAMPAIGN_SENSOR) == SCENARIO_DIGESTS[scenario]
