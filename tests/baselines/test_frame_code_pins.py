"""Byte pins of the frame code on all three schemes.

RainBar, COBRA and LightSync protect each frame with the same CRC-16 +
RS(n, k) + interleave code and differ only in how wire bytes become
cells.  These pins fix, per scheme, the SHA-256 of the colour grid of
a full frame, a short (zero-padded) frame and a two-frame stream that
wraps the 15-bit sequence and sets the last-frame flag; and the whole
:class:`TrialResult` of short COBRA, LightSync and RainBar trials on the
paper's link.  Every value was computed before the frame code was
shared between the schemes, so any change to a wire byte, a filler
cell or a trial counter fails here.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.baselines.cobra import CobraConfig, CobraEncoder
from repro.baselines.lightsync import LightSyncConfig, LightSyncEncoder
from repro.bench.runner import run_cobra_trial, run_lightsync_trial, run_rainbar_trial
from repro.bench.workloads import paper_link_config
from repro.core.encoder import FrameCodecConfig, FrameEncoder

#: Scheme -> (sequence, is_last, grid SHA-256) of: a full frame at
#: sequence 3, a 5-byte frame at sequence 7, and the two frames of a
#: 1.5-frame stream started at sequence 0x7FFF.
GRID_PINS = {
    "rainbar": [
        (3, False, "25996f4e7267b8bd3699d87b21b1d15a240ca00a8912dbdf690f012d5cc47241"),
        (7, False, "70d69f234affebe8d5fbf72aee5f89617b73fe6979e42c1ccd4171fb874eeda2"),
        (0x7FFF, False, "b60d8d28f6f44656d1465f775fb4da2434449b3d45d98cf915490f17f58b7e21"),
        (0, True, "c5b29eebe34c14ccf9039d56eda7be4861bf9eeb6c54af4c578c4fc3ded77f1f"),
    ],
    "cobra": [
        (3, False, "030435c8fbb2dbf9a9a9ad431e0dd2b111e24bfedaf6e57cb366f70e5448231a"),
        (7, False, "60f145365dc8feabc0964c2564f2290ea41634532f0b0bbbdbc00910304ffc3e"),
        (0x7FFF, False, "3aee46bfc402b86e3159392e9f87f5f08c954c4776e8219c635b9fc343877062"),
        (0, True, "ff96faeaff90458d4d82a43b4d77292fe77fc8cd7896ba45f2d7ee379b7dc5ef"),
    ],
    "lightsync": [
        (3, False, "645b59a4080921b9558d445bb27baa4c6213a8e4c508a4ba82b9ee8effe63ec7"),
        (7, False, "120d7e4406e104030b7aaa90ad53c458be8f3f112d7fdbb0f65182fee19fc545"),
        (0x7FFF, False, "d862655f179d9b37850ec387a1a7585816b64620f7d3ca07453849df6e41a900"),
        (0, True, "a469922c0eadfc121b302face095482dba8dbb4b8d888d1ecc5700ce91bfcc07"),
    ],
}

ENCODERS = {
    "rainbar": lambda: FrameEncoder(FrameCodecConfig()),
    "cobra": lambda: CobraEncoder(CobraConfig()),
    "lightsync": lambda: LightSyncEncoder(LightSyncConfig()),
}


def _payload(size: int, salt: int) -> bytes:
    return bytes((i * 131 + salt) % 256 for i in range(size))


@pytest.mark.parametrize("scheme", sorted(GRID_PINS))
def test_grid_pins(scheme):
    encoder = ENCODERS[scheme]()
    per_frame = encoder.config.payload_bytes_per_frame
    frames = [
        encoder.encode_frame(_payload(per_frame, 1), sequence=3),
        encoder.encode_frame(b"short", sequence=7),
    ]
    frames += encoder.encode_stream(_payload(per_frame + per_frame // 2, 2), start_sequence=0x7FFF)
    got = [
        (f.header.sequence, f.header.is_last, hashlib.sha256(f.grid.tobytes()).hexdigest())
        for f in frames
    ]
    assert got == GRID_PINS[scheme]


def _trial(system, frames_decoded, captures, dropped, payload_bytes, display_time_s,
           raw_wrong=0, raw_total=0):
    return {
        "system": system,
        "frames_total": 2,
        "frames_decoded": frames_decoded,
        "captures": captures,
        "captures_dropped": dropped,
        "correct_payload_bytes": payload_bytes,
        "total_payload_bytes": payload_bytes,
        "display_time_s": display_time_s,
        "raw_symbols_wrong": raw_wrong,
        "raw_symbols_total": raw_total,
        "params": {},
    }


TRIAL_PINS = [
    ("cobra", 0, _trial("cobra", 2, 4, 1, 524, 2 / 15)),
    ("cobra", 1, _trial("cobra", 2, 4, 0, 524, 2 / 15)),
    ("lightsync", 0, _trial("lightsync", 2, 4, 0, 284, 2 / 15)),
    ("lightsync", 1, _trial("lightsync", 2, 4, 0, 284, 2 / 15)),
]


@pytest.mark.parametrize(
    "system,seed,expected", TRIAL_PINS, ids=[f"{s}-seed{n}" for s, n, _ in TRIAL_PINS]
)
def test_baseline_trial_pins(system, seed, expected):
    if system == "cobra":
        trial = run_cobra_trial(CobraConfig(), paper_link_config(), num_frames=2, seed=seed)
    else:
        trial = run_lightsync_trial(LightSyncConfig(), paper_link_config(), num_frames=2, seed=seed)
    assert dataclasses.asdict(trial) == expected


def test_rainbar_trial_pin():
    trial = run_rainbar_trial(
        FrameCodecConfig(), paper_link_config(), num_frames=2, seed=0, measure_raw_symbols=True
    )
    assert dataclasses.asdict(trial) == _trial("rainbar", 2, 6, 0, 620, 0.2, 0, 8700)
