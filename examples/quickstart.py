#!/usr/bin/env python
"""Quickstart: send a message across a simulated screen-camera link.

Encodes a short byte string into RainBar color-barcode frames, displays
them on the simulated sender screen, films them with the simulated
rolling-shutter camera at a 15 degree view angle, and decodes the
captures back into the original bytes.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    FrameCodecConfig,
    FrameDecoder,
    FrameEncoder,
    FrameSchedule,
    LinkConfig,
    ScreenCameraLink,
)
from repro.link import BufferedReceiver


def main() -> None:
    message = (
        b"Hello from RainBar! Color barcodes carry 2 bits per block, "
        b"tracking bars survive rolling shutter, and Reed-Solomon "
        b"cleans up whatever the camera smudges."
    )

    # --- sender -----------------------------------------------------------
    config = FrameCodecConfig(display_rate=10)
    frames = FrameEncoder(config).encode_stream(message)
    print(f"message of {len(message)} bytes -> {len(frames)} frame(s) "
          f"({config.payload_bytes_per_frame} payload bytes per frame)")

    schedule = FrameSchedule(
        [frame.render() for frame in frames], display_rate=config.display_rate
    )

    # --- channel ----------------------------------------------------------
    link = ScreenCameraLink(
        LinkConfig(distance_cm=12.0, view_angle_deg=15.0),
        rng=np.random.default_rng(7),
    )
    captures = link.capture_stream(schedule)
    print(f"camera produced {len(captures)} captures at 30 fps")

    # --- receiver ----------------------------------------------------------
    # One loop decodes every capture, routes its rows into frames by the
    # tracking bars, and error-corrects and CRC-checks each frame.
    report = BufferedReceiver(FrameDecoder(config)).process(captures)
    for stage, count in sorted(report.drop_reasons.items()):
        print(f"  {count} capture(s) dropped at the {stage} stage")

    received = bytearray()
    for result in sorted(report.results, key=lambda r: r.sequence):
        status = "ok" if result.ok else f"FAILED ({result.failure})"
        print(f"  frame {result.sequence}: {status}")
        if result.ok:
            received.extend(result.payload)

    recovered = bytes(received[: len(message)])
    print()
    if recovered == message:
        print(f"success! recovered: {recovered.decode()!r}")
    else:
        print("mismatch between sent and received payloads")


if __name__ == "__main__":
    main()
