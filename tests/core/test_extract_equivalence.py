"""Bit-identity pin for the decoder's extraction stage.

Every extraction :meth:`FrameDecoder.extract_diagnosed` produces on a
fixed set of captures is hashed with SHA-256, in both classifier modes.
A success contributes its data symbols, data-cell centers, row
assignment, row confidence, header and the four scalar diagnostics
(T_v, block size, locator refinement, corner purity); a failure
contributes ``repr`` of its :class:`DecodeFailure`.  The pinned digest
was computed before the corner and locator stages were vectorized, so
any refactor of those stages that changes a single bit of any
extraction fails here.

Inputs: seeded default-condition captures, one capture per
:mod:`repro.faults` scenario, and four synthetic edge cases (uniform
noise, all black, a half-width crop and a darkened capture).

Sensor-stage faults (exposure and white-balance drift, scanline
corruption) run before 8-bit quantization, so the five captures that
carry one changed when captures became ``uint8`` and the full digest
was re-pinned then.  Every other input's extraction is pinned by
:data:`FIXED_DIGEST`, which was computed before that change.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro import telemetry
from repro.channel.link import LinkConfig, ScreenCameraLink
from repro.channel.screen import FrameSchedule
from repro.core.decoder import FrameDecoder
from repro.core.encoder import FrameCodecConfig, FrameEncoder
from repro.faults import scenario_names, scenario_plan
from repro.imaging.color import normalize_frame
from repro.telemetry.metrics import MetricsRegistry

#: SHA-256 over every extraction below, in both classifier modes.
EXPECTED_DIGEST = "43b9fe50761dd6ab8b1f5f0f758ef9d9d88f2395197013914f843101402256f1"

#: Captures whose scenario has a sensor-stage fault.
SENSOR_STAGE_CAPTURES = frozenset(
    f"fault/{name}" for name in ("overexposed", "underexposed", "wb_drift", "scanline", "combined")
)

#: SHA-256 over the extractions of every other input, both modes.
FIXED_DIGEST = "e49341cea28b6671c7eb0f2cf7e15dd674de44e77b788ae9f6c3519380fc5534"

#: SHA-256 of the deterministic metrics snapshot of decoding every
#: capture with telemetry on, ``classify.margin`` float sum excluded.
EXPECTED_METRICS_DIGEST = "5188d7d90b7183f4fa6c54305ae844a9aec3ca8f32f1f653e61578969d39e86e"

_DEFAULT_CAPTURES = 8


def _schedule(codec: FrameCodecConfig, num_frames: int, faults=None) -> FrameSchedule:
    payload = bytes(i * 37 % 256 for i in range(codec.payload_bytes_per_frame * num_frames))
    frames = FrameEncoder(codec).encode_stream(payload)
    return FrameSchedule(
        [f.render() for f in frames], display_rate=codec.display_rate, faults=faults
    )


def build_captures() -> list[tuple[str, np.ndarray]]:
    """The named captures every digest below is computed over."""
    codec = FrameCodecConfig()
    period = LinkConfig().timing.capture_period
    out: list[tuple[str, np.ndarray]] = []

    link = ScreenCameraLink(LinkConfig(), rng=np.random.default_rng(11))
    schedule = _schedule(codec, num_frames=3)
    for i in range(_DEFAULT_CAPTURES):
        capture = link.capture_at(schedule, 0.013 + i * period, capture_index=i)
        out.append((f"default/{i}", capture.image))

    for name in scenario_names():
        faults = scenario_plan(name, seed=3)
        link = ScreenCameraLink(LinkConfig(), rng=np.random.default_rng(5), faults=faults)
        stream = link.capture_stream(_schedule(codec, 1, faults), start_offset=0.02)
        out.append((f"fault/{name}", stream[-1].image))

    # The synthetic cases are built from the float view of default/0:
    # on the uint8 capture, ``base * 0.3`` would be a different input.
    base = normalize_frame(out[0][1])
    out.append(("noise", np.random.default_rng(2).random(base.shape)))
    out.append(("black", np.zeros(base.shape)))
    out.append(("half_crop", base[:, : base.shape[1] // 2]))
    out.append(("darkened", base * 0.3))
    return out


@pytest.fixture(scope="module")
def captures() -> list[tuple[str, np.ndarray]]:
    return build_captures()


def _update_array(h, array: np.ndarray | None) -> None:
    if array is None:
        h.update(b"none")
        return
    array = np.ascontiguousarray(array)
    h.update(f"{array.dtype.str}{array.shape}".encode())
    h.update(array.tobytes())


def _extraction_digest(decoder: FrameDecoder, image: np.ndarray) -> str:
    h = hashlib.sha256()
    extraction, diagnostics = decoder.extract_diagnosed(image)
    if extraction is None:
        h.update(repr(diagnostics.failure).encode())
        return h.hexdigest()
    for array in (
        extraction.data_symbols,
        extraction.centers,
        extraction.row_assignment,
        extraction.row_confidence,
    ):
        _update_array(h, array)
    h.update(repr(extraction.header).encode())
    for value in (
        diagnostics.t_value,
        diagnostics.block_size,
        diagnostics.locator_refinement,
        diagnostics.corner_purity,
    ):
        h.update(float(value).hex().encode())
    return h.hexdigest()


def _all_digests(captures) -> list[str]:
    lines = []
    for mode in ("hsv", "rgb"):
        decoder = FrameDecoder(FrameCodecConfig(), classifier_mode=mode)
        for name, image in captures:
            lines.append(f"{mode} {name} {_extraction_digest(decoder, image)}")
    return lines


def telemetry_snapshot(captures) -> dict:
    """Deterministic metrics of decoding every capture with telemetry on."""
    registry = MetricsRegistry()
    decoder = FrameDecoder(FrameCodecConfig())
    with telemetry.scoped(registry=registry):
        for _, image in captures:
            decoder.extract_diagnosed(image)
    return registry.snapshot(include_timing=False)


def test_inputs_cover_successes_and_failures(captures):
    decoder = FrameDecoder(FrameCodecConfig())
    outcomes = [decoder.extract_diagnosed(image)[0] is not None for _, image in captures]
    assert any(outcomes) and not all(outcomes)


def test_extractions_are_bit_identical_to_pin(captures):
    lines = _all_digests(captures)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == EXPECTED_DIGEST, "\n".join(lines)


def test_fault_free_extractions_are_bit_identical_to_pin(captures):
    lines = [
        line for line in _all_digests(captures)
        if line.split()[1] not in SENSOR_STAGE_CAPTURES
    ]
    assert len(lines) == 2 * (len(captures) - len(SENSOR_STAGE_CAPTURES))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == FIXED_DIGEST, "\n".join(lines)


def test_metrics_snapshot_matches_pin(captures):
    # The margin histogram sees the same observations, but its float
    # sum depends on how they are batched (the corner rings are one
    # batch), so only its bucket counts and count are pinned.
    snapshot = telemetry_snapshot(captures)
    del snapshot["histograms"]["classify.margin"]["sum"]
    digest = hashlib.sha256(json.dumps(snapshot, sort_keys=True).encode()).hexdigest()
    assert digest == EXPECTED_METRICS_DIGEST, json.dumps(snapshot, indent=1, sort_keys=True)

