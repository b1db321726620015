"""Regenerate the golden decode corpus under ``tests/fixtures/corpus/``.

Run from the repository root:

    PYTHONPATH=src python tests/fixtures/regen_corpus.py

Each fixture is one captured image (8-bit PNG) of the small campaign
geometry plus its expected decode outcome in ``expected.json``, and —
since the capture-trace wire format landed — the same uint8 capture
as a one-frame trace under ``corpus/traces/<name>.rbtrace/`` (decoding
the trace is bit-identical to decoding the PNG: both hold the capture's
own uint8 samples, and every decoder divides them by 255).  The
builder is fully deterministic — seeds are fixed, every random draw
comes from a named generator — so regenerating on an unchanged decoder
reproduces the corpus byte for byte.  Regenerate (and review the diff
of ``expected.json``!) whenever an intentional pipeline change shifts
decode outcomes; the golden test
(``tests/integration/test_golden_corpus.py``) treats any unreviewed
drift as a regression.

To add a fixture, append a case to :func:`corpus_cases` — a name, a
fault scenario (or None), a capture time — and rerun.  Keep the corpus
small: it exists to pin decoder behaviour, not to be a benchmark.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

CORPUS_DIR = Path(__file__).parent / "corpus"

#: Geometry shared with the fault campaign: small enough for fast CI
#: and small PNGs, large enough to exercise the full pipeline.
GRID = (24, 44, 8)  # grid_rows, grid_cols, block_px
SENSOR = (300, 480)
DISPLAY_RATE = 10


def _codec():
    from repro.core.encoder import FrameCodecConfig
    from repro.core.layout import FrameLayout

    rows, cols, block = GRID
    return FrameCodecConfig(
        layout=FrameLayout(grid_rows=rows, grid_cols=cols, block_px=block),
        display_rate=DISPLAY_RATE,
    )


def corpus_cases() -> list[dict]:
    """The fixture matrix: name, fault scenario, capture start time.

    ``time`` is in display-frame periods; 0.25 lands the whole readout
    inside frame 0, 0.9 straddles the frame-0 -> frame-1 switch (a
    rolling-shutter mixed capture).  ``seed`` seeds the fault plan; the
    occlusion seed is chosen so the finger clips the grid but leaves
    the locator columns usable — a *degraded* decode (erased symbols)
    rather than an outright failure, which the glare case covers.
    """
    return [
        {"name": "clean", "scenario": None, "time": 0.25, "seed": 3},
        {"name": "mixed_frame", "scenario": None, "time": 0.9, "seed": 3},
        {"name": "occluded", "scenario": "occlusion_finger", "time": 0.25, "seed": 4},
        {"name": "glare", "scenario": "glare", "time": 0.25, "seed": 3},
        {"name": "overexposed", "scenario": "overexposed", "time": 0.25, "seed": 3},
        {"name": "underexposed", "scenario": "underexposed", "time": 0.25, "seed": 3},
    ]


def render_fixture(case: dict) -> np.ndarray:
    """Produce the uint8 capture image for one corpus case."""
    from repro.channel.link import LinkConfig, ScreenCameraLink
    from repro.channel.screen import FrameSchedule
    from repro.core.encoder import FrameEncoder
    from repro.faults import scenario_plan

    codec = _codec()
    payload = bytes((11 * i + 5) % 256 for i in range(codec.payload_bytes_per_frame * 2))
    frames = FrameEncoder(codec).encode_stream(payload)
    faults = scenario_plan(case["scenario"], seed=case["seed"]) if case["scenario"] else None
    schedule = FrameSchedule(
        [f.render() for f in frames], display_rate=DISPLAY_RATE, faults=faults
    )
    link = ScreenCameraLink(
        LinkConfig(sensor_size=SENSOR),
        rng=np.random.default_rng([0x90_1D, hash_name(case["name"])]),
        faults=faults,
    )
    capture = link.capture_at(
        schedule, start_time=case["time"] / DISPLAY_RATE, capture_index=0
    )
    return capture.image


def hash_name(name: str) -> int:
    import zlib

    return zlib.crc32(name.encode())


def expected_outcome(image_u8: np.ndarray) -> dict:
    """Decode one uint8 capture and record the golden outcome."""
    from repro.core.decoder import FrameDecoder

    decoder = FrameDecoder(_codec())
    extraction, diagnostics = decoder.extract_diagnosed(image_u8)
    if extraction is None:
        assert diagnostics.failure is not None
        return {
            "decodes": False,
            "failure_stage": diagnostics.failure.stage,
        }
    return {
        "decodes": True,
        "sequence": int(extraction.header.sequence),
        "has_next_frame_rows": bool(extraction.has_next_frame_rows),
        "erased_symbols": int(np.sum(extraction.data_symbols < 0)),
        "rows_next_frame": int(np.sum(extraction.row_assignment == 1)),
        "rows_ambiguous": int(np.sum(extraction.row_assignment == -1)),
    }


def write_fixture_trace(case: dict, image_u8: np.ndarray, out_dir: Path) -> None:
    """Store one fixture as a one-frame capture trace (schema v1).

    The trace carries the *identical* uint8 pixels the PNG does, so
    replay-decoding it is bit-identical to the golden PNG path.
    ``git_rev`` is deliberately left empty: the corpus must
    regenerate byte-for-byte on an unchanged decoder, and a baked-in
    revision would churn on every commit.
    """
    import shutil

    from repro.channel.camera import CameraTiming
    from repro.io.trace import TraceMetadata, TraceWriter

    timing = CameraTiming()
    fingerprint = ""
    if case["scenario"]:
        fingerprint = f"{case['scenario']}@seed={case['seed']}"
    rows, cols, block = GRID
    metadata = TraceMetadata(
        resolution=SENSOR,
        fps=timing.capture_rate,
        exposure_s=timing.exposure_s,
        readout_fraction=timing.readout_fraction,
        fault_plan=fingerprint,
        extra={
            "fixture": case["name"],
            "display_rate": DISPLAY_RATE,
            "grid_rows": rows,
            "grid_cols": cols,
            "block_px": block,
        },
    )
    trace_dir = out_dir / "traces" / f"{case['name']}.rbtrace"
    if trace_dir.exists():
        shutil.rmtree(trace_dir)
    with TraceWriter(trace_dir, metadata) as writer:
        writer.append(image_u8, case["time"] / DISPLAY_RATE)


def regenerate(out_dir: Path = CORPUS_DIR) -> dict:
    from repro.io import write_png

    out_dir.mkdir(parents=True, exist_ok=True)
    expected: dict[str, dict] = {}
    for case in corpus_cases():
        image = render_fixture(case)
        write_png(out_dir / f"{case['name']}.png", image)
        write_fixture_trace(case, image, out_dir)
        expected[case["name"]] = expected_outcome(image)
        print(f"{case['name']}: {expected[case['name']]}")
    (out_dir / "expected.json").write_text(
        json.dumps(expected, indent=2, sort_keys=True) + "\n"
    )
    return expected


if __name__ == "__main__":
    regenerate()
    print(f"corpus written to {CORPUS_DIR}")
    sys.exit(0)
