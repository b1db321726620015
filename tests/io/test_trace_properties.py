"""Round-trip property tests for the capture-trace container.

For arbitrary frame shapes, dtypes, timings and chunkings: write a
trace, read it back, and demand the arrays and metadata come out
**bit-identical** — through both the load-everything path
(:meth:`TraceReader.read_all`) and the streaming iterator (the chunked
path long sessions rely on).  The container must never quantize,
rescale, reorder or drop anything.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io.trace import (
    TraceMetadata,
    TraceReader,
    TraceWriter,
    write_trace,
)

DTYPES = (np.uint8, np.uint16, np.int32, np.float32, np.float64)


@st.composite
def trace_payload(draw):
    """(frames, times, chunk_frames): one consistent trace worth of data."""
    num_frames = draw(st.integers(min_value=0, max_value=9))
    height = draw(st.integers(min_value=1, max_value=6))
    width = draw(st.integers(min_value=1, max_value=6))
    channels = draw(st.sampled_from([None, 1, 3]))
    dtype = np.dtype(draw(st.sampled_from(DTYPES)))
    shape = (height, width) if channels is None else (height, width, channels)
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    if dtype.kind in "ui":
        info = np.iinfo(dtype)
        frames = [
            rng.integers(info.min, info.max, size=shape, endpoint=True).astype(dtype)
            for _ in range(num_frames)
        ]
    else:
        frames = [
            (rng.standard_normal(shape) * 1e3).astype(dtype) for _ in range(num_frames)
        ]
    times = [
        draw(st.floats(min_value=-1e9, max_value=1e9, allow_nan=False,
                       allow_infinity=False))
        for _ in range(num_frames)
    ]
    chunk_frames = draw(st.integers(min_value=1, max_value=4))
    return frames, times, chunk_frames


@settings(max_examples=30, deadline=None)
@given(payload=trace_payload())
def test_round_trip_bit_identical(tmp_path_factory, payload):
    frames, times, chunk_frames = payload
    path = tmp_path_factory.mktemp("prop") / "t.rbtrace"
    metadata = TraceMetadata(
        resolution=(7, 9), fps=30.0, exposure_s=0.004, readout_fraction=0.9,
        fault_plan="prop@seed=1", git_rev="deadbee",
        extra={"k": "v", "n": len(frames)},
    )
    with TraceWriter(path, metadata=metadata, chunk_frames=chunk_frames) as writer:
        for frame, t in zip(frames, times):
            writer.append(frame, t)
    reader = writer.close()

    assert reader.num_frames == len(frames)
    assert reader.metadata == metadata

    # Bulk path: arrays and dtypes exactly as written.
    images, out_times = reader.read_all()
    assert len(images) == len(frames)
    for original, restored in zip(frames, images):
        assert restored.dtype == original.dtype
        assert np.array_equal(restored, original, equal_nan=True)
    assert np.array_equal(out_times, np.asarray(times, dtype=np.float64))

    # Streaming path: same frames, same order, contiguous indices.
    streamed = list(TraceReader(path))
    assert [f.index for f in streamed] == list(range(len(frames)))
    for original, t, frame in zip(frames, times, streamed):
        assert frame.time == float(t)
        assert frame.image.dtype == original.dtype
        assert np.array_equal(frame.image, original, equal_nan=True)


@settings(max_examples=15, deadline=None)
@given(
    num_frames=st.integers(min_value=1, max_value=6),
    chunk_frames=st.integers(min_value=1, max_value=3),
)
def test_nan_frame_values_round_trip(tmp_path_factory, num_frames, chunk_frames):
    """NaN *pixels* are legal payload (corrupted sensor rows) and must
    survive bit-exactly; only NaN *timing* is a format violation."""
    path = tmp_path_factory.mktemp("prop") / "nan.rbtrace"
    frames = []
    for i in range(num_frames):
        frame = np.full((2, 3, 3), float(i), dtype=np.float64)
        frame[0, 0, 0] = np.nan
        frames.append(frame)
    with TraceWriter(path, chunk_frames=chunk_frames) as writer:
        for i, frame in enumerate(frames):
            writer.append(frame, i * 0.5)
    images, _ = TraceReader(path).read_all()
    for original, restored in zip(frames, images):
        assert np.array_equal(restored, original, equal_nan=True)


def test_write_trace_helper_round_trips_captures(tmp_path):
    from repro.channel.link import Capture

    rng = np.random.default_rng(5)
    captures = [
        Capture(time=i / 30.0, image=rng.random((4, 4, 3))) for i in range(5)
    ]
    reader = write_trace(tmp_path / "c.rbtrace", captures, chunk_frames=2)
    restored = list(reader)
    assert len(restored) == len(captures)
    for a, b in zip(captures, restored):
        assert a.time == b.time
        assert np.array_equal(a.image, b.image)
