"""Replay-equivalence: decoding a trace == decoding the live captures.

The golden corpus now exists in two forms — the original PNG fixtures
and one-frame capture traces under ``tests/fixtures/corpus/traces/``.
These tests pin the contract of ROADMAP item 3: replaying a recorded
trace through :meth:`FrameDecoder.decode_trace` must be bit-identical
to decoding the same captures in memory, for every fixture and for
every worker count and chunk size (serial, 2 and 4 worker processes).
Payloads, ok flags, erasure counts *and* failure stages must match.
"""

from __future__ import annotations

import json
import zipfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.core.decoder import FrameDecoder
from repro.core.encoder import FrameCodecConfig
from repro.core.layout import FrameLayout
from repro.io import read_png
from repro.imaging.color import normalize_frame
from repro.io.trace import TraceMetadata, TraceReader, TraceWriter
from repro.serve import close_shared_pools

CORPUS_DIR = Path(__file__).parent.parent / "fixtures" / "corpus"
TRACES_DIR = CORPUS_DIR / "traces"
EXPECTED = json.loads((CORPUS_DIR / "expected.json").read_text())


@pytest.fixture
def _force_pooling(monkeypatch):
    # On a 1-core host replay would (correctly) decode in-process;
    # report four cores so pooled cases cross real worker processes.
    monkeypatch.setattr("repro.serve.pool.available_cpus", lambda: 4)
    yield
    close_shared_pools()


def _decoder() -> FrameDecoder:
    # Must match tests/fixtures/regen_corpus.py's GRID.
    layout = FrameLayout(grid_rows=24, grid_cols=44, block_px=8)
    return FrameDecoder(FrameCodecConfig(layout=layout, display_rate=10))


def _png_image(name: str) -> np.ndarray:
    return read_png(CORPUS_DIR / f"{name}.png").astype(np.float64) / 255.0


def test_corpus_traces_are_complete():
    names = {p.name.removesuffix(".rbtrace") for p in TRACES_DIR.glob("*.rbtrace")}
    assert names == set(EXPECTED), "corpus traces and expected.json disagree"


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_trace_pixels_match_png_fixture(name):
    """The trace stores the identical quantized pixels the PNG does."""
    reader = TraceReader(TRACES_DIR / f"{name}.rbtrace")
    images, times = reader.read_all()
    assert images.shape[0] == 1 and images.dtype == np.uint8
    assert np.array_equal(
        normalize_frame(images[0]), _png_image(name)
    ), f"{name}: trace pixels diverge from the PNG fixture"
    assert np.isfinite(times).all()
    assert reader.metadata.extra["fixture"] == name


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_trace_replay_matches_live_decode_per_fixture(name):
    """Serial replay: results and failure stages equal the live path."""
    decoder = _decoder()
    live_image = _png_image(name)
    live_results = decoder.decode_stream([live_image])
    replay_results = decoder.decode_trace(TRACES_DIR / f"{name}.rbtrace")
    assert replay_results == live_results

    # Failure *stages* must agree too, not just the None-ness.
    frame = next(iter(TraceReader(TRACES_DIR / f"{name}.rbtrace")))
    live_ex, live_diag = decoder.extract_diagnosed(live_image)
    replay_ex, replay_diag = decoder.extract_diagnosed(normalize_frame(frame.image))
    assert (live_ex is None) == (replay_ex is None)
    if live_ex is None:
        assert live_diag.failure is not None and replay_diag.failure is not None
        assert replay_diag.failure.stage == live_diag.failure.stage
        assert replay_diag.failure.stage == EXPECTED[name]["failure_stage"]
    else:
        assert np.array_equal(replay_ex.data_symbols, live_ex.data_symbols)
        assert np.array_equal(replay_ex.row_assignment, live_ex.row_assignment)
        assert replay_ex.header == live_ex.header


def _compress_types(trace: Path) -> set[int]:
    types = set()
    for chunk in (trace / "chunks").glob("*.npz"):
        with zipfile.ZipFile(chunk) as archive:
            types |= {member.compress_type for member in archive.infolist()}
    return types


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_rewritten_uncompressed_trace_decodes_like_committed(name, tmp_path):
    """A committed (deflated) trace and the same frames rewritten by
    today's writer (stored) replay to identical results."""
    committed = TRACES_DIR / f"{name}.rbtrace"
    reader = TraceReader(committed)
    rewritten = tmp_path / "rewritten.rbtrace"
    with TraceWriter(rewritten, reader.metadata) as writer:
        for frame in reader:
            writer.append(frame.image, frame.time)
    assert _compress_types(committed) == {zipfile.ZIP_DEFLATED}
    assert _compress_types(rewritten) == {zipfile.ZIP_STORED}

    decoder = _decoder()
    assert decoder.decode_trace(rewritten) == decoder.decode_trace(committed)
    old, new = next(iter(reader)), next(iter(TraceReader(rewritten)))
    assert new.image.dtype == old.image.dtype and np.array_equal(new.image, old.image)
    assert new.time == old.time
    old_ex, old_diag = decoder.extract_diagnosed(old.image)
    new_ex, new_diag = decoder.extract_diagnosed(new.image)
    if old_ex is None:
        assert new_ex is None and new_diag.failure.stage == old_diag.failure.stage
    else:
        assert np.array_equal(new_ex.data_symbols, old_ex.data_symbols)
        assert np.array_equal(new_ex.row_assignment, old_ex.row_assignment)
        assert new_ex.header == old_ex.header


@pytest.fixture(scope="module")
def combined_trace(tmp_path_factory):
    """All six fixtures concatenated into one multi-chunk trace."""
    path = tmp_path_factory.mktemp("replay") / "corpus.rbtrace"
    names = sorted(EXPECTED)
    with TraceWriter(
        path,
        metadata=TraceMetadata(resolution=(300, 480), fps=30.0,
                               extra={"fixtures": names}),
        chunk_frames=2,
    ) as writer:
        for i, name in enumerate(names):
            reader = TraceReader(TRACES_DIR / f"{name}.rbtrace")
            images, _ = reader.read_all()
            writer.append(images[0], i / 30.0)
    return path, names


def test_combined_trace_serial_replay_matches_live(combined_trace):
    path, names = combined_trace
    decoder = _decoder()
    live = decoder.decode_stream([_png_image(n) for n in names])
    assert decoder.decode_trace(path) == live


@pytest.mark.usefixtures("_force_pooling")
@pytest.mark.parametrize(
    "workers, chunksize",
    [
        pytest.param(2, None, id="2"),
        pytest.param(4, None, id="4"),
        pytest.param(1, 3, id="1-chunk3"),
        pytest.param(2, 1, id="2-chunk1"),
        pytest.param(2, 3, id="2-chunk3"),
        pytest.param(4, 4, id="4-chunk4"),
        pytest.param(4, 5, id="4-chunk5"),
    ],
)
def test_combined_trace_pooled_replay_bit_identical(combined_trace, workers, chunksize):
    """decode_trace at any worker count and chunk size == serial == live."""
    path, names = combined_trace
    decoder = _decoder()
    live = decoder.decode_stream([_png_image(n) for n in names], workers=1)
    pooled = decoder.decode_trace(path, workers=workers, chunksize=chunksize)
    assert pooled == live


@pytest.mark.usefixtures("_force_pooling")
def test_pooled_replay_submits_before_the_trace_is_read(combined_trace, monkeypatch):
    """The pooled replay streams: jobs leave before the last frame is read.

    Chunks leave at the requested size, so a replay never buffers the
    whole trace before the first worker starts.
    """
    path, names = combined_trace
    decoder = _decoder()
    live = decoder.decode_stream([_png_image(n) for n in names], workers=1)
    events: list[tuple[str, int]] = []
    read_frames = TraceReader.__iter__
    submit = ProcessPoolExecutor.submit

    def spy_iter(reader):
        for frame in read_frames(reader):
            events.append(("frame", frame.index))
            yield frame

    def spy_submit(executor, fn, /, *args, **kwargs):
        events.append(("submit", len(args[1])))
        return submit(executor, fn, *args, **kwargs)

    monkeypatch.setattr(TraceReader, "__iter__", spy_iter)
    monkeypatch.setattr(ProcessPoolExecutor, "submit", spy_submit)
    pooled = decoder.decode_trace(path, workers=2, chunksize=2)
    assert pooled == live
    assert [n for kind, n in events if kind == "submit"] == [2, 2, 2]
    first_submit = next(i for i, (kind, _) in enumerate(events) if kind == "submit")
    assert first_submit < events.index(("frame", len(names) - 1))
