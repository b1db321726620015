"""Conformance suite for the capture-trace format.

Every malformed trace must fail **loudly and precisely**: a typed
:class:`TraceFormatError` naming the offending file and — where one is
determinable — the frame offset.  A corrupt trace never yields a
silent partial decode; a healthy trace opened with ``verify=False``
still passes every structural check.
"""

from __future__ import annotations

import json
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro.io.trace import (
    TRACE_MAGIC,
    TRACE_SCHEMA_VERSION,
    TraceFormatError,
    TraceMetadata,
    TraceReader,
    TraceWriter,
    trace_info,
    write_trace,
)


def make_trace(path: Path, num_frames: int = 5, chunk_frames: int = 2) -> Path:
    """A small healthy multi-chunk trace to corrupt."""
    with TraceWriter(
        path,
        metadata=TraceMetadata(resolution=(4, 6), fps=30.0, fault_plan="none@seed=0"),
        chunk_frames=chunk_frames,
    ) as writer:
        for i in range(num_frames):
            frame = np.full((4, 6, 3), i * 10, dtype=np.uint8)
            writer.append(frame, i / 30.0)
    return path


@pytest.fixture()
def trace(tmp_path: Path) -> Path:
    return make_trace(tmp_path / "t.rbtrace")


def edit_header(trace: Path, **overrides) -> None:
    header_path = trace / "header.json"
    header = json.loads(header_path.read_text())
    header.update(overrides)
    header_path.write_text(json.dumps(header))


def edit_index_line(trace: Path, line_no: int, **overrides) -> None:
    index_path = trace / "index.jsonl"
    lines = index_path.read_text().splitlines()
    entry = json.loads(lines[line_no])
    entry.update(overrides)
    lines[line_no] = json.dumps(entry)
    index_path.write_text("\n".join(lines) + "\n")


# -- header-level violations (offset is None: no frame implicated) -------


def test_missing_directory(tmp_path):
    with pytest.raises(TraceFormatError) as exc:
        TraceReader(tmp_path / "nope.rbtrace")
    assert exc.value.offset is None
    assert "header.json" in str(exc.value)


def test_missing_header(trace):
    (trace / "header.json").unlink()
    with pytest.raises(TraceFormatError, match="missing header.json"):
        TraceReader(trace)


def test_header_not_json(trace):
    (trace / "header.json").write_text("{not json")
    with pytest.raises(TraceFormatError, match="unreadable trace header"):
        TraceReader(trace)


def test_header_not_utf8(trace):
    (trace / "header.json").write_bytes(b"\xff\xfe\x00\x81 garbage")
    with pytest.raises(TraceFormatError, match="unreadable trace header"):
        TraceReader(trace)


def test_header_not_an_object(trace):
    (trace / "header.json").write_text('["a", "list"]')
    with pytest.raises(TraceFormatError, match="not a JSON object"):
        TraceReader(trace)


def test_wrong_magic(trace):
    edit_header(trace, magic="some-other-format")
    with pytest.raises(TraceFormatError, match=TRACE_MAGIC):
        TraceReader(trace)


@pytest.mark.parametrize("version", [0, TRACE_SCHEMA_VERSION + 1, "1", None])
def test_mismatched_schema_version_refused(trace, version):
    """A reader must refuse, not guess at, any version it doesn't know."""
    edit_header(trace, version=version)
    with pytest.raises(TraceFormatError, match="unsupported trace schema version"):
        TraceReader(trace)


def test_missing_index(trace):
    (trace / "index.jsonl").unlink()
    with pytest.raises(TraceFormatError, match="missing index.jsonl") as exc:
        TraceReader(trace)
    assert exc.value.path.endswith("index.jsonl")


# -- index-level violations (offset = first affected frame) --------------


def test_corrupt_index_line(trace):
    index_path = trace / "index.jsonl"
    lines = index_path.read_text().splitlines()
    lines[1] = "{broken"
    index_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceFormatError, match="corrupt index line 2") as exc:
        TraceReader(trace)
    assert exc.value.offset == 2  # chunk 0 held frames 0-1


def test_index_not_utf8(trace):
    (trace / "index.jsonl").write_bytes(b"\xff\xfe\x00\x81 garbage")
    with pytest.raises(TraceFormatError, match="unreadable index") as exc:
        TraceReader(trace)
    assert exc.value.path.endswith("index.jsonl")


def test_index_missing_field(trace):
    index_path = trace / "index.jsonl"
    lines = index_path.read_text().splitlines()
    entry = json.loads(lines[0])
    del entry["frames"]
    lines[0] = json.dumps(entry)
    index_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceFormatError, match=r"lacks field\(s\) \['frames'\]"):
        TraceReader(trace)


def test_index_gap_detected(trace):
    edit_index_line(trace, 1, start=5)
    with pytest.raises(TraceFormatError, match="gap or overlap") as exc:
        TraceReader(trace)
    assert exc.value.offset == 2


def test_index_total_disagrees_with_header(trace):
    edit_header(trace, num_frames=99)
    with pytest.raises(TraceFormatError, match="header declares 99"):
        TraceReader(trace)


def test_index_chunk_count_disagrees_with_header(trace):
    edit_header(trace, num_chunks=7)
    with pytest.raises(TraceFormatError, match="header declares"):
        TraceReader(trace)


# -- chunk-level violations (lazy: surface on read, not open) ------------


def test_missing_chunk_file(trace):
    (trace / "chunks" / "chunk-00001.npz").unlink()
    reader = TraceReader(trace)  # header+index still validate
    with pytest.raises(TraceFormatError, match="missing chunk file") as exc:
        reader.validate()
    assert exc.value.offset == 2


def test_truncated_chunk_detected_by_sha(trace):
    chunk = trace / "chunks" / "chunk-00001.npz"
    chunk.write_bytes(chunk.read_bytes()[:-20])
    with pytest.raises(TraceFormatError, match="SHA-256") as exc:
        TraceReader(trace).validate()
    assert exc.value.offset == 2
    assert exc.value.path.endswith("chunk-00001.npz")


def test_truncated_chunk_detected_without_sha_verification(trace):
    """Even with verify=False the zip layer must catch the truncation —
    structural checks never turn off."""
    chunk = trace / "chunks" / "chunk-00001.npz"
    chunk.write_bytes(chunk.read_bytes()[:-20])
    with pytest.raises(TraceFormatError, match="unreadable chunk") as exc:
        TraceReader(trace, verify=False).validate()
    assert exc.value.offset == 2


def test_empty_chunk_detected_without_sha_verification(trace):
    """An emptied chunk makes ``np.load`` raise EOFError, which must still
    surface as the typed error."""
    (trace / "chunks" / "chunk-00001.npz").write_bytes(b"")
    with pytest.raises(TraceFormatError, match="unreadable chunk.*EOFError") as exc:
        TraceReader(trace, verify=False).validate()
    assert exc.value.offset == 2


def test_chunk_frame_count_disagrees_with_index(trace):
    # Rewrite chunk 1 with an extra frame, fixing its sha so only the
    # count check can catch the disagreement.
    chunk = trace / "chunks" / "chunk-00001.npz"
    with np.load(chunk) as data:
        images, times = data["images"], data["times"]
    np.savez_compressed(
        chunk,
        images=np.concatenate([images, images[:1]]),
        times=np.concatenate([times, times[:1]]),
    )
    import hashlib

    edit_index_line(trace, 1, sha256=hashlib.sha256(chunk.read_bytes()).hexdigest())
    with pytest.raises(TraceFormatError, match="index declares 2") as exc:
        TraceReader(trace).validate()
    assert exc.value.offset == 2


def test_nan_time_in_chunk_locates_exact_frame(trace):
    chunk = trace / "chunks" / "chunk-00001.npz"
    with np.load(chunk) as data:
        images, times = data["images"], np.array(data["times"])
    times[1] = np.nan  # global frame 3
    np.savez_compressed(chunk, images=images, times=times)
    import hashlib

    edit_index_line(trace, 1, sha256=hashlib.sha256(chunk.read_bytes()).hexdigest())
    with pytest.raises(TraceFormatError, match="non-finite capture time") as exc:
        TraceReader(trace).validate()
    assert exc.value.offset == 3


def test_corruption_never_yields_partial_decode(trace):
    """Iteration must raise at the bad chunk, not fall off the end."""
    (trace / "chunks" / "chunk-00002.npz").write_bytes(b"garbage")
    seen = []
    with pytest.raises(TraceFormatError):
        for frame in TraceReader(trace, verify=False):
            seen.append(frame.index)
    assert seen == [0, 1, 2, 3]  # chunks 0-1 streamed, chunk 2 raised


# -- writer guards --------------------------------------------------------


def test_writer_rejects_nonfinite_time(tmp_path):
    writer = TraceWriter(tmp_path / "w.rbtrace")
    frame = np.zeros((2, 2, 3), dtype=np.uint8)
    writer.append(frame, 0.0)
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(TraceFormatError, match="non-finite capture time") as exc:
            writer.append(frame, bad)
        assert exc.value.offset == 1


def test_writer_rejects_shape_and_dtype_drift(tmp_path):
    writer = TraceWriter(tmp_path / "w.rbtrace")
    writer.append(np.zeros((2, 2, 3), dtype=np.uint8), 0.0)
    with pytest.raises(ValueError, match="frame 1"):
        writer.append(np.zeros((2, 3, 3), dtype=np.uint8), 0.1)
    with pytest.raises(ValueError, match="frame 1"):
        writer.append(np.zeros((2, 2, 3), dtype=np.float64), 0.1)


def test_writer_rejects_append_after_close(tmp_path):
    writer = TraceWriter(tmp_path / "w.rbtrace")
    writer.append(np.zeros((2, 2, 3), dtype=np.uint8), 0.0)
    writer.close()
    with pytest.raises(ValueError, match="closed"):
        writer.append(np.zeros((2, 2, 3), dtype=np.uint8), 1.0)


def test_writer_rejects_bad_chunk_frames(tmp_path):
    with pytest.raises(ValueError, match="chunk_frames"):
        TraceWriter(tmp_path / "w.rbtrace", chunk_frames=0)


def test_crashed_writer_leaves_no_validating_torso(tmp_path):
    """An exception mid-write must not finalize a header."""
    path = tmp_path / "crash.rbtrace"
    with pytest.raises(RuntimeError, match="boom"):
        with TraceWriter(path) as writer:
            writer.append(np.zeros((2, 2, 3), dtype=np.uint8), 0.0)
            raise RuntimeError("boom")
    with pytest.raises(TraceFormatError, match="missing header.json"):
        TraceReader(path)


# -- format basics --------------------------------------------------------


def test_empty_trace_round_trips(tmp_path):
    reader = write_trace(tmp_path / "empty.rbtrace", [])
    assert reader.num_frames == 0 and len(reader) == 0
    images, times = reader.read_all()
    assert images.shape[0] == 0 and times.shape == (0,)
    assert list(reader) == []


def test_metadata_unknown_keys_fold_into_extra():
    """Forward compatibility: a newer producer's additive keys survive."""
    doc = TraceMetadata(fps=30.0, extra={"a": 1}).to_dict()
    doc["lens_model"] = "wide-v2"  # future additive field
    restored = TraceMetadata.from_dict(doc)
    assert restored.fps == 30.0
    assert restored.extra == {"a": 1, "lens_model": "wide-v2"}


def test_error_message_embeds_path_and_offset():
    err = TraceFormatError("bad thing", path="/x/chunk.npz", offset=7)
    assert err.path == "/x/chunk.npz" and err.offset == 7
    assert "/x/chunk.npz" in str(err) and "frame 7" in str(err)
    assert isinstance(err, ValueError)


def test_trace_info_summarizes_without_opening_chunks(trace):
    (trace / "chunks" / "chunk-00000.npz").write_bytes(b"garbage")
    info = trace_info(trace)  # must not touch chunk payloads
    assert info["num_frames"] == 5 and info["num_chunks"] == 3
    assert info["frame_shape"] == [4, 6, 3]
    assert info["frame_dtype"] == "uint8"
    assert info["metadata"]["fault_plan"] == "none@seed=0"


def test_rewriting_over_existing_trace_truncates_stale_state(tmp_path):
    path = make_trace(tmp_path / "t.rbtrace", num_frames=6)
    make_trace(path, num_frames=2, chunk_frames=2)
    reader = TraceReader(path)
    assert reader.num_frames == 2
    reader.validate()  # stale chunk files are simply unreferenced


def test_writer_stores_chunks_uncompressed(trace):
    """Chunks are written ``ZIP_STORED``: a noisy capture barely deflates,
    and inflating it was almost all of a replay's read time."""
    chunks = sorted((trace / "chunks").glob("*.npz"))
    assert len(chunks) == 3
    for chunk in chunks:
        with zipfile.ZipFile(chunk) as archive:
            members = archive.infolist()
            assert [m.filename for m in members] == ["images.npy", "times.npy"]
            assert all(m.compress_type == zipfile.ZIP_STORED for m in members)
