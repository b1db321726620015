"""Versioned capture-trace container: record once, decode anywhere.

A *capture trace* stores a capture session — every frame the camera
produced plus its capture timing and the session's physical metadata —
independently of the simulator that produced it: the one container
for recorded sessions (``repro simulate --save-session`` and ``repro
trace record`` write it; ``repro decode`` and ``repro trace decode``
read it), and the basis for sharding decode work and keeping
cross-version regression corpora.  The on-disk layout is a
directory:

.. code-block:: text

    session.rbtrace/
        header.json         # magic, schema version, metadata, totals
        index.jsonl         # one line per chunk: file, start, frames, sha256
        chunks/
            chunk-00000.npz # images (N, ...), times (N,) — dtype preserved
            chunk-00001.npz

Frames are stored in **npz chunks** (``chunk_frames`` per file) so a
trace streams chunk by chunk without ever holding the whole session in
memory; the **JSONL index** names each chunk, its first frame offset,
its frame count and its SHA-256, so truncation and index/chunk
disagreement are detected instead of silently decoding a partial
session.  Arrays round-trip bit-identically: the writer never quantizes
or rescales (``np.savez`` is lossless for every dtype).  Chunks are
written uncompressed: a noisy uint8 capture deflates only ~1.6x, and
inflating it was nearly all of a verified read.  ``np.load`` reads
compressed chunks too, and the SHA-256 covers a chunk's bytes either
way, so traces written compressed stay readable under the same schema
version.

Schema-version policy
---------------------
``header.json`` carries ``version`` (currently
:data:`TRACE_SCHEMA_VERSION`).  The version bumps whenever an existing
reader could *misread* older or newer data: renaming/removing an array
or index field, changing the meaning of ``times``, or changing the
chunk layout.  Purely additive metadata keys do **not** bump it —
readers must ignore keys they do not know.  A reader refuses (typed
:class:`TraceFormatError`) any version it does not support rather than
guessing.

Every malformed-input path raises :class:`TraceFormatError` carrying
the offending path and, where determinable, the frame offset — never a
silent partial decode.
"""

from __future__ import annotations

import hashlib
import io as _io
import json
import zipfile
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Optional, Sequence

import numpy as np

if TYPE_CHECKING:
    from ..channel.link import Capture

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "TRACE_MAGIC",
    "TraceFormatError",
    "TraceMetadata",
    "TraceFrame",
    "TraceWriter",
    "TraceReader",
    "write_trace",
    "trace_info",
]

#: Current schema version; see the module docstring for the bump policy.
TRACE_SCHEMA_VERSION = 1

#: File-format identifier in ``header.json`` — guards against pointing
#: the reader at an unrelated directory full of JSON.
TRACE_MAGIC = "rainbar-capture-trace"

_HEADER_NAME = "header.json"
_INDEX_NAME = "index.jsonl"
_CHUNK_DIR = "chunks"


class TraceFormatError(ValueError):
    """A trace failed validation (corrupt, truncated, or wrong version).

    ``path`` names the offending file; ``offset`` is the frame offset
    the problem was located at (``None`` for header-level problems that
    precede any frame).  The message always embeds both so a bare
    ``str(exc)`` is actionable.
    """

    def __init__(self, message: str, *, path: "str | Path | None" = None,
                 offset: "int | None" = None):
        self.path = str(path) if path is not None else None
        self.offset = offset
        where = ""
        if self.path is not None:
            where = f" [{self.path}"
            where += f" @ frame {offset}]" if offset is not None else "]"
        elif offset is not None:
            where = f" [frame {offset}]"
        super().__init__(f"{message}{where}")


@dataclass(frozen=True)
class TraceMetadata:
    """Capture-session metadata stored in the trace header.

    Mirrors what a receiver needs to reason about a recorded session
    without the simulator that produced it: sensor geometry, capture
    timing (the paper's f_c plus the rolling-shutter parameters), the
    fault plan that degraded the channel, and provenance (git revision
    of the producer).  ``extra`` is an open namespace for producers;
    readers must ignore keys they do not know (see the version policy).
    """

    resolution: "tuple[int, int] | None" = None  # (height, width)
    fps: "float | None" = None  # capture rate f_c
    exposure_s: "float | None" = None
    readout_fraction: "float | None" = None
    fault_plan: str = ""  # fingerprint: scenario/impairments @ seed
    git_rev: str = ""
    extra: "dict[str, Any]" = field(default_factory=dict)

    def to_dict(self) -> "dict[str, Any]":
        doc = asdict(self)
        if doc["resolution"] is not None:
            doc["resolution"] = list(doc["resolution"])
        return doc

    @classmethod
    def from_dict(cls, doc: "dict[str, Any]") -> "TraceMetadata":
        known = {f for f in cls.__dataclass_fields__}
        kwargs: dict[str, Any] = {k: v for k, v in doc.items() if k in known}
        if kwargs.get("resolution") is not None:
            res = kwargs["resolution"]
            kwargs["resolution"] = (int(res[0]), int(res[1]))
        # Unknown top-level keys (a newer producer's additions) fold
        # into ``extra`` instead of being dropped or crashing.
        unknown = {k: v for k, v in doc.items() if k not in known}
        if unknown:
            merged = dict(kwargs.get("extra") or {})
            merged.update(unknown)
            kwargs["extra"] = merged
        return cls(**kwargs)


@dataclass(frozen=True)
class TraceFrame:
    """One replayed capture: global frame offset, timing, pixels."""

    index: int
    time: float
    image: np.ndarray


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class TraceWriter:
    """Streams captures into a new trace directory.

    Frames are buffered and flushed ``chunk_frames`` at a time; the
    header is written on :meth:`close` (a trace without a header is
    recognizably incomplete, so a crashed writer never leaves behind
    something that validates).  All frames must share one shape and
    dtype, and every timestamp must be finite — the writer enforces the
    invariants the reader's conformance checks assume.
    """

    def __init__(self, path: "str | Path", metadata: "TraceMetadata | None" = None,
                 chunk_frames: int = 64):
        if chunk_frames < 1:
            raise ValueError("chunk_frames must be at least 1")
        self.path = Path(path)
        self.metadata = metadata or TraceMetadata()
        self.chunk_frames = int(chunk_frames)
        self._images: list[np.ndarray] = []
        self._times: list[float] = []
        self._num_frames = 0
        self._num_chunks = 0
        self._frame_shape: "tuple[int, ...] | None" = None
        self._frame_dtype: "np.dtype[Any] | None" = None
        self._closed = False
        (self.path / _CHUNK_DIR).mkdir(parents=True, exist_ok=True)
        # Truncate any stale index from a previous trace at this path.
        (self.path / _INDEX_NAME).write_text("")
        header = self.path / _HEADER_NAME
        if header.exists():
            header.unlink()

    def append(self, image: np.ndarray, time: float) -> None:
        """Add one capture frame with its capture start time (seconds)."""
        if self._closed:
            raise ValueError("trace writer is closed")
        frame = np.asarray(image)
        t = float(time)
        if not np.isfinite(t):
            raise TraceFormatError(
                f"non-finite capture time {t!r}",
                path=self.path, offset=self._num_frames,
            )
        if self._frame_shape is None:
            self._frame_shape = frame.shape
            self._frame_dtype = frame.dtype
        elif frame.shape != self._frame_shape or frame.dtype != self._frame_dtype:
            raise ValueError(
                f"frame {self._num_frames} is {frame.shape}/{frame.dtype}, "
                f"trace is {self._frame_shape}/{self._frame_dtype}"
            )
        self._images.append(frame)
        self._times.append(t)
        self._num_frames += 1
        if len(self._images) >= self.chunk_frames:
            self._flush_chunk()

    def extend(self, captures: "Iterable[Capture]") -> None:
        """Append every capture of a session (``.time``/``.image`` pairs)."""
        for capture in captures:
            self.append(capture.image, capture.time)

    def _flush_chunk(self) -> None:
        name = f"chunk-{self._num_chunks:05d}.npz"
        rel = f"{_CHUNK_DIR}/{name}"
        chunk_path = self.path / _CHUNK_DIR / name
        start = self._num_frames - len(self._images)
        np.savez(
            chunk_path,
            images=np.stack(self._images),
            times=np.asarray(self._times, dtype=np.float64),
        )
        entry = {
            "chunk": rel,
            "start": start,
            "frames": len(self._images),
            "sha256": _sha256(chunk_path),
        }
        with (self.path / _INDEX_NAME).open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
        self._num_chunks += 1
        self._images = []
        self._times = []

    def close(self) -> "TraceReader":
        """Flush pending frames, write the header, return a reader."""
        if not self._closed:
            if self._images:
                self._flush_chunk()
            header = {
                "magic": TRACE_MAGIC,
                "version": TRACE_SCHEMA_VERSION,
                "num_frames": self._num_frames,
                "num_chunks": self._num_chunks,
                "frame_shape": list(self._frame_shape or ()),
                "frame_dtype": str(self._frame_dtype) if self._frame_dtype else "",
                "metadata": self.metadata.to_dict(),
            }
            (self.path / _HEADER_NAME).write_text(
                json.dumps(header, indent=2, sort_keys=True) + "\n"
            )
            self._closed = True
        return TraceReader(self.path)

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type: object, *exc: object) -> None:
        # Only finalize a cleanly-exited writer: an exception mid-write
        # must not leave behind a header that makes the torso validate.
        if exc_type is None:
            self.close()


class TraceReader:
    """Streaming, validating reader for one trace directory.

    The constructor validates the header and the index (cheap: no chunk
    is opened); iterating validates and yields one chunk at a time, so
    arbitrarily long traces replay in bounded memory.  ``verify=False``
    skips the per-chunk SHA-256 check (trusted local traces on a hot
    path); structural checks always run.
    """

    def __init__(self, path: "str | Path", verify: bool = True):
        self.path = Path(path)
        self.verify = verify
        header_path = self.path / _HEADER_NAME
        if not self.path.is_dir() or not header_path.is_file():
            raise TraceFormatError(
                "not a capture trace (missing header.json)", path=self.path
            )
        try:
            header = json.loads(header_path.read_text())
        except (OSError, ValueError) as exc:  # JSON or UTF-8 decoding too
            raise TraceFormatError(
                f"unreadable trace header: {exc}", path=header_path
            ) from exc
        if not isinstance(header, dict) or header.get("magic") != TRACE_MAGIC:
            raise TraceFormatError(
                f"not a capture trace (magic {header.get('magic')!r} "
                f"!= {TRACE_MAGIC!r})" if isinstance(header, dict)
                else "trace header is not a JSON object",
                path=header_path,
            )
        version = header.get("version")
        if version != TRACE_SCHEMA_VERSION:
            raise TraceFormatError(
                f"unsupported trace schema version {version!r} "
                f"(this reader supports {TRACE_SCHEMA_VERSION})",
                path=header_path,
            )
        self.header: dict[str, Any] = header
        self.metadata = TraceMetadata.from_dict(header.get("metadata") or {})
        self.num_frames = int(header.get("num_frames", 0))
        self.frame_shape: tuple[int, ...] = tuple(
            int(d) for d in header.get("frame_shape", ())
        )
        self.frame_dtype = str(header.get("frame_dtype", ""))
        self._index = self._load_index()

    # -- index -----------------------------------------------------------

    def _load_index(self) -> "list[dict[str, Any]]":
        index_path = self.path / _INDEX_NAME
        if not index_path.is_file():
            raise TraceFormatError("missing index.jsonl", path=index_path)
        try:
            lines = index_path.read_text().splitlines()
        except (OSError, ValueError) as exc:
            raise TraceFormatError(f"unreadable index: {exc}", path=index_path) from exc
        entries: list[dict[str, Any]] = []
        expected_start = 0
        for lineno, line in enumerate(lines, 1):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceFormatError(
                    f"corrupt index line {lineno}: {exc}",
                    path=index_path, offset=expected_start,
                ) from exc
            missing = {"chunk", "start", "frames"} - set(entry)
            if missing:
                raise TraceFormatError(
                    f"index line {lineno} lacks field(s) {sorted(missing)}",
                    path=index_path, offset=expected_start,
                )
            if int(entry["start"]) != expected_start:
                raise TraceFormatError(
                    f"index line {lineno} starts at frame {entry['start']}, "
                    f"expected {expected_start} (gap or overlap)",
                    path=index_path, offset=expected_start,
                )
            expected_start += int(entry["frames"])
            entries.append(entry)
        if expected_start != self.num_frames:
            raise TraceFormatError(
                f"index covers {expected_start} frame(s) but the header "
                f"declares {self.num_frames}",
                path=index_path, offset=min(expected_start, self.num_frames),
            )
        if len(entries) != int(self.header.get("num_chunks", len(entries))):
            raise TraceFormatError(
                f"index has {len(entries)} chunk(s) but the header declares "
                f"{self.header.get('num_chunks')}",
                path=index_path,
            )
        return entries

    # -- streaming -------------------------------------------------------

    def _load_chunk(self, entry: "dict[str, Any]") -> "tuple[np.ndarray, np.ndarray]":
        start = int(entry["start"])
        declared = int(entry["frames"])
        chunk_path = self.path / str(entry["chunk"])
        if not chunk_path.is_file():
            raise TraceFormatError(
                f"missing chunk file {entry['chunk']}", path=chunk_path, offset=start
            )
        if self.verify:
            expected_sha = entry.get("sha256")
            if expected_sha is not None and _sha256(chunk_path) != expected_sha:
                raise TraceFormatError(
                    f"chunk {entry['chunk']} does not match its indexed SHA-256 "
                    "(truncated or corrupted)",
                    path=chunk_path, offset=start,
                )
        try:
            with np.load(chunk_path, allow_pickle=False) as data:
                images = np.asarray(data["images"])
                times = np.asarray(data["times"], dtype=np.float64)
        except (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile,
                _io.UnsupportedOperation) as exc:
            raise TraceFormatError(
                f"unreadable chunk {entry['chunk']}: {type(exc).__name__}: {exc}",
                path=chunk_path, offset=start,
            ) from exc
        if len(images) != declared or len(times) != declared:
            raise TraceFormatError(
                f"chunk {entry['chunk']} holds {len(images)} image(s) / "
                f"{len(times)} time(s) but the index declares {declared}",
                path=chunk_path, offset=start,
            )
        bad = np.flatnonzero(~np.isfinite(times))
        if bad.size:
            raise TraceFormatError(
                f"non-finite capture time {times[bad[0]]!r}",
                path=chunk_path, offset=start + int(bad[0]),
            )
        return images, times

    def iter_chunks(self) -> "Iterator[tuple[int, np.ndarray, np.ndarray]]":
        """Yield ``(start_offset, images, times)`` per validated chunk."""
        for entry in self._index:
            images, times = self._load_chunk(entry)
            yield int(entry["start"]), images, times

    def __iter__(self) -> "Iterator[TraceFrame]":
        for start, images, times in self.iter_chunks():
            for i in range(len(images)):
                yield TraceFrame(index=start + i, time=float(times[i]), image=images[i])

    def __len__(self) -> int:
        return self.num_frames

    def read_all(self) -> "tuple[np.ndarray, np.ndarray]":
        """Load the whole trace: ``(images (N, ...), times (N,))``."""
        chunks = list(self.iter_chunks())
        if not chunks:
            shape = (0,) + self.frame_shape
            dtype = np.dtype(self.frame_dtype) if self.frame_dtype else np.float64
            return np.zeros(shape, dtype=dtype), np.zeros(0)
        images = np.concatenate([c[1] for c in chunks])
        times = np.concatenate([c[2] for c in chunks])
        return images, times

    def validate(self) -> None:
        """Walk every chunk, raising on the first conformance violation."""
        for _ in self.iter_chunks():
            pass


def write_trace(
    path: "str | Path",
    captures: "Sequence[Capture]",
    metadata: "TraceMetadata | None" = None,
    chunk_frames: int = 64,
) -> "TraceReader":
    """Archive a capture session as a trace; returns a reader over it."""
    with TraceWriter(path, metadata=metadata, chunk_frames=chunk_frames) as writer:
        writer.extend(captures)
    return writer.close()


def trace_info(path: "str | Path") -> "dict[str, Any]":
    """Header summary for ``repro trace info`` (no chunk is opened)."""
    reader = TraceReader(path)
    times_span: Optional[float] = None
    if reader.num_frames and reader.metadata.fps:
        times_span = reader.num_frames / float(reader.metadata.fps)
    return {
        "path": str(reader.path),
        "version": TRACE_SCHEMA_VERSION,
        "num_frames": reader.num_frames,
        "num_chunks": len(reader._index),
        "frame_shape": list(reader.frame_shape),
        "frame_dtype": reader.frame_dtype,
        "duration_s": times_span,
        "metadata": reader.metadata.to_dict(),
    }
